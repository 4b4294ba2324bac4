import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import sampled_order
from paradirac import cli
from paradirac.algebra import AlgebraContext
from paradirac.cli import _build_from_args, main, make_parser
from paradirac.serialize import load_solution, save_solution
from paradirac.verify import dirac_residual


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_algebra_check(capsys, tmp_path):
    out = tmp_path / "alg.json"
    code, stdout, _ = run(capsys, "algebra-check", "--m", "3",
                          "--trials", "100", "--out", str(out))
    assert code == 0
    assert stdout.count("PASS") == 5
    data = json.loads(out.read_text())
    assert data["passed"] is True
    assert len(data["checks"]) == 5


def test_algebra_check_rejects_negative_trials(capsys):
    code, stdout, err = run(capsys, "algebra-check", "--m", "2", "--trials", "-5")
    assert code == 2
    assert "--trials -5 is negative" in err and stdout == ""


def test_build_verify_eval_roundtrip(capsys, tmp_path):
    sol_path = tmp_path / "sol.json"
    code, stdout, _ = run(capsys, "build", "--mode", "parabolic-closed",
                          "--m", "2", "--k", "0", "--profile", "t",
                          "--out", str(sol_path))
    assert code == 0
    assert "exact=True" in stdout

    rep_path = tmp_path / "rep.json"
    code, stdout, _ = run(capsys, "verify", "--solution", str(sol_path),
                          "--out", str(rep_path))
    assert code == 0
    assert "residual identically zero" in stdout
    rep = json.loads(rep_path.read_text())
    assert rep["passed"] is True
    assert rep["exact_zero"] is True
    assert rep["component_conditions"]["passed"] is True

    # evaluate at the origin: only the t-profile block survives there
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2,t\n0,0,1.0\n")
    out_csv = tmp_path / "vals.csv"
    code, _, _ = run(capsys, "eval", "--solution", str(sol_path),
                     "--points", str(pts), "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert float(row["1_re"]) == 1.0


def test_verify_from_build_flags(capsys):
    # exact coefficients: judged on the exact residual, nothing sampled;
    # that residual decays at order 17 when it is sampled
    flags = ["--mode", "gen-monogenic", "--m", "2", "--k", "0",
             "--zeta", "1,0,0,1", "--trunc", "8"]
    code, stdout, _ = run(capsys, "verify", *flags)
    assert code == 0
    assert stdout == ("gen-monogenic: symbolic residual nonzero at spatial "
                      "degrees (17,) (PASS)\n")
    sol = _build_from_args(make_parser().parse_args(["build", *flags]))
    order = sampled_order(dirac_residual(sol).residual_poly, (1.0, 0.5, 0.25), 0)
    assert f"{order:.3f}" == "17.000"
    # float coefficients: the support is read above the roundoff cut (at
    # L = 8 the float tail sits under it, so at L = 4)
    code, stdout, _ = run(capsys, "verify", *flags[:-1], "4", "--backend", "float")
    assert code == 0
    assert stdout == ("gen-monogenic: symbolic residual above roundoff at "
                      "spatial degrees (9,) (PASS)\n")


def test_verify_detects_tampering(capsys, tmp_path):
    sol_path = tmp_path / "sol.json"
    run(capsys, "build", "--mode", "parabolic-closed", "--m", "2",
        "--k", "0", "--profile", "t", "--out", str(sol_path))
    sol = load_solution(str(sol_path))
    from paradirac.verify import perturb_component
    bad = perturb_component(sol, 0, (1, 0), sol.ctx.one())
    save_solution(bad, str(sol_path))
    code, stdout, _ = run(capsys, "verify", "--solution", str(sol_path))
    assert code == 1
    assert "FAIL" in stdout


def test_exact_residual_support_counts_every_term(capsys, tmp_path):
    # a term far below the residual's largest still shows in the support:
    # (d_x + zeta) of 1e-29 x1^3 sits at degrees 2 and 3, beside the
    # truncation tail at degree 2L+k+1 = 10
    sol_path = tmp_path / "sol.json"
    assert run(capsys, "build", "--mode", "gen-monogenic", "--m", "2",
               "--k", "1", "--zeta", "1,1/2,-1,2", "--trunc", "4",
               "--out", str(sol_path))[0] == 0
    data = json.loads(sol_path.read_text())
    data["terms"].append({"exponents": [3, 0], "n": 0, "lambda": [0, 0],
                          "blades": [["1", [f"1/{10 ** 29}", 0]]]})
    sol_path.write_text(json.dumps(data))
    rep_path = tmp_path / "rep.json"
    code, stdout, _ = run(capsys, "verify", "--solution", str(sol_path),
                          "--out", str(rep_path))
    assert code == 1
    assert stdout == ("gen-monogenic: symbolic residual nonzero at spatial "
                      "degrees (2, 3, 10) (FAIL)\n")
    assert json.loads(rep_path.read_text())["support_degrees"] == [2, 3, 10]


def test_main_makes_its_parser_once_and_runs_the_bound_command(
        capsys, tmp_path, monkeypatch):
    built, build = [], cli.cmd_build
    cli._parser.cache_clear()
    sol_path = str(tmp_path / "sol.json")
    flags = ["--mode", "parabolic-closed", "--m", "2", "--k", "1"]
    assert run(capsys, "build", *flags, "--out", sol_path)[0] == 0
    # a command function rebound after the parser was made is the one run
    monkeypatch.setattr(cli, "cmd_build", lambda args: built.append(args) or
                        build(args))
    assert run(capsys, "build", *flags, "--out", sol_path)[0] == 0
    assert run(capsys, "verify", "--solution", sol_path)[0] == 0
    info = cli._parser.cache_info()
    assert (info.misses, info.hits, len(built)) == (1, 2, 1)


def test_build_requires_mode_and_out(capsys, tmp_path):
    with pytest.raises(SystemExit):
        main(["build", "--m", "2"])
    code, _, err = run(capsys, "build", "--mode", "parabolic-closed")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv, message", [
    (["--mode", "gen-monogenic", "--zeta", "1,0,0,1", "--radial", "sylvester"],
     "does not take --radial"),
    (["--mode", "parabolic-closed", "--radial", "direct"], "does not take --radial"),
    (["--mode", "parabolic-closed", "--seeds", '{"a0":"t"}'], "does not take --seeds"),
    (["--mode", "helmholtz", "--zeta", "1,0,0,1", "--seeds", "{}"],
     "does not take --seeds"),
    (["--mode", "parabolic-closed", "--zeta", "1,0,0,1"], "does not take --zeta"),
    (["--mode", "parabolic-recurrence", "--zeta", "1,0,0,1", "--profile", "t"],
     "does not take --zeta"),
    (["--mode", "gen-factored", "--zeta", "1,0,0,1", "--profile", "t"],
     "does not take --profile"),
    (["--mode", "parabolic-recurrence", "--seeds", '{"b0":"t"}', "--profile", "t"],
     "--seeds and --profile"),
], ids=["radial gen", "radial parabolic", "seeds closed", "seeds helmholtz",
        "zeta closed", "zeta recurrence", "profile gen", "profile with seeds"])
def test_build_refuses_a_flag_the_mode_does_not_read(capsys, tmp_path, argv,
                                                     message):
    # each of these once built something other than what was asked, such
    # as profile 1 for a closed build given seeds, and exited 0
    out = tmp_path / "sol.json"
    for command in ("build", "verify"):
        code, stdout, err = run(capsys, command, "--m", "2", "--k", "0",
                                "--trunc", "2", *argv, "--out", str(out))
        assert code == 2 and message in err and stdout == "", command
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--mode", "parabolic-closed", "--profile", "t"],
    ["--mode", "parabolic-recurrence", "--seeds", '{"a0":"t"}'],
    ["--mode", "gen-monogenic", "--zeta", "1,1/2,-1,2"],
], ids=["closed", "recurrence", "gen-monogenic"])
def test_build_refuses_more_basis_indices_than_degrees(capsys, tmp_path, argv):
    # a parabolic build once read the first index alone and built basis
    # element 0, exiting 0
    out = tmp_path / "sol.json"
    code, stdout, err = run(capsys, "build", "--m", "2", "--k", "1",
                            "--basis-index", "0,99", *argv, "--out", str(out))
    assert code == 2 and stdout == ""
    assert "--basis-index list must match --k list" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["build", "--mode", "gen-monogenic", "--m", "2", "--k", "1", "--zeta",
     "1,1/2,-1,2", "--trunc", "2", "--ou", "OUT"],
    ["verify", "--mode", "parabolic-recurrence", "--m", "2", "--k", "0",
     "--seed", '{"a0":"t"}'],
    ["verify", "--mode", "parabolic-closed", "--m", "2", "--k", "0",
     "--prof", "t"],
    ["eval", "--sol", "OUT", "--points", "OUT"],
    ["algebra-check", "--tri", "1"],
], ids=["build --ou", "verify --seed", "verify --prof", "eval --sol",
        "algebra-check --tri"])
def test_a_flag_prefix_is_refused(capsys, tmp_path, argv):
    # argparse once read a unique prefix as the whole flag: --ou as --out
    # (the build was written) and --seed as --seeds (verify exited 0)
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        main([str(out) if a == "OUT" else a for a in argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "paradirac" in captured.err and "error:" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--mode", "gen-monogenic"), ("--m", "2"), ("--k", "0"),
    ("--basis-index", "0"), ("--zeta", "1,0,0,1"), ("--profile", "t"),
    ("--seeds", '{"a0":"t"}'), ("--trunc", "3"), ("--backend", "exact"),
    ("--radial", "direct")])
def test_verify_solution_refuses_a_build_flag(capsys, tmp_path, flag, value):
    # the file holds the build, so a build flag beside it, even one equal
    # to its default, was once ignored and the file judged: exit 0
    sol_path, rep_path = tmp_path / "sol.json", tmp_path / "rep.json"
    assert run(capsys, "build", "--mode", "parabolic-closed", "--m", "2",
               "--k", "0", "--profile", "t", "--out", str(sol_path))[0] == 0
    code, stdout, err = run(capsys, "verify", "--solution", str(sol_path),
                            flag, value, "--out", str(rep_path))
    assert code == 2 and stdout == "" and not rep_path.exists()
    assert f"verify --solution takes no build flag, got {flag}" in err


def test_a_loaded_float_report_is_the_fresh_one(capsys, tmp_path):
    # a float value with imaginary part 0.0 reads back as a complex, so a
    # loaded float build's residual report is the same bytes as a fresh one
    flags = ["--mode", "helmholtz", "--m", "3", "--k", "2",
             "--zeta=1.25,0.5,-0.75,2", "--trunc", "5", "--backend", "float",
             "--radial", "sylvester"]
    sol_path = tmp_path / "sol.json"
    loaded, fresh = tmp_path / "rep.json", tmp_path / "rep_fresh.json"
    assert run(capsys, "build", *flags, "--out", str(sol_path))[0] == 0
    assert run(capsys, "verify", "--solution", str(sol_path),
               "--out", str(loaded))[0] == 0
    assert run(capsys, "verify", *flags, "--out", str(fresh))[0] == 0
    assert loaded.read_bytes() == fresh.read_bytes()


def test_malformed_solution_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", "--solution", str(bad))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("mode", ["parabolic-closed", "parabolic-recurrence"])
@pytest.mark.parametrize("k", [[0, 1], [0]])
def test_parabolic_solution_file_with_a_list_k(capsys, tmp_path, mode, k):
    # build refuses "--k 0,1" for parabolic modes; a file must not get past
    # verify or eval with it either
    code, _, err = run(capsys, "build", "--mode", mode, "--m", "2",
                       "--k", "0,1", "--out", str(tmp_path / "x.json"))
    assert code == 2 and "single --k" in err
    sol_path = tmp_path / "sol.json"
    assert run(capsys, "build", "--mode", mode, "--m", "2", "--k", "0",
               "--profile", "t", "--out", str(sol_path))[0] == 0
    data = json.loads(sol_path.read_text())
    data["k"] = k
    sol_path.write_text(json.dumps(data))
    points = tmp_path / "pts.csv"
    points.write_text("x1,x2,t\n0.5,0.5,0\n")
    for argv in (["verify", "--solution", str(sol_path)],
                 ["eval", "--solution", str(sol_path), "--points", str(points)]):
        code, stdout, err = run(capsys, *argv)
        assert code == 2, argv
        assert "field 'k'" in err and mode in err and stdout == ""


@pytest.mark.parametrize("mode, edit, message", [
    # the file at "k": 3 verified FAIL and at "k": [1, 0] PASS before k was
    # checked at load
    ("gen-monogenic", {"k": 3}, "lowest head degree 3, but the body's lowest "
                                "spatial degree is 1"),
    ("gen-monogenic", {"k": [1, 0]}, "lowest head degree 0"),
    ("gen-monogenic", {"L": 3}, "degree 10, above 2L+max(k)+1 = 8"),
    ("gen-invertible", {"k": [1, 1], "L": 3}, "above 2L+max(k)+1 = 8"),
    ("helmholtz", {"k": 2}, "lowest head degree 2"),
    ("helmholtz", {"L": 3}, "degree 9, above 2L+max(k) = 7"),
], ids=["k above", "k list below", "L below", "two heads L below",
        "helmholtz k above", "helmholtz L below"])
def test_series_solution_file_k_and_L_checked_against_the_body(
        capsys, tmp_path, mode, edit, message):
    sol_path = tmp_path / "sol.json"
    assert run(capsys, "build", "--mode", mode, "--m", "2", "--k", "1",
               "--zeta", "1,1/2,-1,2", "--trunc", "4",
               "--out", str(sol_path))[0] == 0
    assert run(capsys, "verify", "--solution", str(sol_path))[0] == 0
    data = json.loads(sol_path.read_text())
    data.update(edit)
    sol_path.write_text(json.dumps(data))
    points = tmp_path / "pts.csv"
    points.write_text("x1,x2,t\n0.5,0.5,0\n")
    for argv in (["verify", "--solution", str(sol_path)],
                 ["eval", "--solution", str(sol_path), "--points", str(points)]):
        code, stdout, err = run(capsys, *argv)
        assert code == 2, argv
        assert message in err and stdout == ""


@pytest.mark.parametrize("edit, code, message", [
    ({}, 1, "FAIL"),
    ({"k": 0}, 2, "lowest head degree 0, but the body's lowest spatial "
                  "degree is 1"),
    ({"L": 2}, 2, "degree 8, above 2L+max(k)+1 = 6"),
], ids=["as built", "k below", "L below"])
def test_parabolic_solution_file_k_and_L_checked_against_the_body(
        capsys, tmp_path, edit, code, message):
    # a truncated build with 1/1000 x1^7 added verifies FAIL; at "k": 0 or
    # "L": 2 its pass floor 2L+k fell to 5 and it verified PASS before k
    # and L were checked at load
    sol_path = tmp_path / "sol.json"
    assert run(capsys, "build", "--mode", "parabolic-closed", "--m", "2",
               "--k", "1", "--profile", "exp:-1", "--trunc", "3",
               "--backend", "float", "--out", str(sol_path))[0] == 0
    data = json.loads(sol_path.read_text())
    data["terms"].append({"exponents": [7, 0], "n": 0, "lambda": [-1.0, 0],
                          "blades": [["1", [0.001, 0]]]})
    data.update(edit)
    sol_path.write_text(json.dumps(data))
    got, stdout, err = run(capsys, "verify", "--solution", str(sol_path))
    assert got == code
    assert message in (stdout if code == 1 else err)


def test_a_polynomial_parabolic_file_keeps_the_requested_L(capsys, tmp_path):
    # a polynomial profile terminates the series whatever --trunc says, so
    # the body may reach past 2L+k+1 and L is left unchecked
    sol_path = tmp_path / "sol.json"
    assert run(capsys, "build", "--mode", "parabolic-closed", "--m", "2",
               "--k", "1", "--profile", "poly:0,0,0,1", "--trunc", "0",
               "--out", str(sol_path))[0] == 0
    data = json.loads(sol_path.read_text())
    assert data["L"] == 0 and max(sum(row["exponents"])
                                  for row in data["terms"]) > 2
    code, stdout, _ = run(capsys, "verify", "--solution", str(sol_path))
    assert code == 0 and "(PASS)" in stdout


def test_series_solution_file_with_several_head_degrees_loads(capsys, tmp_path):
    sol_path = tmp_path / "sol.json"
    assert run(capsys, "build", "--mode", "gen-factored", "--m", "2",
               "--k", "2,0", "--zeta", "1,1/2,-1,2", "--trunc", "3",
               "--out", str(sol_path))[0] == 0
    code, stdout, _ = run(capsys, "verify", "--solution", str(sol_path))
    assert code == 0 and "(PASS)" in stdout


def test_float_residual_under_the_roundoff_cut_keeps_its_expected_order(
        capsys, tmp_path):
    rep_path = tmp_path / "rep.json"
    code, stdout, _ = run(capsys, "verify", "--mode", "gen-monogenic", "--m", "2",
                          "--k", "0", "--zeta", "1,0,0,1", "--trunc", "8",
                          "--backend", "float", "--out", str(rep_path))
    assert code == 0
    assert stdout == ("gen-monogenic: symbolic residual above roundoff at "
                      "spatial degrees () (PASS)\n")
    rep = json.loads(rep_path.read_text())
    assert rep["expected_order"] == 17.0 and rep["sup_norm_by_radius"] == []


def test_recurrence_seeds_flag(capsys, tmp_path):
    sol_path = tmp_path / "rec.json"
    seeds = json.dumps({"a0": "t", "b2": "poly:0,-0.5"})
    code, stdout, _ = run(capsys, "build", "--mode", "parabolic-recurrence",
                          "--m", "2", "--k", "0", "--seeds", seeds,
                          "--out", str(sol_path))
    assert code == 0
    code, _, _ = run(capsys, "verify", "--solution", str(sol_path))
    assert code == 0


def test_helmholtz_and_float_backend(capsys, tmp_path):
    sol_path = tmp_path / "helm.json"
    code, _, _ = run(capsys, "build", "--mode", "helmholtz", "--m", "2",
                     "--k", "1", "--zeta", "1,0,0,1", "--trunc", "6",
                     "--backend", "float", "--out", str(sol_path))
    assert code == 0
    code, stdout, _ = run(capsys, "verify", "--solution", str(sol_path))
    assert code == 0
    assert "at spatial degrees (13,) (PASS)" in stdout


def test_exponential_profile_cli(capsys, tmp_path):
    sol_path = tmp_path / "exp.json"
    code, stdout, _ = run(capsys, "build", "--mode", "parabolic-closed",
                          "--m", "3", "--k", "0", "--profile", "exp:-1",
                          "--trunc", "6", "--out", str(sol_path))
    assert code == 0
    assert "exact=False" in stdout
    code, _, _ = run(capsys, "verify", "--solution", str(sol_path))
    assert code == 0


def test_unknown_mode(capsys):
    code, _, err = run(capsys, "build", "--mode", "spherical", "--m", "2",
                       "--out", "/tmp/x.json")
    assert code == 2
    assert "error:" in err


# -- malformed outside input exits 2 with a message ----------------------------------


def _solution_dict(capsys, tmp_path):
    sol_path = tmp_path / "sol.json"
    run(capsys, "build", "--mode", "parabolic-closed", "--m", "2", "--k", "0",
        "--profile", "t", "--out", str(sol_path))
    return json.loads(sol_path.read_text())


def _mangle_no_m(data):
    del data["m"]
    return data


def _mangle_terms_int(data):
    data["terms"] = 5
    return data


def _mangle_row_no_lambda(data):
    del data["terms"][0]["lambda"]
    return data


def _mangle_top_level_list(data):
    return [data]


def _mangle_negative_L(data):
    data["L"] = -2
    return data


def _mangle_repeated_label_overflow(data):
    # an exact value and a float under one label, whose sum overflows
    row = data["terms"][0]
    label = row["blades"][0][0]
    row["blades"] = [[label, ["1e400", 0]], [label, [1.5, 0]]]
    return data


@pytest.mark.parametrize("mangle", [_mangle_no_m, _mangle_terms_int,
                                    _mangle_row_no_lambda,
                                    _mangle_top_level_list,
                                    _mangle_negative_L,
                                    _mangle_repeated_label_overflow])
def test_verify_rejects_malformed_solution(capsys, tmp_path, mangle):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mangle(_solution_dict(capsys, tmp_path))))
    code, _, err = run(capsys, "verify", "--solution", str(bad))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("field, value, message", [
    ("k", [], "field 'k' is an empty list"),
    ("mode", "spherical", "field 'mode' is 'spherical'"),
])
def test_solution_file_rejects_bad_k_and_mode_at_load(capsys, tmp_path, field,
                                                      value, message):
    data = _solution_dict(capsys, tmp_path)
    data[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2,t\n0.5,0.5,0\n")
    for argv in (["verify", "--solution", str(bad)],
                 ["eval", "--solution", str(bad), "--points", str(pts)]):
        code, stdout, err = run(capsys, *argv)
        assert code == 2
        assert message in err and stdout == ""


def test_eval_rejects_short_points_row(capsys, tmp_path):
    sol_path = tmp_path / "sol.json"
    run(capsys, "build", "--mode", "parabolic-closed", "--m", "2", "--k", "0",
        "--profile", "t", "--out", str(sol_path))
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2,t\n0.5,0.5,1\n0.25\n")
    code, _, err = run(capsys, "eval", "--solution", str(sol_path),
                       "--points", str(pts))
    assert code == 2
    assert "error:" in err


def test_eval_rejects_a_row_without_the_declared_t(capsys, tmp_path):
    sol_path = tmp_path / "sol.json"
    run(capsys, "build", "--mode", "parabolic-closed", "--m", "2", "--k", "0",
        "--profile", "t", "--out", str(sol_path))
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2,t\n0.5,0.5,1\n0.5,0.5\n")
    code, stdout, err = run(capsys, "eval", "--solution", str(sol_path),
                            "--points", str(pts))
    assert code == 2
    assert "points row 3 has no t cell" in err and stdout == ""
    # a file whose header declares no t still reads t = 0
    pts.write_text("x1,x2\n0.5,0.5\n")
    code, stdout, _ = run(capsys, "eval", "--solution", str(sol_path),
                          "--points", str(pts))
    assert code == 0 and stdout.splitlines()[1].startswith("0.5,0.5,0.0,")


# JSON nested deeper than the parser follows
DEEP = "[" * 5000 + "]" * 5000


@pytest.mark.parametrize("argv", [
    ["--mode", "parabolic-closed", "--profile", "[1]"],
    ["--mode", "parabolic-recurrence", "--seeds", "[1]"],
    ["--mode", "parabolic-closed", "--profile", DEEP],
    ["--mode", "parabolic-recurrence", "--seeds", DEEP],
])
def test_build_rejects_malformed_profile_json(capsys, tmp_path, argv):
    code, _, err = run(capsys, "build", "--m", "2", "--k", "0", *argv,
                       "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "error:" in err


def test_eval_writes_stdout(capsys, tmp_path):
    sol_path = tmp_path / "sol.json"
    run(capsys, "build", "--mode", "parabolic-closed", "--m", "2", "--k", "0",
        "--profile", "t", "--out", str(sol_path))
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2,t\n0,0,1.0\n0.5,0,2\n")
    code, stdout, _ = run(capsys, "eval", "--solution", str(sol_path),
                          "--points", str(pts))
    assert code == 0
    lines = stdout.split("\n")
    assert lines[0].startswith("x1,x2,t,") and lines[-1] == ""
    assert len(lines) == 4 and "\r" not in stdout


# the message names the value's size, not its digits
@pytest.mark.parametrize("argv, size", [
    (["--mode", "parabolic-closed", "--profile", '[{"coeff": ["1e400", 0]}]'], 400),
    (["--mode", "gen-monogenic", "--zeta", "1e400,0,0,1"], 400),
    (["--mode", "gen-monogenic", "--zeta", "1e4000,0,0,1"], 4000),
])
def test_float_overflow_exits_2(capsys, tmp_path, argv, size):
    code, _, err = run(capsys, "build", "--backend", "float", *argv,
                       "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert err == f"error: a value of about 1e{size} is outside the float range\n"


# a decimal exponent is expanded exactly, so this one would never finish
HUGE = "1e1000000000"


@pytest.mark.parametrize("argv", [
    ["--mode", "gen-monogenic", "--zeta", f"{HUGE},0,0,1"],
    ["--mode", "parabolic-closed", "--profile", f"poly:1,{HUGE}"],
    ["--mode", "parabolic-closed", "--profile", f'[{{"coeff": ["-{HUGE}", 0]}}]'],
])
def test_huge_decimal_exponent_in_flags_exits_2(capsys, tmp_path, argv):
    code, _, err = run(capsys, "build", *argv, "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "exponent" in err


def test_huge_decimal_exponent_in_solution_file_exits_2(capsys, tmp_path):
    data = _solution_dict(capsys, tmp_path)
    data["terms"][0]["blades"][0][1] = [HUGE.replace("e", "e-"), 0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", "--solution", str(bad))
    assert code == 2
    assert "exponent" in err



def test_gen_invertible_singular_zeta_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "build", "--mode", "gen-invertible", "--m", "2",
                       "--k", "0", "--zeta", "0,1,0,0",
                       "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "det" in err


@pytest.mark.parametrize("build, row", [
    # x1^2 of the rho^2 terms overflows in x ** d
    (["--mode", "gen-monogenic", "--zeta", "1,0,0,1", "--trunc", "4"], "1e200,0.5,0"),
    # e^{t} overflows in cmath.exp
    (["--mode", "parabolic-closed", "--profile", "exp:1", "--trunc", "4"], "0.5,0.5,1000"),
    # non-finite cells are refused when the points are read
    (["--mode", "parabolic-closed", "--profile", "t"], "nan,0.5,inf"),
    (["--mode", "parabolic-closed", "--profile", "t"], "0.5,1e400,0"),
    # cmath.exp(709.7) is finite but complex(w) * exp is not
    (["--mode", "parabolic-closed", "--profile", "exp:1", "--trunc", "4",
      "--backend", "float"], "2,2,709.7"),
])
def test_eval_rejects_point_it_cannot_evaluate(capsys, tmp_path, build, row):
    sol_path = tmp_path / "sol.json"
    code, _, _ = run(capsys, "build", "--m", "2", "--k", "0", *build,
                     "--out", str(sol_path))
    assert code == 0
    pts = tmp_path / "pts.csv"
    pts.write_text(f"x1,x2,t\n0.5,0.5,0.5\n{row}\n")
    code, _, err = run(capsys, "eval", "--solution", str(sol_path),
                       "--points", str(pts), "--out", str(tmp_path / "v.csv"))
    assert code == 2
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--radii=1,0.5", "--order-tol=0.2", "--seed=0"])
def test_verify_takes_no_sampling_flag(capsys, flag):
    # a float residual is judged by its support alone: nothing is sampled,
    # so there are no radii, order tolerance or direction seed to give
    # (argparse reads --seed as an abbreviation of --seeds, which the mode
    # refuses)
    try:
        code = main(["verify", "--mode", "gen-monogenic", "--m", "2", "--k", "0",
                     "--zeta", "1,0,0,1", "--trunc", "4", "--backend", "float",
                     flag])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err or "does not take --seeds" in err


def test_eval_leaves_no_partial_file(capsys, tmp_path):
    sol_path, out = tmp_path / "sol.json", tmp_path / "v.csv"
    assert run(capsys, "build", "--mode", "gen-monogenic", "--m", "2", "--k", "1",
               "--zeta", "1,1/2,-1,2", "--trunc", "3", "--out", str(sol_path))[0] == 0
    pts = tmp_path / "pts.csv"
    # the first point is written before the second overflows
    pts.write_text("x1,x2,t\n0.5,0.5,0\n1e200,1e200,0\n")
    code, _, err = run(capsys, "eval", "--solution", str(sol_path),
                       "--points", str(pts), "--out", str(out))
    assert code == 2 and "outside the float range" in err
    assert not out.exists()


def test_build_checks_out_before_building(capsys, monkeypatch):
    def build(args):
        raise AssertionError("built without --out")
    monkeypatch.setattr(cli, "_build_from_args", build)
    code, _, err = run(capsys, "build", "--mode", "gen-monogenic", "--m", "2",
                       "--k", "0", "--zeta", "1,0,0,1")
    assert code == 2 and "build requires --out" in err


@pytest.mark.parametrize("argv", [
    ["--mode", "gen-monogenic", "--zeta", "1,0,0,1"],
    ["--mode", "gen-factored", "--zeta", "1,0,0,1"],
    ["--mode", "gen-invertible", "--zeta", "1,0,0,1"],
    ["--mode", "helmholtz", "--zeta", "1,0,0,1"],
    ["--mode", "parabolic-recurrence", "--profile", "exp:-1"],
    ["--mode", "parabolic-recurrence", "--profile", "t"],
    ["--mode", "parabolic-closed", "--profile", "exp:-1"],
])
def test_build_rejects_negative_trunc(capsys, tmp_path, argv):
    out = tmp_path / "x.json"
    code, _, err = run(capsys, "build", "--m", "2", "--k", "0", *argv,
                       "--trunc", "-2", "--out", str(out))
    assert code == 2
    assert "error:" in err and not out.exists()


@pytest.mark.parametrize("argv", [
    ["--mode", "parabolic-closed", "--profile", '[{"coeff": [true, 0]}]'],
    ["--mode", "parabolic-closed", "--profile", '[{"coeff": [1, false]}]'],
    ["--mode", "parabolic-closed", "--profile", '[{"lambda": [false, 0]}]'],
    ["--mode", "parabolic-recurrence", "--seeds", '{"a0": {"coeff": {"e1": [true, 0]}}}'],
])
def test_build_rejects_boolean_profile_scalars(capsys, tmp_path, argv):
    code, _, err = run(capsys, "build", "--m", "2", "--k", "0", *argv,
                       "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "bad scalar part" in err


@pytest.mark.parametrize("where", ["lambda", "blade"])
def test_solution_file_rejects_boolean_scalars(capsys, tmp_path, where):
    data = _solution_dict(capsys, tmp_path)
    row = data["terms"][0]
    if where == "lambda":
        row["lambda"] = [True, 0]
    else:
        row["blades"][0][1] = [True, 0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    for argv in (["verify", "--solution", str(bad)],
                 ["eval", "--solution", str(bad), "--points", str(bad)]):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "bad scalar part" in err and "Traceback" not in err


# zeta this large overflows a float build to infinities and NaNs
OVERFLOWING = ["--mode", "gen-monogenic", "--m", "2", "--k", "1", "--zeta",
               "1e200,0,0,1e200", "--backend", "float", "--trunc", "4"]


def test_build_rejects_non_finite_body(capsys, tmp_path):
    out = tmp_path / "big.json"
    code, _, err = run(capsys, "build", *OVERFLOWING, "--out", str(out))
    assert code == 2
    assert "non-finite" in err and not out.exists()


def test_verify_rejects_non_finite_build(capsys):
    argv = ["--mode", "helmholtz"] + OVERFLOWING[2:]
    code, _, err = run(capsys, "verify", *argv)
    assert code == 2
    assert "non-finite" in err


@pytest.mark.parametrize("where", ["lambda", "blade"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_solution_file_rejects_non_finite_scalars(capsys, tmp_path, where, value):
    sol_path = tmp_path / "sol.json"
    code, _, _ = run(capsys, "build", *OVERFLOWING[:7], "1,0,0,1",
                     *OVERFLOWING[8:], "--out", str(sol_path))
    assert code == 0
    code, stdout, _ = run(capsys, "verify", "--solution", str(sol_path))
    assert code == 0 and "at spatial degrees (10,) (PASS)" in stdout
    data = json.loads(sol_path.read_text())
    row = data["terms"][0]
    if where == "lambda":
        row["lambda"] = [value, 0]
    else:
        row["blades"][0][1] = [value, 0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))    # as Infinity, -Infinity or NaN
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2,t\n0.5,0.5,0\n")
    for argv in (["verify", "--solution", str(bad)],
                 ["eval", "--solution", str(bad), "--points", str(pts)]):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "not finite" in err and "Traceback" not in err


def test_build_rejects_dimension_a_solution_file_cannot_hold(capsys, tmp_path):
    out = tmp_path / "m65.json"
    code, _, err = run(capsys, "build", "--mode", "parabolic-closed", "--m", "65",
                       "--k", "0", "--profile", "t", "--out", str(out))
    assert code == 2
    assert "m=65 outside 1..64" in err and not out.exists()


# an exact part beyond the float range beside a float part: as a 401-digit
# "p/q" string, a decimal string and a JSON int
BEYOND_FLOAT = [["1" + "0" * 400, 0.5], ["1e400", 0.5], ["1e400", 0.0],
                [10 ** 400, 0.5]]


@pytest.mark.parametrize("pair", BEYOND_FLOAT)
def test_solution_file_rejects_exact_part_beyond_float_range(capsys, tmp_path, pair):
    data = _solution_dict(capsys, tmp_path)
    data["terms"][0]["blades"][0][1] = pair
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2,t\n0.5,0.5,0\n")
    for argv in (["verify", "--solution", str(bad)],
                 ["eval", "--solution", str(bad), "--points", str(pts)]):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "float range" in err


@pytest.mark.parametrize("profile", [[{"coeff": pair}] for pair in BEYOND_FLOAT]
                         + [[{"coeff": ["1e400", 0]}, {"coeff": [0.5, 0]}]])
def test_build_rejects_profile_part_beyond_float_range(capsys, tmp_path, profile):
    code, _, err = run(capsys, "build", "--mode", "parabolic-closed", "--m", "2",
                       "--k", "0", "--profile", json.dumps(profile),
                       "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "float range" in err


@pytest.mark.parametrize("profile", ["exp:1e400", '[{"lambda": ["1e400", 0]}]'])
def test_build_rejects_an_exact_lambda_beyond_float_range(capsys, tmp_path,
                                                          profile):
    # the writer orders terms by complex(lambda), and eval evaluates
    # e^(lambda t): the lambda is refused where it comes in
    out = tmp_path / "s.json"
    code, _, err = run(capsys, "build", "--mode", "parabolic-closed", "--m", "2",
                       "--k", "0", "--profile", profile, "--out", str(out))
    assert code == 2 and not out.exists()
    assert err == "error: a value of about 1e400 is outside the float range\n"


def _file_with_lambda_beyond_float_range(capsys, tmp_path):
    data = _solution_dict(capsys, tmp_path)
    data["terms"][0]["lambda"] = ["1e400", 0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    return bad


def test_verify_rejects_a_file_lambda_beyond_float_range(capsys, tmp_path):
    bad = _file_with_lambda_beyond_float_range(capsys, tmp_path)
    out = tmp_path / "rep.json"
    code, _, err = run(capsys, "verify", "--solution", str(bad), "--out", str(out))
    assert code == 2 and not out.exists()
    assert err == "error: a value of about 1e400 is outside the float range\n"


def test_eval_rejects_a_file_lambda_beyond_float_range(capsys, tmp_path):
    bad = _file_with_lambda_beyond_float_range(capsys, tmp_path)
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2,t\n0.5,0.5,0\n")
    code, out, err = run(capsys, "eval", "--solution", str(bad), "--points", str(pts))
    assert code == 2 and out == ""
    assert err == "error: a value of about 1e400 is outside the float range\n"


# an exact term beyond the float range and a float term at another key
SPLIT_BEYOND_FLOAT = [{"coeff": ["1e400", 0]}, {"coeff": [0.5, 0], "n": 1}]


def test_build_exits_2_when_a_profile_sum_leaves_the_float_range(capsys, tmp_path):
    # the closed form adds the two terms' series: a sum that float() cannot
    # hold is a message and exit 2, not an OverflowError traceback
    out = tmp_path / "x.json"
    code, _, err = run(capsys, "build", "--mode", "parabolic-closed", "--m", "2",
                       "--k", "0", "--profile", json.dumps(SPLIT_BEYOND_FLOAT),
                       "--out", str(out))
    assert code == 2
    assert "float range" in err and "Traceback" not in err and not out.exists()


def test_recurrence_seeds_beyond_the_float_range_never_trace_back(capsys, tmp_path):
    # the same terms as a recurrence seed: the build and its residual never
    # add the exact term to a float, so they succeed; evaluating the body
    # then needs the exact term as a float, which exits 2
    out = tmp_path / "x.json"
    seeds = json.dumps({"a0": SPLIT_BEYOND_FLOAT})
    code, _, err = run(capsys, "build", "--mode", "parabolic-recurrence", "--m", "2",
                       "--k", "0", "--seeds", seeds, "--out", str(out))
    assert code == 0, err
    code, stdout, err = run(capsys, "verify", "--solution", str(out))
    assert code == 0 and "PASS" in stdout, err
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2,t\n0.5,0.5,0.5\n")
    code, _, err = run(capsys, "eval", "--solution", str(out), "--points", str(pts))
    assert code == 2
    assert "float range" in err and "Traceback" not in err


@pytest.mark.parametrize("label", ["e2e1", "e1eps"])
def test_non_canonical_blade_labels_exit_2(capsys, tmp_path, label):
    profile = json.dumps([{"coeff": {label: [1, 0]}}])
    code, _, err = run(capsys, "build", "--mode", "parabolic-closed", "--m", "2",
                       "--k", "0", "--profile", profile,
                       "--out", str(tmp_path / "x.json"))
    assert code == 2 and "not canonical" in err
    data = _solution_dict(capsys, tmp_path)
    data["terms"][0]["blades"][0][0] = label
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2,t\n0.5,0.5,0\n")
    for argv in (["verify", "--solution", str(bad)],
                 ["eval", "--solution", str(bad), "--points", str(pts)]):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "not canonical" in err


def test_solution_file_nested_too_deeply_exits_2(capsys, tmp_path):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 200000 + "]" * 200000)
    code, _, err = run(capsys, "verify", "--solution", str(bad))
    assert code == 2
    assert "nested too deeply" in err and str(bad) in err


def test_eval_rejects_points_cell_beyond_csv_field_limit(capsys, tmp_path):
    sol_path = tmp_path / "sol.json"
    run(capsys, "build", "--mode", "parabolic-closed", "--m", "2", "--k", "0",
        "--profile", "t", "--out", str(sol_path))
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2,t\n" + "1" * 131073 + ",0,0\n")
    code, _, err = run(capsys, "eval", "--solution", str(sol_path),
                       "--points", str(pts))
    assert code == 2
    assert "field larger than field limit" in err and str(pts) in err


# -- the flag parsers take any text ------------------------------------------------

NUMBER_TEXTS = st.one_of(
    st.integers().map(str), st.floats().map(repr), st.text(max_size=6),
    st.sampled_from(["1e400", "-2.5e-400", "1e99999999", "1/3", "-7/0", "True",
                     "1" + "0" * 400, "0x1p3", "1_000"]))
SCALAR_PARTS = st.one_of(
    st.integers(-9, 9), st.just(10 ** 400), st.floats(), st.booleans(),
    st.none(), st.sampled_from(["1e400", "1/3", "2.5e-3", "-1e-400", "x"]))
PAIRS = st.one_of(st.tuples(SCALAR_PARTS, SCALAR_PARTS).map(list),
                  st.lists(SCALAR_PARTS, max_size=3), SCALAR_PARTS)
TERM_ROWS = st.fixed_dictionaries({}, optional={
    "coeff": st.one_of(PAIRS, st.dictionaries(
        st.sampled_from(["1", "e1", "e1e2", "eps", "e9", "e1e1", "x"]), PAIRS,
        max_size=3)),
    "n": st.one_of(st.integers(-2, 5), st.booleans(), st.floats()),
    "lambda": PAIRS})
JSON_PROFILES = st.one_of(TERM_ROWS, st.lists(TERM_ROWS, max_size=4), SCALAR_PARTS)
COMPACT_PROFILES = st.one_of(
    st.sampled_from(["1", "t", "t^3", "t^-1", "exp:", "poly:"]),
    st.lists(NUMBER_TEXTS, min_size=1, max_size=4).map(lambda v: "poly:" + ",".join(v)),
    st.lists(NUMBER_TEXTS, min_size=1, max_size=3).map(lambda v: "exp:" + ":".join(v)),
    NUMBER_TEXTS.map(lambda v: "t^" + v), st.text(max_size=12))


def _deep(templates):
    """JSON text with an array nested up to 6000 deep at a template's %s."""
    return st.builds(lambda tmpl, d: tmpl % ("[" * d + "]" * d),
                     st.sampled_from(templates), st.integers(0, 6000))


FLAG_TEXTS = st.one_of(
    st.tuples(st.just("parse_profile"), st.one_of(
        COMPACT_PROFILES, JSON_PROFILES.map(json.dumps),
        _deep(['%s', '[{"coeff": %s}]', '{"lambda": [0, %s]}']))),
    st.tuples(st.just("parse_seeds"), st.one_of(
        st.dictionaries(st.text(max_size=3), st.one_of(COMPACT_PROFILES, JSON_PROFILES),
                        max_size=3).map(json.dumps),
        _deep(['%s', '{"a0": %s}', '{"a0": [{"coeff": %s}]}']), st.text(max_size=8))),
    st.tuples(st.just("parse_zeta"), st.one_of(
        st.lists(NUMBER_TEXTS, min_size=1, max_size=9).map(",".join),
        st.text(max_size=12))))


@settings(max_examples=300, deadline=None)
@given(FLAG_TEXTS, st.sampled_from(["exact", "float"]))
@example(("parse_profile", '[{"coeff": ["1e400", 0.5]}]'), "exact")
@example(("parse_profile", '[{"coeff": ["1e400", 0]}, {"coeff": [0.5, 0]}]'), "exact")
@example(("parse_profile", DEEP), "float")
@example(("parse_seeds", '{"a0": ' + DEEP + "}"), "exact")
@example(("parse_zeta", "1e400,0,0,1"), "float")
def test_flag_parsers_parse_or_raise_value_error(case, backend):
    """--profile, --seeds and --zeta parse any text, or raise ValueError."""
    name, text = case
    ctx = AlgebraContext(2)
    try:
        if name == "parse_zeta":
            cli.parse_zeta(text, backend)
        else:
            getattr(cli, name)(text, ctx, backend)
    except ValueError:
        pass
