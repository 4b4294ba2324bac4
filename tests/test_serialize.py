import functools
import json
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import decode_scalar_reference, solution_from_dict_reference
from paradirac import cli
from paradirac.algebra import AlgebraContext, Multivector
from paradirac.builders import (SeriesSolution, build_generalized,
                                build_helmholtz, build_parabolic_closed)
from paradirac.harmonics import harmonic_basis, monogenic_basis
from paradirac.scalars import GaussianRational
from paradirac.serialize import (SCHEMA_VERSION, _dumps, check_report_to_dict,
                                 decode_scalar, encode_scalar, load_solution,
                                 read_points_csv, residual_report_to_dict,
                                 save_report, save_solution, solution_from_dict,
                                 solution_to_dict, write_eval_csv)
from paradirac.timefn import SpaceTimeFunction, TimeFunction
from paradirac.verify import CheckReport, ResidualReport, dirac_residual
from paradirac.zeta import ZetaElement
from test_golden import DIGESTS, EVAL_DIGESTS


@pytest.mark.parametrize("value", [
    3,
    -7,
    Fraction(2, 3),
    Fraction(-11, 4),
    GaussianRational(Fraction(1, 2), Fraction(-3, 5)),
    1.5,
    -0.125,
    2.5 + 0.5j,
    1.5 + 0j,
    -0j,
])
def test_scalar_codec_roundtrip(value):
    pair = encode_scalar(value)
    assert isinstance(pair, list) and len(pair) == 2
    back = decode_scalar(pair)
    assert complex(back) == complex(value)
    # a float comes back a float and a complex a complex, imaginary part
    # 0.0 included
    assert type(back) is type(value) or not isinstance(value, (float, complex))
    # exactness class survives: rationals come back rational
    if isinstance(value, (int, Fraction, GaussianRational)):
        assert not isinstance(back, (float, complex))


@pytest.mark.parametrize("pair", [[True, 0], [0, False], [1, True],
                                  ["1/2", True], [False, 0.5]])
def test_boolean_scalar_parts_are_rejected(pair):
    with pytest.raises(ValueError, match="bad scalar part"):
        decode_scalar(pair)


def test_scalar_codec_is_json_safe():
    for value in (Fraction(1, 3), GaussianRational(Fraction(1, 3), Fraction(2)),
                  0.1, 1 + 2j):
        assert decode_scalar(json.loads(json.dumps(encode_scalar(value)))) \
            == decode_scalar(encode_scalar(value))


def build_samples():
    ctx = AlgebraContext(2)
    M = monogenic_basis(ctx, 1)[0]
    a = TimeFunction.polynomial(ctx, [1, -2])
    exp = TimeFunction.term(ctx, 1, n=1, lam=Fraction(-1, 2))
    z = ZetaElement(1, Fraction(1, 2), -1, 2)
    return [
        build_parabolic_closed(M, a),
        build_parabolic_closed(M, exp, L=4),
        build_generalized(M, z, L=3),
        build_helmholtz(harmonic_basis(ctx, 1)[0], z, L=3),
        build_helmholtz(harmonic_basis(ctx, 0) + harmonic_basis(ctx, 2),
                        z, L=2),
    ]


def test_a_real_gaussian_value_of_an_inexact_body_encodes_canonically():
    # an inexact body keeps its exact raw values as they were added, so a
    # Gaussian sum with a zero imaginary part stays a GaussianRational;
    # it is written as the same bytes as its canonical int
    ctx = AlgebraContext(1)
    x0, x1 = ((0,), 0, 0), ((1,), 0, 0)

    def body(*terms):
        return SpaceTimeFunction(ctx, {key: ctx.scalar(c) for key, c in terms})

    F = (body((x0, 0.5)) + body((x1, GaussianRational(1, 1)))
         + body((x1, GaussianRational(1, -1))))
    v = F.coeffs(x1)[0]
    assert type(v) is GaussianRational and v == 2
    assert json.dumps(encode_scalar(v)) == json.dumps(encode_scalar(2))
    canonical = body((x0, 0.5), (x1, 2))
    assert type(canonical.coeffs(x1)[0]) is int

    def text(F):
        return json.dumps(solution_to_dict(SeriesSolution(
            body=F, mode="parabolic-closed", m=1, k=0, L=3, exact=False)))
    assert text(F) == text(canonical)


def test_solution_dict_roundtrip():
    for sol in build_samples():
        data = solution_to_dict(sol)
        assert data["schema_version"] == SCHEMA_VERSION
        back = solution_from_dict(data)
        assert back.body == sol.body
        assert (back.mode, back.m, back.k, back.L, back.exact) \
            == (sol.mode, sol.m, sol.k, sol.L, sol.exact)
        assert back.zeta == sol.zeta


def test_solution_dict_is_deterministic():
    sol = build_samples()[0]
    assert solution_to_dict(sol) == solution_to_dict(sol)
    s = json.dumps(solution_to_dict(sol), sort_keys=True)
    assert json.loads(s) == solution_to_dict(sol)


def test_save_load_file(tmp_path):
    sol = build_samples()[2]
    path = tmp_path / "sol.json"
    save_solution(sol, str(path))
    back = load_solution(str(path))
    assert back.body == sol.body
    assert back.zeta == sol.zeta


def test_a_repeated_label_adds_as_a_repeated_key_does(tmp_path):
    # one coefficient of an exact parabolic file split into two halves,
    # under one label or across two rows of one key, reads back as the
    # same body, which verify passes; the repeated label was once read as
    # its last half alone, and verify failed
    path = tmp_path / "sol.json"
    assert cli.main(["build", "--mode", "parabolic-closed", "--m", "2", "--k", "1",
                     "--profile", "poly:1,-2,1/2", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    sol = solution_from_dict(data)
    label, value = data["terms"][0]["blades"][0]
    half = encode_scalar(decode_scalar(value) / 2)
    by_label, by_key = json.loads(path.read_text()), json.loads(path.read_text())
    by_label["terms"][0]["blades"][:1] = [[label, half], [label, half]]
    row = by_key["terms"][0]
    row["blades"][0] = [label, half]
    by_key["terms"].append(dict(row, blades=[[label, half]]))
    for changed in (by_label, by_key):
        back = solution_from_dict(changed)
        assert back.body == sol.body and dirac_residual(back).passed
        _loads_like_reference(changed)


@pytest.mark.parametrize("values", [
    [[1e308, 0], [1e308, 0]],           # floats whose sum is not finite
    [["1e400", 0], [1.5, 0]],           # an exact value beyond a float's range
    [[1.5, 0], ["1e400", 0]],
    [[1e308, 1e308], [1e308, 0]],
], ids=["floats", "exact-then-float", "float-then-exact", "complex"])
@pytest.mark.parametrize("repeat", ["label", "key"])
def test_a_repeated_entry_beyond_the_float_range_is_refused(values, repeat):
    # such a sum once ended in an OverflowError or an infinite coefficient
    data = _valid_dict()
    row = data["terms"][0]
    label = row["blades"][0][0]
    if repeat == "label":
        row["blades"] = [[label, v] for v in values]
    else:
        row["blades"] = [[label, values[0]]]
        data["terms"].append(dict(row, blades=[[label, values[1]]]))
    with pytest.raises(ValueError, match="beyond the float range"):
        solution_from_dict(data)
    _loads_like_reference(data)


def test_solution_from_dict_rejects_alien_schema():
    data = solution_to_dict(build_samples()[0])
    data["schema_version"] = 99
    with pytest.raises(ValueError):
        solution_from_dict(data)


def test_residual_report_dict():
    sol = build_samples()[3]
    rep = dirac_residual(sol)
    data = residual_report_to_dict(rep)
    assert data["schema_version"] == SCHEMA_VERSION
    assert data["mode"] == "helmholtz"
    assert data["passed"] == rep.passed
    # schema 1 keeps the sampling keys, with nothing sampled
    assert (data["sup_norm_by_radius"], data["estimated_order"],
            data["seed"]) == ([], None, 0)
    json.dumps(data)        # fully JSON-serializable


def test_points_csv_roundtrip(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("x1,x2,t\n0.5,-0.25,1.0\n0,0,0\n")
    pts = read_points_csv(str(path), m=2)
    assert pts == [((0.5, -0.25), 1.0), ((0.0, 0.0), 0.0)]


def test_points_csv_without_time_column(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("x1,x2\n1,2\n")
    assert read_points_csv(str(path), m=2) == [((1.0, 2.0), 0.0)]


def test_points_csv_header_is_mandatory(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0.5,-0.25,1.0\n")
    with pytest.raises(ValueError):
        read_points_csv(str(path), m=2)


def test_eval_csv_output(tmp_path):
    sol = build_samples()[0]
    pts = [((0.5, 0.5), 1.0), ((0.0, 0.0), 0.0)]
    out = tmp_path / "vals.csv"
    write_eval_csv(sol, pts, str(out))
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["x1", "x2", "t"]
    assert len(lines) == 1 + len(pts)
    # direct evaluation must agree with what was written
    first = dict(zip(header, lines[1].split(",")))
    val = sol.body.evaluate([0.5, 0.5], 1.0)
    for mask, coeff in val.terms.items():
        label = sol.ctx.blade_label(mask)
        assert abs(float(first[label + "_re"]) - complex(coeff).real) < 1e-12


# -- malformed solution files ------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6) | st.sampled_from(["1/2", "1/0", "eps", "e1", "x"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=12)


@functools.lru_cache(maxsize=None)
def _valid_text():
    return json.dumps(solution_to_dict(build_samples()[1]))


def _valid_dict():
    """A fresh copy of one valid solution dict, built once per session."""
    return json.loads(_valid_text())


json_leaves = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.sampled_from(["1/2", "1/0", "-0", "x"]))


HUGE = (["1e400", 0], ["-1e400", 0], [1e308, 0], [-1e308, 0], [1e308, 1e308])


def _negated(part):
    """-part of a JSON scalar part: an int, a float or a "p/q" string."""
    if isinstance(part, str):
        return part[1:] if part.startswith("-") else "-" + part
    return -part


@st.composite
def damaged_solutions(draw):
    """A valid solution dict with one field, top-level or in a term row,
    replaced by an arbitrary JSON value (or removed), with one part of a
    term's lambda or blade value replaced by a JSON leaf, or with a blade
    entry or a term row repeated, some of its values negated."""
    data = _valid_dict()
    target = data
    if draw(st.integers(0, 5)) == 0:
        # a repeated label, whose value may cancel the first one's
        row = data["terms"][draw(st.integers(0, len(data["terms"]) - 1))]
        if row["blades"]:
            blade = json.loads(json.dumps(draw(st.sampled_from(row["blades"]))))
            if draw(st.booleans()):
                blade[1] = [_negated(part) for part in blade[1]]
            row["blades"].insert(draw(st.integers(0, len(row["blades"]))), blade)
            if draw(st.integers(0, 2)) == 0:
                # values near or past the float range, exact or float, under
                # the same label: their sum may overflow
                for value in draw(st.lists(st.sampled_from(HUGE), min_size=1, max_size=2)):
                    row["blades"].insert(draw(st.integers(0, len(row["blades"]))),
                                         [blade[0], list(value)])
        return data
    if draw(st.integers(0, 3)) == 0:
        # a repeated key, whose values may cancel the first row's
        rows = data["terms"]
        row = json.loads(json.dumps(rows[draw(st.integers(0, len(rows) - 1))]))
        for blade in row["blades"]:
            if draw(st.booleans()):
                blade[1] = [_negated(part) for part in blade[1]]
        rows.insert(draw(st.integers(0, len(rows))), row)
        return data
    if draw(st.integers(0, 2)) == 0:
        row = data["terms"][draw(st.integers(0, len(data["terms"]) - 1))]
        pair = draw(st.sampled_from([row["lambda"]]
                                    + [blade[1] for blade in row["blades"]]))
        pair[draw(st.integers(0, 1))] = draw(json_leaves)
        return data
    if draw(st.booleans()) and data["terms"]:
        target = data["terms"][draw(st.integers(0, len(data["terms"]) - 1))]
    key = draw(st.sampled_from(sorted(target)))
    if draw(st.integers(0, 4)) == 0:
        del target[key]
    else:
        target[key] = draw(json_values)
    return data


def typed_terms(F):
    """Each key of F in order, with its lambda's type and its blades, values
    and value types in order."""
    return [(key, type(key[2]), [(mask, repr(v), type(v))
                                 for mask, v in F.coeffs(key).items()])
            for key in F.keys()]


def _loads_like_reference(data):
    """solution_from_dict raises the reference loader's ValueError, message
    for message, or returns the reference's solution with the same terms
    in the same order and values of the same types."""
    try:
        want = solution_from_dict_reference(data)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            solution_from_dict(data)
        assert str(got.value) == str(exc)
        return None
    sol = solution_from_dict(data)
    assert (sol.mode, sol.m, sol.k, sol.L, sol.exact, sol.zeta, sol.extra) \
        == (want.mode, want.m, want.k, want.L, want.exact, want.zeta, want.extra)
    assert sol.body == want.body
    assert typed_terms(sol.body) == typed_terms(want.body)
    return sol


def _loads_or_value_error(data):
    """data loads as the reference loads it, or raises the reference's
    ValueError; what loads also writes back out."""
    sol = _loads_like_reference(data)
    if sol is None:
        return
    assert isinstance(sol, SeriesSolution)
    again = solution_to_dict(sol)
    assert _dumps(again, "") == json.dumps(again, indent=1)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(json_values)
def test_solution_from_dict_on_arbitrary_json(data):
    _loads_or_value_error(data)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(damaged_solutions())
def test_solution_from_dict_on_damaged_files(data):
    _loads_or_value_error(data)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(json_leaves, min_size=2, max_size=2), json_values))
def test_decode_scalar_matches_reference(pair):
    """decode_scalar's fast path returns what the reference decoding does,
    of the same type, or both raise the same ValueError."""
    try:
        want = decode_scalar_reference(pair)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            decode_scalar(pair)
        assert str(got.value) == str(exc)
        return
    got = decode_scalar(pair)
    assert (type(got), repr(got)) == (type(want), repr(want))


# -- the JSON text encoder ----------------------------------------------------------

EDGE_FLOATS = (-0.0, 0.0, 1e308, -1e308, 5e-324, float("inf"), float("-inf"),
               float("nan"))
EXACT_PARTS = st.one_of(st.integers(-10**20, 10**20),
                        st.builds(Fraction, st.integers(-99, 99), st.integers(1, 99)))
FLOAT_PARTS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
SCALARS = {
    "exact": EXACT_PARTS,
    "gaussian": st.builds(GaussianRational, EXACT_PARTS, EXACT_PARTS),
    "float": FLOAT_PARTS,
    "complex": st.builds(complex, FLOAT_PARTS, FLOAT_PARTS),
}


LAMBDAS = (0, 0, Fraction(-1, 2), 2, -1.0, -0.0, 5e-324, 0.5j,
           complex(-0.0, 1e308), GaussianRational(0, Fraction(1, 3)))


@st.composite
def bodies(draw, m):
    """A space-time body with exact, Gaussian, float or complex values."""
    ctx = AlgebraContext(m)
    values = SCALARS[draw(st.sampled_from(sorted(SCALARS)))]
    lams = st.sampled_from(LAMBDAS)
    keys = st.tuples(st.tuples(*[st.integers(0, 3)] * m), st.integers(0, 2), lams)
    terms = {}
    for key in draw(st.lists(keys, max_size=5)):
        blades = draw(st.dictionaries(st.integers(0, (1 << (m + 2)) - 1), values,
                                      max_size=3))
        terms[key] = Multivector(ctx, blades)
    return SpaceTimeFunction(ctx, {key: mv for key, mv in terms.items()
                                   if any(mv.terms.values())})


@st.composite
def solutions(draw):
    m = draw(st.integers(1, 4))
    body = draw(bodies(m))
    zeta = draw(st.none() | st.builds(ZetaElement, *[SCALARS["gaussian"]] * 4))
    extra = draw(st.dictionaries(st.text(max_size=4), st.one_of(
        st.text(max_size=4), st.integers(), FLOAT_PARTS, SCALARS["complex"]),
        max_size=2))
    return SeriesSolution(body=body, mode="helmholtz", m=m,
                          k=draw(st.integers(0, 3) | st.tuples(st.integers(0, 3))),
                          L=draw(st.integers(0, 9)), exact=draw(st.booleans()),
                          zeta=zeta, extra=extra)


@st.composite
def solution_dicts(draw):
    data = solution_to_dict(draw(solutions()))
    for row in data["terms"]:
        if draw(st.integers(0, 3)) == 0:
            row["blades"] = []
    return data


@st.composite
def report_dicts(draw):
    body = draw(bodies(draw(st.integers(1, 4))))
    rep = ResidualReport(
        mode="gen-monogenic", exact_zero=body.is_zero(),
        residual_poly=draw(st.sampled_from((None, body))),
        expected_order=draw(st.none() | FLOAT_PARTS),
        support_degrees=draw(st.none() | st.tuples(st.integers(0, 9))),
        passed=draw(st.booleans()))
    out = residual_report_to_dict(rep)
    if draw(st.booleans()):
        out["component_conditions"] = check_report_to_dict(CheckReport(
            "component-conditions", draw(st.booleans()),
            draw(st.dictionaries(st.text(max_size=6), st.booleans(), max_size=5))))
    return out


@settings(max_examples=200, deadline=None)
@given(st.one_of(solution_dicts(), report_dicts(), json_values))
def test_json_text_equals_json_dumps(data):
    assert _dumps(data, "") == json.dumps(data, indent=1)


def test_save_report_writes_json_dumps_text(tmp_path):
    path = tmp_path / "sol.json"
    for sol in build_samples():
        save_solution(sol, str(path))
        assert path.read_text() == json.dumps(solution_to_dict(sol), indent=1) + "\n"
    report = {"nan": float("nan"), "keys": {1: None, 2.5: True, None: [], False: {}},
              "text": "\u00e9\n\"", "tuple": (1, -0.0)}
    save_report(report, str(path))
    assert path.read_text() == json.dumps(report, indent=1) + "\n"
    with pytest.raises(TypeError):
        save_report({(1, 2): 0}, str(path))
    with pytest.raises(TypeError):
        _dumps({"x": {1, 2}}, "")


# -- the body-fed writer against json.dumps of the dicts -------------------------

@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A scratch directory holding an exact parabolic and an exact series
    solution file."""
    root = tmp_path_factory.mktemp("files")
    ctx = AlgebraContext(1)
    M = monogenic_basis(ctx, 0)[0]
    save_solution(build_parabolic_closed(M, TimeFunction.polynomial(ctx, [1, 2])),
                  str(root / "parabolic.json"))
    save_solution(build_generalized(M, ZetaElement(1, 0, 0, 1), L=2),
                  str(root / "series.json"))
    return root


def _edge_value(kind, rng):
    parts = (-0.0, 5e-324, 1e308, -1e308, 0.5, rng.uniform(-2, 2))
    if kind == "exact":
        return rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-99, 99),
                                                        rng.randint(1, 99))))
    if kind == "gaussian":
        return GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                                Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    if kind == "float":
        return rng.choice(parts)
    return complex(rng.choice(parts), rng.choice(parts))


@st.composite
def large_bodies(draw, m):
    """A body of 500 (listed in a report) or more (not listed) terms, added
    in shuffled order, with values of one kind."""
    ctx = AlgebraContext(m)
    kind = draw(st.sampled_from(sorted(SCALARS)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    size = draw(st.sampled_from((500, 501, 650)))
    keys = [((j % 50,) + tuple(rng.randint(0, 3) for _ in range(m - 1)), j // 50,
             rng.choice(LAMBDAS)) for j in range(size)]
    rng.shuffle(keys)
    terms = {}
    for key in keys:
        blades = {rng.randrange(1 << (m + 2)): _edge_value(kind, rng)
                  for _ in range(rng.randint(1, 3))}
        if any(blades.values()):
            terms[key] = Multivector(ctx, blades)
    return SpaceTimeFunction(ctx, terms)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(solutions())
def test_save_solution_writes_json_dumps_of_the_solution_dict(files, sol):
    path = files / "written.json"
    save_solution(sol, str(path))
    assert path.read_text() == json.dumps(solution_to_dict(sol), indent=1) + "\n"


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_verify_out_writes_json_dumps_of_the_report_dict(files, data):
    m = data.draw(st.integers(1, 4))
    body = data.draw(st.none() | bodies(m) | large_bodies(m))
    rep = ResidualReport(
        mode="gen-monogenic", exact_zero=body is not None and body.is_zero(),
        residual_poly=body,
        expected_order=data.draw(st.none() | FLOAT_PARTS),
        support_degrees=data.draw(st.none() | st.tuples(st.integers(0, 9))),
        passed=data.draw(st.booleans()))
    comp = CheckReport("component-conditions", data.draw(st.booleans()),
                       data.draw(st.dictionaries(st.text(max_size=6), st.booleans(),
                                                 max_size=5)))
    parabolic = data.draw(st.booleans())
    sol = files / ("parabolic.json" if parabolic else "series.json")
    path = files / "report.json"
    # the residual and the component conditions judged are the drawn ones
    with mock.patch.object(cli, "dirac_residual", lambda *args, **kw: rep), \
            mock.patch.object(cli, "check_component_conditions", lambda s: comp):
        code = cli.main(["verify", "--solution", str(sol), "--out", str(path)])
    want = residual_report_to_dict(rep)
    if parabolic:
        want["component_conditions"] = check_report_to_dict(comp)
    want["passed"] = rep.passed and (comp.passed or not parabolic)
    assert code == (0 if want["passed"] else 1)
    assert path.read_text() == json.dumps(want, indent=1) + "\n"


# -- the one-pass loader against the reference loader ---------------------------

@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(solution_dicts())
def test_loader_reads_drawn_solutions_as_the_reference(data):
    _loads_like_reference(json.loads(json.dumps(data)))


@pytest.mark.parametrize("argv", sorted(set(DIGESTS) | set(EVAL_DIGESTS)))
def test_loader_reads_golden_files_as_the_reference(argv, tmp_path):
    path = tmp_path / "sol.json"
    assert cli.main(["build", *argv.split(" "), "--out", str(path)]) == 0
    assert _loads_like_reference(json.loads(path.read_text())) is not None
