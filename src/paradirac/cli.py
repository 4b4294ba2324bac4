"""Command-line front-end: build, verify, evaluate, and self-check.

    paradirac algebra-check [--m 3] [--trials 500] [--seed 0] [--out report.json]
    paradirac build --mode parabolic-closed --m 2 --k 0 --profile t --out sol.json
    paradirac verify --solution sol.json [--out report.json]
    paradirac eval --solution sol.json --points pts.csv [--out vals.csv]

Exit code 0 means every requested check passed; 1 means a check failed;
2 means the request itself was malformed.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from typing import List, Optional, Sequence

from .algebra import AlgebraContext, Multivector, split, witt_basis
from .builders import (ALL_MODES, PARABOLIC_MODES, SeriesSolution,
                       build_generalized, build_helmholtz,
                       build_parabolic_closed, build_parabolic_recurrence)
from .harmonics import harmonic_basis, monogenic_basis
from .scalars import GaussianRational, Scalar, parse_rational, to_float
from .serialize import (MAX_M, check_report_to_dict, decode_scalar,
                        load_solution, parse_json, read_points_csv,
                        _residual_report_fields, save_report, save_solution,
                        write_eval_csv)
from .timefn import TimeFunction
from .verify import (CheckReport, check_component_conditions,
                     check_factorization, dirac_residual,
                     random_spacetime_poly)
from .zeta import ZetaElement


# -- input parsing -------------------------------------------------------


def _parse_number(text: str) -> Scalar:
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        return parse_rational(text)     # "3/4" and decimal strings, exactly


def _pair_to_scalar(re: Scalar, im: Scalar) -> Scalar:
    return re if im == 0 else GaussianRational(re, im)


def parse_zeta(text: str, backend: str) -> ZetaElement:
    """4 comma-separated reals a,b,c,d or 8 values as re,im pairs."""
    vals = [_parse_number(tok) for tok in text.split(",")]
    if len(vals) == 4:
        entries = vals
    elif len(vals) == 8:
        entries = [_pair_to_scalar(vals[i], vals[i + 1]) for i in range(0, 8, 2)]
    else:
        raise ValueError("--zeta needs 4 values a,b,c,d or 8 values as re,im pairs")
    if backend == "float":
        entries = [to_float(v) for v in entries]
    return ZetaElement(*entries)


def parse_profile(text: str, ctx: AlgebraContext, backend: str) -> TimeFunction:
    """Time profile from a compact string or a JSON term list.

    Compact forms: "1", "t", "t^3", "poly:c0,c1,..." (coefficients of t^n),
    "exp:lam" or "exp:re:im" for e^{lam t}.  JSON form: a list of
    {"coeff": [re,im] | {blade: [re,im], ...}, "n": int, "lambda": [re,im]}.
    """
    text = text.strip()
    if text.startswith("[") or text.startswith("{"):
        return _profile_from_json(parse_json(text, "JSON profile"), ctx, backend)
    conv = to_float if backend == "float" else (lambda v: v)
    if text == "1":
        return TimeFunction.term(ctx, conv(1))
    if text == "t":
        return TimeFunction.term(ctx, conv(1), n=1)
    if text.startswith("t^"):
        return TimeFunction.term(ctx, conv(1), n=int(text[2:]))
    if text.startswith("poly:"):
        coeffs = [conv(_parse_number(tok)) for tok in text[5:].split(",")]
        return TimeFunction.polynomial(ctx, coeffs)
    if text.startswith("exp:"):
        parts = [_parse_number(tok) for tok in text[4:].split(":")]
        if len(parts) == 1:
            lam = parts[0]
        elif len(parts) == 2:
            lam = _pair_to_scalar(parts[0], parts[1])
        else:
            raise ValueError("exp profile takes exp:lam or exp:re:im")
        to_float(lam)           # a lambda beyond the float range: ValueError
        return TimeFunction.term(ctx, conv(1), n=0, lam=conv(lam))
    raise ValueError(f"cannot parse profile {text!r}")


def _profile_from_json(rows, ctx: AlgebraContext, backend: str) -> TimeFunction:
    if isinstance(rows, dict):
        rows = [rows]
    if not (isinstance(rows, list) and all(isinstance(r, dict) for r in rows)):
        raise ValueError("a JSON profile is a term object or a list of them")
    total = TimeFunction.zero(ctx)
    conv = to_float if backend == "float" else (lambda v: v)
    for row in rows:
        coeff = row.get("coeff", [1, 0])
        if isinstance(coeff, dict):
            mv = Multivector(ctx, {ctx.blade_from_label(lab): conv(decode_scalar(pair))
                                   for lab, pair in coeff.items()})
        else:
            mv = ctx.scalar(conv(decode_scalar(coeff)))
        lam = decode_scalar(row.get("lambda", [0, 0]))
        to_float(lam)           # a lambda beyond the float range: ValueError
        lam = conv(lam)
        n = row.get("n", 0)
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"profile term exponent n must be an integer, got {n!r}")
        total = total + TimeFunction.term(ctx, mv, n=n, lam=lam)
    return total


def parse_seeds(text: str, ctx: AlgebraContext, backend: str) -> dict:
    """--seeds: a JSON object of recurrence seed profiles, each a compact
    string or a JSON term list."""
    seed_map = parse_json(text, "--seeds")
    if not isinstance(seed_map, dict):
        raise ValueError("--seeds must be a JSON object of profiles")
    return {name: parse_profile(val, ctx, backend) if isinstance(val, str)
            else _profile_from_json(val, ctx, backend)
            for name, val in seed_map.items()}


def _parse_int_list(text: str) -> List[int]:
    return [int(tok) for tok in text.split(",")]


def _heads(ctx: AlgebraContext, ks: List[int], idxs: List[int], kind: str):
    if len(idxs) == 1 and len(ks) > 1:
        idxs = idxs * len(ks)
    if len(idxs) != len(ks):
        raise ValueError("--basis-index list must match --k list")
    basis_fn = harmonic_basis if kind == "harmonic" else monogenic_basis
    out = []
    for k, i in zip(ks, idxs):
        basis = basis_fn(ctx, k)
        if not 0 <= i < len(basis):
            raise ValueError(
                f"basis index {i} out of range for k={k} (size {len(basis)})")
        out.append(basis[i])
    return out


# -- subcommand: build --------------------------------------------------------


# the build flags, each None when not given, and what a None one reads as
_BUILD_FLAGS = dict(mode=None, m=2, k="0", basis_index="0", zeta=None, profile="1",
                    seeds=None, trunc=12, backend="exact", radial="direct")


def _check_flags(args) -> None:
    """ValueError for a build flag that the chosen mode would not read."""
    parabolic = args.mode in PARABOLIC_MODES
    unread = [flag for flag, bad in (
        ("--zeta", parabolic and args.zeta is not None),
        ("--radial", args.mode != "helmholtz" and args.radial is not None),
        ("--seeds", args.mode != "parabolic-recurrence" and args.seeds is not None),
        ("--profile", not parabolic and args.profile is not None)) if bad]
    if unread:
        raise ValueError(f"mode {args.mode} does not take {' or '.join(unread)}")
    if args.seeds is not None and args.profile is not None:
        raise ValueError("--seeds and --profile both give the recurrence seeds; "
                         "give one of them")


def _build_from_args(args) -> SeriesSolution:
    if args.mode not in ALL_MODES:
        raise ValueError(f"unknown mode {args.mode!r}; choose from {ALL_MODES}")
    _check_flags(args)
    args = argparse.Namespace(**{**vars(args), **{
        name: value for name, value in _BUILD_FLAGS.items()
        if getattr(args, name) is None}})
    ctx = AlgebraContext(args.m)
    ks = _parse_int_list(args.k)
    idxs = _parse_int_list(args.basis_index)
    L = args.trunc

    if args.mode in ("parabolic-closed", "parabolic-recurrence"):
        if len(ks) != 1:
            raise ValueError("parabolic modes take a single --k")
        (head,) = _heads(ctx, ks, idxs, "monogenic")
        if args.mode == "parabolic-closed":
            return build_parabolic_closed(
                head, parse_profile(args.profile, ctx, args.backend), L=L)
        seeds = (parse_seeds(args.seeds, ctx, args.backend) if args.seeds
                 else {"a0": parse_profile(args.profile, ctx, args.backend)})
        return build_parabolic_recurrence(head, seeds, L=L)

    if args.zeta is None:
        raise ValueError(f"mode {args.mode} requires --zeta")
    z = parse_zeta(args.zeta, args.backend)
    if args.mode == "helmholtz":
        heads = _heads(ctx, ks, idxs, "harmonic")
        return build_helmholtz(heads, z, L=L, radial=args.radial)
    heads = _heads(ctx, ks, idxs, "monogenic")
    form = args.mode.split("-", 1)[1]
    return build_generalized(heads, z, L=L, form=form)


def cmd_build(args) -> int:
    if args.m is not None and args.m > MAX_M:  # the largest m a file may hold
        raise ValueError(f"spatial dimension m={args.m} outside 1..{MAX_M}")
    if not args.out:
        raise ValueError("build requires --out")
    sol = _build_from_args(args)
    if not sol.body.is_finite():
        raise ValueError("the build has a non-finite coefficient or lambda")
    save_solution(sol, args.out)
    print(f"built {sol.mode} (m={sol.m}, k={sol.k}, L={sol.L}, "
          f"exact={sol.exact}, {len(sol.body.keys())} terms) -> {args.out}")
    return 0


# -- subcommand: verify -------------------------------------------------------


def cmd_verify(args) -> int:
    if args.solution:
        given = [name for name in _BUILD_FLAGS if getattr(args, name) is not None]
        if given:
            raise ValueError("verify --solution takes no build flag, got " + ", ".join(
                "--" + name.replace("_", "-") for name in given))
        sol = load_solution(args.solution)
    else:
        sol = _build_from_args(args)
    report = dirac_residual(sol)
    out = _residual_report_fields(report)
    passed = report.passed
    if sol.mode.startswith("parabolic") and sol.exact:
        # the solution remembers the D F its residual took
        comp = check_component_conditions(sol)
        out["component_conditions"] = check_report_to_dict(comp)
        passed = passed and comp.passed
    out["passed"] = passed
    if args.out:
        save_report(out, args.out)
    if report.exact_zero:
        print(f"{sol.mode}: residual identically zero "
              f"({'PASS' if passed else 'FAIL'})")
    else:
        # a float body's support is read above roundoff scale
        where = ("nonzero" if sol.exact or sol.body.is_exact()
                 else "above roundoff")
        print(f"{sol.mode}: symbolic residual {where} at spatial degrees "
              f"{report.support_degrees or ()} "
              f"({'PASS' if passed else 'FAIL'})")
    return 0 if passed else 1


# -- subcommand: eval ---------------------------------------------------------


def cmd_eval(args) -> int:
    sol = load_solution(args.solution)
    points = read_points_csv(args.points, sol.m)
    out = args.out or "-"
    if out == "-":
        write_eval_csv(sol, points, sys.stdout)
    else:
        write_eval_csv(sol, points, out)
        print(f"evaluated {len(points)} points -> {out}")
    return 0


# -- subcommand: algebra-check ---------------------------------------------


def _relation_suite(max_m: int) -> CheckReport:
    bad = 0
    total = 0
    for m in range(1, max_m + 1):
        ctx = AlgebraContext(m)
        gens = [ctx.eps()] + [ctx.e(j) for j in range(1, m + 2)]
        squares = [1] + [-1] * (m + 1)
        for i, g in enumerate(gens):
            total += 1
            if (g * g) != squares[i]:
                bad += 1
            for j in range(i + 1, len(gens)):
                total += 1
                if not (g * gens[j] + gens[j] * g).is_zero():
                    bad += 1
    return CheckReport("generator-relations", bad == 0,
                       {"relations": total, "failures": bad})


def _random_mv(ctx: AlgebraContext, rng: random.Random) -> Multivector:
    n_blades = 1 << (ctx.m + 2)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mask = rng.randrange(n_blades)
        coeff = rng.randint(-5, 5)
        if coeff:
            terms[mask] = terms.get(mask, 0) + coeff
    return Multivector(ctx, {k: v for k, v in terms.items() if v})


def _associativity_suite(m: int, trials: int, rng: random.Random) -> CheckReport:
    ctx = AlgebraContext(m)
    bad = 0
    for _ in range(trials):
        a, b, c = (_random_mv(ctx, rng) for _ in range(3))
        if not ((a * b) * c - a * (b * c)).is_zero():
            bad += 1
    return CheckReport("associativity", bad == 0,
                       {"m": m, "trials": trials, "failures": bad})


def _witt_suite(max_m: int) -> CheckReport:
    ok = True
    for m in range(1, max_m + 1):
        ctx = AlgebraContext(m)
        f, fd = witt_basis(ctx)
        ok &= (f * f).is_zero() and (fd * fd).is_zero()
        ok &= (f * fd + fd * f) == 1
        ok &= (f - fd) == ctx.e(m + 1)
        ok &= (f + fd) == -ctx.eps()
    return CheckReport("witt-relations", bool(ok), {"max_m": max_m})


def _split_suite(m: int, trials: int, rng: random.Random) -> CheckReport:
    ctx = AlgebraContext(m)
    bad = 0
    for _ in range(trials):
        u = _random_mv(ctx, rng)
        if split(u).reassemble() != u:
            bad += 1
    return CheckReport("split-roundtrip", bad == 0,
                       {"m": m, "trials": trials, "failures": bad})


def _factorization_suite(m: int, trials: int, rng: random.Random) -> CheckReport:
    ctx = AlgebraContext(m)
    samples = [random_spacetime_poly(ctx, rng) for _ in range(trials)]
    rep = check_factorization(ctx, samples)
    rep.detail["m"] = m
    return rep


def cmd_algebra_check(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials {args.trials} is negative")
    rng = random.Random(args.seed)
    checks = [
        _relation_suite(6),
        _associativity_suite(args.m, args.trials, rng),
        _witt_suite(6),
        _split_suite(args.m, min(args.trials, 200), rng),
        _factorization_suite(args.m, 25, rng),
    ]
    passed = all(c.passed for c in checks)
    out = {"schema_version": 1, "kind": "algebra_check", "passed": passed,
           "seed": args.seed,
           "checks": [check_report_to_dict(c) for c in checks]}
    if args.out:
        save_report(out, args.out)
    for c in checks:
        print(f"{c.name}: {'PASS' if c.passed else 'FAIL'} {c.detail}")
    return 0 if passed else 1


# -- parser ------------------------------------------------------------


def _add_build_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", help=f"one of {', '.join(ALL_MODES)}")
    p.add_argument("--m", type=int, help="spatial dimension (default 2)")
    p.add_argument("--k", help="head degree, or comma list (default 0)")
    p.add_argument("--basis-index",
                   help="which basis element per degree (comma list; default 0)")
    p.add_argument("--zeta", help="a,b,c,d (4 reals or 8 re,im values)")
    p.add_argument("--profile",
                   help='time profile of the parabolic modes (default "1"): '
                        '"1", "t", "t^n", "poly:...", "exp:lam", or JSON')
    p.add_argument("--seeds",
                   help='JSON map of recurrence seeds, e.g. {"a0": "t"}')
    p.add_argument("--trunc", type=int, help="series truncation L (default 12)")
    p.add_argument("--backend", choices=("exact", "float"), help="default exact")
    p.add_argument("--radial", choices=("direct", "sylvester"),
                   help="radial weight evaluation (helmholtz mode; default direct)")
    p.add_argument("--out", help="output path")


def make_parser() -> argparse.ArgumentParser:
    # a flag is read only when spelled out: a prefix such as --seed for
    # --seeds or --ou for --out is refused, not guessed
    parser = argparse.ArgumentParser(
        prog="paradirac", allow_abbrev=False,
        description="Build and verify null-solutions of the parabolic "
                    "Dirac operator and its Cl(1,1)-parameter generalization.")
    sub = parser.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p_alg = add("algebra-check", help="run algebra invariant suites")
    p_alg.add_argument("--m", type=int, default=3)
    p_alg.add_argument("--trials", type=int, default=500)
    p_alg.add_argument("--seed", type=int, default=0)
    p_alg.add_argument("--out", help="JSON report path")

    p_build = add("build", help="build a solution and save it")
    _add_build_flags(p_build)

    p_verify = add("verify", help="verify a solution file or a fresh build")
    p_verify.add_argument("--solution", help="solution JSON produced by build")
    _add_build_flags(p_verify)

    p_eval = add("eval", help="evaluate a solution on a CSV of points")
    p_eval.add_argument("--solution", required=True)
    p_eval.add_argument("--points", required=True, help="CSV with header x1..xm[,t]")
    p_eval.add_argument("--out", help="output CSV (default stdout)")
    return parser


_parser = functools.lru_cache(maxsize=None)(make_parser)   # once per process


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command in ("build",) and not args.mode:
        parser.error("build requires --mode")
    if args.command == "verify" and not args.solution and not args.mode:
        parser.error("verify needs --solution or build flags (--mode ...)")
    # looked up per call, since the parser is made once per process
    fn = {"algebra-check": cmd_algebra_check, "build": cmd_build,
          "verify": cmd_verify, "eval": cmd_eval}[args.command]
    try:
        return fn(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
