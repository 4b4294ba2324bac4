"""Command-line front-end: build, verify, evaluate, and self-check.

    paradirac algebra-check [--m 3] [--trials 500] [--seed 0] [--out report.json]
    paradirac build --mode parabolic-closed --m 2 --k 0 --profile t --out sol.json
    paradirac verify --solution sol.json [--radii 1,0.5,0.25] [--seed 0] [--out report.json]
    paradirac eval --solution sol.json --points pts.csv [--out vals.csv]

Exit code 0 means every requested check passed; 1 means a check failed;
2 means the request itself was malformed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import List, Optional, Sequence

from .algebra import AlgebraContext, Multivector, split, witt_basis
from .builders import (ALL_MODES, SeriesSolution, build_generalized,
                       build_helmholtz, build_parabolic_closed,
                       build_parabolic_recurrence)
from .harmonics import harmonic_basis, monogenic_basis
from .scalars import GaussianRational, Scalar, parse_rational
from .serialize import (check_report_to_dict, decode_scalar, load_solution,
                        read_points_csv, residual_report_to_dict, save_report,
                        save_solution, write_eval_csv)
from .timefn import TimeFunction
from .verify import (CheckReport, _component_report,
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


def _to_float(v: Scalar) -> Scalar:
    try:
        return complex(v) if isinstance(v, (GaussianRational, complex)) else float(v)
    except OverflowError:
        raise ValueError(f"{v} is outside the float range") from None


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
        entries = [_to_float(v) for v in entries]
    return ZetaElement(*entries)


def parse_profile(text: str, ctx: AlgebraContext, backend: str) -> TimeFunction:
    """Time profile from a compact string or a JSON term list.

    Compact forms: "1", "t", "t^3", "poly:c0,c1,..." (coefficients of t^n),
    "exp:lam" or "exp:re:im" for e^{lam t}.  JSON form: a list of
    {"coeff": [re,im] | {blade: [re,im], ...}, "n": int, "lambda": [re,im]}.
    """
    text = text.strip()
    if text.startswith("[") or text.startswith("{"):
        return _profile_from_json(json.loads(text), ctx, backend)
    conv = _to_float if backend == "float" else (lambda v: v)
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
        return TimeFunction.term(ctx, conv(1), n=0, lam=conv(lam))
    raise ValueError(f"cannot parse profile {text!r}")


def _profile_from_json(rows, ctx: AlgebraContext, backend: str) -> TimeFunction:
    if isinstance(rows, dict):
        rows = [rows]
    if not (isinstance(rows, list) and all(isinstance(r, dict) for r in rows)):
        raise ValueError("a JSON profile is a term object or a list of them")
    total = TimeFunction.zero(ctx)
    conv = _to_float if backend == "float" else (lambda v: v)
    for row in rows:
        coeff = row.get("coeff", [1, 0])
        if isinstance(coeff, dict):
            mv = Multivector(ctx, {ctx.blade_from_label(lab): conv(decode_scalar(pair))
                                   for lab, pair in coeff.items()})
        else:
            mv = ctx.scalar(conv(decode_scalar(coeff)))
        lam = conv(decode_scalar(row.get("lambda", [0, 0])))
        n = row.get("n", 0)
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"profile term exponent n must be an integer, got {n!r}")
        total = total + TimeFunction.term(ctx, mv, n=n, lam=lam)
    return total


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


def _build_from_args(args) -> SeriesSolution:
    if args.mode not in ALL_MODES:
        raise ValueError(f"unknown mode {args.mode!r}; choose from {ALL_MODES}")
    ctx = AlgebraContext(args.m)
    ks = _parse_int_list(args.k)
    idxs = _parse_int_list(args.basis_index)
    L = args.trunc

    if args.mode in ("parabolic-closed", "parabolic-recurrence"):
        if len(ks) != 1:
            raise ValueError("parabolic modes take a single --k")
        (head,) = _heads(ctx, ks, idxs[:1], "monogenic")
        if args.mode == "parabolic-closed":
            profile = parse_profile(args.profile, ctx, args.backend)
            return build_parabolic_closed(head, profile, L=L)
        if args.seeds:
            seed_map = json.loads(args.seeds)
            if not isinstance(seed_map, dict):
                raise ValueError("--seeds must be a JSON object of profiles")
            seeds = {name: parse_profile(val, ctx, args.backend)
                     if isinstance(val, str)
                     else _profile_from_json(val, ctx, args.backend)
                     for name, val in seed_map.items()}
        else:
            seeds = {"a0": parse_profile(args.profile, ctx, args.backend)}
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
    sol = _build_from_args(args)
    if not args.out:
        raise ValueError("build requires --out")
    save_solution(sol, args.out)
    n_terms = len(sol.body._nums)     # a count, without building .terms
    print(f"built {sol.mode} (m={sol.m}, k={sol.k}, L={sol.L}, "
          f"exact={sol.exact}, {n_terms} terms) -> {args.out}")
    return 0


# -- subcommand: verify -------------------------------------------------------


def cmd_verify(args) -> int:
    if args.solution:
        sol = load_solution(args.solution)
    else:
        sol = _build_from_args(args)
    radii = [float(tok) for tok in args.radii.split(",")]
    report = dirac_residual(sol, radii=radii, seed=args.seed,
                            order_tol=args.order_tol)
    out = residual_report_to_dict(report)
    passed = report.passed
    if sol.mode.startswith("parabolic") and sol.exact:
        # the residual report already holds D F
        comp = _component_report(sol.body, report.residual_poly)
        out["component_conditions"] = check_report_to_dict(comp)
        passed = passed and comp.passed
    out["passed"] = passed
    if args.out:
        save_report(out, args.out)
    if report.exact_zero:
        print(f"{sol.mode}: residual identically zero "
              f"({'PASS' if passed else 'FAIL'})")
    elif sol.exact:
        print(f"{sol.mode}: symbolic residual nonzero at spatial degrees "
              f"{report.support_degrees} "
              f"({'PASS' if passed else 'FAIL'})")
    else:
        est = (f"{report.estimated_order:.3f}"
               if report.estimated_order is not None else "n/a")
        print(f"{sol.mode}: estimated order {est} "
              f"(expected {report.expected_order}), "
              f"support degrees {report.support_degrees} "
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
    p.add_argument("--m", type=int, default=2, help="spatial dimension")
    p.add_argument("--k", default="0", help="head degree, or comma list")
    p.add_argument("--basis-index", default="0",
                   help="which basis element per degree (comma list)")
    p.add_argument("--zeta", help="a,b,c,d (4 reals or 8 re,im values)")
    p.add_argument("--profile", default="1",
                   help='time profile: "1", "t", "t^n", "poly:...", "exp:lam", or JSON')
    p.add_argument("--seeds",
                   help='JSON map of recurrence seeds, e.g. {"a0": "t"}')
    p.add_argument("--trunc", type=int, default=12, help="series truncation L")
    p.add_argument("--backend", choices=("exact", "float"), default="exact")
    p.add_argument("--radial", choices=("direct", "sylvester"), default="direct",
                   help="radial weight evaluation (helmholtz mode)")
    p.add_argument("--out", help="output path")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paradirac",
        description="Build and verify null-solutions of the parabolic "
                    "Dirac operator and its Cl(1,1)-parameter generalization.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_alg = sub.add_parser("algebra-check", help="run algebra invariant suites")
    p_alg.add_argument("--m", type=int, default=3)
    p_alg.add_argument("--trials", type=int, default=500)
    p_alg.add_argument("--seed", type=int, default=0)
    p_alg.add_argument("--out", help="JSON report path")
    p_alg.set_defaults(fn=cmd_algebra_check)

    p_build = sub.add_parser("build", help="build a solution and save it")
    _add_build_flags(p_build)
    p_build.set_defaults(fn=cmd_build)

    p_verify = sub.add_parser("verify", help="verify a solution file or a fresh build")
    p_verify.add_argument("--solution", help="solution JSON produced by build")
    _add_build_flags(p_verify)
    p_verify.add_argument("--radii", default="1,0.5,0.25")
    p_verify.add_argument("--order-tol", type=float, default=0.2)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(fn=cmd_verify)

    p_eval = sub.add_parser("eval", help="evaluate a solution on a CSV of points")
    p_eval.add_argument("--solution", required=True)
    p_eval.add_argument("--points", required=True, help="CSV with header x1..xm[,t]")
    p_eval.add_argument("--out", help="output CSV (default stdout)")
    p_eval.set_defaults(fn=cmd_eval)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.command in ("build",) and not args.mode:
        parser.error("build requires --mode")
    if args.command == "verify" and not args.solution and not args.mode:
        parser.error("verify needs --solution or build flags (--mode ...)")
    try:
        return args.fn(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
