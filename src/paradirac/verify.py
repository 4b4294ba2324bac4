"""Exact and numeric verification of built solutions.

Three layers: operator identities (the parabolic operator squares to
-Laplacian + d_t), component conditions on the split form (F1 = -d_x F0,
F3 = d_x F2 - F0, and the heat condition on F0 and F2, which together
are equivalent to D F = 0), and residual measurement.  Exact builds get
a symbolic residual that must vanish identically.  A truncated build
with exact coefficients is judged on its exact residual alone, which
must sit wholly at the top degrees.  A truncated build with float
coefficients is judged the same way on the spatial degrees of its
residual's terms above roundoff scale.  Nothing is sampled.

A solution is immutable, so it remembers the residual of its operator,
made once: dirac_residual and check_component_conditions read the same
memo, and the component conditions are read off the split components.
On an exact body, D F and the four conditions are each one pass over its
integer rows (poly.parabolic_rows and condition_rows), the conditions
with each term split once; raw values take chains of Sum stages.
A build fresh from its builder with exact coefficients owns its radial
form, the one that built its body, and one ladder (_ladder_residual)
checks it for every d_x + zeta, the parabolic D being the one with
zeta = f d/dt + fdag, each head at its own degree.  A generalized
or Helmholtz residual is read off the top level once the form passes.
An exact parabolic form has no top level left over: its D F is the zero
body and its component report all true, and neither D nor split nor the
heat operator is applied.  The operator applied to every monomial
(symbolic_residual) and the split conditions stay the path of every
other solution and the oracle the ladder is tested against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple, Union

from .algebra import AlgebraContext, Multivector, witt_basis
from .builders import SeriesSolution
from .poly import Sum, condition_rows, radial_product, radial_series
from .timefn import (PARABOLIC_ZETA, ProfileWeight, SpaceTimeFunction,
                     heat_residual, parabolic_dirac)
from .zeta import IntMatrix

# relative weight under which a symbolic coefficient counts as roundoff junk
JUNK_REL = 1e-12
# float builds cancel body-sized coefficients, so their residuals carry
# junk at eps * |body| regardless of how small the true tail is
NOISE_REL = 1e-13


@dataclass
class CheckReport:
    """Boolean outcome of a structural check plus per-condition detail."""

    name: str
    passed: bool
    detail: Dict[str, object] = field(default_factory=dict)


@dataclass
class ResidualReport:
    mode: str
    exact_zero: bool
    residual_poly: Optional[SpaceTimeFunction] = None
    expected_order: Optional[float] = None
    support_degrees: Optional[Tuple[int, ...]] = None
    passed: bool = False


# -- operator identities -----------------------------------------------------


def check_factorization(ctx: AlgebraContext,
                        samples: Sequence[SpaceTimeFunction]) -> CheckReport:
    """(d_x + f d_t + fdag)^2 F == (-Laplacian + d_t) F on every sample."""
    failures = 0
    for F in samples:
        left = parabolic_dirac(parabolic_dirac(F))
        right = -heat_residual(F)          # -(Lap F - d_t F)
        if left != right:
            failures += 1
    return CheckReport(name="factorization", passed=failures == 0,
                       detail={"samples": len(samples), "failures": failures})


def random_spacetime_poly(ctx: AlgebraContext, rng: random.Random,
                          space_degree: int = 3, time_degree: int = 2,
                          n_terms: int = 6) -> SpaceTimeFunction:
    """Random integer-coefficient polynomial in x and t, all blades allowed."""
    terms = {}
    n_blades = 1 << (ctx.m + 2)
    for _ in range(n_terms):
        exps = [0] * ctx.m
        for _ in range(rng.randint(0, space_degree)):
            exps[rng.randrange(ctx.m)] += 1
        key = (tuple(exps), rng.randint(0, time_degree), 0)
        mv = Multivector(ctx, {rng.randrange(n_blades): rng.randint(1, 5)
                               * rng.choice((1, -1))})
        prev = terms.get(key)
        terms[key] = mv if prev is None else prev + mv
    return SpaceTimeFunction(ctx, {k: v for k, v in terms.items()
                                   if not v.is_zero()})


# -- component conditions ------------------------------------------------------


def check_component_conditions(
        F: Union[SeriesSolution, SpaceTimeFunction]) -> CheckReport:
    """Split-form conditions equivalent to D F = 0, tested both ways.

    cond_f1: F1 = -d_x F0;  cond_f3: F3 = d_x F2 - F0;
    heat_f0 / heat_f2: (Laplacian - d_t) applied to F0 / F2 vanishes.
    The conditions are read off the split components, computed apart
    from D F: one pass over an exact body's rows, each term split once,
    and the split bodies on raw values (_conditions).  The report also
    takes D F directly, a solution's memoized residual (_residual) when F
    is one, and records whether the equivalence held (it must, whichever
    side is true).  A parabolic solution whose radial form passes the
    ladder has D F = 0 as an identity; the split is unique, so every
    condition holds and the report is all true, with nothing split or
    applied.  A SeriesSolution of a mode other than the parabolic ones
    raises ValueError: its operator is not D.
    """
    if isinstance(F, SeriesSolution):
        if _infer_operator(F.mode) != "parabolic":
            raise ValueError(f"component conditions are those of the "
                             f"parabolic operator, not of mode {F.mode!r}")
        body, (DF, by_ladder) = F.body, _residual(F)
    else:
        body, DF, by_ladder = F, parabolic_dirac(F), False
    if by_ladder:
        cond_f1 = cond_f3 = heat_f0 = heat_f2 = True
    else:
        cond_f1, cond_f3, heat_f0, heat_f2 = (
            R.is_zero() for R in _conditions(body))
    conditions = cond_f1 and cond_f3 and heat_f0 and heat_f2
    dirac_zero = DF.is_zero()
    return CheckReport(
        name="component-conditions",
        passed=conditions and dirac_zero,
        detail={"cond_f1": cond_f1, "cond_f3": cond_f3,
                "heat_f0": heat_f0, "heat_f2": heat_f2,
                "dirac_zero": dirac_zero,
                "equivalent": conditions == dirac_zero})


def _conditions(body: SpaceTimeFunction) -> list:
    """F1 + d_x F0, F3 - d_x F2 + F0, (Laplacian - d_t) F0 and
    (Laplacian - d_t) F2.  An exact body is read once, each term split
    once (poly.condition_rows); raw values take the split bodies and four
    Sums."""
    R = condition_rows(body)
    if R is not None:
        return R
    f0, f1, f2, f3 = body.split()
    ctx = body.ctx
    return [Sum(ctx).add(f1).dirac(f0).value(),
            Sum(ctx).add(f3).dirac(f2, -1).add(f0).value(),
            heat_residual(f0), heat_residual(f2)]


def perturb_component(F: SeriesSolution, slot: int, exps: Sequence[int],
                      coeff: Multivector) -> SeriesSolution:
    """Add coeff * x^exps to split component `slot` (0..3) of a copy of F.

    F = F0 + f F1 + fdag F2 + f fdag F3, so the copy's body is
    F.body + c coeff x^exps with c = 1, f, fdag or f fdag, in one Sum.
    """
    if slot not in range(4):
        raise ValueError(f"slot must be 0..3, got {slot!r}")
    ctx = F.ctx
    f, fdag = witt_basis(ctx)
    c = (ctx.one(), f, fdag, f * fdag)[slot]
    delta = SpaceTimeFunction.monomial(ctx, exps, 1).lmul(coeff)
    body = Sum(ctx).add(F.body).lmul(c, delta).value()
    return replace(F, body=body, extra=dict(F.extra, mutated_slot=slot))


# -- residual machinery ----------------------------------------------------


def symbolic_residual(F: SeriesSolution) -> SpaceTimeFunction:
    """Apply the operator matching F.mode to every monomial of the body."""
    op = _infer_operator(F.mode)
    body = F.body
    if op == "parabolic":
        return parabolic_dirac(body)
    if F.zeta is None:
        raise ValueError(f"{op} residual needs zeta metadata")
    total = Sum(F.ctx)
    if op == "generalized":
        return total.dirac(body).lmul(F.zeta.to_multivector(F.ctx), body).value()
    sz = F.zeta.star_zeta().to_multivector(F.ctx)
    return total.laplacian(body).lmul(sz, body).value()


def _residual(F: SeriesSolution) -> Tuple[SpaceTimeFunction, bool]:
    """(R, by_ladder), the residual of F's operator, made once per
    solution: the ladder's (by_ladder) when F's radial form passes it,
    else symbolic_residual(F).  A solution is immutable, so what it
    remembers stays its own."""
    if F._residual is None:
        R = _ladder_residual(F)
        memo = (symbolic_residual(F), False) if R is None else (R, True)
        object.__setattr__(F, "_residual", memo)
    return F._residual


def _ladder_residual(F: SeriesSolution) -> Optional[SpaceTimeFunction]:
    """F's residual read off its radial form, or None when F has no form
    or the form fails the ladder.

    With d_x(rho^{2l} M) = 2l rho^{2l-2} x M and
    d_x(rho^{2l} x M) = -(2l+2k+m) rho^{2l} M for a monogenic M of degree
    k, and e_i c = c^ e_i for c in Cl(1,1), (d_x + zeta) applied to
    sum_l rho^{2l} (P_l M + Q_l x M) leaves only zeta Q_L rho^{2L} x M when

        zeta P_l = (2l+2k+m) Q_l^  and  zeta Q_l + 2(l+1) P_{l+1}^ = 0;

    and (Laplacian + zeta* zeta) applied to sum_l w_l rho^{2l} H, H
    harmonic, leaves only zeta* zeta w_L rho^{2L} H when
    zeta* zeta w_l + 2(l+1)(2l+2k+m) w_{l+1} = 0.  The identities run on
    IntMatrix numerators, and the residual is that one top level, expanded
    by radial_series.  A parabolic form's zeta = f d/dt + fdag acts on
    ProfileWeight coefficients, whose profiles depend on t alone and sit
    right of M; its levels past the last are zero, so zeta Q_top = 0 is
    checked too and the residual is the zero body; its entries are exact
    coefficients on seed derivatives, so no profile is summed or
    differentiated.  Each head is checked at its own degree k, read from
    F.k in head order, and the residual sums the heads' top levels.
    """
    heads = F._radial
    if heads is None:
        return None
    ks = F.k if isinstance(F.k, tuple) else (F.k,)
    ctx = F.ctx
    m, L = ctx.m, F.L
    parabolic = F.zeta is None
    Z = PARABOLIC_ZETA if parabolic else IntMatrix.of(F.zeta)
    if F.mode == "helmholtz":
        ZZ = Z.hat() * Z
        for (_, _, w, _), k in zip(heads, ks):
            if not all(ZZ * w[l]
                       == w[l + 1].scale(-2 * (l + 1) * (2 * l + 2 * k + m))
                       for l in range(L)):
                return None
        tops = [[(L, radial_product(ZZ * w[L], H))] for H, _, w, _ in heads]
    else:
        past = (ProfileWeight(({},) * 4),) if parabolic else ()
        for (_, _, P, Q), k in zip(heads, ks):
            if not (all(Z * p == q.hat().scale(2 * l + 2 * k + m)
                        for l, (p, q) in enumerate(zip(P, Q)))
                    and all(Z * q == p.hat().scale(-2 * (l + 1))
                            for l, (q, p) in enumerate(zip(Q, P[1:] + past)))):
                return None
        if parabolic:
            return SpaceTimeFunction.zero(ctx)
        tops = [[(L, radial_product(Z * Q[L], xM))] for _, xM, _, Q in heads]
    return radial_series(ctx, tops)


def _infer_operator(mode: str) -> str:
    if mode.startswith("parabolic"):
        return "parabolic"
    if mode.startswith("gen-"):
        return "generalized"
    if mode == "helmholtz":
        return "helmholtz"
    raise ValueError(f"cannot infer operator for mode {mode!r}")


def _degrees(R: SpaceTimeFunction) -> Tuple[int, ...]:
    """The spatial degrees of every term of R, sorted."""
    return tuple(sorted({sum(exps) for exps, _, _ in R.keys()}))


def _sift(R: SpaceTimeFunction, noise_floor: float) -> Tuple[int, ...]:
    """The spatial degrees of R's terms above roundoff scale, sorted.

    A term is above roundoff scale when its largest coefficient exceeds
    JUNK_REL times R's largest and noise_floor.
    """
    sizes = [(sum(key[0]), R.term_max_abs(key)) for key in R.keys()]
    cut = max(JUNK_REL * max((size for _, size in sizes), default=0.0),
              noise_floor)
    return tuple(sorted({degree for degree, size in sizes if size > cut}))


def dirac_residual(F: SeriesSolution) -> ResidualReport:
    """Residual of the mode's operator applied to F.

    Exact builds: the symbolic residual must be identically zero.
    Truncated builds: the residual must live only at the top spatial
    degrees 2L+k for the Helmholtz side and 2L+k+1 for the first-order
    operators.  With exact coefficients that is decided on the exact
    residual alone, every coefficient however small.  With float
    coefficients it is decided on the terms above roundoff scale (_sift):
    none, or all at a top degree (a parabolic build needs only degree
    2L+k or above).  Nothing is sampled: every report has the support and
    the expected order, no sup-norms and no estimated order.  Every
    coefficient and lambda of the body must be finite, or ValueError is
    raised.

    Which residual: one path for every operator, made once per solution
    and remembered by it (_residual).  A solution fresh from its builder
    with exact coefficients owns its radial form; when the form passes the
    ladder identities (_ladder_residual), each head at its own degree, the
    residual is the top level zeta Q_L rho^{2L} x M (zeta* zeta w_L
    rho^{2L} H for Helmholtz) summed over the heads, and equals
    symbolic_residual(F) term for term; an exact parabolic build's is the
    zero body.  Every other solution takes symbolic_residual, the
    operator applied to every monomial: inexact or truncated parabolic
    builds, float or Sylvester weights, a loaded, replaced or perturbed
    solution, and a form that fails its ladder.
    """
    op = _infer_operator(F.mode)
    # a body with a radial form is exact, so finite
    if F._radial is None and not F.body.is_finite():
        raise ValueError("the solution has a non-finite coefficient or lambda")
    R, by_ladder = _residual(F)
    report = ResidualReport(mode=F.mode, exact_zero=False, residual_poly=R)
    if F.exact:
        report.exact_zero = R.is_zero()
        report.passed = report.exact_zero
        if not report.exact_zero:
            report.support_degrees = _degrees(R)
        return report

    if R.is_zero():
        report.exact_zero = True
        report.passed = True
        return report

    ks = F.k if isinstance(F.k, tuple) else (F.k,)
    tops = {2 * F.L + kk + (op != "helmholtz") for kk in ks}
    report.expected_order = None if op == "parabolic" else float(min(tops))

    if by_ladder or F.body.is_exact():
        # exact coefficients: the residual itself decides, with no
        # threshold; every coefficient must sit at a top degree
        report.support_degrees = _degrees(R)
        report.passed = set(report.support_degrees) <= tops
        return report

    # a float-coefficient build leaves cancellation junk scaled to the
    # body, which can dwarf a genuinely tiny truncation tail, so only the
    # terms above roundoff scale are read; with none, no tail is left
    support = _sift(R, NOISE_REL * F.body.max_abs())
    report.support_degrees = support or None
    if op == "parabolic":
        # truncated parabolic build: residual allowed only at top degrees
        report.passed = not support or min(support) >= 2 * F.L + min(ks)
    else:
        report.passed = set(support) <= tops
    return report


def cross_check(F_a: SeriesSolution, F_b: SeriesSolution) -> bool:
    """Symbolic equality of the two bodies.

    The radial forms decide when both solutions are generalized or
    Helmholtz builds with their forms (exact builds fresh from their
    builder): such a body is radial_series of its form, so equal forms
    (the same heads M and x M, and equal P_l and Q_l, Q None on both
    sides or neither) mean equal bodies.  The bodies decide, by ==,
    everything else: forms that differ in any part (their bodies may
    still be equal), and any side without its form (a float or parabolic
    build, a loaded, replaced or perturbed solution).  Two exact bodies
    over different denominators compare their cross-multiplied
    numerators key by key, and build no body; raw values are subtracted.
    A parabolic form is not compared: its entries are coefficients on
    each build's own seed chains, which two builds need not share.
    """
    if F_a.ctx.m != F_b.ctx.m:
        raise ValueError("solutions live in different dimensions")
    # tuple == compares the heads' M, x M and IntMatrix levels in turn
    if (F_a.zeta is not None and F_b.zeta is not None
            and F_a._radial is not None and F_a._radial == F_b._radial):
        return True
    return F_a.body == F_b.body
