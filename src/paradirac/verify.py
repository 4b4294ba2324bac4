"""Exact and numeric verification of built solutions.

Three layers: operator identities (the parabolic operator squares to
-Laplacian + d_t), component conditions on the split form (F1 = -d_x F0,
F3 = d_x F2 - F0, and the heat condition on F0 and F2, which together
are equivalent to D F = 0), and residual measurement.  Exact builds get
a symbolic residual that must vanish identically; truncated builds get
the residual's support degrees plus an empirical convergence order from
sup-norms sampled over spheres of shrinking radius.  A truncated build
with exact coefficients is judged on its exact residual, which must sit
wholly at the top degrees.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .algebra import AlgebraContext, Multivector
from .builders import SeriesSolution
from .poly import CliffordPoly
from .timefn import (SpaceTimeFunction, assemble_split, heat_residual,
                     parabolic_dirac)

# sup-norms below this are treated as zero when estimating orders
UNDERFLOW_GUARD = 1e-14
# relative weight under which a symbolic coefficient counts as roundoff junk
JUNK_REL = 1e-12
# float builds cancel body-sized coefficients, so their residuals carry
# junk at eps * |body| regardless of how small the true tail is
NOISE_REL = 1e-13

T_SAMPLES = (0.0, 0.5)
# seeded gaussian directions sampled beside the axes and the diagonal
N_RANDOM = 6


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
    sup_norm_by_radius: List[Tuple[float, float]] = field(default_factory=list)
    estimated_order: Optional[float] = None
    expected_order: Optional[float] = None
    support_degrees: Optional[Tuple[int, ...]] = None
    passed: bool = False
    seed: Optional[int] = None


# -- operator identities -----------------------------------------------------


def check_factorization(ctx: AlgebraContext,
                        samples: Sequence[SpaceTimeFunction]) -> CheckReport:
    """(d_x + f d_t + fdag)^2 F == (-Laplacian + d_t) F on every sample."""
    failures = 0
    for F in samples:
        left = parabolic_dirac(parabolic_dirac(F))
        right = -heat_residual(F)          # -(Lap F - d_t F)
        if not (left - right).is_zero():
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
    The report also computes D F directly and records whether the
    equivalence held (it must, whichever side is true).
    """
    body = F.body if isinstance(F, SeriesSolution) else F
    return _component_report(body, parabolic_dirac(body))


def _component_report(body: SpaceTimeFunction,
                      DF: SpaceTimeFunction) -> CheckReport:
    """check_component_conditions with D F = DF already applied to body."""
    f0, f1, f2, f3 = body.split()
    cond_f1 = (f1 + f0.dirac()).is_zero()
    cond_f3 = (f3 - f2.dirac() + f0).is_zero()
    heat_f0 = heat_residual(f0).is_zero()
    heat_f2 = heat_residual(f2).is_zero()
    conditions = cond_f1 and cond_f3 and heat_f0 and heat_f2
    dirac_zero = DF.is_zero()
    return CheckReport(
        name="component-conditions",
        passed=conditions and dirac_zero,
        detail={"cond_f1": cond_f1, "cond_f3": cond_f3,
                "heat_f0": heat_f0, "heat_f2": heat_f2,
                "dirac_zero": dirac_zero,
                "equivalent": conditions == dirac_zero})


def perturb_component(F: SeriesSolution, slot: int, exps: Sequence[int],
                      coeff: Multivector) -> SeriesSolution:
    """Add coeff * x^exps to split component `slot` (0..3) of a copy of F."""
    parts = list(F.body.split())
    delta = SpaceTimeFunction.from_poly(
        CliffordPoly.monomial(F.ctx, exps, 1).lmul(coeff))
    parts[slot] = parts[slot] + delta
    body = assemble_split(*parts)
    return SeriesSolution(body=body, mode=F.mode, m=F.m, k=F.k, L=F.L,
                          exact=F.exact, zeta=F.zeta,
                          extra=dict(F.extra, mutated_slot=slot))


# -- residual machinery ----------------------------------------------------


def symbolic_residual(F: SeriesSolution) -> SpaceTimeFunction:
    """Apply the operator matching F.mode to the body."""
    op = _infer_operator(F.mode)
    body = F.body
    if op == "parabolic":
        return parabolic_dirac(body)
    if op == "generalized":
        if F.zeta is None:
            raise ValueError("generalized residual needs zeta metadata")
        return body.dirac() + body.lmul(F.zeta.to_multivector(F.ctx))
    if F.zeta is None:
        raise ValueError("helmholtz residual needs zeta metadata")
    sz = F.zeta.star_zeta().to_multivector(F.ctx)
    return body.laplacian() + body.lmul(sz)


def _infer_operator(mode: str) -> str:
    if mode.startswith("parabolic"):
        return "parabolic"
    if mode.startswith("gen-"):
        return "generalized"
    if mode == "helmholtz":
        return "helmholtz"
    raise ValueError(f"cannot infer operator for mode {mode!r}")


def unit_directions(m: int, seed: int = 0) -> List[Tuple[float, ...]]:
    """Axis directions, the diagonal, and N_RANDOM seeded gaussian directions."""
    dirs: List[Tuple[float, ...]] = []
    for i in range(m):
        axis = [0.0] * m
        axis[i] = 1.0
        dirs.append(tuple(axis))
        axis = [0.0] * m
        axis[i] = -1.0
        dirs.append(tuple(axis))
    dirs.append(tuple(1.0 / math.sqrt(m) for _ in range(m)))
    rng = random.Random(seed)
    while len(dirs) < 2 * m + 1 + N_RANDOM:
        v = [rng.gauss(0.0, 1.0) for _ in range(m)]
        norm = math.sqrt(sum(c * c for c in v))
        if norm > 1e-6:
            dirs.append(tuple(c / norm for c in v))
    return dirs


def estimate_order(sup_by_radius: Sequence[Tuple[float, float]]) -> Optional[float]:
    """Mean log-ratio slope over consecutive radii, skipping underflowed ones."""
    pts = sorted(sup_by_radius, key=lambda rv: -rv[0])
    slopes = []
    for (r1, s1), (r2, s2) in zip(pts, pts[1:]):
        if s1 < UNDERFLOW_GUARD or s2 < UNDERFLOW_GUARD:
            continue
        slopes.append(math.log(s1 / s2) / math.log(r1 / r2))
    if not slopes:
        return None
    return sum(slopes) / len(slopes)


def _junk_threshold(R: SpaceTimeFunction, noise_floor: float) -> float:
    return max(JUNK_REL * R.max_abs(), noise_floor)


def _significant_degrees(R: SpaceTimeFunction,
                         noise_floor: float = 0.0) -> Tuple[int, ...]:
    """Spatial degrees carrying coefficients above roundoff scale."""
    if R.is_zero():
        return ()
    cut = _junk_threshold(R, noise_floor)
    degs = set()
    for key, mv in R.terms.items():
        if mv.max_abs() > cut:
            degs.add(sum(key[0]))
    return tuple(sorted(degs))


def _drop_junk(R: SpaceTimeFunction, noise_floor: float) -> SpaceTimeFunction:
    if R.is_zero() or noise_floor == 0.0:
        return R
    cut = _junk_threshold(R, noise_floor)
    return SpaceTimeFunction(R.ctx, {key: mv for key, mv in R.terms.items()
                                     if mv.max_abs() > cut})


def dirac_residual(F: SeriesSolution,
                   radii: Sequence[float] = (1.0, 0.5, 0.25),
                   seed: int = 0, order_tol: float = 0.2) -> ResidualReport:
    """Residual of the mode's operator applied to F.

    Exact builds: the symbolic residual must be identically zero.
    Truncated builds: the residual must live only at the top spatial
    degrees 2L+k for the Helmholtz side and 2L+k+1 for the first-order
    operators.  With exact coefficients that is decided on the exact
    residual, every coefficient however small; the sampled sup-norms and
    their order are still reported.  With float coefficients the support
    is read above roundoff scale, and the sup-norm order across radii
    must match the truncation order within order_tol (a parabolic build
    needs only support at degree 2L+k or above).  The radii must be finite,
    positive and distinct, and at least two for a truncated build, which
    fits an order to them, or ValueError is raised.
    """
    if not (all(math.isfinite(r) and r > 0 for r in radii)
            and len(set(radii)) == len(radii)):
        raise ValueError(f"radii must be finite, positive and distinct, "
                         f"got {list(radii)}")
    if not F.exact and len(radii) < 2:
        raise ValueError(f"a truncated build needs at least two radii to "
                         f"estimate its order, got {list(radii)}")
    R = symbolic_residual(F)
    report = ResidualReport(mode=F.mode, exact_zero=False, residual_poly=R,
                            seed=seed)
    if F.exact:
        report.exact_zero = R.is_zero()
        report.passed = report.exact_zero
        if not report.exact_zero:
            report.support_degrees = _significant_degrees(R)
        return report

    if R.is_zero():
        report.exact_zero = True
        report.passed = True
        return report

    # a float-coefficient build leaves cancellation junk scaled to the
    # body, which can dwarf a genuinely tiny truncation tail
    exact_body = F.body.is_exact()
    noise = 0.0 if exact_body else NOISE_REL * F.body.max_abs()
    R_sig = _drop_junk(R, noise)
    if R_sig.is_zero():
        report.exact_zero = False
        report.passed = True          # pure rounding noise, no real tail
        return report

    dirs = unit_directions(F.ctx.m, seed=seed)
    values = R_sig.evaluate_many([(tuple(r * c for c in d), t) for r in radii
                                  for d in dirs for t in T_SAMPLES])
    sups: List[Tuple[float, float]] = []
    for r in radii:
        sup = 0.0
        for mv in islice(values, len(dirs) * len(T_SAMPLES)):
            val = mv.max_abs()
            if val > sup:
                sup = val
        sups.append((float(r), sup))
    report.sup_norm_by_radius = sups
    # the underflow guard protects against float noise, which lives at the
    # residual's own coefficient scale; fit slopes on the normalized values
    scale = R_sig.max_abs()
    scaled = [(r, s / scale) for r, s in sups] if scale > 0 else sups
    report.estimated_order = estimate_order(scaled)

    support = _significant_degrees(R, noise)
    report.support_degrees = support
    ks = F.k if isinstance(F.k, tuple) else (F.k,)
    op = _infer_operator(F.mode)
    tops = {2 * F.L + kk + (op != "helmholtz") for kk in ks}
    expected = None if op == "parabolic" else float(min(tops))
    report.expected_order = expected

    if exact_body:
        # exact coefficients: the residual itself decides, with no
        # threshold; every coefficient must sit at a top degree
        report.passed = {sum(exps) for exps, _, _ in R.terms} <= tops
        return report

    if all(s < UNDERFLOW_GUARD for _, s in sups):
        # truncation tail vanished identically up to rounding
        report.passed = True
        return report

    if expected is not None:
        support_ok = bool(support) and set(support) <= tops
        order_ok = (report.estimated_order is not None
                    and abs(report.estimated_order - expected) <= order_tol)
        report.passed = support_ok and order_ok
    else:
        # truncated parabolic build: residual allowed only at top degrees
        floor = 2 * F.L + min(ks)
        report.passed = bool(support) and min(support) >= floor
    return report


def cross_check(F_a: SeriesSolution, F_b: SeriesSolution) -> bool:
    """Symbolic equality of the two bodies."""
    if F_a.ctx.m != F_b.ctx.m:
        raise ValueError("solutions live in different dimensions")
    return (F_a.body - F_b.body).is_zero()
