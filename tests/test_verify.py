import math
import random
from fractions import Fraction
from unittest import mock

import pytest

from oracles import sampled_sup_norms
from paradirac.algebra import AlgebraContext
from paradirac.builders import (SeriesSolution, build_generalized,
                                build_helmholtz, build_parabolic_closed,
                                build_parabolic_recurrence)
from paradirac.harmonics import harmonic_basis, monogenic_basis
from paradirac.poly import CliffordPoly
from paradirac.timefn import SpaceTimeFunction, TimeFunction, parabolic_dirac
from paradirac.verify import (NOISE_REL, T_SAMPLES, _drop_junk,
                              check_component_conditions, check_factorization,
                              cross_check, dirac_residual, estimate_order,
                              perturb_component, random_spacetime_poly,
                              symbolic_residual, unit_directions)
from paradirac.zeta import ZetaElement

rng = random.Random(40999)


def exact_solution(m=2, k=0, coeffs=(0, 1)):
    ctx = AlgebraContext(m)
    M = monogenic_basis(ctx, k)[0]
    return build_parabolic_closed(M, TimeFunction.polynomial(ctx, list(coeffs)))


def test_factorization_on_random_samples():
    ctx = AlgebraContext(2)
    samples = [random_spacetime_poly(ctx, rng) for _ in range(30)]
    rep = check_factorization(ctx, samples)
    assert rep.passed
    assert rep.detail == {"samples": 30, "failures": 0}


def test_component_conditions_pass_on_solution():
    rep = check_component_conditions(exact_solution())
    assert rep.passed
    assert rep.detail["equivalent"]
    assert all(rep.detail[k] for k in
               ("cond_f1", "cond_f3", "heat_f0", "heat_f2", "dirac_zero"))


def test_component_conditions_fail_coherently_on_junk():
    # a random polynomial is no null solution; both characterizations
    # must say so together
    ctx = AlgebraContext(2)
    for _ in range(10):
        F = random_spacetime_poly(ctx, rng)
        rep = check_component_conditions(F)
        if parabolic_dirac(F).is_zero():
            continue                        # vanishingly unlikely, skip
        assert not rep.passed
        assert rep.detail["equivalent"]


@pytest.mark.parametrize("slot", [0, 1, 2, 3])
def test_perturbation_is_detected(slot):
    sol = exact_solution()
    ctx = sol.ctx
    bad = perturb_component(sol, slot, (1, 1), ctx.e(1))
    rep = check_component_conditions(bad)
    assert not rep.passed
    assert not parabolic_dirac(bad.body).is_zero()
    assert bad.extra["mutated_slot"] == slot


def test_symbolic_residual_dispatch():
    sol = exact_solution()
    assert symbolic_residual(sol) == parabolic_dirac(sol.body)
    with pytest.raises(ValueError):
        symbolic_residual(SeriesSolution(
            body=sol.body, mode="cubic", m=2, k=0, L=2, exact=True))


def test_symbolic_residual_needs_zeta_metadata():
    sol = exact_solution()
    stripped = SeriesSolution(body=sol.body, mode="gen-monogenic",
                              m=sol.m, k=sol.k, L=sol.L, exact=False)
    with pytest.raises(ValueError):
        symbolic_residual(stripped)


def test_unit_directions_are_unit():
    dirs = unit_directions(3, seed=5)
    assert len(dirs) == 2 * 3 + 1 + 6
    for d in dirs:
        assert math.isclose(sum(c * c for c in d), 1.0, rel_tol=1e-12)
    assert unit_directions(3, seed=5) == dirs       # deterministic


def test_estimate_order_synthetic():
    data = [(1.0, 1e-3), (0.5, 1e-3 * 0.5 ** 5), (0.25, 1e-3 * 0.25 ** 5)]
    assert math.isclose(estimate_order(data), 5.0, rel_tol=1e-12)
    assert estimate_order([(1.0, 0.0), (0.5, 0.0)]) is None


def test_dirac_residual_exact_build():
    rep = dirac_residual(exact_solution())
    assert rep.exact_zero and rep.passed
    assert rep.residual_poly.is_zero()
    assert rep.sup_norm_by_radius == []
    assert rep.estimated_order is None


def test_dirac_residual_rejects_fake_exact():
    # the constant 1 is not annihilated (the operator has order zero
    # part fdag), so an exact-flagged wrapper must fail
    ctx = AlgebraContext(2)
    fake = SeriesSolution(
        body=SpaceTimeFunction.from_poly(CliffordPoly.constant(ctx, 1)),
        mode="parabolic-closed", m=2, k=0, L=2, exact=True)
    rep = dirac_residual(fake)
    assert not rep.exact_zero
    assert not rep.passed


def test_dirac_residual_helmholtz_order():
    ctx = AlgebraContext(2)
    H = harmonic_basis(ctx, 1)[0]
    sol = build_helmholtz(H, ZetaElement(1, 0, 0, 1), L=6)
    rep = dirac_residual(sol)
    assert rep.passed
    assert rep.expected_order == 2 * 6 + 1
    assert abs(rep.estimated_order - rep.expected_order) <= 0.2
    assert rep.support_degrees == (2 * 6 + 1,)


def test_dirac_residual_generalized_order():
    ctx = AlgebraContext(2)
    M = monogenic_basis(ctx, 1)[0]
    sol = build_generalized(M, ZetaElement(1, 0, 0, 1), L=5)
    rep = dirac_residual(sol)
    assert rep.passed
    assert rep.expected_order == 2 * 5 + 1 + 1
    assert abs(rep.estimated_order - rep.expected_order) <= 0.2


def test_dirac_residual_truncated_parabolic_floor():
    ctx = AlgebraContext(2)
    M = monogenic_basis(ctx, 0)[0]
    a = TimeFunction.term(ctx, 1, n=0, lam=Fraction(-1))
    sol = build_parabolic_closed(M, a, L=6)
    rep = dirac_residual(sol)
    assert not sol.exact
    assert rep.passed
    assert min(rep.support_degrees) >= 2 * 6


def test_dirac_residual_custom_radii():
    ctx = AlgebraContext(2)
    sol = build_helmholtz(harmonic_basis(ctx, 0)[0],
                          ZetaElement(0, 1, 1, 0), L=4)
    rep = dirac_residual(sol, radii=(1.0, 0.8, 0.6, 0.4))
    assert len(rep.sup_norm_by_radius) == 4
    assert rep.passed


def test_cross_check_symbolic():
    a = exact_solution(coeffs=(1, 2))
    b = exact_solution(coeffs=(1, 2))
    assert cross_check(a, b)
    c = exact_solution(coeffs=(1, 3))
    assert not cross_check(a, c)


def test_cross_check_dimension_mismatch():
    with pytest.raises(ValueError):
        cross_check(exact_solution(m=2), exact_solution(m=3))


# -- exact verdicts for truncated builds ----------------------------------------


def with_scalar_term(sol, exps, c):
    """sol plus the scalar term c x^exps: a mutant that solves nothing."""
    delta = SpaceTimeFunction.from_poly(CliffordPoly.monomial(sol.ctx, exps, c))
    return SeriesSolution(body=sol.body + delta, mode=sol.mode, m=sol.m,
                          k=sol.k, L=sol.L, exact=sol.exact, zeta=sol.zeta)


def truncated_build(mode, m, k, L):
    """A truncated build with exact coefficients in the given mode."""
    ctx = AlgebraContext(m)
    z = ZetaElement(1, Fraction(1, 2), -1, 2)
    if mode == "helmholtz":
        return build_helmholtz(harmonic_basis(ctx, k)[0], z, L=L)
    M = monogenic_basis(ctx, k)[0]
    a = TimeFunction.term(ctx, 1, lam=-1)
    if mode == "parabolic-closed":
        return build_parabolic_closed(M, a, L=L)
    if mode == "parabolic-recurrence":
        return build_parabolic_recurrence(
            M, {"a0": a, "b2": a.scale(Fraction(-1, 2 * k + m))}, L=L)
    return build_generalized(M, z, L=L, form=mode.split("-", 1)[1])


TRUNCATED_MODES = ("gen-monogenic", "gen-factored", "gen-invertible",
                   "helmholtz", "parabolic-closed", "parabolic-recurrence")


@pytest.mark.parametrize("mode", TRUNCATED_MODES)
@pytest.mark.parametrize("c", [Fraction(1), Fraction(1, 10**15), Fraction(1, 10**25)])
def test_truncated_mutant_fails_on_its_exact_residual(mode, c):
    sol = truncated_build(mode, 2, 1, 8)
    assert not sol.exact and sol.body.is_exact()
    rep = dirac_residual(sol)
    assert rep.passed and not rep.exact_zero
    top = 2 * sol.L + sol.k + (mode != "helmholtz")
    assert {sum(exps) for exps, _, _ in rep.residual_poly.terms} == {top}
    # below the top degree, however small the coefficient
    bad = dirac_residual(with_scalar_term(sol, (3, 0), c))
    assert not bad.passed
    # the reported numbers are still the sampled ones
    assert len(bad.sup_norm_by_radius) == 3


@pytest.mark.parametrize("L", [8, 12, 16])
@pytest.mark.parametrize("c", [Fraction(1, 10**15), Fraction(1, 10**25)])
def test_generalized_mutants_that_sampling_passed(L, c):
    # gen-monogenic m=3 k=2 plus c x1^5: the sampled sup-norms fall under
    # the underflow guard (L >= 12) or the junk cut hides the term (L = 8)
    ctx = AlgebraContext(3)
    sol = build_generalized(monogenic_basis(ctx, 2)[0],
                            ZetaElement(1, Fraction(1, 2), -1, 2), L=L)
    assert dirac_residual(sol).passed
    assert not dirac_residual(with_scalar_term(sol, (5, 0, 0), c)).passed


@pytest.mark.parametrize("m,k,L", [(3, 2, 8), (2, 1, 12), (3, 0, 16)])
def test_parabolic_mutants_that_sampling_passed(m, k, L):
    ctx = AlgebraContext(m)
    sol = build_parabolic_closed(monogenic_basis(ctx, k)[0],
                                 TimeFunction.term(ctx, 1, lam=-1), L=L)
    rep = dirac_residual(sol)
    assert rep.passed
    assert {sum(exps) for exps, _, _ in rep.residual_poly.terms} == {2 * L + k + 1}
    bad = with_scalar_term(sol, (3,) + (0,) * (m - 1), Fraction(1, 10**18))
    assert not dirac_residual(bad).passed


def test_float_truncated_build_keeps_the_sampled_test():
    # float coefficients: roundoff junk below JUNK_REL is still dropped
    ctx = AlgebraContext(2)
    sol = build_generalized(monogenic_basis(ctx, 1)[0],
                            ZetaElement(1.0, 0.5, -1.0, 2.0), L=5)
    assert not sol.body.is_exact()
    assert dirac_residual(sol).passed
    assert dirac_residual(with_scalar_term(sol, (3, 0), 1e-3)).passed is False


@pytest.mark.parametrize("order_tol", [math.nan, -1.0, math.inf, -math.inf])
def test_dirac_residual_rejects_bad_order_tol(order_tol):
    ctx = AlgebraContext(2)
    sol = build_generalized(monogenic_basis(ctx, 0)[0],
                            ZetaElement(1.0, 0.0, 0.0, 1.0), L=4)
    with pytest.raises(ValueError, match="order_tol"):
        dirac_residual(sol, order_tol=order_tol)


def test_dirac_residual_rejects_non_finite_bodies():
    ctx = AlgebraContext(2)
    head = monogenic_basis(ctx, 1)[0]
    overflowed = build_generalized(head, ZetaElement(1e200, 0.0, 0.0, 1e200), L=4)
    sol = build_generalized(head, ZetaElement(1.0, 0.0, 0.0, 1.0), L=4)
    assert dirac_residual(sol).passed
    exact = exact_solution()
    timed = exact.body * TimeFunction.term(ctx, 1, lam=math.inf)
    bad = [overflowed, with_scalar_term(sol, (3, 0), math.inf),
           with_scalar_term(sol, (3, 0), complex(0, math.nan)),
           SeriesSolution(body=timed, mode=exact.mode, m=2, k=0, L=0, exact=True)]
    for F in bad:
        assert not F.body.is_finite()
        with mock.patch("paradirac.verify.symbolic_residual") as residual:
            with pytest.raises(ValueError, match="non-finite"):
                dirac_residual(F)
        residual.assert_not_called()


# -- sampling: one t for a residual without t, every (direction, t) pair else ------


def _with_t(sol):
    """sol with its body multiplied by t, so that the residual has t^1 terms."""
    t = TimeFunction.term(sol.ctx, 1, n=1)
    return SeriesSolution(body=sol.body * t, mode=sol.mode, m=sol.m, k=sol.k,
                          L=sol.L, exact=sol.exact, zeta=sol.zeta)


def _gen(m, k, z, L, form="monogenic"):
    ctx = AlgebraContext(m)
    return build_generalized(monogenic_basis(ctx, k)[-1], z, L=L, form=form)


def _helm(m, k, z, L, radial="direct"):
    ctx = AlgebraContext(m)
    return build_helmholtz(harmonic_basis(ctx, k)[-1], z, L=L, radial=radial)


def _exp_profile(m, k, lam, L):
    ctx = AlgebraContext(m)
    return build_parabolic_closed(monogenic_basis(ctx, k)[0],
                                  TimeFunction.term(ctx, 1, lam=lam), L=L)


Q = ZetaElement(Fraction(1, 2), -1, Fraction(3, 4), 2)
Z = ZetaElement(0.5, -1.2, 0.3, 1.1)
TIME_FREE = {
    "gen-monogenic exact": lambda: _gen(2, 1, Q, 4),
    "gen-factored exact": lambda: _gen(3, 0, Q, 3, "factored"),
    "gen-invertible float": lambda: _gen(2, 1, Z, 4, "invertible"),
    "gen-monogenic float": lambda: _gen(3, 1, Z, 3),
    "helmholtz exact": lambda: _helm(2, 2, Q, 3),
    "helmholtz sylvester": lambda: _helm(3, 1, Z, 4, "sylvester"),
}
TIMED = {
    "parabolic exp exact": lambda: _exp_profile(2, 1, Fraction(-1), 5),
    "parabolic exp float": lambda: _exp_profile(2, 0, -1.0, 4),
    "parabolic oscillating": lambda: _exp_profile(3, 0, 1j, 3),
    "helmholtz times t": lambda: _with_t(_helm(2, 1, Z, 4)),
    "gen-monogenic times t": lambda: _with_t(_gen(2, 0, Q, 3)),
}


def _sampling(sol, seed=3):
    """dirac_residual's report, the batch sizes it evaluated, and the
    residual it sampled (the symbolic one, less junk for a float body)."""
    batches = []
    evaluate_many = SpaceTimeFunction.evaluate_many

    def spy(self, points):
        points = list(points)
        batches.append(len(points))
        return evaluate_many(self, points)

    with mock.patch.object(SpaceTimeFunction, "evaluate_many", spy):
        rep = dirac_residual(sol, seed=seed)
    noise = 0.0 if sol.body.is_exact() else NOISE_REL * sol.body.max_abs()
    return rep, batches, _drop_junk(rep.residual_poly, noise)


def _bits(sups):
    return [(repr(r), repr(s)) for r, s in sups]


@pytest.mark.parametrize("name", sorted(TIME_FREE))
def test_time_free_residual_is_sampled_once_per_point(name):
    rep, batches, R = _sampling(TIME_FREE[name]())
    assert R.is_polynomial() and R.max_n() == 0
    assert batches == [3 * len(unit_directions(R.ctx.m, seed=3))]
    want = sampled_sup_norms(R, (1.0, 0.5, 0.25), seed=3)
    assert _bits(rep.sup_norm_by_radius) == _bits(want)
    assert any(s > 0 for _, s in want)


@pytest.mark.parametrize("name", sorted(TIMED))
def test_residual_with_t_is_sampled_at_every_pair(name):
    rep, batches, R = _sampling(TIMED[name]())
    assert not (R.is_polynomial() and R.max_n() == 0)
    dirs = unit_directions(R.ctx.m, seed=3)
    assert batches == [3 * len(dirs) * len(T_SAMPLES)]
    want = sampled_sup_norms(R, (1.0, 0.5, 0.25), seed=3)
    assert _bits(rep.sup_norm_by_radius) == _bits(want)
