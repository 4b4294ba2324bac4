import dataclasses
import json
import math
import random
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (dyadic_zeta, estimate_order, form_chains, sampled_order,
                     split_perturbed, typed, unit_directions, weight_profiles)
from paradirac import builders, verify
from paradirac.algebra import AlgebraContext, Multivector, witt_basis
from paradirac.builders import (ALL_MODES, SEEDS, SeriesSolution,
                                build_generalized, build_helmholtz,
                                build_parabolic_closed,
                                build_parabolic_recurrence)
from paradirac.harmonics import harmonic_basis, monogenic_basis
from paradirac.poly import Sum, integer_rescale, rho_squared, vector_variable
from paradirac.scalars import GaussianRational
from paradirac.serialize import (load_solution, residual_report_to_dict,
                                 save_solution, solution_to_dict)
from paradirac.timefn import (PARABOLIC_ZETA, ProfileWeight, SpaceTimeFunction,
                              TimeFunction, parabolic_dirac)
from paradirac.verify import (check_component_conditions, check_factorization,
                              cross_check, dirac_residual, perturb_component,
                              random_spacetime_poly, symbolic_residual)
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
    # the parent is verified first, so that it has D F remembered
    sol = exact_solution()
    assert dirac_residual(sol).passed
    assert check_component_conditions(sol).passed
    ctx = sol.ctx
    bad = perturb_component(sol, slot, (1, 1), ctx.e(1))
    rep = check_component_conditions(bad)
    assert not rep.passed and not rep.detail["dirac_zero"]
    assert rep.detail["equivalent"]
    assert not dirac_residual(bad).passed
    assert not parabolic_dirac(bad.body).is_zero()
    assert bad.extra["mutated_slot"] == slot
    # the parent's verdicts stand
    assert dirac_residual(sol).passed
    assert check_component_conditions(sol).passed


@pytest.mark.parametrize("slot", [-1, 4])
def test_perturbation_refuses_a_slot_outside_0_to_3(slot):
    # -1 would index the f fdag part and 4 no part at all
    sol = exact_solution()
    with pytest.raises(ValueError, match=f"got {slot}"):
        perturb_component(sol, slot, (1, 1), sol.ctx.e(1))


def _perturb_base(kind):
    """A parabolic solution with exact, Gaussian or float coefficients that
    passes both checks; the float one has integral values, so that neither
    a split and assembly nor a sum rounds."""
    ctx = AlgebraContext(2)
    M = monogenic_basis(ctx, 1)[1]
    if kind == "gaussian":
        return build_parabolic_closed(M, TimeFunction.polynomial(
            ctx, [GaussianRational(1, 2), 0, Fraction(-1, 3)]))
    sol = build_parabolic_recurrence(M, {
        "a0": TimeFunction.polynomial(ctx, [1, Fraction(-1, 2), 3]),
        "b2": TimeFunction.polynomial(ctx, [0, Fraction(2, 3)])})
    if kind == "exact":
        return sol
    body = integer_rescale(sol.body).scale(1.0)
    return SeriesSolution(body=body, mode=sol.mode, m=sol.m, k=sol.k, L=sol.L,
                          exact=False)


def test_perturbation_leaves_the_other_terms_of_a_float_body():
    # a split and assembly rounds (1e-20 - 1) + 1 to 0 in the scalar
    # blade of a term beside its eps e_(m+1) blade; adding the monomial to
    # the body rounds nothing it does not touch
    ctx = AlgebraContext(2)
    eps_top = (1 << 3) | 1
    body = SpaceTimeFunction(ctx, {((1, 0), 0, 0): Multivector(
        ctx, {0: 1e-20, eps_top: 1.0})})
    sol = SeriesSolution(body=body, mode="parabolic-closed", m=2, k=0, L=1,
                         exact=False)
    for slot in range(4):
        bad = perturb_component(sol, slot, (0, 1), ctx.e(1))
        assert bad.body.coeffs(((1, 0), 0, 0)) == {0: 1e-20, eps_top: 1.0}


@pytest.mark.parametrize("kind", ["exact", "gaussian", "float"])
@pytest.mark.parametrize("slot", [0, 1, 2, 3])
def test_perturbation_adds_to_one_split_component(kind, slot):
    # against the split of the body, the slot's component plus the
    # monomial, and the four components assembled again
    sol = _perturb_base(kind)
    ctx = sol.ctx
    assert dirac_residual(sol).passed and check_component_conditions(sol).passed
    scalar = {"exact": Fraction(-3, 2), "gaussian": GaussianRational(1, 1),
              "float": 2.0}[kind]
    coeff = ctx.e(1) * scalar + ctx.e(1) * ctx.e(2)
    bad = perturb_component(sol, slot, (1, 1), coeff)
    delta = SpaceTimeFunction.monomial(ctx, (1, 1), 1).lmul(coeff)
    want = split_perturbed(sol.body, slot, delta)
    assert bad.body == want
    assert typed(bad.body.terms) == typed(want.terms)
    assert ({key: {b: type(v) for b, v in bad.body.coeffs(key).items()}
             for key in bad.body.keys()}
            == {key: {b: type(v) for b, v in want.coeffs(key).items()}
                for key in want.keys()})
    assert bad.extra["mutated_slot"] == slot and bad._radial is None
    rep, comp = dirac_residual(bad), check_component_conditions(bad)
    assert not rep.passed and not comp.passed
    assert comp.detail["equivalent"] and not comp.detail["dirac_zero"]


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


def assert_nothing_sampled(rep):
    """The report as written: the sampling keys hold no sup-norms, no
    estimated order and seed 0."""
    data = residual_report_to_dict(rep)
    assert (data["sup_norm_by_radius"], data["estimated_order"],
            data["seed"]) == ([], None, 0)


def test_dirac_residual_exact_build():
    rep = dirac_residual(exact_solution())
    assert rep.exact_zero and rep.passed
    assert rep.residual_poly.is_zero()
    assert_nothing_sampled(rep)


def test_dirac_residual_rejects_fake_exact():
    # the constant 1 is not annihilated (the operator has order zero
    # part fdag), so an exact-flagged wrapper must fail
    ctx = AlgebraContext(2)
    fake = SeriesSolution(
        body=SpaceTimeFunction.constant(ctx, 1),
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
    # exact coefficients: judged on the exact residual, nothing sampled;
    # the residual the report holds still decays at the expected order
    assert_nothing_sampled(rep)
    order = sampled_order(rep.residual_poly, (1.0, 0.5, 0.25), seed=0)
    assert abs(order - rep.expected_order) <= 0.2
    assert rep.support_degrees == (2 * 6 + 1,)


def test_dirac_residual_generalized_order():
    ctx = AlgebraContext(2)
    M = monogenic_basis(ctx, 1)[0]
    sol = build_generalized(M, ZetaElement(1, 0, 0, 1), L=5)
    rep = dirac_residual(sol)
    assert rep.passed
    assert rep.expected_order == 2 * 5 + 1 + 1
    assert_nothing_sampled(rep)
    order = sampled_order(rep.residual_poly, (1.0, 0.5, 0.25), seed=0)
    assert abs(order - rep.expected_order) <= 0.2


def test_dirac_residual_truncated_parabolic_floor():
    ctx = AlgebraContext(2)
    M = monogenic_basis(ctx, 0)[0]
    a = TimeFunction.term(ctx, 1, n=0, lam=Fraction(-1))
    sol = build_parabolic_closed(M, a, L=6)
    rep = dirac_residual(sol)
    assert not sol.exact
    assert rep.passed
    assert min(rep.support_degrees) >= 2 * 6


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
    delta = SpaceTimeFunction.monomial(sol.ctx, exps, c)
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
    # decided on the exact residual alone: nothing is sampled
    for r in (rep, bad):
        assert_nothing_sampled(r)


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


def test_float_truncated_build_is_judged_above_roundoff():
    # float coefficients: roundoff junk below JUNK_REL is still dropped
    ctx = AlgebraContext(2)
    sol = build_generalized(monogenic_basis(ctx, 1)[0],
                            ZetaElement(1.0, 0.5, -1.0, 2.0), L=5)
    assert not sol.body.is_exact()
    assert dirac_residual(sol).passed
    assert dirac_residual(with_scalar_term(sol, (3, 0), 1e-3)).passed is False


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


# -- nothing is sampled, float or exact ------------------------------------------


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
# truncated builds with float coefficients, judged above roundoff scale
TIME_FREE = {
    "gen-invertible float": lambda: _gen(2, 1, Z, 4, "invertible"),
    "gen-monogenic float": lambda: _gen(3, 1, Z, 3),
    "helmholtz sylvester": lambda: _helm(3, 1, Z, 4, "sylvester"),
}
TIMED = {
    "parabolic exp float": lambda: _exp_profile(2, 0, -1.0, 4),
    "parabolic oscillating": lambda: _exp_profile(3, 0, 1j, 3),
    "helmholtz times t": lambda: _with_t(_helm(2, 1, Z, 4)),
}
# truncated builds with exact coefficients, judged on the exact residual
EXACT_TRUNCATED = {
    "gen-monogenic exact": lambda: _gen(2, 1, Q, 4),
    "gen-factored exact": lambda: _gen(3, 0, Q, 3, "factored"),
    "helmholtz exact": lambda: _helm(2, 2, Q, 3),
    "parabolic exp exact": lambda: _exp_profile(2, 1, Fraction(-1), 5),
    "gen-monogenic times t": lambda: _with_t(_gen(2, 0, Q, 3)),
}


@pytest.mark.parametrize("name", sorted({**TIME_FREE, **TIMED, **EXACT_TRUNCATED}))
def test_dirac_residual_evaluates_nothing(name):
    sol = {**TIME_FREE, **TIMED, **EXACT_TRUNCATED}[name]()
    assert not sol.exact
    with mock.patch.object(SpaceTimeFunction, "evaluate_many") as evaluate:
        rep = dirac_residual(sol)
    evaluate.assert_not_called()
    assert rep.passed and not rep.exact_zero
    assert_nothing_sampled(rep)


# -- a float build and its exact twin get one verdict ------------------------------

TWIN_ZETAS = (ZetaElement(0.5, -1.2, 0.3, 1.1), ZetaElement(3.0, 2.0, -2.0, 4.0),
              ZetaElement(0.25, 0.0, 0.0, 0.5))


@pytest.mark.parametrize("mode", ["gen-monogenic", "helmholtz"])
@pytest.mark.parametrize("m", [2, 3])
# basis index 1 of every degree but 0, whose basis has one element
@pytest.mark.parametrize("ks, index", [
    pytest.param(ks, index, id=f"k{ks[0]},{ks[1]}-index{index}")
    for index in (0, 1) for ks in ((0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0, 3))
    if not (index and 0 in ks)])
@pytest.mark.parametrize("L", [2, 4, 6])
def test_a_float_build_passes_as_its_exact_twin_does(mode, m, ks, index, L):
    # the residual of two head degrees sits at both top degrees, so no
    # single decay order fits it
    ctx = AlgebraContext(m)
    basis = harmonic_basis if mode == "helmholtz" else monogenic_basis
    heads = [basis(ctx, k)[index] for k in ks]
    build = build_helmholtz if mode == "helmholtz" else build_generalized
    for z in TWIN_ZETAS:
        verdicts = [dirac_residual(build(heads, zeta, L=L)).passed
                    for zeta in (z, dyadic_zeta(z))]
        assert verdicts == [True, True], z


def test_a_float_tail_too_small_to_sample_passes_by_its_support():
    # sampled at radii 0.5 and 0.25 this degree-41 tail is below 1e-14
    # times its largest coefficient
    sol = _gen(2, 0, ZetaElement(20.0, 5.0, -7.0, 11.0), 20)
    rep = dirac_residual(sol)
    assert rep.passed and rep.support_degrees == (41,)
    assert dirac_residual(_gen(2, 0, dyadic_zeta(sol.zeta), 20)).passed


# -- the residual made once per solution: the memo a solution keeps -----------


@pytest.mark.parametrize("build", [
    lambda: exact_solution(), lambda: _gen(2, 1, Q, 4), lambda: _helm(2, 2, Q, 3),
], ids=["parabolic", "gen-monogenic", "helmholtz"])
def test_a_solution_refuses_every_assignment(build):
    # its form and its residual are its own for good
    sol = build()
    rep = dirac_residual(sol)
    for f in dataclasses.fields(sol):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sol, f.name, getattr(sol, f.name))
    assert dirac_residual(sol) == rep


def _count_dirac(monkeypatch):
    """The bodies verify applies the parabolic operator to, in call order."""
    calls = []
    apply = verify.parabolic_dirac

    def counted(F):
        calls.append(F)
        return apply(F)

    monkeypatch.setattr(verify, "parabolic_dirac", counted)
    return calls


@pytest.mark.parametrize("residual_first", [True, False])
def test_residual_and_component_check_apply_D_once(monkeypatch, residual_first):
    calls = _count_dirac(monkeypatch)
    # a copy has no radial form, so D is applied to it, once
    sol = dataclasses.replace(exact_solution(k=1, coeffs=(1, 2)))
    if residual_first:
        assert dirac_residual(sol).passed
    assert check_component_conditions(sol).passed
    assert dirac_residual(sol).passed
    assert len(calls) == 1 and calls[0] is sol.body


def test_a_new_body_is_applied_afresh(monkeypatch, tmp_path):
    # a loaded solution has no radial form, so D is applied to it
    path = str(tmp_path / "sol.json")
    save_solution(exact_solution(k=1, coeffs=(1, 2)), path)
    sol = load_solution(path)
    calls = _count_dirac(monkeypatch)
    assert dirac_residual(sol).passed
    good = sol.body
    bad = perturb_component(sol, 0, (1, 0), sol.ctx.e(1)).body
    changed = dataclasses.replace(sol, body=bad)
    rep = check_component_conditions(changed)
    assert not rep.passed and not rep.detail["dirac_zero"]
    assert rep.detail["equivalent"]
    assert not dirac_residual(changed).passed
    assert changed._residual == (parabolic_dirac(bad), False)
    assert len(calls) == 2 and calls[0] is good and calls[1] is bad
    # a copy starts with nothing remembered
    assert not dirac_residual(dataclasses.replace(changed)).passed
    assert dirac_residual(dataclasses.replace(changed, body=good)).passed
    assert len(calls) == 4 and calls[2] is bad and calls[3] is good
    # the loaded solution still has its own
    assert dirac_residual(sol).passed and len(calls) == 4


FRESH_PARABOLIC = {
    "closed": lambda: exact_solution(m=3, k=2, coeffs=(1, 0, -2, 1)),
    "recurrence": lambda: _recurrence(2, 1, {
        "a0": (1, 2), "b0": (0, 0, 3), "a2": (-1,), "b2": (1, -1)}),
}


def _seeds(m, seeds):
    """name -> the polynomial with coefficients c, from name -> c."""
    ctx = CONTEXTS[m]
    return {name: TimeFunction.polynomial(ctx, list(c)) for name, c in seeds.items()}


def _recurrence(m, k, seeds):
    return build_parabolic_recurrence(monogenic_basis(CONTEXTS[m], k)[0],
                                      _seeds(m, seeds))


@pytest.mark.parametrize("name", sorted(FRESH_PARABOLIC))
def test_a_fresh_exact_build_applies_neither_D_nor_split_nor_heat(
        monkeypatch, name):
    calls = _count_dirac(monkeypatch)
    split, split_of = [], verify.condition_rows

    def counted_split(F):
        split.append(F)
        return split_of(F)

    # an exact body's conditions are read off one pass that splits it
    monkeypatch.setattr(verify, "condition_rows", counted_split)
    sol = FRESH_PARABOLIC[name]()
    with mock.patch.object(verify, "_ladder_residual",
                           wraps=verify._ladder_residual) as ladder:
        rep, comp = dirac_residual(sol), check_component_conditions(sol)
    assert rep.passed and rep.exact_zero and rep.residual_poly.is_zero()
    assert comp.passed and all(comp.detail.values())
    assert (calls, split, ladder.call_count) == ([], [], 1)
    # the same body without its form takes D and the split conditions,
    # each once, and reports the same
    slow = dataclasses.replace(sol)
    assert report_text(dirac_residual(slow)) == report_text(rep)
    slow_comp = check_component_conditions(slow)
    assert (slow_comp.passed, slow_comp.detail) == (comp.passed, comp.detail)
    assert calls == [slow.body] and split == [slow.body]


def test_verifying_changes_no_visible_part_of_a_solution():
    sol = exact_solution(k=1, coeffs=(1, 2))
    twin = exact_solution(k=1, coeffs=(1, 2))
    before = (repr(sol), solution_to_dict(sol))
    dirac_residual(sol)
    check_component_conditions(sol)
    assert sol == twin and twin == sol
    assert (repr(sol), solution_to_dict(sol)) == before


def _mutant():
    sol = exact_solution(k=1, coeffs=(1, 2))
    return perturb_component(sol, 3, (2, 1), sol.ctx.e(1))


REMEMBERED = {
    "parabolic exact": lambda: exact_solution(m=3, k=2, coeffs=(1, 0, -2)),
    "parabolic truncated": lambda: _exp_profile(2, 1, Fraction(-1), 5),
    "parabolic mutant": _mutant,
    "recurrence": lambda: truncated_build("parabolic-recurrence", 2, 1, 4),
    "gen-monogenic": lambda: _gen(2, 1, Q, 4),
}


@pytest.mark.parametrize("name", sorted(REMEMBERED))
def test_remembered_reports_equal_fresh_ones(name):
    sol = REMEMBERED[name]()
    parabolic = sol.mode.startswith("parabolic")

    def reports():
        res = dirac_residual(sol)
        if parabolic:
            return res, check_component_conditions(sol)
        # the component conditions are those of the parabolic operator
        with pytest.raises(ValueError, match=sol.mode):
            check_component_conditions(sol)
        return res, None

    first, again = reports(), reports()
    # a fresh solution's residual, and the check on the bare body, which
    # has no memo to read
    body = REMEMBERED[name]().body
    want = (dirac_residual(REMEMBERED[name]()), check_component_conditions(body))
    for res, comp in (first, again):
        assert res == want[0]           # every field, residual_poly included
        if parabolic:
            assert (comp.passed, comp.detail) == (want[1].passed,
                                                  want[1].detail)


# -- property sweep: every build verifies, every single-coefficient mutant fails


CONTEXTS = {m: AlgebraContext(m) for m in (1, 2, 3, 4)}
# the bench catalogue's bounds: series order L, and the degree of a
# polynomial profile, per m
L_MAX = {1: 8, 2: 8, 3: 6, 4: 4}
PROFILE_DEGREE_MAX = {1: 5, 2: 5, 3: 4, 4: 3}

small_q = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 4))
SCALARS = {
    "rational": small_q,
    "integer": st.integers(-3, 3).filter(bool),
    "gaussian": st.builds(GaussianRational, small_q, small_q),
}
ZETAS = {
    "rational": st.tuples(*[small_q] * 4),
    "integer": st.tuples(*[st.integers(-3, 3)] * 4),
    "gaussian": st.tuples(*[st.builds(GaussianRational, small_q,
                                      st.integers(-2, 2))] * 4).filter(
        lambda e: any(v.im for v in e)),
    # one repeated eigenvalue, not diagonalizable: det(zeta) = -lam^2
    "defective": st.builds(lambda lam, u, v: (lam + u, v, u * u / v, u - lam),
                           small_q, small_q, small_q),
    "det0": st.builds(lambda a, b, c: (a, b, c, b * c / a),
                      small_q, small_q, small_q),
}


@lru_cache(maxsize=None)
def _heads(m, k, harmonic):
    ctx = CONTEXTS[m]
    return tuple((harmonic_basis if harmonic else monogenic_basis)(ctx, k))


def _profile(data, ctx, m):
    """A polynomial profile (an exact build) or c e^(lam t) (truncated)."""
    c = st.one_of(*SCALARS.values())
    if data.draw(st.booleans(), label="polynomial profile"):
        coeffs = data.draw(st.lists(st.one_of(st.just(0), c),
                                    max_size=PROFILE_DEGREE_MAX[m]))
        return TimeFunction.polynomial(ctx, coeffs + [data.draw(c)])
    return TimeFunction.term(ctx, data.draw(c), lam=data.draw(small_q))


def _sweep_build(data, m, mode):
    ctx = CONTEXTS[m]
    harmonic = mode == "helmholtz"
    k = data.draw(st.sampled_from(
        [k for k in range(4) if _heads(m, k, harmonic)]), label="k")
    head = data.draw(st.sampled_from(_heads(m, k, harmonic)), label="head")
    L = data.draw(st.integers(1, L_MAX[m]), label="L")
    if mode == "parabolic-closed":
        return build_parabolic_closed(head, _profile(data, ctx, m), L=L)
    if mode == "parabolic-recurrence":
        names = data.draw(st.sets(st.sampled_from(("a0", "b0", "a2", "b2")),
                                  min_size=1), label="seeds")
        return build_parabolic_recurrence(
            head, {name: _profile(data, ctx, m) for name in sorted(names)}, L=L)
    kinds = sorted(ZETAS)
    if mode == "gen-invertible":
        kinds.remove("det0")
    z = ZetaElement(*data.draw(ZETAS[data.draw(st.sampled_from(kinds))],
                               label="zeta"))
    if mode == "helmholtz":
        return build_helmholtz(head, z, L=L)
    assume(mode != "gen-invertible" or z.det())
    return build_generalized(head, z, L=L, form=mode.split("-", 1)[1])


def _detectable(sol, exps, coeff) -> bool:
    """False only for a Helmholtz mutation that solves the equation below
    the top degree 2L+k: a harmonic monomial that zeta* zeta annihilates
    or that sits at the top degree itself.  Every other mutation leaves a
    residual term below the top degree."""
    if sol.mode != "helmholtz" or max(exps) > 1:
        return True
    sz = sol.zeta.star_zeta().to_multivector(sol.ctx)
    return not (sz * coeff).is_zero() and sum(exps) < 2 * sol.L + sol.k


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sweep_builds_verify_and_single_coefficient_mutants_fail(data):
    m = data.draw(st.integers(1, 4), label="m")
    mode = data.draw(st.sampled_from(ALL_MODES), label="mode")
    sol = _sweep_build(data, m, mode)
    parabolic = mode.startswith("parabolic")
    assert sol.body.is_exact()
    parent = sol.body
    rep, monomial = _residual_and_monomial_calls(sol)
    assert rep.passed
    if not parabolic:
        # judged by the radial ladder, with the report a copy without the
        # radial form gets from the monomial residual
        assert monomial == 0
        assert rep.residual_poly == symbolic_residual(sol)
        slow, monomial = _residual_and_monomial_calls(dataclasses.replace(sol))
        assert monomial == 1
        assert (rep.support_degrees, rep.passed) == (slow.support_degrees,
                                                     slow.passed)
        assert report_text(rep) == report_text(slow)
    if parabolic:
        comp = check_component_conditions(sol)
        assert comp.detail["equivalent"]
        assert comp.passed == rep.residual_poly.is_zero()
        assert comp.passed or not sol.exact
    # a nilpotent zeta* zeta leaves a Helmholtz body of degree 0: no mutant
    top = max(sum(key[0]) for key in parent.keys())
    for _ in range(data.draw(st.integers(1, 3), label="mutants") if top else 0):
        degree = data.draw(st.integers(1, top), label="degree")
        axes = data.draw(st.lists(st.integers(0, m - 1), min_size=degree,
                                  max_size=degree), label="axes")
        exps = tuple(axes.count(i) for i in range(m))
        mask = data.draw(st.integers(0, (1 << (m + 2)) - 1), label="blade")
        c = data.draw(st.sampled_from((1, -2, Fraction(1, 3),
                                       Fraction(-1, 10**20))), label="c")
        coeff = Multivector(sol.ctx, {mask: c})
        if not _detectable(sol, exps, coeff):
            continue
        mutant = dataclasses.replace(sol, body=parent + SpaceTimeFunction.monomial(
            sol.ctx, exps, 1).lmul(coeff))
        assert not dirac_residual(mutant).passed, (exps, mask, c)
        if parabolic:
            comp = check_component_conditions(mutant)
            assert not comp.passed and comp.detail["equivalent"]
    assert sol.body is parent and dirac_residual(sol) == rep


# -- the radial ladder: which builds skip the monomial residual -----------------


def _residual_and_monomial_calls(sol):
    """dirac_residual's report on sol, and how often it called
    symbolic_residual, the operator applied to every monomial."""
    with mock.patch.object(verify, "symbolic_residual",
                           wraps=verify.symbolic_residual) as monomial:
        rep = dirac_residual(sol)
    return rep, monomial.call_count


def report_text(rep):
    """The report as paradirac verify --out writes it."""
    return json.dumps(residual_report_to_dict(rep), indent=1)


GQ = ZetaElement(GaussianRational(1, 2), Fraction(-1, 3), GaussianRational(0, 1), 2)
SERIES = {
    "gen-monogenic": lambda: _gen(2, 1, Q, 4),
    "gen-monogenic gaussian": lambda: _gen(3, 1, GQ, 3),
    "gen-factored": lambda: _gen(3, 0, Q, 3, "factored"),
    "gen-factored det0": lambda: _gen(2, 2, ZetaElement(1, 2, 1, 2), 4, "factored"),
    "gen-invertible": lambda: _gen(2, 2, GQ, 3, "invertible"),
    "helmholtz": lambda: _helm(2, 2, Q, 3),
    "helmholtz gaussian": lambda: _helm(3, 1, GQ, 4),
}


@pytest.mark.parametrize("name", sorted(SERIES))
def test_fresh_series_builds_are_judged_by_the_ladder(name):
    sol = SERIES[name]()
    rep, monomial = _residual_and_monomial_calls(sol)
    assert monomial == 0
    assert rep.passed and not rep.exact_zero
    assert rep.residual_poly == symbolic_residual(sol)
    top = 2 * sol.L + sol.k + (sol.mode != "helmholtz")
    assert rep.support_degrees == (top,)


@pytest.mark.parametrize("name", sorted(SERIES))
def test_a_series_ladder_runs_once_per_solution(name):
    sol = SERIES[name]()
    with mock.patch.object(verify, "_ladder_residual",
                           wraps=verify._ladder_residual) as ladder:
        first, second = dirac_residual(sol), dirac_residual(sol)
    assert ladder.call_count == 1
    assert first.passed and report_text(first) == report_text(second)


@pytest.mark.parametrize("name", sorted(SERIES))
def test_bodies_without_their_radial_form_take_the_monomial_residual(
        name, tmp_path):
    sol = SERIES[name]()
    fast = dirac_residual(sol)
    path = tmp_path / "sol.json"
    save_solution(sol, str(path))
    same = {"replace": dataclasses.replace(sol),
            "replaced body": dataclasses.replace(sol, body=sol.body.scale(1)),
            "loaded": load_solution(str(path))}
    for how, other in same.items():
        rep, monomial = _residual_and_monomial_calls(other)
        assert monomial == 1, how
        assert report_text(rep) == report_text(fast), how
    mutant = perturb_component(sol, 0, (1,) * sol.m, sol.ctx.e(1))
    rep, monomial = _residual_and_monomial_calls(mutant)
    assert monomial == 1 and not rep.passed
    # the solution itself still has its form
    assert _residual_and_monomial_calls(sol) == (fast, 0)


@pytest.mark.parametrize("build", [
    lambda: _gen(2, 1, Z, 4),
    lambda: _gen(3, 0, Z, 3, "factored"),
    lambda: _helm(2, 1, Z, 4),
    lambda: _helm(2, 1, Q, 4, "sylvester"),
], ids=["gen-monogenic float", "gen-factored float", "helmholtz float",
        "helmholtz sylvester"])
def test_float_series_builds_take_the_monomial_residual(build):
    sol = build()
    assert not sol.body.is_exact()
    rep, monomial = _residual_and_monomial_calls(sol)
    assert monomial == 1 and rep.passed


@pytest.mark.parametrize("name, level", [
    ("gen-monogenic", 0), ("gen-factored", 2), ("gen-invertible", 3),
    ("helmholtz", 1)])
@pytest.mark.parametrize("which", [0, 1])
def test_a_corrupted_radial_form_falls_back_and_passes_a_correct_body(
        name, level, which):
    sol = SERIES[name]()
    want = dirac_residual(dataclasses.replace(sol))
    ((M, xM, P, Qs),) = sol._radial
    ladder = [list(P), Qs and list(Qs)]
    if ladder[which] is None:           # Helmholtz: w_l only
        which = 0
    ladder[which][level] = ladder[which][level].scale(2)
    bad = dataclasses.replace(sol)
    object.__setattr__(bad, "_radial", (
        (M, xM, tuple(ladder[0]), ladder[1] and tuple(ladder[1])),))
    rep, monomial = _residual_and_monomial_calls(bad)
    assert monomial == 1 and rep.passed
    assert report_text(rep) == report_text(want)


@pytest.mark.parametrize("field, value", [
    ("zeta", ZetaElement(1, 0, 0, 1)), ("L", 3), ("k", (1,)),
    ("mode", "helmholtz")])
def test_changed_metadata_drops_the_radial_form(field, value):
    sol = dataclasses.replace(_gen(2, 1, Q, 4), **{field: value})
    assert sol._radial is None
    rep, monomial = _residual_and_monomial_calls(sol)
    assert monomial == 1
    assert not rep.passed or field == "k"


@pytest.mark.parametrize("form", ["monogenic", "factored", "invertible"])
@pytest.mark.parametrize("degrees", [(1, 1), (2, 0)])
def test_several_heads(form, degrees):
    # heads of one degree or several: the ladder checks each at its own
    ctx = AlgebraContext(2)
    bases = [monogenic_basis(ctx, k) for k in degrees]
    heads = [basis[i % len(basis)] for i, basis in enumerate(bases)]
    assert heads[0] != heads[1]
    sol = build_generalized(heads, GQ, L=3, form=form)
    rep, monomial = _residual_and_monomial_calls(sol)
    assert rep.passed and monomial == 0
    slow = dirac_residual(dataclasses.replace(sol))
    assert report_text(rep) == report_text(slow)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fresh_builds_of_several_heads_take_the_ladder(data):
    # two or three heads, of one degree or several: the ladder checks
    # each at its own degree, and the report is the one a copy without
    # the radial form gets from the monomial residual
    m = data.draw(st.integers(1, 3), label="m")
    mode = data.draw(st.sampled_from(
        ["gen-monogenic", "gen-factored", "gen-invertible", "helmholtz"]),
        label="mode")
    harmonic = mode == "helmholtz"
    degrees = data.draw(st.lists(st.sampled_from(
        [k for k in range(4) if _heads(m, k, harmonic)]), min_size=2,
        max_size=3), label="degrees")
    heads = [data.draw(st.sampled_from(_heads(m, k, harmonic)), label="head")
             for k in degrees]
    L = data.draw(st.integers(0, 5), label="L")
    kinds = ["rational", "gaussian", "det0", "defective"]
    z = ZetaElement(*data.draw(ZETAS[data.draw(st.sampled_from(kinds))],
                               label="zeta"))
    if harmonic:
        sol = build_helmholtz(heads, z, L=L)
    else:
        assume(mode != "gen-invertible" or z.det())
        sol = build_generalized(heads, z, L=L, form=mode.split("-", 1)[1])
    rep, monomial = _residual_and_monomial_calls(sol)
    assert monomial == 0 and rep.passed
    assert report_text(rep) == report_text(dirac_residual(dataclasses.replace(sol)))


def test_a_closed_build_on_wrong_0F1_weights_fails(monkeypatch):
    # apply_0F1 run at gamma + 1 sums a wrong M block and records its
    # wrong weights; the build's form holds those weights, so the ladder
    # rejects the form and the monomial residual the body
    real = builders.apply_0F1
    monkeypatch.setattr(builders, "apply_0F1",
                        lambda gamma, *args: real(gamma + 1, *args))
    ctx = AlgebraContext(2)
    a = TimeFunction.polynomial(ctx, [1, -2, Fraction(1, 2), 3])
    sol = build_parabolic_closed(monogenic_basis(ctx, 1)[0], a)
    assert sol.exact and sol._radial is not None
    rep = dirac_residual(sol)
    assert not rep.passed and not rep.exact_zero
    assert not symbolic_residual(sol).is_zero()
    assert not check_component_conditions(sol).passed


@pytest.mark.parametrize("name", sorted(SERIES))
def test_component_conditions_reject_series_modes(name):
    sol = SERIES[name]()
    assert dirac_residual(sol).passed
    with pytest.raises(ValueError, match=sol.mode):
        check_component_conditions(sol)
    # a bare body is checked for D as before
    rep = check_component_conditions(sol.body)
    assert rep.detail["equivalent"] and not rep.passed


def test_component_conditions_reject_the_reported_series_build():
    # gen-monogenic --m 2 --k 1 --zeta 1,1/2,-1,2 --trunc 3
    ctx = AlgebraContext(2)
    sol = build_generalized(monogenic_basis(ctx, 1)[0],
                            ZetaElement(1, Fraction(1, 2), -1, 2), L=3)
    assert dirac_residual(sol).passed
    with pytest.raises(ValueError, match="gen-monogenic"):
        check_component_conditions(sol)


# -- the ladder on exact parabolic builds -------------------------------------


def _blade_profile(data, m, label):
    """A polynomial profile with blade-valued coefficients, the Witt blades
    eps (f + fdag = -eps) and e_(m+1) among them, int, Fraction or
    Gaussian; it may be zero."""
    top = 1 << (m + 1)
    mask = st.one_of(st.sampled_from((1, top, top | 1, top | 2)),
                     st.integers(0, (1 << (m + 2)) - 1))
    terms = data.draw(st.lists(st.tuples(
        st.integers(0, PROFILE_DEGREE_MAX[m]), mask,
        st.one_of(*SCALARS.values())), max_size=3), label=label)
    ctx = CONTEXTS[m]
    rows = {}
    for n, blade, c in terms:
        rows.setdefault(n, {})[blade] = c
    return TimeFunction(ctx, {((0,) * m, n, 0): Multivector(ctx, vals)
                              for n, vals in rows.items()})


# the chain planted beside a form's own: t^9 and its derivatives, so that
# (planted, 9 - n) is a multiple of t^n and its derivative one of t^(n-1)
PLANTED = 9


def _expand(sol, profiles):
    """F = sum_l rho^{2l} (P_l M + Q_l x M) from sol's parabolic radial
    form: entry i of a weight is c_i times its profiles, c = 1, f, fdag,
    f fdag, the unit left of the spatial power and the profile right of
    it."""
    ctx = sol.ctx
    # the planted chain follows the build's own when the form has it
    chains = form_chains(sol, [*profiles, TimeFunction.term(ctx, 1, n=PLANTED)])
    ((M, _, Ps, Qs),) = sol._radial
    x, rho2 = vector_variable(ctx), rho_squared(ctx)
    f, fdag = witt_basis(ctx)
    units = (ctx.one(), f, fdag, f * fdag)
    P, Q = M, x * M
    F = SpaceTimeFunction.zero(ctx)
    for Pl, Ql in zip(Ps, Qs):
        for spatial, w in ((P, Pl), (Q, Ql)):
            for unit, p in zip(units, weight_profiles(ctx, w, chains)):
                F = F + spatial.lmul(unit) * p
        P, Q = rho2 * P, rho2 * Q
    return F


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_profile_ladder_matches_the_monomial_path(data):
    m = data.draw(st.integers(1, 4), label="m")
    ctx = CONTEXTS[m]
    k = data.draw(st.sampled_from(
        [k for k in range(4) if _heads(m, k, False)]), label="k")
    head = data.draw(st.sampled_from(_heads(m, k, False)), label="head")
    if data.draw(st.booleans(), label="closed"):
        profiles = [_blade_profile(data, m, "a")]
        sol = build_parabolic_closed(head, profiles[0])
    else:
        names = data.draw(st.sets(st.sampled_from(SEEDS)), label="seeds")
        seeds = {name: _blade_profile(data, m, name) for name in sorted(names)}
        sol = build_parabolic_recurrence(head, seeds)
        profiles = [seeds.get(name) for name in SEEDS]
    assert sol.exact and verify._ladder_residual(sol).is_zero()
    assert _expand(sol, profiles) == sol.body
    # the ladder's reports, against a copy's from the monomial path
    rep, comp = dirac_residual(sol), check_component_conditions(sol)
    assert sol._residual[1]
    slow = dataclasses.replace(sol)
    slow_comp = check_component_conditions(slow)
    assert not slow._residual[1]
    assert report_text(rep) == report_text(dirac_residual(slow))
    assert (comp.passed, comp.detail) == (slow_comp.passed, slow_comp.detail)
    assert rep.passed and comp.passed
    levels = len(sol._radial[0][2])
    if not levels:
        return
    # one profile plus t^N, N beyond every profile's degree, breaks an
    # identity it enters with a nonzero factor or by its derivative
    l = data.draw(st.integers(0, levels - 1), label="level")
    slot = data.draw(st.integers(0, 7), label="slot")
    bad = _bumped(sol, [(l, slot, 1, PROFILE_DEGREE_MAX[m] + 2)])
    assert bad.body is sol.body and verify._ladder_residual(bad) is None
    bad_comp = check_component_conditions(bad)
    assert not bad._residual[1]
    assert report_text(dirac_residual(bad)) == report_text(rep)
    assert (bad_comp.passed, bad_comp.detail) == (comp.passed, comp.detail)


def _bumped(sol, changes):
    """A copy of sol whose radial form has factor * (planted, 9 - n), a
    multiple of t^n, added to entry slot // 2 of P_l (slot even) or Q_l
    (slot odd) for each (l, slot, factor, n): slots 0..7 are alpha_0,
    beta_0, ..., beta_3.  Every weight of the copy also has the planted
    chain."""
    ((M, xM, P, Q),) = sol._radial
    planted = len(P[0].lengths)
    weights = [[[dict(part) for part in w.parts] for w in P],
               [[dict(part) for part in w.parts] for w in Q]]
    for l, slot, factor, n in changes:
        part = weights[slot % 2][l][slot // 2]
        key = (planted, PLANTED - n)
        part[key] = part.get(key, 0) + factor
    lengths = P[0].lengths + (PLANTED + 1,)
    bad = dataclasses.replace(sol)
    P, Q = (tuple(ProfileWeight(parts, lengths) for parts in ws) for ws in weights)
    object.__setattr__(bad, "_radial", ((M, xM, P, Q),))
    return bad


def _failing_identities(sol):
    """The ladder identities, by part, that sol's parabolic form breaks:
    (identity, part, level) with identity "P" for zeta P_l = t_l Q_l^ and
    "Q" for zeta Q_l = -2(l+1) P_(l+1)^, part 0..3 for 1, f, fdag, f fdag."""
    ((_, _, P, Q),) = sol._radial
    k, m = sol.k, sol.ctx.m
    nxt = P[1:] + (ProfileWeight(({},) * 4),)

    def part(w, i):
        return ProfileWeight(p if j == i else {} for j, p in enumerate(w.parts))

    out = set()
    for l in range(len(P)):
        for name, left, right in (
                ("P", PARABOLIC_ZETA * P[l], Q[l].hat().scale(2 * l + 2 * k + m)),
                ("Q", PARABOLIC_ZETA * Q[l], nxt[l].hat().scale(-2 * (l + 1)))):
            out |= {(name, i, l) for i in range(4)
                    if part(left, i) != part(right, i)}
    return out


# t_l = 2l + 2k + m and u_l = 2(l+1) for m = 2, k = 1: t_0 = 4, t_1 = 6,
# u_0 = 2.  Each (level, slot, factor, n) list breaks the one named part
# of one identity and keeps every other: a constant (n = 0) has no
# derivative to cancel
BROKEN_IDENTITY = {
    "zeta P 1": [(0, 2, 1, 0), (0, 7, Fraction(-1, 4), 0),
                 (1, 4, Fraction(-1, 8), 0)],
    "zeta P f": [(0, 0, 1, 9), (0, 6, -1, 9)],
    "zeta P fdag": [(0, 6, 1, 9)],
    "zeta P f fdag": [(0, 4, 1, 9)],
    "zeta Q 1": [(1, 0, 1, 0), (1, 5, Fraction(-1, 6), 0)],
    "zeta Q f": [(0, 1, 1, 9), (0, 2, 4, 9), (0, 7, -1, 9)],
    "zeta Q fdag": [(0, 7, 1, 0), (0, 4, 4, 1)],
    "zeta Q f fdag": [(0, 5, 1, 9), (0, 6, -4, 9)],
}
PARTS = ("1", "f", "fdag", "f fdag")


SEED_COEFFS = {"a0": (1, 2, -1, 1), "b0": (0, 3, 1), "a2": (2, -1, 0, 1),
               "b2": (1, 1, 1)}


@pytest.mark.parametrize("name", sorted(BROKEN_IDENTITY))
def test_each_ladder_identity_is_checked(name):
    sol = _recurrence(2, 1, SEED_COEFFS)
    assert len(sol._radial[0][2]) >= 3
    assert _failing_identities(sol) == set()
    want = (report_text(dirac_residual(dataclasses.replace(sol))),
            check_component_conditions(dataclasses.replace(sol)).detail)
    bad = _bumped(sol, BROKEN_IDENTITY[name])
    ((identity, i, _),) = _failing_identities(bad)
    assert name == f"zeta {identity} {PARTS[i]}"
    assert verify._ladder_residual(bad) is None
    # the body is the build's, and the monomial path passes it
    assert (report_text(dirac_residual(bad)),
            check_component_conditions(bad).detail) == want
    seeds = _seeds(2, SEED_COEFFS)
    assert _expand(sol, [seeds[name] for name in SEEDS]) == sol.body
    assert _expand(bad, [seeds[name] for name in SEEDS]) != sol.body


@pytest.mark.parametrize("name", ["zeta Q f", "zeta Q fdag", "zeta Q f fdag"])
def test_the_top_level_is_checked_against_a_zero_next_level(name):
    # on a one-level form the level-0 identity zeta Q_0 = -2 P_1^ reads
    # zeta Q_0 = 0: each of these bumps breaks only that identity
    sol = _recurrence(2, 1, {"a0": (1,), "b0": (2,), "a2": (3,), "b2": (-1,)})
    assert len(sol._radial[0][2]) == 1
    bad = _bumped(sol, BROKEN_IDENTITY[name])
    ((identity, i, level),) = _failing_identities(bad)
    assert (f"zeta {identity} {PARTS[i]}", level) == (name, 0)
    assert verify._ladder_residual(bad) is None
    assert dirac_residual(bad).passed and check_component_conditions(bad).passed


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "recurrence"])
def test_a_profile_with_x_keeps_the_monomial_path(closed):
    # a "profile" x_1: the ladder's identities would hold for it, but d_x
    # acts on it, so the build keeps no form and D is applied
    ctx = AlgebraContext(2)
    M = monogenic_basis(ctx, 1)[0]
    a = TimeFunction(ctx, {((1, 0), 0, 0): ctx.one()})
    sol = (build_parabolic_closed(M, a) if closed
           else build_parabolic_recurrence(M, {"a0": a}))
    assert sol.exact and sol._radial is None
    rep, comp = dirac_residual(sol), check_component_conditions(sol)
    assert not sol._residual[1]
    assert not rep.passed and not comp.passed and comp.detail["equivalent"]
    assert report_text(rep) == report_text(dirac_residual(
        dataclasses.replace(sol)))


@pytest.mark.parametrize("name", sorted(FRESH_PARABOLIC))
def test_the_profile_ladder_makes_no_sum_and_no_derivative(name):
    # the ladder on a fresh exact parabolic form is rational arithmetic
    # on the weights' coefficients: no profile is summed or differentiated
    sol = FRESH_PARABOLIC[name]()
    calls = []
    init, d_dt = Sum.__init__, SpaceTimeFunction.d_dt

    def spy_init(self, ctx):
        calls.append("Sum")
        init(self, ctx)

    def spy_d_dt(self):
        calls.append("d_dt")
        return d_dt(self)

    with mock.patch.object(Sum, "__init__", spy_init), \
            mock.patch.object(SpaceTimeFunction, "d_dt", spy_d_dt):
        R = verify._ladder_residual(sol)
    assert R is not None and R.is_zero() and calls == []


@pytest.mark.parametrize("field, value", [
    ("L", 3), ("k", 1), ("mode", "parabolic-recurrence"),
    ("zeta", ZetaElement(0, 1, 1, 0))])
def test_changed_metadata_drops_the_profile_form(field, value):
    sol = dataclasses.replace(FRESH_PARABOLIC["closed"](), **{field: value})
    assert sol._radial is None and verify._ladder_residual(sol) is None
    comp = check_component_conditions(sol)
    assert not sol._residual[1] and comp.passed
    assert report_text(dirac_residual(sol)) == report_text(
        dirac_residual(dataclasses.replace(sol)))


# -- cross_check: radial forms first, the bodies as the fallback ---------------


def _cross_and_comparisons(a, b):
    """cross_check(a, b), and how many times it compared the two bodies."""
    calls = []
    eq = SpaceTimeFunction.__eq__

    def spy(self, other):
        if {id(self), id(other)} == {id(a.body), id(b.body)}:
            calls.append(1)
        return eq(self, other)

    with mock.patch.object(SpaceTimeFunction, "__eq__", spy):
        same = cross_check(a, b)
    return same, len(calls)


def _cross_and_subtractions(a, b):
    """cross_check(a, b), and how many body subtractions it made."""
    calls = []
    sub = SpaceTimeFunction.__sub__

    def spy(self, other):
        calls.append(1)
        return sub(self, other)

    with mock.patch.object(SpaceTimeFunction, "__sub__", spy):
        same = cross_check(a, b)
    return same, len(calls)


SERIES_MODES = ("gen-monogenic", "gen-factored", "gen-invertible", "helmholtz")


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_cross_check_by_forms_agrees_with_the_bodies(data):
    m = data.draw(st.integers(1, 4), label="m")
    kind = data.draw(st.sampled_from(("rational", "gaussian", "det0",
                                      "defective")), label="zeta kind")
    z = ZetaElement(*data.draw(ZETAS[kind], label="zeta"))
    modes = [mode for mode in SERIES_MODES
             if mode != "gen-invertible" or z.det()]
    k = data.draw(st.sampled_from(
        [k for k in range(4) if _heads(m, k, False)]), label="k")
    index = data.draw(st.integers(0, 3), label="head")
    L = data.draw(st.integers(1, L_MAX[m]), label="L")

    def build(label):
        mode = data.draw(st.sampled_from(modes), label=f"mode {label}")
        heads = _heads(m, k, mode == "helmholtz")
        head = heads[data.draw(st.sampled_from((index, index + 1)),
                               label=f"head {label}") % len(heads)]
        order = data.draw(st.sampled_from((L, L + 1)), label=f"L {label}")
        if mode == "helmholtz":
            return build_helmholtz(head, z, L=order)
        return build_generalized(head, z, L=order, form=mode.split("-", 1)[1])

    a, b = build("a"), build("b")
    assert a._radial is not None and b._radial is not None
    same, comparisons = _cross_and_comparisons(a, b)
    assert same == (a.body - b.body).is_zero()
    forms_equal = comparisons == 0
    assert not forms_equal or same


def test_equal_forms_subtract_no_bodies():
    ctx = AlgebraContext(3)
    M = monogenic_basis(ctx, 1)[0]
    builds = [build_generalized(M, Q, L=4, form=form)
              for form in ("monogenic", "factored", "invertible")]
    for a in builds:
        for b in builds:
            assert _cross_and_comparisons(a, b) == (True, 0)
    helm = [build_helmholtz(harmonic_basis(ctx, 2)[0], GQ, L=3) for _ in "ab"]
    assert _cross_and_comparisons(*helm) == (True, 0)


def _saved_and_loaded(sol, tmp_path):
    path = tmp_path / "sol.json"
    save_solution(sol, str(path))
    return load_solution(str(path))


def _closed_and_recurrence(m, k, coeffs):
    """A closed build, and the recurrence build of the same body: seeds
    a0 = a and b2 = -a/(2k+m)."""
    ctx = AlgebraContext(m)
    M = monogenic_basis(ctx, k)[0]
    a = TimeFunction.polynomial(ctx, list(coeffs))
    return (build_parabolic_closed(M, a), build_parabolic_recurrence(
        M, {"a0": a, "b2": a.scale(Fraction(-1, 2 * k + m))}), True)


def _with_a_new_body(sol):
    """A copy of sol whose body is sol's plus a scalar term."""
    return dataclasses.replace(sol, body=sol.body + SpaceTimeFunction.monomial(
        sol.ctx, (1,) * sol.m, 1))


NILPOTENT = ZetaElement(0, 1, 0, 0)
# (a, b, equal bodies): pairs that cross_check must decide on the bodies
FALLBACKS = {
    # zeta* zeta = 0 ends the series at l = 0, so the L = 2 and L = 4 forms
    # differ in length but make the same body
    "forms of different lengths": lambda tmp: (
        _gen(2, 1, NILPOTENT, 2), _gen(2, 1, NILPOTENT, 4), True),
    "unequal forms": lambda tmp: (_gen(2, 1, Q, 3), _gen(2, 1, Q, 4), False),
    "float": lambda tmp: (_gen(2, 1, Z, 4), _gen(2, 1, Z, 4), True),
    "loaded": lambda tmp: (_saved_and_loaded(_gen(2, 1, Q, 4), tmp),
                           _gen(2, 1, Q, 4, "factored"), True),
    "mutant": lambda tmp: (perturb_component(_gen(2, 1, Q, 4), 0, (1, 1),
                                             AlgebraContext(2).e(1)),
                           _gen(2, 1, Q, 4), False),
    "parabolic": lambda tmp: _closed_and_recurrence(3, 1, (1, 0, -2, 1)),
    "new body": lambda tmp: (_with_a_new_body(_gen(2, 1, Q, 4)),
                             _gen(2, 1, Q, 4), False),
}


@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_cross_check_falls_back_to_the_bodies(name, tmp_path):
    a, b, equal = FALLBACKS[name](tmp_path)
    assert (a.body - b.body).is_zero() == equal
    assert _cross_and_comparisons(a, b) == (equal, 1)
    assert _cross_and_comparisons(b, a) == (equal, 1)
    # exact bodies compare numerators: only raw values are subtracted
    if a.body.is_exact() and b.body.is_exact():
        assert _cross_and_subtractions(a, b) == (equal, 0)
