"""End-to-end acceptance checks, one test per criterion.

Every check is either exact (rational arithmetic, zero tolerance) or
carries the stated numeric tolerance next to the assert. The whole
module is meant to run in well under a minute.
"""

import random
from fractions import Fraction

import pytest

from oracles import (exp_series, hyp0f1_series, parabolic_from_generalized,
                     sampled_order, series_eval)
from paradirac.algebra import AlgebraContext, Multivector
from paradirac.builders import (build_generalized, build_helmholtz,
                                build_parabolic_closed,
                                build_parabolic_recurrence)
from paradirac.harmonics import harmonic_basis, monogenic_basis
from paradirac.poly import rho_squared, vector_variable
from paradirac.scalars import GaussianRational
from paradirac.timefn import TimeFunction, parabolic_dirac
from paradirac.verify import (check_component_conditions, check_factorization,
                              dirac_residual, perturb_component,
                              random_spacetime_poly)
from paradirac.zeta import ZetaElement, sylvester_eval


def announce(line):
    print(f"\n[acceptance] {line}")


# -- 1: algebra relations -------------------------------------------------------


def test_01_generator_relations_and_associativity():
    checked = 0
    for m in range(1, 7):
        ctx = AlgebraContext(m)
        gens = [ctx.eps()] + [ctx.e(j) for j in range(1, m + 2)]
        squares = [1] + [-1] * (m + 1)
        for g, sq in zip(gens, squares):
            assert g * g == sq
            checked += 1
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                assert (gens[i] * gens[j] + gens[j] * gens[i]).is_zero()
                checked += 1

    rng = random.Random(101)
    for trial in range(500):
        ctx = AlgebraContext(1 + trial % 6)
        n_blades = 1 << (ctx.m + 2)

        def rand_mv():
            terms = {}
            for _ in range(rng.randint(1, 4)):
                c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                if c:
                    mask = rng.randrange(n_blades)
                    terms[mask] = terms.get(mask, 0) + c
            return Multivector(ctx, {k: v for k, v in terms.items() if v})

        u, v, w = rand_mv(), rand_mv(), rand_mv()
        assert ((u * v) * w - u * (v * w)).is_zero()
        checked += 1
    announce(f"1 PASS: generator relations m=1..6 and 500 associativity "
             f"triples, all exact ({checked} checks)")


# -- 2: operator factorization ---------------------------------------------------


def test_02_factorization_identity():
    rng = random.Random(202)
    total = 0
    for m in (2, 3):
        ctx = AlgebraContext(m)
        samples = [random_spacetime_poly(ctx, rng, space_degree=5,
                                         time_degree=3, n_terms=6)
                   for _ in range(100)]
        rep = check_factorization(ctx, samples)
        assert rep.passed, rep.detail
        total += rep.detail["samples"]
    announce(f"2 PASS: squared first-order operator equals -Lap + d_t on "
             f"{total} random degree<=5 polynomials, exact")


# -- 3: derivative ladder over full monogenic bases -----------------------------


def test_03_derivative_ladder_full_bases():
    checked = 0
    for m in (2, 3, 4, 5):
        ctx = AlgebraContext(m)
        x = vector_variable(ctx)
        rho2 = rho_squared(ctx)
        for k in range(5):
            for M in monogenic_basis(ctx, k):
                P = M.poly                   # rho^{2l} M
                Q = x * M.poly               # rho^{2l} x M
                Q_prev = None
                for ell in range(7):
                    if ell == 0:
                        assert P.dirac().is_zero()
                    else:
                        assert P.dirac() == Q_prev.scale(2 * ell)
                    assert Q.dirac() == P.scale(-(2 * ell + 2 * k + m))
                    checked += 2
                    Q_prev = Q
                    if ell < 6:
                        P = rho2 * P
                        Q = rho2 * Q
    announce(f"3 PASS: both derivative identities exact for l<=6, k<=4, "
             f"m in 2..5, full bases ({checked} identities)")


# -- 4 and 5 share one grid of closed-form builds --------------------------------


def profile_of_degree(ctx, rng, degree):
    coeffs = [rng.randint(-4, 4) for _ in range(degree)] + \
        [rng.choice((1, -1)) * rng.randint(1, 4)]
    return TimeFunction.polynomial(ctx, coeffs)


@pytest.fixture(scope="module")
def closed_build_grid():
    rng = random.Random(404)
    grid = []
    for m in (2, 3, 4):
        ctx = AlgebraContext(m)
        for k in range(4):
            basis = monogenic_basis(ctx, k)
            for degree in range(5):
                a = profile_of_degree(ctx, rng, degree)
                for M in basis:
                    grid.append((M, a, build_parabolic_closed(M, a)))
    return grid


def test_04_closed_builds_are_exact_null_solutions(closed_build_grid):
    for M, a, sol in closed_build_grid:
        assert sol.exact
        assert parabolic_dirac(sol.body).is_zero()
        rep = check_component_conditions(sol)
        assert rep.passed, rep.detail
    announce(f"4 PASS: {len(closed_build_grid)} closed-form builds "
             f"(m in 2..4, k<=3, profile degree<=4) all exactly null, "
             f"split conditions exact")


def test_05_recurrence_path_equivalence(closed_build_grid):
    for M, a, sol in closed_build_grid:
        k, m = M.degree, M.poly.ctx.m
        seeds = {"a0": a, "b2": a.scale(Fraction(-1, 2 * k + m))}
        rec = build_parabolic_recurrence(M, seeds)
        assert rec.body == sol.body
    announce(f"5 PASS: recurrence with seeds (a, 0, 0, -a/(2k+m)) matches "
             f"the closed form coefficient-exactly on all "
             f"{len(closed_build_grid)} grid builds")


# -- 6: spectral evaluation vs series --------------------------------------------


def entry_gap(u, v):
    return max(abs(complex(a) - complex(b))
               for a, b in zip(u.entries(), v.entries()))


def rel_gap(syl, ser):
    scale = max(1.0, max(abs(complex(x)) for x in ser.entries()))
    return entry_gap(syl, ser) / scale


def test_06_sylvester_matches_series():
    rng = random.Random(606)
    functions = [exp_series(), hyp0f1_series(1),
                 hyp0f1_series(Fraction(3, 2))]
    accepted = 0
    worst = 0.0
    while accepted < 200:
        z = ZetaElement(*(rng.uniform(-2, 2) for _ in range(4)))
        lp, lm = z.eigenvalues_xi()
        if max(abs(lp), abs(lm)) > 2:
            continue
        accepted += 1
        psi = functions[accepted % len(functions)]
        gap = rel_gap(sylvester_eval(psi, z), series_eval(psi, z, 60))
        worst = max(worst, gap)
        assert gap <= 1e-12

    worst_def = 0.0
    for trial in range(30):
        a = rng.uniform(-1.5, 1.5)
        b = rng.choice((1, -1)) * rng.uniform(0.2, 2.0)
        z = ZetaElement(a, b, 0.0, -a)       # both eigenvalues equal a
        lp, lm = z.eigenvalues_xi()
        assert lp == lm                      # repeated branch must fire
        psi = functions[trial % len(functions)]
        gap = rel_gap(sylvester_eval(psi, z), series_eval(psi, z, 60))
        worst_def = max(worst_def, gap)
        assert gap <= 1e-10
    announce(f"6 PASS: spectral formula vs 60-term series, 200 random "
             f"quadruples (worst {worst:.2e} <= 1e-12) and 30 defective "
             f"cases (worst {worst_def:.2e} <= 1e-10)")


# -- 7: helmholtz truncation order -----------------------------------------------


def test_07_helmholtz_truncation_order():
    ctx = AlgebraContext(2)
    z = ZetaElement(1, 0, 0, 1)
    lines = []
    for k in range(3):
        H = harmonic_basis(ctx, k)[0]
        for L in (6, 10):
            sol = build_helmholtz(H, z, L=L)
            rep = dirac_residual(sol)
            assert rep.support_degrees == (2 * L + k,), rep.support_degrees
            # exact coefficients: the report samples nothing, so the order
            # is fitted to the sampled sup-norms of its exact residual
            order = sampled_order(rep.residual_poly, (1.0, 0.5, 0.25), seed=0)
            assert order is not None
            assert abs(order - (2 * L + k)) <= 0.2
            assert rep.passed
            lines.append(f"k={k},L={L}:{order:.2f}")
    announce("7 PASS: residual support at top degree only, orders "
             f"within 0.2 of 2L+k ({'; '.join(lines)})")


# -- 8: the three generalized builds ---------------------------------------------


def random_invertible_zeta(rng):
    while True:
        entries = []
        for _ in range(4):
            re = rng.randint(-2, 2)
            im = rng.randint(-2, 2) if rng.random() < 0.4 else 0
            entries.append(GaussianRational(re, im) if im else re)
        z = ZetaElement(*entries)
        if z.is_invertible():
            return z


def test_08_generalized_forms_agree_and_residual_order():
    ctx = AlgebraContext(2)
    rng = random.Random(808)
    L = 3
    order_checked = 0
    for trial in range(50):
        z = random_invertible_zeta(rng)
        k = trial % 3
        M = monogenic_basis(ctx, k)[trial % len(monogenic_basis(ctx, k))]
        mono = build_generalized(M, z, L=L, form="monogenic")
        fact = build_generalized(M, z, L=L, form="factored")
        inv = build_generalized(M, z, L=L, form="invertible")
        assert mono.body == fact.body
        assert mono.body == inv.body
        if trial % 5 == 0:
            rep = dirac_residual(mono)
            if rep.exact_zero:
                continue                     # tail vanished for this zeta
            order = sampled_order(rep.residual_poly, (1.0, 0.5, 0.25), seed=0)
            assert abs(order - (2 * L + k + 1)) <= 0.2
            assert rep.passed
            order_checked += 1
    announce(f"8 PASS: 50 random invertible quadruples, three builds "
             f"symbolically identical; residual order within 0.2 of 2L+k+1 "
             f"on {order_checked} spot checks")


# -- 9: parabolic recovery --------------------------------------------------------


def unit_ball_points(rng, m, count):
    pts = []
    while len(pts) < count:
        p = [rng.uniform(-1, 1) for _ in range(m)]
        if sum(c * c for c in p) <= 1.0:
            pts.append((p, rng.uniform(0.0, 1.0)))
    return pts


def test_09_parabolic_recovery():
    ctx = AlgebraContext(2)
    rng = random.Random(909)
    pts = unit_ball_points(rng, 2, 20)
    worst = 0.0
    for lam in (-1, -2, 1 + 1j, 1.4 + 1.4j):
        assert abs(complex(lam)) <= 2
        for k in (0, 1):
            M = monogenic_basis(ctx, k)[0]
            via_gen = parabolic_from_generalized(M, lam, L=9)
            direct = build_parabolic_closed(
                M, TimeFunction.term(ctx, 1, n=0, lam=lam), L=9)
            for point, t in pts:
                gap = (via_gen.body.evaluate(point, t)
                       - direct.body.evaluate(point, t)).max_abs()
                worst = max(worst, gap)
                assert gap <= 1e-10
    announce(f"9 PASS: off-diagonal quadruple with e^(lam t) carrier matches "
             f"the parabolic closed form at 20 ball points for 4 lambdas "
             f"(worst gap {worst:.2e} <= 1e-10)")


# -- 10: mutation sensitivity -----------------------------------------------------


def test_10_mutation_sensitivity():
    ctx = AlgebraContext(2)
    rng = random.Random(1010)
    M = monogenic_basis(ctx, 1)[0]
    a = TimeFunction.polynomial(ctx, [1, 2])
    sol = build_parabolic_closed(M, a)
    assert check_component_conditions(sol).passed

    subalgebra_masks = [0, 1 << 1, 1 << 2, (1 << 1) | (1 << 2)]
    for trial in range(50):
        slot = rng.randrange(4)
        degree = rng.randint(1, 3)           # degree-0 hits can be genuine
        exps = [0, 0]
        for _ in range(degree):
            exps[rng.randrange(2)] += 1
        coeff = Multivector(ctx, {rng.choice(subalgebra_masks):
                                  rng.choice((1, -1)) * rng.randint(1, 3)})
        bad = perturb_component(sol, slot, tuple(exps), coeff)
        comp = check_component_conditions(bad)
        res = dirac_residual(bad)
        assert not comp.passed, (slot, exps, coeff)
        assert not res.passed, (slot, exps, coeff)
        assert comp.detail["equivalent"]
    announce("10 PASS: all 50 single-component mutations caught by both "
             "the split-condition check and the residual check")
