import dataclasses
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (chain_parabolic_closed, chain_parabolic_recurrence,
                     form_chains, parabolic_from_generalized, rule_table_body,
                     rule_table_levels, spatial_degrees, stage_generalized,
                     stage_helmholtz, typed, weight_profiles,
                     weight_recurrence)
from paradirac import builders, verify
from paradirac.algebra import AlgebraContext, Multivector, witt_basis
from paradirac.builders import (SEEDS, build_generalized, build_helmholtz,
                                build_parabolic_closed,
                                build_parabolic_recurrence)
from paradirac.harmonics import harmonic_basis, monogenic_basis
from paradirac.poly import (SpaceTimeFunction, _to_numerators, radial_series,
                            rho_squared, vector_variable)
from paradirac.scalars import GaussianRational
from paradirac.serialize import residual_report_to_dict, solution_to_dict
from paradirac.timefn import (SpaceTimeFunction, TimeFunction, apply_0F1,
                              derivatives, parabolic_dirac)
from paradirac.verify import (check_component_conditions, cross_check,
                              dirac_residual)
from paradirac.zeta import IntMatrix, ZetaElement, radial_weights


def t_profile(ctx):
    return TimeFunction.polynomial(ctx, [0, 1])


def const_head(ctx):
    return monogenic_basis(ctx, 0)[0]


def test_closed_form_frozen_oracle():
    # m = 2, k = 0, a(t) = t:
    #   F0 = t + rho^2/4, F1 = -x/2, F2 = -x (t/2 + rho^2/16), F3 = 0
    ctx = AlgebraContext(2)
    sol = build_parabolic_closed(const_head(ctx), t_profile(ctx))
    assert sol.exact
    f0, f1, f2, f3 = sol.body.split()

    x = vector_variable(ctx)
    rho2 = rho_squared(ctx)
    tf = t_profile(ctx)
    q = Fraction(1, 4)
    assert f0 == SpaceTimeFunction.constant(ctx, 1) * tf + rho2.scale(q)
    assert f1 == x.scale(Fraction(-1, 2))
    assert f2 == (x.scale(Fraction(-1, 2)) * tf
                  + (rho2 * x).scale(-Fraction(1, 16)))
    assert f3.is_zero()
    assert parabolic_dirac(sol.body).is_zero()


def test_closed_form_static_profile():
    # a = 1 kills the derivative block: F = M + x fdag M / (2k+m)
    ctx = AlgebraContext(3)
    M = const_head(ctx)
    sol = build_parabolic_closed(M, TimeFunction.polynomial(ctx, [1]))
    _, fdag = witt_basis(ctx)
    x = vector_variable(ctx)
    expect = M.poly + (x * M.poly.lmul(fdag)).scale(Fraction(1, 3))
    assert sol.body == expect
    assert parabolic_dirac(sol.body).is_zero()


@pytest.mark.parametrize("m,k", [(2, 0), (2, 1), (3, 0), (3, 2)])
def test_closed_is_null_solution(m, k):
    ctx = AlgebraContext(m)
    a = TimeFunction.polynomial(ctx, [1, -2, 1])
    for M in monogenic_basis(ctx, k):
        sol = build_parabolic_closed(M, a)
        assert sol.exact
        assert parabolic_dirac(sol.body).is_zero()


def test_recurrence_matches_closed():
    # closed form == recurrence seeded with a0 = a, b2 = -a/(2k+m)
    for m, k in ((2, 0), (2, 1), (3, 1)):
        ctx = AlgebraContext(m)
        a = TimeFunction.polynomial(ctx, [2, 0, -3])
        for M in monogenic_basis(ctx, k):
            closed = build_parabolic_closed(M, a)
            rec = build_parabolic_recurrence(
                M, {"a0": a, "b2": a.scale(Fraction(-1, 2 * k + m))})
            assert rec.body == closed.body
            assert rec.exact


def test_recurrence_single_seed_oracle():
    # a0 = t alone gives F2 = 0 and F3 = -F0 = -(t + rho^2/4)
    ctx = AlgebraContext(2)
    sol = build_parabolic_recurrence(const_head(ctx), {"a0": t_profile(ctx)})
    f0, f1, f2, f3 = sol.body.split()
    assert f2.is_zero()
    assert f3 == -f0
    assert parabolic_dirac(sol.body).is_zero()


def test_recurrence_rejects_unknown_seed():
    ctx = AlgebraContext(2)
    with pytest.raises(ValueError):
        build_parabolic_recurrence(const_head(ctx), {"c0": t_profile(ctx)})


def test_polynomial_profile_terminates():
    # degree-1 profile dies after two derivatives; L has no effect past that
    ctx = AlgebraContext(2)
    M = const_head(ctx)
    a = t_profile(ctx)
    assert build_parabolic_closed(M, a, L=2).body \
        == build_parabolic_closed(M, a, L=50).body


def test_exponential_profile_not_exact():
    ctx = AlgebraContext(2)
    a = TimeFunction.term(ctx, 1, n=0, lam=Fraction(-1))
    sol = build_parabolic_closed(const_head(ctx), a, L=8)
    assert not sol.exact
    R = parabolic_dirac(sol.body)
    assert not R.is_zero()
    # truncation tail sits at the series frontier only
    assert min(spatial_degrees(R)) >= 2 * 8


def test_head_type_is_enforced():
    ctx = AlgebraContext(2)
    with pytest.raises(TypeError):
        build_parabolic_closed(SpaceTimeFunction.constant(ctx, 1), t_profile(ctx))


# -- helmholtz ----------------------------------------------------------------


def test_helmholtz_residual_oracle():
    # (Lap + zeta* zeta) g = c_L rho^{2L} zeta* zeta H with
    # c_L = (-1/4)^L / (L! (g)_L); everything else telescopes away
    ctx = AlgebraContext(2)
    z = ZetaElement(1, 0, 0, 1)
    L, k = 3, 1
    H = harmonic_basis(ctx, k)[0]
    sol = build_helmholtz(H, z, L=L)
    zz = z.star_zeta().to_multivector(ctx)
    R = sol.body.laplacian() + sol.body.lmul(zz)

    gamma = Fraction(2 * k + ctx.m, 2)
    c = Fraction(-1, 4) ** L
    for n in range(1, L + 1):
        c /= n * (gamma + n - 1)
    rho2 = rho_squared(ctx)
    P = H.poly
    for _ in range(L):
        P = rho2 * P
    expect = P.lmul(zz).scale(c)
    assert R == expect


def test_helmholtz_multi_head():
    ctx = AlgebraContext(2)
    z = ZetaElement(0, 1, 1, 0)
    heads = [harmonic_basis(ctx, 0)[0], harmonic_basis(ctx, 2)[0]]
    sol = build_helmholtz(heads, z, L=4)
    assert sol.k == (0, 2)
    both = build_helmholtz(heads[0], z, L=4).body \
        + build_helmholtz(heads[1], z, L=4).body
    assert sol.body == both


def test_helmholtz_radial_backends_agree():
    ctx = AlgebraContext(2)
    z = ZetaElement(0.5, -0.25, 1.0, 0.75)
    H = harmonic_basis(ctx, 1)[0]
    direct = build_helmholtz(H, z, L=6, radial="direct")
    spectral = build_helmholtz(H, z, L=6, radial="sylvester")
    diff = direct.body - spectral.body
    assert diff.max_abs() <= 1e-10 * max(1.0, direct.body.max_abs())


def test_helmholtz_rejects_unknown_radial():
    ctx = AlgebraContext(2)
    with pytest.raises(ValueError):
        build_helmholtz(harmonic_basis(ctx, 0)[0], ZetaElement(1, 0, 0, 1),
                        L=2, radial="cayley")


# -- radial weights: integer recurrence against the ZetaElement one -------------


def _levels_match_oracle(s, gamma, L, ctx):
    """Each radial weight of an exact s, radial_weights of its IntMatrix
    read by IntMatrix.blades, is what _to_numerators makes of the oracle's
    Multivector: the same denominator and the same set of blades, each
    with the same numerator (int or pair).  For an inexact s each level of
    radial_weights(s), which makes the oracle's float operations, is a
    Multivector with the oracle's values, types, bits and blade order."""
    want = weight_recurrence(s, gamma, L, ctx)
    if s.is_exact():
        got = [w.blades(ctx) for w in radial_weights(IntMatrix.of(s), gamma, L)]
    else:
        got = [w.to_multivector(ctx) for w in radial_weights(s, gamma, L)]
    assert len(got) == len(want) == L + 1
    for n, (level, mv) in enumerate(zip(got, want)):
        if s.is_exact():
            (rows, D), (row, q) = _to_numerators({0: mv.terms}), level
            assert q == D, n
            assert set(typed_row(row)) == set(typed_row(rows[0])), n
        else:
            assert typed_row(level.terms) == typed_row(mv.terms), n


def typed_row(row):
    return [(mask, type(v).__name__, repr(v)) for mask, v in row.items()]


small_q = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
gaussian_q = st.builds(GaussianRational, small_q, small_q)
WEIGHT_ZETAS = {
    "rational": st.tuples(*[small_q] * 4),
    "integer": st.tuples(*[st.integers(-3, 3)] * 4),
    "gaussian": st.tuples(*[st.one_of(small_q, gaussian_q)] * 4),
    # one repeated eigenvalue, not diagonalizable: det(zeta) = -lam^2
    "defective": st.builds(lambda lam, u, v: (lam + u, v, u * u / v, u - lam),
                           small_q, small_q, small_q.filter(bool)),
    "det0": st.builds(lambda a, b, c: (a, b, c, b * c / a),
                      small_q.filter(bool), small_q, small_q),
}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_integer_weights_match_the_zeta_recurrence(data):
    m = data.draw(st.integers(1, 4), label="m")
    k = data.draw(st.integers(0, 3), label="k")
    kind = data.draw(st.sampled_from(sorted(WEIGHT_ZETAS)), label="kind")
    z = ZetaElement(*data.draw(WEIGHT_ZETAS[kind], label="zeta"))
    L = data.draw(st.integers(0, 12), label="L")
    ctx = AlgebraContext(m)
    gamma = Fraction(2 * k + m, 2)
    for s in (z.star_zeta(), z * z.involution()):
        for g in (gamma, gamma + 1):
            _levels_match_oracle(s, g, L, ctx)


G = GaussianRational


@pytest.mark.parametrize("entries", [
    (0, 1, 0, 0),                                   # zeta = f: s = 0 from n = 1
    (1, Fraction(1, 2), -1, 2),
    (G(1, 1), 0, 0, G(1, -1)),                      # a + d real, still Gaussian
    (G(0, 1), G(0, -1), 1, 1),
    (Fraction(1, 3), G(2, 0), G(0, 0), -1),         # a Gaussian zero entry
    (0.5, -1.2, 0.3, 1.1),
    (1.0, 0, 0, 2),
    (complex(0.5, 1), 0.25, -1.0, 2.0),
])
def test_weight_levels_of_chosen_quadruples(entries):
    z = ZetaElement(*entries)
    for m, k in ((1, 0), (2, 1), (3, 2)):
        ctx = AlgebraContext(m)
        gamma = Fraction(2 * k + m, 2)
        for s in (z, z.star_zeta(), z * z.involution()):
            for g in (gamma, gamma + 1):
                _levels_match_oracle(s, g, 12, ctx)


def test_nilpotent_zeta_weights_vanish_after_the_head():
    ctx = AlgebraContext(2)
    weights = radial_weights(IntMatrix.of(ZetaElement(0, 1, 0, 0).star_zeta()),
                             Fraction(3, 2), 6)
    assert [w.blades(ctx) for w in weights] == (
        [({0: 1}, 1)] + [({}, 1)] * 6)


# -- exact series bodies: radial expander against the stage construction --------


@lru_cache(maxsize=None)
def _basis(kind, m, k):
    return (harmonic_basis if kind == "harmonic" else monogenic_basis)(
        AlgebraContext(m), k)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_exact_series_bodies_match_the_stage_construction(data):
    m = data.draw(st.integers(1, 4), label="m")
    kind = data.draw(st.sampled_from(sorted(WEIGHT_ZETAS)), label="kind")
    z = ZetaElement(*data.draw(WEIGHT_ZETAS[kind], label="zeta"))
    L = data.draw(st.integers(0, 6), label="L")
    forms = ["monogenic", "factored", "helmholtz"] + (
        ["invertible"] if z.is_invertible() else [])
    form = data.draw(st.sampled_from(forms), label="form")
    basis = "harmonic" if form == "helmholtz" else "monogenic"
    ks = [k for k in range(4) if _basis(basis, m, k)]
    heads = [data.draw(st.sampled_from(_basis(basis, m, k)))
             for k in data.draw(st.lists(st.sampled_from(ks), min_size=1,
                                         max_size=3), label="degrees")]
    _assert_expands_as_the_stages(heads, z, L, form)


@pytest.mark.parametrize("entries", [
    (G(1, 1), G(0, 0), 1, 2),                       # a Gaussian zero entry
    (1, G(0, 0), 2, 3),
    (Fraction(1, 3), G(2, 0), G(0, 0), -1),
    (G(1, 1), 0, 0, G(1, -1)),
    (G(0, 1), G(0, -1), 1, 1),
    (0, 1, 0, 0),                                   # zeta = f: s = 0
    (G(0, 1), 0, 0, G(0, 1)),                       # zeta = i: zeta* zeta = -1
    (G(1, 1), 1, 0, 2),                             # det 2+2i: a Gaussian inverse
])
def test_exact_series_bodies_of_chosen_quadruples(entries):
    z = ZetaElement(*entries)
    forms = ["monogenic", "factored", "helmholtz"] + (
        ["invertible"] if z.is_invertible() else [])
    for form in forms:
        basis = "harmonic" if form == "helmholtz" else "monogenic"
        for m, ks in ((2, (1,)), (3, (0, 1, 1)), (2, (2, 3))):
            heads = [_basis(basis, m, k)[i % 2] for i, k in enumerate(ks)]
            _assert_expands_as_the_stages(heads, z, 3, form)


def _assert_expands_as_the_stages(heads, z, L, form):
    """The exact build's body, which comes from its radial form by
    radial_series, against the float builds' stage construction run on
    the same exact input: the same values and the same scalar type per
    blade, and the same report from the ladder as from the monomial
    residual."""
    if form == "helmholtz":
        sol = build_helmholtz(heads, z, L)
        stage = stage_helmholtz(heads, z, L, "direct")
    else:
        sol = build_generalized(heads, z, L, form)
        stage = stage_generalized(heads, z, L, form)
    want = dataclasses.replace(sol, body=stage)
    assert sol._radial is not None and want._radial is None
    # the form keeps each head M and, beside Q, x M
    x = vector_variable(sol.ctx)
    assert [(M, xM) for M, xM, _, _ in sol._radial] == [
        (h.poly, None if form == "helmholtz" else x * h.poly) for h in heads]
    assert solution_to_dict(sol) == solution_to_dict(want)
    assert typed(sol.body.terms) == typed(want.body.terms)
    assert scalar_types(sol.body) == scalar_types(want.body)
    assert (residual_report_to_dict(dirac_residual(sol))
            == residual_report_to_dict(dirac_residual(want)))


def scalar_types(F):
    return {key: {b: type(v) for b, v in F.coeffs(key).items()} for key in F.keys()}


# -- parabolic bodies: the expansion against the Sum chain ----------------------


EXP_LAMBDAS = (Fraction(-1, 2), 1, G(0, 1), G(Fraction(-1, 2), 1))


def _parabolic_profile(data, ctx, label, lambdas=(0,)):
    """A profile of degree <= 5 in t, possibly zero, whose coefficients
    are an int, Fraction or Gaussian rational times 1, f, fdag, f fdag or
    one blade, each term times exp(lambda t) for a lambda drawn from
    lambdas."""
    f, fdag = witt_basis(ctx)
    unit = st.one_of(st.sampled_from((ctx.one(), f, fdag, f * fdag)),
                     st.integers(0, (1 << (ctx.m + 2)) - 1).map(
                         lambda mask: Multivector(ctx, {mask: 1})))
    scalar = st.one_of(st.integers(-3, 3).filter(bool),
                       small_q.filter(bool), gaussian_q.filter(bool))
    terms = data.draw(st.lists(st.tuples(st.integers(0, 5), unit, scalar,
                                         st.sampled_from(lambdas)),
                               max_size=3), label=label)
    rows = {}
    for n, u, c, lam in terms:
        key = ((0,) * ctx.m, n, lam)
        rows[key] = rows[key] + u * c if key in rows else u * c
    return TimeFunction(ctx, rows)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_exact_parabolic_bodies_match_the_sum_chain(data):
    """The exact parabolic bodies, expanded from their profile levels by
    radial_series, against the Sum chain on the powers rho^{2l} M run on
    the same input: the same values and scalar type per blade and the same
    solution JSON; for polynomial profiles the ladder's reports equal to a
    copy's from the monomial path.  Exponential terms, which no derivative
    ends, truncate both builds at L, the closed one with a^(L+1) in its
    top f level."""
    m = data.draw(st.integers(1, 4), label="m")
    ks = [k for k in range(4) if _basis("monogenic", m, k)]
    k = data.draw(st.sampled_from(ks), label="k")
    M = data.draw(st.sampled_from(_basis("monogenic", m, k)), label="head")
    ctx = M.poly.ctx
    L = data.draw(st.integers(0, 4), label="L")
    lambdas = (0,) + EXP_LAMBDAS if data.draw(st.booleans(), label="exp") else (0,)
    if data.draw(st.booleans(), label="closed"):
        a = _parabolic_profile(data, ctx, "a", lambdas)
        sol, chain = build_parabolic_closed(M, a, L), chain_parabolic_closed(M, a, L)
    else:
        names = data.draw(st.sets(st.sampled_from(("a0", "b0", "a2", "b2"))),
                          label="seeds")
        seeds = {name: _parabolic_profile(data, ctx, name, lambdas)
                 for name in sorted(names)}
        sol = build_parabolic_recurrence(M, seeds, L)
        chain = chain_parabolic_recurrence(M, seeds, L)
    if sol.exact:
        _assert_matches_the_sum_chain(sol, chain)
    else:
        _assert_truncated_matches_the_sum_chain(sol, chain)


@pytest.mark.parametrize("m,k", [(1, 0), (2, 1), (3, 2)])
def test_degenerate_exact_parabolic_bodies_match_the_sum_chain(m, k):
    ctx = AlgebraContext(m)
    for sol, chain in _degenerate_builds(ctx, monogenic_basis(ctx, k)[0]):
        _assert_matches_the_sum_chain(sol, chain)


def _assert_matches_the_sum_chain(sol, chain):
    assert sol.exact and sol._radial is not None
    want = dataclasses.replace(sol, body=chain)
    assert want._radial is None and want._residual is None
    assert sol.body == chain
    assert typed(sol.body.terms) == typed(chain.terms)
    assert scalar_types(sol.body) == scalar_types(chain)
    assert solution_to_dict(sol) == solution_to_dict(want)
    rep, comp = dirac_residual(sol), check_component_conditions(sol)
    assert sol._residual[1] and rep.passed and comp.passed
    assert (residual_report_to_dict(rep)
            == residual_report_to_dict(dirac_residual(want)))
    slow = check_component_conditions(want)
    assert not want._residual[1]
    assert (comp.passed, comp.detail) == (slow.passed, slow.detail)


@pytest.mark.parametrize("m,k", [(1, 0), (2, 1), (3, 2)])
@pytest.mark.parametrize("L", [0, 1, 3])
def test_exact_truncated_profiles_match_the_sum_chain(m, k, L):
    # exp:-1/2, exp:0:1 and seeds that mix polynomial and exponential
    # profiles
    ctx = AlgebraContext(m)
    M = monogenic_basis(ctx, k)[-1]
    half, i = TimeFunction.term(ctx, 1, lam=Fraction(-1, 2)), TimeFunction.term(
        ctx, 1, lam=G(0, 1))
    for a in (half, i, half + TimeFunction.polynomial(ctx, [0, 1, Fraction(1, 3)])):
        _assert_truncated_matches_the_sum_chain(
            build_parabolic_closed(M, a, L), chain_parabolic_closed(M, a, L))
    for seeds in ({"a0": TimeFunction.polynomial(ctx, [0, 0, 1]),
                   "b0": TimeFunction.polynomial(ctx, [1, Fraction(1, 3)]),
                   "a2": TimeFunction.polynomial(ctx, [1]),
                   "b2": TimeFunction.term(ctx, 1, lam=Fraction(1, 2))},
                  {"a0": half, "b2": TimeFunction.polynomial(ctx, [0, 1])},
                  {"b0": i, "a2": half}):
        _assert_truncated_matches_the_sum_chain(
            build_parabolic_recurrence(M, seeds, L),
            chain_parabolic_recurrence(M, seeds, L))


def _assert_truncated_matches_the_sum_chain(sol, chain):
    """A truncated build of exact values, not an exact solution and so
    without a form, against its Sum chain: the same values, scalar type per
    blade and solution JSON."""
    assert not sol.exact and sol._radial is None and sol.body.is_exact()
    want = dataclasses.replace(sol, body=chain)
    assert sol.body == chain
    assert typed(sol.body.terms) == typed(chain.terms)
    assert scalar_types(sol.body) == scalar_types(chain)
    assert solution_to_dict(sol) == solution_to_dict(want)


def test_exact_values_kept_raw_are_expanded():
    # float parts that cancel leave a profile of exact values kept raw
    # (no common denominator); it is exact, so its builds are expanded
    ctx = AlgebraContext(2)
    M = monogenic_basis(ctx, 1)[0]
    a = (TimeFunction.polynomial(ctx, [0.5, 0, 0.25])
         + TimeFunction.polynomial(ctx, [-0.5, 0, -0.25])
         + TimeFunction.polynomial(ctx, [1, Fraction(1, 3), 2]))
    assert a.is_exact()
    seeds = {"a0": a, "b2": a}
    for sol, chain in ((build_parabolic_closed(M, a), chain_parabolic_closed(M, a)),
                       (build_parabolic_recurrence(M, seeds),
                        chain_parabolic_recurrence(M, seeds))):
        assert sol.exact and sol._radial is not None
        assert sol.body == chain
        assert typed(sol.body.terms) == typed(chain.terms)
        assert dirac_residual(sol).passed


@pytest.mark.parametrize("m", [1, 2, 3])
def test_radial_series_expands_float_levels(m):
    # a float level makes every level's values raw (D None), the exact
    # level among them too, summed by the same shift loop: each coefficient
    # within a few roundings of the expansion of the same levels read as
    # exact dyadic rationals
    ctx = AlgebraContext(m)
    head = vector_variable(ctx) + SpaceTimeFunction.constant(ctx, 2)
    a = TimeFunction.polynomial(ctx, [0.1, -1 / 3, 0.7])
    levels = [(0, head * a),
              (1, head.scale(Fraction(1, 3))),
              (2, head * a.scale(-0.25))]
    got = radial_series(ctx, [levels])
    exact = radial_series(ctx, [[
        (l, SpaceTimeFunction(ctx, {key: Multivector(ctx, {
            b: Fraction(v) for b, v in mv.terms.items()})
            for key, mv in p.terms.items()})) for l, p in levels]])
    assert got._D is None and exact._D is not None
    assert set(got.keys()) == set(exact.keys())
    scale = max(abs(v) for key in exact.keys() for v in exact.coeffs(key).values())
    for key in exact.keys():
        want, have = exact.coeffs(key), got.coeffs(key)
        assert set(have) == set(want)
        for b, v in want.items():
            assert abs(Fraction(have[b]) - v) <= 4 * 3 * 2.0 ** -52 * scale
    # alone, the exact level is summed on numerators
    assert radial_series(ctx, [levels[1:2]])._D is not None


def test_a_closed_build_takes_each_derivative_once(monkeypatch):
    # a degree-4 profile has five derivatives a^(0..4); the closed build
    # sums its first block by one apply_0F1 call and reads all three
    # blocks' profiles off that chain
    ctx = AlgebraContext(3)
    M = monogenic_basis(ctx, 2)[0]
    a = TimeFunction.polynomial(ctx, [1, -2, Fraction(1, 2), 0, 3])
    calls = {"d_dt": 0, "apply_0F1": 0}
    d_dt, apply = SpaceTimeFunction.d_dt, builders.apply_0F1

    def counted_d_dt(self):
        calls["d_dt"] += 1
        return d_dt(self)

    def counted_apply(*args, **kwargs):
        calls["apply_0F1"] += 1
        return apply(*args, **kwargs)

    monkeypatch.setattr(SpaceTimeFunction, "d_dt", counted_d_dt)
    monkeypatch.setattr(builders, "apply_0F1", counted_apply)
    sol = build_parabolic_closed(M, a)
    assert calls["apply_0F1"] == 1 and calls["d_dt"] <= 5
    monkeypatch.undo()
    assert sol.body == chain_parabolic_closed(M, a)
    ((_, _, P, Q),) = sol._radial
    assert len(P) == len(Q) == 5


def test_a_recurrence_build_makes_no_profile_body(monkeypatch):
    # every level profile is an exact multiple of one seed derivative:
    # each seed is differentiated at most once per level, and no profile
    # is rescaled or subtracted
    ctx = AlgebraContext(3)
    M = monogenic_basis(ctx, 1)[0]
    L = 4
    seeds = {"a0": TimeFunction.polynomial(ctx, [1, -2, Fraction(1, 2), 0, 3]),
             "b0": TimeFunction.polynomial(ctx, [0, Fraction(1, 2)]),
             "a2": TimeFunction.term(ctx, 1, lam=Fraction(-1, 2)),
             "b2": TimeFunction.polynomial(ctx, [1, Fraction(1, 3)])}
    calls = {"d_dt": 0, "scale": 0, "__sub__": 0}
    originals = {"d_dt": SpaceTimeFunction.d_dt, "scale": SpaceTimeFunction.scale,
                 "__sub__": SpaceTimeFunction.__sub__}

    def counted(name):
        def call(self, *args):
            calls[name] += 1
            return originals[name](self, *args)
        return call

    monkeypatch.setattr(SpaceTimeFunction, "d_dt", counted("d_dt"))
    monkeypatch.setattr(SpaceTimeFunction, "scale", counted("scale"))
    monkeypatch.setattr(SpaceTimeFunction, "__sub__", counted("__sub__"))
    sol = build_parabolic_recurrence(M, seeds, L)
    assert calls["d_dt"] <= len(seeds) * (L + 1)
    assert calls["scale"] == calls["__sub__"] == 0
    monkeypatch.undo()
    assert sol.body == chain_parabolic_recurrence(M, seeds, L)


def _form_profiles(sol, seeds):
    """sol's parabolic form as profiles: per level, the four entries of
    P_l and of Q_l, on the chains that the build read (seeds in
    builders.SEEDS order, one for a closed build)."""
    ((_, _, P, Q),) = sol._radial
    chains = form_chains(sol, seeds)
    return [tuple(weight_profiles(sol.ctx, w, chains) for w in pair)
            for pair in zip(P, Q)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_closed_form_is_the_recurrence_form_of_its_two_seeds(data):
    # the closed build is the recurrence seeded with a0 = a and
    # b2 = -a/(2k+m), level for level: the same profiles on other chains;
    # a zero profile has no closed level and one empty recurrence level
    m = data.draw(st.integers(1, 4), label="m")
    k = data.draw(st.sampled_from([k for k in range(4) if _basis("monogenic", m, k)]),
                  label="k")
    M = data.draw(st.sampled_from(_basis("monogenic", m, k)), label="head")
    a = _parabolic_profile(data, M.poly.ctx, "a")
    b2 = a.scale(Fraction(-1, 2 * k + m))
    closed = _form_profiles(build_parabolic_closed(M, a), [a])
    rec = _form_profiles(build_parabolic_recurrence(M, {"a0": a, "b2": b2}),
                         [a, None, None, b2])
    zero = (TimeFunction.zero(M.poly.ctx),) * 4
    n = max(len(closed), len(rec))
    assert closed + [(zero, zero)] * (n - len(closed)) == rec + [
        (zero, zero)] * (n - len(rec))


@pytest.mark.parametrize("m,k", [(1, 0), (2, 1), (3, 2)])
@pytest.mark.parametrize("L", [0, 1, 3])
def test_a_truncated_closed_build_is_the_recurrence_of_its_two_seeds(m, k, L):
    ctx = AlgebraContext(m)
    M = monogenic_basis(ctx, k)[-1]
    half = TimeFunction.term(ctx, 1, lam=Fraction(-1, 2))
    for a in (half, half + TimeFunction.polynomial(ctx, [0, 1, Fraction(1, 3)])):
        rec = build_parabolic_recurrence(
            M, {"a0": a, "b2": a.scale(Fraction(-1, 2 * k + m))}, L)
        assert cross_check(build_parabolic_closed(M, a, L), rec)


def _degenerate_builds(ctx, M):
    """(exact build, its Sum chain body) for a zero profile, the constant
    profile 1 and empty recurrence seeds."""
    zero, one = TimeFunction.zero(ctx), TimeFunction.polynomial(ctx, [1])
    return [(build_parabolic_closed(M, zero), chain_parabolic_closed(M, zero)),
            (build_parabolic_closed(M, one), chain_parabolic_closed(M, one)),
            (build_parabolic_recurrence(M, {}),
             chain_parabolic_recurrence(M, {}))]


def test_a_parabolic_form_stores_zero_profiles_as_empty_parts():
    # a zero coefficient is no key of its entry, and every key is on its
    # chain, whichever builder made the weight
    ctx = AlgebraContext(2)
    M = monogenic_basis(ctx, 1)[0]
    t2 = TimeFunction.polynomial(ctx, [0, 0, 1])
    sols = [sol for sol, _ in _degenerate_builds(ctx, M)] + [
        build_parabolic_closed(M, t2),
        build_parabolic_recurrence(M, {"a0": t2, "b2": None}),
        build_parabolic_recurrence(M, {"b0": t2,
                                       "a2": TimeFunction.zero(ctx)})]
    weights = []
    for sol in sols:
        assert sol.zeta is None
        ((H, xH, P, Q),) = sol._radial
        assert (H, xH) == (M.poly, vector_variable(ctx) * M.poly)
        assert all(c and j < w.lengths[i] for w in P + Q for part in w.parts
                   for (i, j), c in part.items())
        weights.append((P, Q))
    assert weights[0] == ((), ())
    # the constant profile has one level and no a^(l+1): Q_0 has no f part
    (P,), (Q,) = weights[1]
    assert P.lengths == (1,) and P.parts == ({(0, 0): 1}, {}, {}, {})
    assert [bool(part) for part in Q.parts] == [False, False, True, False]
    # empty seeds: four empty chains and one level of empty parts
    (P,), (Q,) = weights[2]
    assert P.lengths == (0,) * 4 and P.parts == Q.parts == ({},) * 4
    # t^2 as b0 only: chain 1, orders 0..2
    assert weights[5][0][0].lengths == (0, 3, 0, 0)


def _level_maps(levels, index):
    """The rule-table levels as (P_l, Q_l) parts, {(i, j): c} per entry:
    index maps the id of each chain profile to its (i, j)."""
    return [tuple(tuple({index[id(d)]: c for c, d in slots[2 * i + side]}
                        for i in range(4)) for side in (0, 1))
            for slots in levels]


@pytest.mark.parametrize("names", [None] + [
    [name for i, name in enumerate(SEEDS) if subset >> i & 1]
    for subset in range(16)], ids=lambda names: "closed" if names is None
    else "+".join(names) or "no-seeds")
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_the_ladder_makes_the_rule_table_levels(names, data):
    """The levels that the ladder generates from P_0, against the F0..F3
    rule table run on the same chains: level by level, the same exact
    coefficient on every seed derivative, for the closed build (names
    None) and every subset of the four seeds; a truncated build on
    exponential seeds keeps no form and has the rule table's body."""
    m = data.draw(st.integers(1, 4), label="m")
    k = data.draw(st.sampled_from([k for k in range(4) if _basis("monogenic", m, k)]),
                  label="k")
    M = data.draw(st.sampled_from(_basis("monogenic", m, k)), label="head")
    ctx = M.poly.ctx
    L = data.draw(st.integers(0, 4), label="L")
    lambdas = (0,) + EXP_LAMBDAS if data.draw(st.booleans(), label="exp") else (0,)
    first = None
    if names is None:
        a = _parabolic_profile(data, ctx, "a", lambdas)
        sol = build_parabolic_closed(M, a, L)
        count = len(derivatives(a, a.max_n() if a.is_polynomial() else L))
        derivs = derivatives(a, count if count and not a.is_polynomial()
                             else count - 1)
        chains = {"a0": (1, derivs), "b2": (Fraction(-1, 2 * k + m), derivs)}
        index = {id(d): (0, j) for j, d in enumerate(derivs)}
        first = apply_0F1(Fraction(2 * k + m, 2), M.poly, a, L)
    else:
        seeds = {name: _parabolic_profile(data, ctx, name, lambdas)
                 for name in names}
        sol = build_parabolic_recurrence(M, seeds, L)
        stop = sol.L
        count = stop + 1
        chains = {name: (1, derivatives(tf, stop + (name[0] == "a")))
                  for name, tf in seeds.items()}
        index = {id(d): (SEEDS.index(name), j)
                 for name, (_, chain) in chains.items() for j, d in enumerate(chain)}
    levels = rule_table_levels(k, m, chains, count)
    if sol._radial is None:
        assert not sol.exact and lambdas != (0,)
        assert sol.body == rule_table_body(M, levels, first)
        return
    ((_, _, P, Q),) = sol._radial
    assert [(p.parts, q.parts) for p, q in zip(P, Q)] == _level_maps(levels, index)
    assert verify._ladder_residual(sol).is_zero()


# -- generalized operator -------------------------------------------------------


def gen_operator(sol):
    zmv = sol.zeta.to_multivector(sol.ctx)
    return sol.body.dirac() + sol.body.lmul(zmv)


def test_generalized_three_forms_agree():
    ctx = AlgebraContext(2)
    z = ZetaElement(1, Fraction(1, 2), -1, 2)      # det = 2 + 1/2, invertible
    for k in (0, 1):
        M = monogenic_basis(ctx, k)[0]
        mono = build_generalized(M, z, L=3, form="monogenic")
        fact = build_generalized(M, z, L=3, form="factored")
        inv = build_generalized(M, z, L=3, form="invertible")
        assert mono.body == fact.body
        assert mono.body == inv.body


def test_generalized_residual_is_zeta_times_tail():
    # (d_x + zeta) g_L = zeta B_L, supported in degree 2L + k + 1 only
    ctx = AlgebraContext(2)
    z = ZetaElement(1, 0, 0, 1)
    L, k = 4, 0
    sol = build_generalized(monogenic_basis(ctx, k)[0], z, L=L)
    R = gen_operator(sol)
    assert set(spatial_degrees(R)) == {2 * L + k + 1}


def test_generalized_invertible_requires_invertible():
    ctx = AlgebraContext(2)
    M = const_head(ctx)
    with pytest.raises(Exception):
        build_generalized(M, ZetaElement(1, 2, 2, 4), L=3, form="invertible")


def test_generalized_zero_zeta_collapses():
    # zeta = 0 leaves the bare monogenic head (plus the x-block with
    # weight zero): g = M for every truncation
    ctx = AlgebraContext(2)
    M = monogenic_basis(ctx, 1)[0]
    sol = build_generalized(M, ZetaElement.zero(), L=5)
    assert sol.body == M.poly
    assert gen_operator(sol).is_zero()


def test_parabolic_recovery_exact():
    # zeta = (0, lam, 1, 0) with the e^{lam t} carrier reproduces the
    # parabolic solution, coefficient for coefficient
    ctx = AlgebraContext(2)
    for lam in (-1, -2):
        for k in (0, 1):
            M = monogenic_basis(ctx, k)[0]
            via_gen = parabolic_from_generalized(M, lam, L=9)
            a = TimeFunction.term(ctx, 1, n=0, lam=lam)
            direct = build_parabolic_closed(M, a, L=9)
            assert via_gen.body == direct.body
            assert via_gen.extra["lambda"] == lam


def test_parabolic_recovery_gaussian_rational():
    ctx = AlgebraContext(2)
    lam = GaussianRational(Fraction(1, 2), Fraction(1, 2))
    M = const_head(ctx)
    via_gen = parabolic_from_generalized(M, lam, L=7)
    a = TimeFunction.term(ctx, 1, n=0, lam=lam)
    direct = build_parabolic_closed(M, a, L=7)
    assert via_gen.body == direct.body


# -- algebra contexts compare by value -------------------------------------------
# Heads and seeds built from equal but distinct AlgebraContext(m) objects must
# be accepted, as everywhere else in the package.


def test_closed_accepts_equal_context_profile():
    M = const_head(AlgebraContext(2))
    sol = build_parabolic_closed(M, t_profile(AlgebraContext(2)))
    assert parabolic_dirac(sol.body).is_zero()


def test_recurrence_accepts_equal_context_seed():
    M = const_head(AlgebraContext(2))
    a = t_profile(AlgebraContext(2))
    sol = build_parabolic_recurrence(M, {"a0": a, "b2": a.scale(Fraction(-1, 2))})
    assert sol.body == build_parabolic_closed(M, a).body


def test_helmholtz_accepts_equal_context_heads():
    z = ZetaElement(1, 0, 0, 1)
    heads = (harmonic_basis(AlgebraContext(2), 0)
             + harmonic_basis(AlgebraContext(2), 2))
    sol = build_helmholtz(heads, z, L=3)
    assert sol.k == tuple(h.degree for h in heads)


def test_generalized_accepts_equal_context_heads():
    z = ZetaElement(1, 0, 0, 1)
    heads = [monogenic_basis(AlgebraContext(2), 0)[0],
             monogenic_basis(AlgebraContext(2), 1)[0]]
    for form in ("monogenic", "factored", "invertible"):
        assert build_generalized(heads, z, L=3, form=form).k == (0, 1)


def test_parabolic_from_generalized_accepts_equal_context_head():
    M = const_head(AlgebraContext(2))
    sol = parabolic_from_generalized(M, -1, L=5)
    direct = build_parabolic_closed(
        M, TimeFunction.term(AlgebraContext(2), 1, lam=-1), L=5)
    assert sol.body == direct.body


@pytest.mark.parametrize("build", [
    lambda ctx: build_parabolic_closed(const_head(ctx), t_profile(ctx), L=-1),
    lambda ctx: build_parabolic_recurrence(const_head(ctx), {"a0": t_profile(ctx)}, L=-1),
    lambda ctx: build_helmholtz(harmonic_basis(ctx, 1)[0], ZetaElement(1, 0, 0, 1), L=-2),
    lambda ctx: build_generalized(const_head(ctx), ZetaElement(1, 0, 0, 1), L=-1,
                                  form="invertible"),
    lambda ctx: parabolic_from_generalized(const_head(ctx), -1, L=-1),
])
def test_builders_reject_negative_truncation(build):
    with pytest.raises(ValueError, match="negative"):
        build(AlgebraContext(2))
