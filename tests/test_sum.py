"""The one-accumulator Sum and its kernels against per-term oracles.

A Sum runs a chain of operator stages into one accumulator at one
denominator.  These properties check it two ways: against the per-term
Multivector oracles of oracles.py (equal values, each of the type of the
oracle's value read as oracles.canonical reads it), and against the same
chain of binary operators, which makes one body per operator: equal
values, equal D, the same term order and the same blade order, and on raw
values the same bits.  The operands cancel often, hold zero constants, mix
exact and float values, and hold Gaussian values, stored as integer pairs
while their imaginary part is nonzero.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (EPS, assert_matches, canonical, chain_0F1, dyadic,
                     dyadic_body, exact_values, max_error, o_add, o_d_dt,
                     o_dirac, o_laplacian, o_lmul, o_neg, o_partial, o_rmul,
                     o_split, radial_stages, scale_of, spatial, typed)
from paradirac.algebra import AlgebraContext, Multivector, witt_basis
from paradirac.builders import SeriesSolution
from paradirac.poly import (SpaceTimeFunction, Sum, integer_rescale,
                            radial_product, radial_series)
from paradirac.scalars import GaussianRational
from paradirac.timefn import TimeFunction, apply_0F1, parabolic_dirac
from paradirac.verify import symbolic_residual
from paradirac.zeta import IntMatrix, ZetaElement

halves = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3, 6)))
VALUES = {
    "int": st.integers(-2, 2),
    "fraction": halves,
    "gaussian": st.builds(GaussianRational, halves, halves),
    "float": st.builds(lambda n, d: n / d, st.integers(-6, 6), st.integers(1, 7)),
    "complex": st.builds(lambda a, b: complex(a / 3, b / 7),
                         st.integers(-3, 3), st.integers(-3, 3)),
}
VALUES["exact"] = st.one_of(VALUES["int"], VALUES["fraction"], VALUES["gaussian"])
KINDS = st.sampled_from(("int", "fraction", "gaussian", "exact", "exact",
                         "float", "complex"))
LAMBDAS = st.sampled_from((0, 0, 0, Fraction(-1), Fraction(1, 2),
                           GaussianRational(0, 1), 0.25))


def spatial_blades(ctx):
    """Blades of the e_1..e_m subalgebra, which the Witt-pair blades of a
    zeta-like constant never share."""
    return (0, 2, 4, 6)


def all_blades(ctx):
    top = 1 << (ctx.m + 1)
    return (0, 1, 2, 3, top, top | 1, top | 2)


@st.composite
def bodies(draw, ctx, kind, timed=False):
    """A space-time body over few keys and blades, so that terms collide."""
    blades = draw(st.sampled_from((spatial_blades(ctx), all_blades(ctx))))
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        key = (tuple(draw(st.integers(0, 2)) for _ in range(ctx.m)),
               draw(st.integers(0, 2)) if timed else 0,
               draw(LAMBDAS) if timed else 0)
        mv = Multivector(ctx, {draw(st.sampled_from(blades)): draw(VALUES[kind])
                               for _ in range(draw(st.integers(1, 3)))})
        mv = Multivector(ctx, {b: v for b, v in mv.terms.items() if v})
        terms[key] = terms[key] + mv if key in terms else mv
    return SpaceTimeFunction(ctx, {k: mv for k, mv in terms.items() if not mv.is_zero()})


@st.composite
def constants(draw, ctx, kind):
    """A Witt-pair constant (zeta-like), a few other blades, or zero."""
    f, fdag = witt_basis(ctx)
    choice = draw(st.integers(0, 3))
    if choice == 0:
        return ctx.zero()
    if choice == 1:
        z = ZetaElement(*(draw(VALUES[kind]) for _ in range(4)))
        return z.to_multivector(ctx)
    if choice == 2 and kind in ("int", "fraction", "gaussian", "exact"):
        return draw(st.sampled_from((f, fdag, f * fdag)))
    return Multivector(ctx, {b: v for b, v in (
        (draw(st.sampled_from(all_blades(ctx))), draw(VALUES[kind]))
        for _ in range(2)) if v})


def denominator(body):
    """D of an exact body (None for raw values): the stored scale."""
    return body._D


def assert_same_body(got, want):
    """Equal values of equal types (bits for raw values), equal D, the same
    term order and, within each term, the same blade order."""
    assert type(got) is type(want)
    assert typed(got.terms) == typed(want.terms)
    assert denominator(got) == denominator(want)
    assert list(got.keys()) == list(want.keys())
    for key in want.keys():
        assert list(got.coeffs(key)) == list(want.coeffs(key))


def exact_body(*terms_maps):
    return exact_values(*terms_maps) and all(
        type(lam) is not float for terms in terms_maps for _, _, lam in terms)


# -- a sum of scaled bodies --------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_accumulator_sum_matches_binary_chain_and_oracle(data):
    ctx = AlgebraContext(data.draw(st.integers(1, 3)))
    ops = []
    for _ in range(data.draw(st.integers(1, 4))):
        body = data.draw(bodies(ctx, data.draw(KINDS)))
        if ops and data.draw(st.booleans()):
            body = body - ops[0][0]          # cancels the first operand
        ops.append((body, data.draw(st.sampled_from((None, None, -1, 0)))))
    _assert_sum_matches_chain_and_oracle(ctx, ops)


def test_an_integral_exact_part_beside_a_float_is_an_int():
    """1/2 e1, then e1 - 1/2 e1, then the float 1.0: the exact e1 values
    add up to 1 before the float stage turns the sum to raw values, and
    the sum holds the int 1 where Fraction arithmetic in the oracle keeps
    Fraction(1, 1); both read as the canonical int."""
    ctx = AlgebraContext(1)
    key = ((0,), 0, 0)
    half = SpaceTimeFunction(ctx, {key: Multivector(ctx, {2: Fraction(1, 2)})})
    one = SpaceTimeFunction(ctx, {key: Multivector(ctx, {2: 1})})
    ones = SpaceTimeFunction(ctx, {key: Multivector(ctx, {0: 1.0})})
    _assert_sum_matches_chain_and_oracle(
        ctx, [(half, None), (one - half, None), (ones, None)])
    total = Sum(ctx).add(half).add(one - half).add(ones).value()
    assert total.coeffs(key) == {2: 1, 0: 1.0} and type(total.coeffs(key)[2]) is int


def test_a_sum_is_rescaled_twice_then_turned_to_raw_values():
    """An int body, a 1/3 body and a Gaussian 1/2 body take the
    accumulator from D = 1 to 3 and then to 6, in place; a float body then
    turns it to raw values, and an exact body after it is merged as raw
    values."""
    ctx = AlgebraContext(2)
    a, b, c = ((1, 0), 0, 0), ((0, 1), 0, 0), ((0, 0), 1, 0)

    def body(terms):
        return SpaceTimeFunction(ctx, {key: Multivector(ctx, vals)
                                       for key, vals in terms.items()})
    ops = [body({a: {0: 2, 2: -1}, b: {4: 3}}),
           body({a: {0: Fraction(1, 3)}, c: {2: Fraction(-2, 3), 6: 1}}),
           body({a: {2: GaussianRational(Fraction(1, 2), 1)},
                 b: {4: GaussianRational(-3, Fraction(-1, 2))}}),
           body({b: {4: 0.25, 0: -1.5}, c: {6: -1.0}}),
           body({a: {0: Fraction(-7, 3)}, c: {6: 1, 2: Fraction(2, 3)}})]
    _assert_sum_matches_chain_and_oracle(ctx, [(F, None) for F in ops])


def test_a_spent_sum_refuses_stages_and_keeps_its_body():
    """value() hands the accumulator over: a stage or a second value()
    after it raises, and the body it returned keeps its terms."""
    ctx = AlgebraContext(2)
    F = SpaceTimeFunction(ctx, {
        ((1, 1), 0, 0): Multivector(ctx, {0: Fraction(1, 2), 2: 3}),
        ((2, 0), 1, Fraction(1, 3)): Multivector(ctx, {4: -1})})
    total = Sum(ctx).add(F).dirac(F)
    got = total.value()
    keys = list(got.keys())
    coeffs = {key: got.coeffs(key) for key in keys}
    late = [lambda: total.add(F), lambda: total.add(F, 0), lambda: total.add(F, 0.5),
            lambda: total.lmul(ctx.e(1), F), lambda: total.rmul(ctx.e(1), F),
            lambda: total.product(F, F), lambda: total.dirac(F),
            lambda: total.lowered(F, 1, (0,)), lambda: total.laplacian(F),
            lambda: total.d_dt(F), total.value]
    for stage in late:
        with pytest.raises(ValueError, match="spent"):
            stage()
    assert list(got.keys()) == keys
    assert {key: got.coeffs(key) for key in keys} == coeffs
    assert typed(got.terms) == typed((F + F.dirac()).terms)


def _assert_sum_matches_chain_and_oracle(ctx, ops):
    """The Sum of (body, sign) stages against the chain of binary
    operators and against the per-term oracle; a sign of 0 drops the
    stage."""
    got = Sum(ctx)
    chain = SpaceTimeFunction.zero(ctx)
    oracle = {}
    for body, sign in ops:
        got.add(body, sign)
        if sign is None:
            chain, oracle = chain + body, o_add(oracle, body.terms)
        elif sign == -1:
            chain, oracle = chain - body, o_add(oracle, o_neg(body.terms))
    got = got.value()
    assert_same_body(got, chain)
    assert_matches(got.terms, oracle,
                   exact_values(*(body.terms for body, sign in ops if sign != 0)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_constant_products_and_operators_stream_as_the_chain_does(data):
    """Stages of every kind after a first one: each is merged into a
    filled accumulator."""
    ctx = AlgebraContext(data.draw(st.integers(1, 3)))
    kind = data.draw(KINDS)
    F = data.draw(bodies(ctx, kind, timed=True))
    G = data.draw(bodies(ctx, data.draw(KINDS), timed=True))
    if data.draw(st.booleans()):
        G = G - F
    mv = data.draw(constants(ctx, data.draw(KINDS)))
    sign = data.draw(st.sampled_from((None, -1)))
    i = data.draw(st.integers(0, ctx.m - 1))
    total = Sum(ctx).add(G).lmul(mv, F).rmul(mv, G).dirac(
        F, sign).lowered(F, 1, (i,)).laplacian(G).d_dt(F, sign).value()
    chain = G + F.lmul(mv) + G.rmul(mv)
    chain = chain + F.dirac() if sign is None else chain - F.dirac()
    chain = chain + F.partial(i) + G.laplacian()
    chain = chain + F.d_dt() if sign is None else chain - F.d_dt()
    assert_same_body(total, chain)
    if exact_body(F.terms, G.terms) and exact_values({0: mv}):
        a, b = F.terms, G.terms
        dirac = o_dirac(ctx, a) if sign is None else o_neg(o_dirac(ctx, a))
        d_dt = o_d_dt(a) if sign is None else o_neg(o_d_dt(a))
        want = o_add(o_add(o_add(b, o_lmul(a, mv)), o_rmul(b, mv)), dirac)
        want = o_add(o_add(o_add(want, o_partial(a, i)), o_laplacian(ctx, b)), d_dt)
        assert_matches(total.terms, want, True)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_zero_constants_and_scales_record_nothing(data):
    ctx = AlgebraContext(data.draw(st.integers(1, 3)))
    F = data.draw(bodies(ctx, data.draw(KINDS), timed=True))
    G = data.draw(bodies(ctx, data.draw(KINDS), timed=True))
    zero = data.draw(st.sampled_from((0, Fraction(0), GaussianRational(0), 0.0)))
    total = Sum(ctx).add(F).lmul(ctx.zero(), G).add(
        G, zero).dirac(G, zero).value()
    assert typed(total.terms) == typed(F.terms)
    assert list(total.keys()) == list(F.keys())


# -- scales on raw values -----------------------------------------------------------

SIGNED = st.sampled_from((-0.0, 0.0, -1.5, 0.75, float("inf")))


@st.composite
def raw_bodies(draw, ctx):
    """Complex values with signed zeros and infinities: a product with
    (1 + 0j) can change such a value's bits."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        key = (tuple(draw(st.integers(0, 2)) for _ in range(ctx.m)), 0, 0)
        terms[key] = Multivector(ctx, {draw(st.sampled_from(all_blades(ctx))):
                                       complex(draw(SIGNED), draw(SIGNED))
                                       or complex(-0.0, -1.5)})
    return SpaceTimeFunction(ctx, terms)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_scaled_stage_scales_raw_values_as_scale_does(data):
    """A stage given a scale multiplies each raw value by it, bit for bit
    as scale() does, also when the scale equals 1; the int -1 negates each
    value as unary minus does; a stage without a scale keeps the values."""
    ctx = AlgebraContext(data.draw(st.integers(1, 2)))
    F = data.draw(raw_bodies(ctx))
    G = data.draw(bodies(ctx, data.draw(KINDS)))
    w = data.draw(st.sampled_from((1, Fraction(1), 1.0, 1 + 0j, GaussianRational(1),
                                   Fraction(1, 3), 0.5, -1.0, Fraction(-1))))
    got = Sum(ctx).add(F, w).value()
    assert typed(got.terms) == typed(F.scale(w).terms)
    assert_same_body(Sum(ctx).add(G).add(F, w).value(),
                     G + F.scale(w))
    neg = Sum(ctx).add(F, -1).value()
    assert typed(neg.terms) == typed({key: Multivector(ctx, {
        b: -v for b, v in mv.terms.items()}) for key, mv in F.terms.items()})
    assert typed(Sum(ctx).add(F).value().terms) == typed(F.terms)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apply_0F1_is_within_the_accuracy_bound_of_its_series(data):
    """apply_0F1 against the chain that sums each level
    weight * (rho^{2l} base * a^{(l)}) on the powers rho^{2l} base: the
    same values and types on exact input, and on float input both within
    a few roundings per level, (L+1) 2^-52 times the largest coefficient,
    of the series of the same input read as exact dyadic rationals."""
    ctx = AlgebraContext(data.draw(st.integers(1, 2)))
    base = spatial(ctx, {(e,) + (0,) * (ctx.m - 1): Multivector(ctx, {0: v})
                         for e, v in enumerate(data.draw(st.lists(
                             st.sampled_from((-1, 2, Fraction(1, 3), -0.5)),
                             min_size=1, max_size=3)))})
    c = data.draw(st.sampled_from((1, Fraction(-2, 3), GaussianRational(1, 2),
                                   0.3, complex(-1.5, 0.75), 1j)))
    a = TimeFunction.term(ctx, c, n=data.draw(st.integers(0, 2)),
                          lam=data.draw(st.sampled_from((0, -1, -1.0, 0.5))))
    gamma = data.draw(st.sampled_from((Fraction(3, 2), 2, 1.5)))
    L = 2
    got, want = apply_0F1(gamma, base, a, L), chain_0F1(gamma, base, a, L)
    if got.is_exact():
        assert want.is_exact() and got == want
        assert typed(got.terms) == typed(want.terms)
        return
    exact = chain_0F1(dyadic(gamma), dyadic_body(base), dyadic_body(a), L)
    bound = 2 * (L + 1) * EPS * scale_of(exact)
    assert max_error(got, exact) <= bound
    assert max_error(want, exact) <= bound


# -- zero constants ------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_explicit_zeros_in_a_constant_store_no_zero(data):
    """A constant Multivector may hold zero values; a product with it stores
    no zero numerator, so is_zero() and == read it right."""
    ctx = AlgebraContext(data.draw(st.integers(1, 3)))
    top = 1 << (ctx.m + 1)
    F = data.draw(bodies(ctx, data.draw(st.sampled_from(
        ("int", "fraction", "gaussian", "exact"))), timed=True))
    zero = data.draw(st.sampled_from((0, Fraction(0), GaussianRational(0))))
    one = data.draw(st.sampled_from((1, Fraction(1))))
    unit = Multivector(ctx, {top: zero, 0: one, 1: zero})
    for got in (F.lmul(unit), F.rmul(unit),
                Sum(ctx).lmul(unit, F).rmul(unit, F).value()):
        assert all(v != 0 for key in got.keys() for v in got.coeffs(key).values())
    assert F.lmul(unit) == F and F.rmul(unit) == F
    assert_matches(F.lmul(unit).terms, o_lmul(F.terms, unit), True)
    c = data.draw(constants(ctx, "exact"))
    spare = next(b for b in range(1 << (ctx.m + 2)) if b not in c.terms)
    with_zero = Multivector(ctx, {**c.terms, spare: zero})
    assert_matches(F.lmul(with_zero).terms, o_lmul(F.terms, with_zero), True)
    assert_matches(F.rmul(with_zero).terms, o_rmul(F.terms, with_zero), True)
    assert F.lmul(with_zero) == F.lmul(c) and F.rmul(with_zero) == F.rmul(c)
    only_zero = Multivector(ctx, {top: zero, 0: zero})
    assert F.lmul(only_zero).is_zero() and F.rmul(only_zero).is_zero()
    assert (F - F.lmul(unit)).is_zero()


# -- the fused residuals -------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fused_generalized_and_helmholtz_residuals(data):
    ctx = AlgebraContext(data.draw(st.integers(1, 3)))
    F = data.draw(bodies(ctx, data.draw(KINDS)))
    z = ZetaElement(*(data.draw(st.one_of(st.just(0), VALUES[data.draw(KINDS)]))
                      for _ in range(4)))
    zmv, szmv = z.to_multivector(ctx), z.star_zeta().to_multivector(ctx)
    gen = SeriesSolution(body=F, mode="gen-monogenic", m=ctx.m, k=0, L=0,
                         exact=False, zeta=z)
    helm = SeriesSolution(body=F, mode="helmholtz", m=ctx.m, k=0, L=0,
                          exact=False, zeta=z)
    R, H = symbolic_residual(gen), symbolic_residual(helm)
    assert_same_body(R, F.dirac() + F.lmul(zmv))
    assert_same_body(H, F.laplacian() + F.lmul(szmv))
    if exact_body(F.terms) and exact_values({0: zmv}):
        assert_matches(R.terms, o_add(o_dirac(ctx, F.terms),
                                      o_lmul(F.terms, zmv)), True)
    if exact_body(F.terms) and exact_values({0: szmv}):
        assert_matches(H.terms, o_add(o_laplacian(ctx, F.terms),
                                      o_lmul(F.terms, szmv)), True)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fused_parabolic_residual(data):
    ctx = AlgebraContext(data.draw(st.integers(1, 3)))
    F = data.draw(bodies(ctx, data.draw(KINDS), timed=True))
    f, fdag = witt_basis(ctx)
    got = parabolic_dirac(F)
    chain = F.dirac() + F.d_dt().lmul(f) + F.lmul(fdag)
    if not exact_body(F.terms):
        assert_same_body(got, chain)
    else:
        # an exact body is read once, in an order and over a D of its own
        assert type(got) is type(chain) and typed(got.terms) == typed(chain.terms)
        a = F.terms
        assert_matches(got.terms, o_add(o_add(o_dirac(ctx, a), o_lmul(o_d_dt(a), f)),
                                        o_lmul(a, fdag)), True)


# -- canonical exact values ----------------------------------------------------------


def re_part(v):
    return v.re if isinstance(v, GaussianRational) else v


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_gaussian_bodies_whose_imaginary_parts_cancel_are_rational(data):
    """A value made from Gaussian ones is a GaussianRational only while its
    imaginary part is nonzero: a sum whose imaginary parts all cancel holds
    ints and Fractions, typed as the body of the same rational values; the
    split and equality see values."""
    ctx = AlgebraContext(data.draw(st.integers(1, 3)))
    F = data.draw(bodies(ctx, "gaussian", timed=True))
    G = data.draw(bodies(ctx, data.draw(st.sampled_from(("int", "exact", "gaussian"))),
                         timed=True))
    conj = SpaceTimeFunction(ctx, {key: Multivector(ctx, {
        b: v.conjugate() if isinstance(v, GaussianRational) else v
        for b, v in mv.terms.items()}) for key, mv in F.terms.items()})
    real = F + conj                 # every imaginary part cancels
    assert_matches(real.terms, o_add(F.terms, conj.terms), True)
    assert all(type(v) in (int, Fraction) and canonical(v) is v
               for mv in real.terms.values() for v in mv.terms.values())
    rational = SpaceTimeFunction(ctx, {key: Multivector(ctx, {
        b: 2 * re_part(v) for b, v in mv.terms.items()}) for key, mv in F.terms.items()})
    assert typed(real.terms) == typed(rational.terms)
    assert real == rational and rational == real
    assert (real - rational).is_zero()
    for got, want in zip((F + G).split(), o_split(o_add(F.terms, G.terms))):
        assert_matches(got.terms, want, True)
    c = data.draw(VALUES["gaussian"].filter(bool))
    assert_matches(F.scale(c).terms, {k: mv * c for k, mv in F.terms.items()
                                      if not (mv * c).is_zero()}, True)
    assert (F.scale(c) / c) == F


def assert_canonical(body):
    """An exact body hands out no GaussianRational with a zero imaginary
    part and no Fraction with denominator 1."""
    assert body.is_exact()
    for key in body.keys():
        for v in body.coeffs(key).values():
            assert type(v) in (int, Fraction, GaussianRational)
            assert not (type(v) is GaussianRational and not v.im), (key, v)
            assert not (type(v) is Fraction and v.denominator == 1), (key, v)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_stage_and_operator_hands_out_canonical_values(data):
    ctx = AlgebraContext(data.draw(st.integers(1, 3)))
    exact_kinds = st.sampled_from(("int", "fraction", "gaussian", "exact"))

    def body():
        F = data.draw(bodies(ctx, data.draw(exact_kinds), timed=True))
        return SpaceTimeFunction(ctx, {key: mv for key, mv in F.terms.items()
                                       if type(key[2]) is not float})
    F, G = body(), body()
    if data.draw(st.booleans()):
        G = G - F
    mv = data.draw(constants(ctx, data.draw(exact_kinds)))
    c = data.draw(VALUES[data.draw(exact_kinds)].filter(bool))
    sign = data.draw(st.sampled_from((None, -1, c)))
    i = data.draw(st.integers(0, ctx.m - 1))
    z = ZetaElement(*(data.draw(VALUES[data.draw(exact_kinds)]) for _ in range(4)))
    p = spatial(ctx, {exps: mv for (exps, n, lam), mv in F.terms.items()
                      if n == 0 and lam == 0})
    W = IntMatrix.of(z)
    stages = [
        lambda S: S.add(F, sign), lambda S: S.lmul(mv, G, sign),
        lambda S: S.rmul(mv, F, sign), lambda S: S.product(F, G, sign),
        lambda S: S.dirac(G, sign), lambda S: S.lowered(F, 1, (i,), sign),
        lambda S: S.laplacian(G, sign), lambda S: S.d_dt(F, sign)]
    for stage in stages:
        assert_canonical(stage(Sum(ctx)).value())
    together = Sum(ctx)
    for stage in stages:
        stage(together)
    assert_canonical(together.value())
    levels = [z.to_multivector(ctx), z.star_zeta().to_multivector(ctx)]
    for got in (F + G, F - G, -F, F.scale(c), F / c, F.lmul(mv), F.rmul(mv),
                F * G, F.partial(i), F.dirac(), F.laplacian(), F.d_dt(),
                *F.split(), p, p.truncate_degree(2),
                integer_rescale(p),
                radial_stages(Sum(ctx), p, levels).value(),
                radial_product(W, p),
                radial_series(ctx, [[(0, radial_product(W, p)), (
                    1, radial_product(W.hat() * W, p))]])):
        assert_canonical(got)
