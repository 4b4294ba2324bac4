import cmath
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (as_spacetime, assert_matches, exact_values, o_add,
                     o_d_dt, o_dirac, o_div, o_evaluate, o_laplacian, o_lmul,
                     o_mul, o_neg, o_partial, o_rmul, o_scale, o_split,
                     spatial_degrees, termwise)
from paradirac.algebra import AlgebraContext, Multivector, witt_basis
from paradirac.builders import build_parabolic_closed
from paradirac.harmonics import monogenic_basis
from paradirac.poly import CliffordPoly, rho_squared
from paradirac.scalars import GaussianRational
from paradirac.timefn import (SpaceTimeFunction, TimeFunction, apply_0F1,
                              assemble_split, heat_residual, parabolic_dirac)
from paradirac.verify import check_component_conditions


def test_time_polynomial_and_derivative():
    ctx = AlgebraContext(2)
    a = TimeFunction.polynomial(ctx, [1, 0, 3])        # 1 + 3 t^2
    assert a.d_dt() == TimeFunction.term(ctx, 6, n=1)
    assert a.evaluate(2) == 1 + 12


def test_exponential_derivative():
    ctx = AlgebraContext(2)
    lam = Fraction(-2)
    a = TimeFunction.term(ctx, 1, n=1, lam=lam)        # t e^{-2t}
    da = a.d_dt()
    expect = (TimeFunction.term(ctx, 1, n=0, lam=lam)
              + TimeFunction.term(ctx, lam, n=1, lam=lam))
    assert da == expect
    assert not a.is_polynomial()


def test_time_product_merges_lambda():
    ctx = AlgebraContext(2)
    u = TimeFunction.term(ctx, 2, n=1, lam=1)
    v = TimeFunction.term(ctx, 3, n=2, lam=-1)
    # t e^t * t^2 e^{-t} = t^3, exponent keys must collapse
    assert u * v == TimeFunction.term(ctx, 6, n=3)


def test_spacetime_partial_and_dirac():
    ctx = AlgebraContext(2)
    p = CliffordPoly.monomial(ctx, (2, 0), 1)
    F = SpaceTimeFunction.from_poly(p, TimeFunction.polynomial(ctx, [0, 1]))
    dF = F.partial(0)
    assert dF == SpaceTimeFunction.from_poly(
        CliffordPoly.monomial(ctx, (1, 0), 2),
        TimeFunction.polynomial(ctx, [0, 1]))
    assert F.d_dt() == SpaceTimeFunction.from_poly(p)


def test_heat_polynomial_is_caloric():
    # t + rho^2 / (2m) solves the heat equation for every m
    for m in (1, 2, 3, 4):
        ctx = AlgebraContext(m)
        F = (SpaceTimeFunction.from_poly(rho_squared(ctx)).scale(Fraction(1, 2 * m))
             + SpaceTimeFunction.from_poly(
                 CliffordPoly.constant(ctx, 1),
                 TimeFunction.polynomial(ctx, [0, 1])))
        assert heat_residual(F).is_zero()


def test_parabolic_dirac_of_one():
    # D(1) = fdag: the operator has a zeroth-order part
    ctx = AlgebraContext(2)
    _, fdag = witt_basis(ctx)
    F = SpaceTimeFunction.from_poly(CliffordPoly.constant(ctx, 1))
    R = parabolic_dirac(F)
    assert R == SpaceTimeFunction.from_poly(CliffordPoly.zero(ctx) + CliffordPoly(
        ctx, {(0, 0): fdag}))


def test_apply_0F1_first_terms():
    # gamma = 1, a = t: body is a(t) + rho^2 a'(t)/4 + ...
    ctx = AlgebraContext(2)
    base = CliffordPoly.constant(ctx, 1)
    a = TimeFunction.polynomial(ctx, [0, 1])
    F = apply_0F1(1, base, a, L=6)
    expect = (SpaceTimeFunction.from_poly(base, a)
              + SpaceTimeFunction.from_poly(rho_squared(ctx)).scale(Fraction(1, 4)))
    assert F == expect


def test_apply_0F1_caloric():
    # each 0F1 lift of a polynomial profile solves (Lap - d_dt) F = 0
    ctx = AlgebraContext(3)
    base = CliffordPoly.constant(ctx, 1)
    for coeffs in ([1], [0, 1], [1, -2, 3]):
        a = TimeFunction.polynomial(ctx, coeffs)
        F = apply_0F1(Fraction(3, 2), base, a, L=12)
        assert heat_residual(F).is_zero()


def test_apply_0F1_exponential_profile_truncation():
    # e^{lam t} profile never terminates; residual must sit at the
    # truncation frontier only
    ctx = AlgebraContext(2)
    base = CliffordPoly.constant(ctx, 1)
    a = TimeFunction.term(ctx, 1, n=0, lam=Fraction(-1))
    F = apply_0F1(1, base, a, L=5)
    R = heat_residual(F)
    assert not R.is_zero()
    assert set(spatial_degrees(R)) == {2 * 5}


def test_split_assemble_roundtrip():
    ctx = AlgebraContext(2)
    f, fdag = witt_basis(ctx)
    F = SpaceTimeFunction.from_poly(
        CliffordPoly.monomial(ctx, (1, 1), 1),
        TimeFunction.polynomial(ctx, [1, 2]))
    F = F + SpaceTimeFunction.from_poly(CliffordPoly(ctx, {(2, 0): f * fdag}))
    f0, f1, f2, f3 = F.split()
    assert assemble_split(f0, f1, f2, f3) == F


def test_evaluate_spacetime():
    ctx = AlgebraContext(2)
    F = SpaceTimeFunction.from_poly(
        CliffordPoly.monomial(ctx, (1, 0), 1),
        TimeFunction.polynomial(ctx, [0, 0, 1]))
    v = F.evaluate([Fraction(2), 0], t=Fraction(3))
    assert v == ctx.scalar(18)


def test_mul_time_distributes():
    ctx = AlgebraContext(2)
    F = SpaceTimeFunction.from_poly(
        CliffordPoly.monomial(ctx, (1, 0), 1),
        TimeFunction.polynomial(ctx, [1, 1]))
    tf = TimeFunction.polynomial(ctx, [0, 1])
    G = F * tf
    pt, tv = [Fraction(1, 2), Fraction(1, 3)], Fraction(2)
    assert G.evaluate(pt, tv) == F.evaluate(pt, tv) * tf.evaluate(tv).scalar_part()

# -- slow oracles for the space-time slice operators ----------------------------

small = st.integers(-2, 2)
exact_scalars = st.one_of(
    small, st.builds(Fraction, small, st.integers(1, 3)),
    st.builds(GaussianRational, small, small))
# polynomial (lambda = 0) and exponential time keys, with pairs that cancel
lambdas = st.sampled_from((0, 0, Fraction(1), Fraction(-1), Fraction(1, 2),
                           GaussianRational(0, 1), GaussianRational(0, -1)))


@st.composite
def spacetime(draw, m):
    ctx = AlgebraContext(m)
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        key = (tuple(draw(st.integers(0, 2)) for _ in range(m)),
               draw(st.integers(0, 3)), draw(lambdas))
        mv = Multivector(ctx, {draw(st.sampled_from((0, 1, 2, 6))): draw(exact_scalars)})
        mv = Multivector(ctx, {k: v for k, v in mv.terms.items() if v})
        terms[key] = terms[key] + mv if key in terms else mv
    return SpaceTimeFunction(ctx, {k: mv for k, mv in terms.items() if not mv.is_zero()})


def assert_clean(F):
    for mv in F.terms.values():
        assert mv.terms and all(v != 0 for v in mv.terms.values())


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_spacetime_dirac_matches_oracle(data):
    m = data.draw(st.integers(1, 3))
    F = data.draw(spacetime(m))
    ctx = F.ctx
    expect = termwise(
        ((exps[:i] + (exps[i] - 1,) + exps[i + 1:], n, lam),
         ctx.e(i + 1) * (mv * exps[i]))
        for (exps, n, lam), mv in F.terms.items() for i in range(m) if exps[i])
    got = F.dirac()
    assert got.terms == expect
    for G in (got, F.laplacian(), F.partial(0), *F.split(), parabolic_dirac(F),
              heat_residual(F)):
        assert_clean(G)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_spacetime_partial_laplacian_evaluate_match_oracle(data):
    m = data.draw(st.integers(1, 3))
    F = data.draw(spacetime(m))
    i = data.draw(st.integers(0, m - 1))

    def lowered(exps, j, by):
        return exps[:j] + (exps[j] - by,) + exps[j + 1:]

    assert F.partial(i).terms == termwise(
        ((lowered(exps, i, 1), n, lam), mv * exps[i])
        for (exps, n, lam), mv in F.terms.items() if exps[i])
    assert F.laplacian().terms == termwise(
        ((lowered(exps, j, 2), n, lam), mv * (exps[j] * (exps[j] - 1)))
        for (exps, n, lam), mv in F.terms.items()
        for j in range(m) if exps[j] > 1)
    # a polynomial evaluates the same on its own and as a space-time function
    p = CliffordPoly(F.ctx, {exps: mv for (exps, n, lam), mv in F.terms.items()
                             if n == 0 and lam == 0})
    point = [data.draw(st.builds(Fraction, small, st.integers(1, 3)))
             for _ in range(m)]
    t = data.draw(st.one_of(small, st.builds(Fraction, small, st.integers(1, 3))))
    assert p.evaluate(point) == SpaceTimeFunction.from_poly(p).evaluate(point, t)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_spacetime_product_matches_oracle(data):
    m = data.draw(st.integers(1, 3))
    F, G = data.draw(spacetime(m)), data.draw(spacetime(m))
    expect = termwise(
        ((tuple(x + y for x, y in zip(ea, eb)), na + nb, la + lb), ca * cb)
        for (ea, na, la), ca in F.terms.items()
        for (eb, nb, lb), cb in G.terms.items())
    got = F * G
    assert got.terms == expect
    assert_clean(got)
    # a zero exponent is always stored as the int 0, one key for e^{0 t}
    assert all(lam != 0 or type(lam) is int for _, _, lam in got.terms)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_d_dt_follows_termwise_rule(data):
    m = data.draw(st.integers(1, 3))
    F = data.draw(spacetime(m))
    contributions = []
    for (exps, n, lam), mv in F.terms.items():
        if n:
            contributions.append(((exps, n - 1, lam), mv * n))
        if lam != 0:
            contributions.append(((exps, n, lam), mv * lam))
    got = F.d_dt()
    assert got.terms == termwise(contributions)
    assert_clean(got)
    # the x-independent slice shares the rule and stays a TimeFunction
    tf = TimeFunction(F.ctx, {((0,) * m, n, lam): mv
                              for (exps, n, lam), mv in F.terms.items()
                              if not any(exps)})
    assert isinstance(tf.d_dt(), TimeFunction)
    assert isinstance(tf * tf, TimeFunction)


# -- batch evaluation ------------------------------------------------------------


def per_term_value(F, point, t):
    """A term-by-term evaluation loop; evaluate_many must match its bits."""
    out = {}
    for (exps, n, lam), mv in F.terms.items():
        w = 1
        for x, d in zip(point, exps):
            if d:
                w = w * x ** d
        if n:
            w = w * t ** n
        if lam != 0:
            w = complex(w) * cmath.exp(complex(lam) * complex(t))
        if w != 0:
            for blade, c in mv.terms.items():
                s = out.get(blade, 0) + c * w
                if s:
                    out[blade] = s
                else:
                    out.pop(blade, None)
    return out


def bits(values):
    return {blade: (type(v).__name__, repr(v)) for blade, v in values.items()}


# full mantissas, so that reordering a product or a sum changes the last bits
floats = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0)),
                   st.floats(-2, 2, allow_nan=False, allow_infinity=False),
                   st.integers(-10**6, 10**6).map(lambda k: k / 487013.7))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_evaluate_many_matches_oracles(data):
    m = data.draw(st.integers(1, 3))
    F = data.draw(spacetime(m))
    ctx = F.ctx
    # exact points on the polynomial slice: a textbook sum of Multivectors
    poly = SpaceTimeFunction(ctx, {key: mv for key, mv in F.terms.items()
                                   if key[2] == 0})
    exact = st.one_of(small, st.builds(Fraction, small, st.integers(1, 3)))
    batch = data.draw(st.lists(st.tuples(st.tuples(*[exact] * m), exact),
                               max_size=4))
    for (point, t), got in zip(batch, poly.evaluate_many(batch), strict=True):
        expect = ctx.zero()
        for (exps, n, _), mv in poly.terms.items():
            expect = expect + mv * (math.prod(x ** a for x, a in zip(point, exps))
                                    * t ** n)
        assert got == expect
        assert bits(got.terms) == bits(per_term_value(poly, point, t))
    # float points, on exact, Gaussian, float and exponential bodies
    body = data.draw(st.sampled_from((F, F.scale(0.7), F.scale(1 + 0.5j))))
    batch = data.draw(st.lists(st.tuples(st.tuples(*[floats] * m), floats),
                               max_size=4))
    for (point, t), got in zip(batch, body.evaluate_many(batch), strict=True):
        assert bits(got.terms) == bits(per_term_value(body, point, t))
        assert bits(body.evaluate(point, t).terms) == bits(got.terms)


def test_evaluate_many_edge_cases():
    ctx = AlgebraContext(2)
    # 1/3 + 2 x1 e1 + (1+i)/2 t x2^2
    F = SpaceTimeFunction(ctx, {
        ((0, 0), 0, 0): ctx.scalar(Fraction(1, 3)),
        ((1, 0), 0, 0): ctx.e(1) * 2,
        ((0, 2), 1, 0): ctx.scalar(GaussianRational(Fraction(1, 2), Fraction(1, 2)))})
    batch = [((0.5, -0.25), 0.75), ((0.0, 0.0), 0.0)]
    at_float, origin = F.evaluate_many(batch)
    assert bits(at_float.terms) == bits(per_term_value(F, *batch[0]))
    # the origin of a float batch keeps the exact constant coefficient
    assert bits(origin.terms) == {0: ("Fraction", "Fraction(1, 3)")}
    # a Fraction point in a float batch stays exact
    q = ((Fraction(1, 2), Fraction(-1, 3)), Fraction(2))
    *_, exact = F.evaluate_many(batch + [q])
    assert exact.is_exact()
    assert bits(exact.terms) == bits(per_term_value(F, *q))
    assert list(F.evaluate_many([])) == []
    assert list(F.evaluate_many(iter(batch))) == [at_float, origin]
    # a sum that vanishes part way restarts from int 0, as a fresh sum would
    G = SpaceTimeFunction(ctx, {((1, 0), 0, 0): ctx.scalar(Fraction(1, 2)),
                                ((2, 0), 0, 0): ctx.scalar(Fraction(-1, 2)),
                                ((3, 0), 0, 0): ctx.scalar(3)})
    assert bits(G.evaluate((1, 0), 0).terms) == {0: ("int", "3")}
    # the weight multiplies x_1^2, x_2 and x_3 in that order
    ctx3 = AlgebraContext(3)
    H = SpaceTimeFunction(ctx3, {((2, 1, 1), 0, 0): ctx3.one()})
    assert H.evaluate((0.3, 0.7, 0.11), 0.0).terms == {0: 0.3 ** 2 * 0.7 * 0.11}
    with pytest.raises(ValueError):
        list(F.evaluate_many([((0.5,), 0.0)]))
    with pytest.raises(ValueError):
        F.evaluate((0.5, 0.5, 0.5), 0.0)


# -- stored numerators against per-term Multivector oracles -----------------------

# mixed denominators, so that sums rescale to an lcm that neither side has
mixed_fractions = st.builds(Fraction, st.integers(-6, 6),
                            st.sampled_from((1, 2, 3, 4, 6, 9, 10, 12)))
VALUES = {
    "exact": st.one_of(st.integers(-3, 3), mixed_fractions,
                       st.builds(GaussianRational, mixed_fractions, mixed_fractions)),
    "float": st.builds(lambda n, d: n / d, st.integers(-6, 6), st.integers(1, 7)),
    "complex": st.builds(lambda a, b: complex(a / 3, b / 7),
                         st.integers(-3, 3), st.integers(-3, 3)),
}
# exact time exponents, and one float exponent next to exact coefficients
STORAGE_LAMBDAS = st.sampled_from((0, 0, 0, Fraction(-1), Fraction(1, 2),
                                   Fraction(3, 4), GaussianRational(0, 1), 0.25))


@st.composite
def stored_bodies(draw, ctx, kind):
    """A space-time body over a few keys and blades, so that terms collide."""
    blades = (0, 1, 2, 1 << (ctx.m + 1), (1 << (ctx.m + 1)) | 1, 3)
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        key = (tuple(draw(st.integers(0, 2)) for _ in range(ctx.m)),
               draw(st.integers(0, 2)), draw(STORAGE_LAMBDAS))
        mv = Multivector(ctx, {draw(st.sampled_from(blades)): draw(VALUES[kind])
                               for _ in range(draw(st.integers(1, 3)))})
        mv = Multivector(ctx, {b: v for b, v in mv.terms.items() if v})
        terms[key] = terms[key] + mv if key in terms else mv
    return SpaceTimeFunction(ctx, {k: mv for k, mv in terms.items() if not mv.is_zero()})


def exact_keys(*maps):
    """Exact coefficients and exact time exponents: what d_dt needs to stay exact."""
    return exact_values(*maps) and all(type(lam) is not float
                                       for terms in maps for _, _, lam in terms)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_stored_numerators_match_per_term_oracles(data):
    ctx = AlgebraContext(data.draw(st.integers(1, 3)))
    kinds = st.sampled_from(("exact", "exact", "exact", "float", "complex"))
    F = data.draw(stored_bodies(ctx, data.draw(kinds)))
    G = data.draw(stored_bodies(ctx, data.draw(kinds)))
    if data.draw(st.booleans()):
        G = G - F                   # F + G cancels F's terms
    c = data.draw(VALUES[data.draw(kinds)].filter(bool))
    mv = Multivector(ctx, {b: v for b, v in (
        (data.draw(st.sampled_from((0, 1, 2, 1 << (ctx.m + 1)))),
         data.draw(VALUES[data.draw(kinds)])) for _ in range(2)) if v})
    a, b = F.terms, G.terms
    ex_a, ex_ab = exact_values(a), exact_values(a, b)
    ex_c = ex_a and exact_values({0: ctx.scalar(c)})
    ex_mv = ex_a and exact_values({0: mv})

    assert_matches((F + G).terms, o_add(a, b), ex_ab)
    assert_matches((F - G).terms, o_add(a, o_neg(b)), ex_ab)
    assert_matches((-F).terms, o_neg(a), ex_a)
    assert_matches(F.scale(c).terms, o_scale(a, c), ex_c)
    # an exact body divided by an int is divided exactly
    assert_matches((F / c).terms,
                   o_div(a, Fraction(c) if ex_c and type(c) is int else c), ex_c)
    assert_matches(F.lmul(mv).terms, o_lmul(a, mv), ex_mv)
    assert_matches(F.rmul(mv).terms, o_rmul(a, mv), ex_mv)
    assert_matches((F * G).terms, o_mul(ctx, a, b), ex_ab)
    i = data.draw(st.integers(0, ctx.m - 1))
    assert_matches(F.partial(i).terms, o_partial(a, i), ex_a)
    assert_matches(F.dirac().terms, o_dirac(ctx, a), ex_a)
    assert_matches(F.laplacian().terms, o_laplacian(ctx, a), ex_a)
    assert_matches(F.d_dt().terms, o_d_dt(a), exact_keys(a))
    for got, want in zip(F.split(), o_split(a)):
        assert_matches(got.terms, want, ex_a)
    # p(x) a(t) from the polynomial slice and the x-independent slice
    p = CliffordPoly(ctx, {exps: mv for (exps, n, lam), mv in a.items()
                           if n == 0 and lam == 0})
    tf = TimeFunction(ctx, {key: mv for key, mv in a.items() if not any(key[0])})
    assert_matches(SpaceTimeFunction.from_poly(p, tf).terms,
                   o_mul(ctx, as_spacetime(p.terms), tf.terms), ex_a)
    if ex_a:
        poly = SpaceTimeFunction(ctx, {k: mv for k, mv in a.items() if k[2] == 0})
        point = [data.draw(mixed_fractions) for _ in range(ctx.m)]
        t = data.draw(mixed_fractions)
        assert poly.evaluate(point, t) == o_evaluate(ctx, a, point, t)
    if ex_ab:
        # == compares values, whatever denominator each side keeps
        assert (F + G) - G == F
        if ex_c:
            assert F.scale(c) / c == F
        assert F == SpaceTimeFunction(ctx, a)
        assert (F + G == F) == G.is_zero()
        assert F.is_exact() == exact_keys(a)


def _closed_build(m, k, degree):
    ctx = AlgebraContext(m)
    a = TimeFunction.polynomial(ctx, [(-1) ** n * (n + 1) for n in range(degree + 1)])
    return build_parabolic_closed(monogenic_basis(ctx, k)[-1], a)


def test_exact_operators_build_no_fraction_per_term():
    # D F and the component check run on numerators only: the Fraction
    # count must not grow with the number of terms
    counts = []
    for m, k in ((2, 1), (4, 2)):
        sol = _closed_build(m, k, 4)
        new = Fraction.__new__
        made = []

        def counting(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        with mock.patch.object(Fraction, "__new__", counting):
            assert parabolic_dirac(sol.body).is_zero()
            assert check_component_conditions(sol).passed
        counts.append((len(sol.body.terms), len(made)))
    (small_terms, small_made), (big_terms, big_made) = counts
    assert big_terms > 10 * small_terms
    assert big_made == small_made <= 4
