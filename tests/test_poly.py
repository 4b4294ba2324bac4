import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paradirac.algebra import AlgebraContext, Multivector
from paradirac.poly import CliffordPoly, rho_squared, vector_variable
from paradirac.scalars import GaussianRational

rng = random.Random(31415)


def random_poly(ctx, r=rng, degree=3, n_terms=5):
    p = CliffordPoly.zero(ctx)
    for _ in range(n_terms):
        exps = tuple(r.randint(0, degree) for _ in range(ctx.m))
        mask = r.randrange(1 << (ctx.m + 2))
        c = r.randint(-5, 5)
        if c:
            p = p + CliffordPoly(ctx, {exps: Multivector(ctx, {mask: c})})
    return p


def test_monomial_and_degree():
    ctx = AlgebraContext(2)
    p = CliffordPoly.monomial(ctx, (2, 1), 3)
    assert p.degree() == 3
    assert p.is_homogeneous()
    q = p + CliffordPoly.constant(ctx, 1)
    assert not q.is_homogeneous()
    assert q.degree() == 3


def test_partial_derivative():
    ctx = AlgebraContext(2)
    p = CliffordPoly.monomial(ctx, (3, 1), 1)
    assert p.partial(0) == CliffordPoly.monomial(ctx, (2, 1), 3)
    assert p.partial(1) == CliffordPoly.monomial(ctx, (3, 0), 1)
    assert p.partial(0).partial(1) == p.partial(1).partial(0)


def test_product_matches_pointwise():
    ctx = AlgebraContext(3)
    for _ in range(20):
        a, b = random_poly(ctx), random_poly(ctx)
        point = [Fraction(rng.randint(-3, 3), 2) for _ in range(ctx.m)]
        lhs = (a * b).evaluate(point)
        rhs = a.evaluate(point) * b.evaluate(point)
        assert (lhs - rhs).is_zero()


def test_dirac_squared_is_minus_laplacian():
    for m in (1, 2, 3):
        ctx = AlgebraContext(m)
        for _ in range(10):
            p = random_poly(ctx)
            assert (p.dirac().dirac() + p.laplacian()).is_zero()


def test_vector_variable_squares_to_minus_rho2():
    for m in (1, 2, 3, 4):
        ctx = AlgebraContext(m)
        x = vector_variable(ctx)
        assert (x * x + rho_squared(ctx)).is_zero()


def test_euler_counts_degree():
    ctx = AlgebraContext(3)
    p = CliffordPoly.monomial(ctx, (2, 0, 1), 1)
    assert p.euler() == p.scale(3)


def test_dirac_anticommutator_with_x():
    # dirac(x p) + x dirac(p) = -(2 euler + m) p for every p
    for m in (2, 3):
        ctx = AlgebraContext(m)
        x = vector_variable(ctx)
        for _ in range(10):
            p = random_poly(ctx)
            lhs = (x * p).dirac() + x * p.dirac()
            rhs = -(p.euler().scale(2) + p.scale(m))
            assert (lhs - rhs).is_zero()


def test_laplacian_oracle():
    ctx = AlgebraContext(2)
    p = CliffordPoly.monomial(ctx, (2, 2), 1)
    expect = (CliffordPoly.monomial(ctx, (0, 2), 2)
              + CliffordPoly.monomial(ctx, (2, 0), 2))
    assert p.laplacian() == expect


@pytest.mark.parametrize("m,k", [(2, 0), (2, 1), (3, 0)])
def test_rho_power_derivative_identities(m, k):
    # the two ladder identities every series builder leans on:
    #   dirac(rho^{2l} M)    = 2l rho^{2l-2} x M
    #   dirac(rho^{2l} x M)  = -(2l + 2k + m) rho^{2l} M
    ctx = AlgebraContext(m)
    x = vector_variable(ctx)
    rho2 = rho_squared(ctx)
    if k == 0:
        mono = CliffordPoly.constant(ctx, 1)
    else:
        exps1 = tuple(1 if i == 0 else 0 for i in range(m))
        exps2 = tuple(1 if i == 1 else 0 for i in range(m))
        mono = CliffordPoly(ctx, {exps1: ctx.one(),
                                  exps2: -(ctx.e(1) * ctx.e(2))})
    assert mono.dirac().is_zero()
    P = mono
    Q = x * mono
    for ell in range(4):
        if ell == 0:
            assert P.dirac().is_zero()
        else:
            assert P.dirac() == (x * P_prev).scale(2 * ell)
        assert Q.dirac() == P.scale(-(2 * ell + 2 * k + m))
        P_prev = P
        P = rho2 * P
        Q = rho2 * Q


def test_truncate_degree():
    ctx = AlgebraContext(2)
    p = (CliffordPoly.monomial(ctx, (3, 0), 1)
         + CliffordPoly.monomial(ctx, (1, 0), 2))
    t = p.truncate_degree(2)
    assert t == CliffordPoly.monomial(ctx, (1, 0), 2)
    assert p.truncate_degree(5) == p


def test_lmul_rmul_orientation():
    ctx = AlgebraContext(2)
    p = CliffordPoly(ctx, {(1, 0): ctx.e(1)})
    left = p.lmul(ctx.e(2))
    right = p.rmul(ctx.e(2))
    assert left == CliffordPoly(ctx, {(1, 0): ctx.e(2) * ctx.e(1)})
    assert right == CliffordPoly(ctx, {(1, 0): ctx.e(1) * ctx.e(2)})
    assert (left + right).is_zero()


def test_division_and_exactness():
    ctx = AlgebraContext(2)
    p = CliffordPoly.monomial(ctx, (1, 1), Fraction(3))
    assert (p / 3).is_exact()
    q = CliffordPoly.monomial(ctx, (1, 1), 3.0)
    assert not q.is_exact()


# -- slow oracles for the sparse term engine -----------------------------------

small = st.integers(-2, 2)
exact_scalars = st.one_of(
    small, st.builds(Fraction, small, st.integers(1, 3)),
    st.builds(GaussianRational, small, small))


@st.composite
def polys(draw, m):
    """CliffordPoly over a few blades and monomials, so terms cancel often."""
    ctx = AlgebraContext(m)
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        exps = tuple(draw(st.integers(0, 2)) for _ in range(m))
        mv = Multivector(ctx, {draw(st.sampled_from((0, 1, 2, 6))): draw(exact_scalars)})
        mv = Multivector(ctx, {k: v for k, v in mv.terms.items() if v})
        terms[exps] = terms[exps] + mv if exps in terms else mv
    return CliffordPoly(ctx, {e: mv for e, mv in terms.items() if not mv.is_zero()})


def assert_clean(p):
    """No stored coefficient is empty or carries a zero blade."""
    for mv in p.terms.values():
        assert mv.terms and all(v != 0 for v in mv.terms.values())


def termwise(ctx, contributions):
    """Sum (key, Multivector) pairs with plain Multivector additions."""
    out = {}
    for key, mv in contributions:
        out[key] = out[key] + mv if key in out else mv
    return {k: mv for k, mv in out.items() if not mv.is_zero()}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_dirac_matches_generator_times_partial_oracle(data):
    m = data.draw(st.integers(1, 3))
    p = data.draw(polys(m))
    ctx = p.ctx
    expect = termwise(ctx, (
        (exps[:i] + (exps[i] - 1,) + exps[i + 1:], ctx.e(i + 1) * (mv * exps[i]))
        for exps, mv in p.terms.items() for i in range(m) if exps[i]))
    got = p.dirac()
    assert got.terms == expect
    assert_clean(got)
    for i in range(m):
        assert_clean(p.partial(i))
    assert_clean(p.laplacian())


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_product_matches_termwise_multivector_products(data):
    m = data.draw(st.integers(1, 3))
    a, b = data.draw(polys(m)), data.draw(polys(m))
    expect = termwise(a.ctx, (
        (tuple(x + y for x, y in zip(ea, eb)), ca * cb)
        for ea, ca in a.terms.items() for eb, cb in b.terms.items()))
    got = a * b
    assert got.terms == expect
    assert_clean(got)
    for r in (a + b, a - b, a.scale(Fraction(1, 2)), a.lmul(a.ctx.e(1)),
              a.rmul(a.ctx.eps()), -a, a / 3):
        assert_clean(r)
