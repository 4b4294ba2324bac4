import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (as_spacetime, assert_matches, exact_values, o_add,
                     o_dirac, o_div, o_evaluate, o_laplacian, o_lmul, o_mul,
                     o_neg, o_partial, o_rmul, o_scale, typed)
from paradirac.algebra import AlgebraContext, Multivector, _mul_into, witt_basis
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


def euler(p):
    """Euler operator sum_i x_i d/dx_i; multiplies each term by its degree."""
    return CliffordPoly(p.ctx, {exps: mv * sum(exps)
                                for exps, mv in p.terms.items() if sum(exps)})


def test_euler_counts_degree():
    ctx = AlgebraContext(3)
    p = CliffordPoly.monomial(ctx, (2, 0, 1), 1)
    assert euler(p) == p.scale(3)


def test_dirac_anticommutator_with_x():
    # dirac(x p) + x dirac(p) = -(2 euler + m) p for every p
    for m in (2, 3):
        ctx = AlgebraContext(m)
        x = vector_variable(ctx)
        for _ in range(10):
            p = random_poly(ctx)
            lhs = (x * p).dirac() + x * p.dirac()
            rhs = -(euler(p).scale(2) + p.scale(m))
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


# -- exact products on integer numerators against per-term oracles --------------

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12))
SCALARS = {
    "int": small,
    "fraction": fractions,
    "gaussian": st.builds(GaussianRational, fractions, fractions),
    "float": st.builds(lambda n, d: n / d, st.integers(-6, 6), st.integers(1, 7)),
    "complex": st.builds(lambda a, b: complex(a / 3, b / 7),
                         st.integers(-3, 3), st.integers(-3, 3)),
}
SCALARS["mixed"] = st.one_of(SCALARS["int"], SCALARS["fraction"], SCALARS["gaussian"])
SCALARS["any"] = st.one_of(SCALARS["mixed"], SCALARS["float"], SCALARS["complex"])
EXACT_KINDS = ("int", "fraction", "gaussian", "mixed")
INEXACT_KINDS = ("float", "complex", "any")


@st.composite
def multivectors(draw, ctx, kind):
    """A few blades from a small set, so products of terms cancel often."""
    blades = (0, 1, 2, 3, 1 << (ctx.m + 1), (1 << (ctx.m + 1)) | 1)
    terms = {draw(st.sampled_from(blades)): draw(SCALARS[kind])
             for _ in range(draw(st.integers(1, 3)))}
    return Multivector(ctx, {b: v for b, v in terms.items() if v})


@st.composite
def bodies(draw, ctx, kind):
    """A CliffordPoly, sometimes of the form f * c, which f annihilates."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exps = tuple(draw(st.integers(0, 2)) for _ in range(ctx.m))
        mv = draw(multivectors(ctx, kind))
        terms[exps] = terms[exps] + mv if exps in terms else mv
    if draw(st.booleans()):
        f = witt_basis(ctx)[0]
        terms = {e: f * mv for e, mv in terms.items()}
    return CliffordPoly(ctx, {e: mv for e, mv in terms.items() if not mv.is_zero()})


@st.composite
def multipliers(draw, ctx, kind):
    f, fdag = witt_basis(ctx)
    if kind in EXACT_KINDS and draw(st.booleans()):
        return draw(st.sampled_from((f, fdag, f * fdag, fdag * f)))
    return draw(multivectors(ctx, kind))


def old_const_mul(p, mv, left):
    """The per-term loop products used before numerators: mv * c or c * mv."""
    out = {}
    for key, c in p.terms.items():
        s = mv * c if left else c * mv
        if not s.is_zero():
            out[key] = s
    return out


def old_product(a, b):
    ctx = a.ctx
    acc = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            _mul_into(ctx, acc.setdefault(key, {}), ca.terms, cb.terms)
    return {key: Multivector(ctx, t) for key, t in acc.items() if t}


def old_dirac(p):
    ctx = p.ctx
    acc = {}
    for exps, mv in p.terms.items():
        for i, n in enumerate(exps):
            if n:
                new = exps[:i] + (n - 1,) + exps[i + 1:]
                _mul_into(ctx, acc.setdefault(new, {}), {2 << i: n}, mv.terms)
    return {key: Multivector(ctx, t) for key, t in acc.items() if t}


def assert_same_exact(got, expect):
    """Equal values, no empty key or zero blade, Gaussian exactly where expected."""
    assert got.terms == expect
    assert_clean(got)
    for key, mv in got.terms.items():
        for b, v in mv.terms.items():
            assert type(v) in (int, Fraction, GaussianRational)
            assert isinstance(v, GaussianRational) == isinstance(
                expect[key].terms[b], GaussianRational)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exact_products_match_per_term_multivector_oracle(data):
    ctx = AlgebraContext(data.draw(st.integers(1, 3)))
    a = data.draw(bodies(ctx, data.draw(st.sampled_from(EXACT_KINDS))))
    b = data.draw(bodies(ctx, data.draw(st.sampled_from(EXACT_KINDS))))
    mv = data.draw(multipliers(ctx, data.draw(st.sampled_from(EXACT_KINDS))))
    assert_same_exact(a.lmul(mv), termwise(ctx, ((k, mv * c) for k, c in a.terms.items())))
    assert_same_exact(a.rmul(mv), termwise(ctx, ((k, c * mv) for k, c in a.terms.items())))
    # blade products summed one at a time, as the kernel does: a Gaussian
    # contribution that a per-pair product cancels still counts
    assert_same_exact(a * b, {exps: mv for (exps, _, _), mv in o_mul(
        ctx, as_spacetime(a.terms), as_spacetime(b.terms)).items()})
    assert_same_exact(a.dirac(), termwise(ctx, (
        (exps[:i] + (exps[i] - 1,) + exps[i + 1:], ctx.e(i + 1) * (c * exps[i]))
        for exps, c in a.terms.items() for i in range(ctx.m) if exps[i])))


def holds_inexact(*mvs):
    return any(isinstance(v, (float, complex)) for mv in mvs for v in mv.terms.values())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_inexact_products_repeat_the_per_term_loop(data):
    ctx = AlgebraContext(data.draw(st.integers(1, 3)))
    kinds = [data.draw(st.sampled_from(EXACT_KINDS + INEXACT_KINDS)) for _ in range(3)]
    kinds[data.draw(st.integers(0, 2))] = data.draw(st.sampled_from(INEXACT_KINDS))
    a, b = data.draw(bodies(ctx, kinds[0])), data.draw(bodies(ctx, kinds[1]))
    mv = data.draw(multipliers(ctx, kinds[2]))
    if holds_inexact(mv, *a.terms.values()):
        assert typed(a.lmul(mv).terms) == typed(old_const_mul(a, mv, left=True))
        assert typed(a.rmul(mv).terms) == typed(old_const_mul(a, mv, left=False))
    if holds_inexact(*a.terms.values(), *b.terms.values()):
        assert typed((a * b).terms) == typed(old_product(a, b))
    if holds_inexact(*a.terms.values()):
        assert typed(a.dirac().terms) == typed(old_dirac(a))


# -- stored numerators against per-term Multivector oracles -----------------------

denominators = st.sampled_from((1, 2, 3, 4, 5, 6, 8, 9, 12))
mixed = st.builds(Fraction, st.integers(-9, 9), denominators)
STORED = {
    "exact": st.one_of(small, mixed, st.builds(GaussianRational, mixed, mixed)),
    "float": SCALARS["float"],
    "complex": SCALARS["complex"],
}


@st.composite
def stored_polys(draw, ctx, kind):
    """A CliffordPoly, sometimes a sum that cancels part of another draw."""
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        exps = tuple(draw(st.integers(0, 3)) for _ in range(ctx.m))
        mv = Multivector(ctx, {draw(st.sampled_from((0, 1, 2, 6, 1 << (ctx.m + 1)))):
                               draw(STORED[kind]) for _ in range(draw(st.integers(1, 3)))})
        mv = Multivector(ctx, {b: v for b, v in mv.terms.items() if v})
        terms[exps] = terms[exps] + mv if exps in terms else mv
    return CliffordPoly(ctx, {e: mv for e, mv in terms.items() if not mv.is_zero()})


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_stored_polynomial_numerators_match_per_term_oracles(data):
    ctx = AlgebraContext(data.draw(st.integers(1, 3)))
    kinds = st.sampled_from(("exact", "exact", "exact", "float", "complex"))
    p = data.draw(stored_polys(ctx, data.draw(kinds)))
    q = data.draw(stored_polys(ctx, data.draw(kinds)))
    if data.draw(st.booleans()):
        q = q - p.scale(data.draw(st.sampled_from((1, Fraction(1, 2)))))
    c = data.draw(STORED[data.draw(kinds)].filter(bool))
    mv = data.draw(multivectors(ctx, data.draw(st.sampled_from(("int", "fraction", "gaussian", "float")))))
    a, b = as_spacetime(p.terms), as_spacetime(q.terms)
    ex_a, ex_ab = exact_values(a), exact_values(a, b)
    ex_c = ex_a and exact_values({0: ctx.scalar(c)})
    ex_mv = ex_a and exact_values({0: mv})

    def check(got, want, exact):
        assert_matches(as_spacetime(got.terms), want, exact)
        assert isinstance(got, CliffordPoly)

    check(p + q, o_add(a, b), ex_ab)
    check(p - q, o_add(a, o_neg(b)), ex_ab)
    check(-p, o_neg(a), ex_a)
    check(p.scale(c), o_scale(a, c), ex_c)
    check(p / c, o_div(a, Fraction(c) if ex_c and type(c) is int else c), ex_c)
    check(p.lmul(mv), o_lmul(a, mv), ex_mv)
    check(p.rmul(mv), o_rmul(a, mv), ex_mv)
    check(p * q, o_mul(ctx, a, b), ex_ab)
    i = data.draw(st.integers(0, ctx.m - 1))
    check(p.partial(i), o_partial(a, i), ex_a)
    check(p.dirac(), o_dirac(ctx, a), ex_a)
    check(p.laplacian(), o_laplacian(ctx, a), ex_a)
    if ex_a:
        point = [data.draw(mixed) for _ in range(ctx.m)]
        assert p.evaluate(point) == o_evaluate(ctx, a, point, 0)
    if ex_ab:
        assert (p + q) - q == p
        assert (p.scale(2) + p) / 3 == p
        assert p.is_exact() and (p * q).is_exact()
        if ex_c:
            assert (p * q).scale(c) == p * q.scale(c)
