from fractions import Fraction
from math import gcd

import pytest

from oracles import spatial
from paradirac.algebra import AlgebraContext
from paradirac.harmonics import (HarmonicPoly, MonogenicPoly, harmonic_basis,
                                 harmonic_dimension, integer_rescale,
                                 monogenic_basis, monogenic_decompose,
                                 monomials_of_degree)
from paradirac.poly import SpaceTimeFunction, TimeFunction, vector_variable

FROZEN_DIMS = {
    2: [1, 2, 2, 2, 2, 2],
    3: [1, 3, 5, 7, 9, 11],
    4: [1, 4, 9, 16, 25, 36],
    5: [1, 5, 14, 30, 55, 91],
}


@pytest.mark.parametrize("m", sorted(FROZEN_DIMS))
def test_harmonic_dimension_frozen(m):
    assert [harmonic_dimension(m, k) for k in range(6)] == FROZEN_DIMS[m]


def test_harmonic_basis_properties():
    for m in (2, 3):
        ctx = AlgebraContext(m)
        for k in range(4):
            basis = harmonic_basis(ctx, k)
            assert len(basis) == harmonic_dimension(m, k)
            for h in basis:
                assert h.degree == k
                assert h.poly.laplacian().is_zero()
                if not h.poly.is_zero():
                    assert h.poly.is_homogeneous()


@pytest.mark.parametrize("m, max_k", [(1, 6), (2, 6), (3, 6), (4, 6), (5, 4)])
def test_harmonic_basis_characterized_by_its_cauchy_data(m, max_k):
    # A harmonic is fixed by its coefficients at the monomials of
    # x_m-degree <= 1, so these conditions leave exactly one basis: element
    # i is a positive multiple of the harmonic that is 1 at the i-th such
    # monomial and 0 at the others, with coprime integer coefficients.
    ctx = AlgebraContext(m)
    for k in range(max_k + 1):
        free = [exps for exps in monomials_of_degree(m, k) if exps[-1] <= 1]
        basis = harmonic_basis(ctx, k)
        assert len(basis) == len(free) == harmonic_dimension(m, k)
        for i, h in enumerate(basis):
            assert h.degree == k and h.poly.laplacian().is_zero()
            coeffs = {exps: mv.terms for (exps, _, _), mv
                      in h.poly.terms.items()}
            assert all(blades.keys() == {0} for blades in coeffs.values())
            values = {exps: blades[0] for exps, blades in coeffs.items()}
            assert all(type(v) is int for v in values.values())
            assert gcd(*values.values()) == 1
            at_free = [values.get(exps, 0) for exps in free]
            assert at_free[i] > 0
            assert at_free[:i] + at_free[i + 1:] == [0] * (len(free) - 1)


def test_monogenic_decompose_oracle():
    # h = x1^2 - x2^2 in two variables splits as
    #   M2   = (x1^2 - x2^2)/2 - e1 e2 x1 x2
    #   Mtil = -(e1 x1 - e2 x2)/2
    ctx = AlgebraContext(2)
    h = HarmonicPoly(spatial(ctx, {(2, 0): ctx.one(), (0, 2): -ctx.one()}), 2)
    mk, mtil = monogenic_decompose(h)
    half = Fraction(1, 2)
    assert mk.poly == spatial(ctx, {
        (2, 0): ctx.scalar(half),
        (0, 2): ctx.scalar(-half),
        (1, 1): -(ctx.e(1) * ctx.e(2)),
    })
    assert mtil.poly == spatial(ctx, {
        (1, 0): ctx.e(1) * -half,
        (0, 1): ctx.e(2) * half,
    })


def test_decompose_reassembles():
    for m in (2, 3):
        ctx = AlgebraContext(m)
        x = vector_variable(ctx)
        for k in range(1, 4):
            for h in harmonic_basis(ctx, k):
                mk, mtil = monogenic_decompose(h)
                assert mk.poly + x * mtil.poly == h.poly
                assert mk.poly.dirac().is_zero()
                assert mtil.poly.dirac().is_zero()


def test_monogenic_basis_counts_and_coefficients():
    for m in (2, 3, 4):
        ctx = AlgebraContext(m)
        for k in range(4):
            basis = monogenic_basis(ctx, k)
            assert len(basis) == harmonic_dimension(m, k)
            for M in basis:
                assert M.poly.dirac().is_zero()
                # rescaled to integer coefficients for cheap arithmetic
                for mv in M.poly.terms.values():
                    for v in mv.terms.values():
                        assert isinstance(v, int) or (
                            hasattr(v, "re") and isinstance(v.re, Fraction)
                            and v.re.denominator == 1)


def _rank(polys):
    """Rank of the polynomials' coefficient vectors, by Fraction elimination."""
    reduced = []                # (pivot, row with 1 at the pivot)
    for p in polys:
        row = {(exps, mask): Fraction(v) for exps, mv in p.terms.items()
               for mask, v in mv.terms.items()}
        # each earlier row is 0 at the pivots before its own, so one pass
        # in order clears every pivot
        for piv, base in reduced:
            f = row.get(piv)
            if f:
                for key, v in base.items():
                    row[key] = row.get(key, 0) - f * v
                    if not row[key]:
                        del row[key]
        if row:
            piv = min(row)
            reduced.append((piv, {key: v / row[piv] for key, v in row.items()}))
    return len(reduced)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_monogenic_heads_independent_over_harmonics(m):
    # the head of a degree-k harmonic h has scalar part
    # (m + k - 2) / (m + 2k - 2) * h, which vanishes only for m = 1, k = 1
    ctx = AlgebraContext(m)
    for k in range(5):
        harmonics = harmonic_basis(ctx, k)
        heads = monogenic_basis(ctx, k)
        if (m, k) == (1, 1):
            assert heads == []
            continue
        assert len(heads) == len(harmonics)
        assert _rank([M.poly for M in heads]) == len(heads)
        for h, M in zip(harmonics, heads):
            scalar = {exps: Fraction(mv.terms[0])
                      for exps, mv in M.poly.terms.items() if 0 in mv.terms}
            assert scalar.keys() == h.poly.terms.keys()
            ratios = {v / h.poly.terms[exps].terms[0]
                      for exps, v in scalar.items()}
            assert len(ratios) == 1 and 0 not in ratios


def test_integer_rescale_is_canonical():
    ctx = AlgebraContext(2)
    p = (SpaceTimeFunction.monomial(ctx, (1, 0), Fraction(2, 3))
         + SpaceTimeFunction.monomial(ctx, (0, 1), Fraction(4, 3)))
    q = integer_rescale(p)
    assert q == SpaceTimeFunction.monomial(ctx, (1, 0), 1) \
        + SpaceTimeFunction.monomial(ctx, (0, 1), 2)
    # a common integer factor is divided out too
    r = integer_rescale(p.scale(6))
    assert r == q
    # float polynomials pass through untouched
    fp = SpaceTimeFunction.monomial(ctx, (1, 0), 0.5)
    assert integer_rescale(fp) == fp


def test_degree_one_monogenic_oracle():
    # the m = 2 degree-1 space is spanned by x1 - e1e2 x2 and its partner
    ctx = AlgebraContext(2)
    span = monogenic_basis(ctx, 1)
    cand = spatial(ctx, {(1, 0): ctx.one(), (0, 1): -(ctx.e(1) * ctx.e(2))})
    assert cand.dirac().is_zero()
    assert len(span) == 2


def test_harmonic_poly_validation():
    ctx = AlgebraContext(2)
    bad = SpaceTimeFunction.monomial(ctx, (2, 0), 1)    # laplacian is 2
    with pytest.raises(ValueError):
        HarmonicPoly(bad, 2)
    with pytest.raises(ValueError):
        HarmonicPoly(SpaceTimeFunction.monomial(ctx, (1, 1), 1), 3)


@pytest.mark.parametrize("kind", [HarmonicPoly, MonogenicPoly])
@pytest.mark.parametrize("profile", [
    lambda ctx: TimeFunction.polynomial(ctx, [0, 1]),
    lambda ctx: TimeFunction.term(ctx, 1, lam=Fraction(-1, 2)),
    lambda ctx: TimeFunction.term(ctx, 1, n=2, lam=-0.5)], ids=["t", "exp", "t2exp"])
def test_a_head_with_a_t_term_is_refused(kind, profile):
    # a t^n or e^(lambda t) factor has no spatial degree, and d_x and the
    # Laplacian annihilate it: only the head check refuses it
    ctx = AlgebraContext(2)
    head = monogenic_basis(ctx, 1)[0].poly
    for poly in (profile(ctx), head * profile(ctx), head + profile(ctx)):
        with pytest.raises(ValueError, match="no t term"):
            kind(poly, poly.degree())
    assert kind(head, 1).poly == head
