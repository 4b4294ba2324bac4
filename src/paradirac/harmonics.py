"""Spherical harmonics and spherical monogenics by exact linear algebra.

Degree-k harmonics are found as the exact rational nullspace of the
Laplacian restricted to degree-k scalar monomials. Each harmonic h then
refines into monogenic pieces through

    h = M_k + x * Mtil_{k-1},   Mtil_{k-1} = -d_x h / (m + 2k - 2),

both pieces annihilated by the Dirac operator. Basis polynomials are
emitted with integer coefficients so downstream exact sweeps stay in
int arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd
from typing import List, Sequence, Tuple

from .algebra import AlgebraContext
from .poly import CliffordPoly, vector_variable


@dataclass(frozen=True)
class HarmonicPoly:
    """Homogeneous degree-k polynomial with laplacian(poly) = 0 exactly."""

    poly: CliffordPoly
    degree: int

    def __post_init__(self):
        if not self.poly.is_zero():
            if not self.poly.is_homogeneous() or self.poly.degree() != self.degree:
                raise ValueError(f"not homogeneous of degree {self.degree}")
            if not self.poly.laplacian().is_zero():
                raise ValueError("polynomial is not harmonic")


@dataclass(frozen=True)
class MonogenicPoly:
    """Homogeneous degree-k polynomial with dirac(poly) = 0 exactly."""

    poly: CliffordPoly
    degree: int

    def __post_init__(self):
        if not self.poly.is_zero():
            if not self.poly.is_homogeneous() or self.poly.degree() != self.degree:
                raise ValueError(f"not homogeneous of degree {self.degree}")
            if not self.poly.dirac().is_zero():
                raise ValueError("polynomial is not monogenic")


def harmonic_dimension(m: int, k: int) -> int:
    """dim of degree-k harmonics in m variables:
    C(k+m-1, m-1) - C(k+m-3, m-1)."""
    if k < 0:
        return 0
    return comb(k + m - 1, m - 1) - (comb(k + m - 3, m - 1) if k >= 2 else 0)


def monomials_of_degree(m: int, k: int) -> List[Tuple[int, ...]]:
    """All exponent tuples of total degree k in m variables, sorted."""
    out = []
    for combo in combinations_with_replacement(range(m), k):
        exps = [0] * m
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    out.sort()
    return out


def rational_nullspace(rows: Sequence[Sequence[Fraction]], n_cols: int) -> List[List[Fraction]]:
    """Nullspace basis of a rational matrix by Gaussian elimination.

    Returns one vector per free column, each with a 1 in its free slot.
    """
    mat = [list(map(Fraction, row)) for row in rows]
    n_rows = len(mat)
    pivot_of_col = {}
    piv_r = 0
    for col in range(n_cols):
        sel = None
        for r in range(piv_r, n_rows):
            if mat[r][col]:
                sel = r
                break
        if sel is None:
            continue
        mat[piv_r], mat[sel] = mat[sel], mat[piv_r]
        inv = 1 / mat[piv_r][col]
        mat[piv_r] = [v * inv for v in mat[piv_r]]
        for r in range(n_rows):
            if r != piv_r and mat[r][col]:
                f = mat[r][col]
                row_p = mat[piv_r]
                mat[r] = [v - f * w for v, w in zip(mat[r], row_p)]
        pivot_of_col[col] = piv_r
        piv_r += 1

    basis = []
    free_cols = [c for c in range(n_cols) if c not in pivot_of_col]
    for fc in free_cols:
        vec = [Fraction(0)] * n_cols
        vec[fc] = Fraction(1)
        for col, r in pivot_of_col.items():
            vec[col] = -mat[r][fc]
        basis.append(vec)
    return basis


def harmonic_basis(ctx: AlgebraContext, k: int) -> List[HarmonicPoly]:
    """Integer-coefficient basis of the degree-k scalar harmonics."""
    if k < 0:
        raise ValueError("degree must be >= 0")
    monos = monomials_of_degree(ctx.m, k)
    if k < 2:
        return [
            HarmonicPoly(CliffordPoly.monomial(ctx, exps, 1), k)
            for exps in monos
        ]
    # rows: one equation per degree-(k-2) monomial, columns over degree-k monomials
    laps = [CliffordPoly.monomial(ctx, exps, 1).laplacian().terms for exps in monos]
    rows = [[lap[low].scalar_part() if low in lap else 0 for lap in laps]
            for low in monomials_of_degree(ctx.m, k - 2)]
    out = []
    for vec in rational_nullspace(rows, len(monos)):
        # vec has a 1 in its free slot, so the rescale only clears denominators
        terms = {exps: ctx.scalar(c) for exps, c in zip(monos, vec) if c}
        out.append(HarmonicPoly(integer_rescale(CliffordPoly(ctx, terms)), k))
    return out


def monogenic_decompose(h: HarmonicPoly) -> Tuple[MonogenicPoly, MonogenicPoly]:
    """Split a harmonic as h = M_k + x * Mtil_{k-1}, both monogenic.

    For k = 0 the tail is zero. The divisor m + 2k - 2 is nonzero for
    every reachable (m >= 1, k >= 1) combination.
    """
    ctx = h.poly.ctx
    k = h.degree
    if k == 0:
        return (
            MonogenicPoly(h.poly, 0),
            MonogenicPoly(CliffordPoly.zero(ctx), 0),
        )
    divisor = ctx.m + 2 * k - 2
    assert divisor != 0
    mtil = h.poly.dirac().scale(Fraction(-1, divisor))
    mk = h.poly - vector_variable(ctx) * mtil
    return MonogenicPoly(mk, k), MonogenicPoly(mtil, k - 1)


def integer_rescale(p: CliffordPoly) -> CliffordPoly:
    """Smallest positive rational multiple of p with integer coefficients.

    That is p's numerators divided by their common factor, as plain int
    coefficients (int arithmetic is far cheaper than Fraction in the
    verification sweeps).  Leaves float polynomials untouched.
    """
    if p._D is None:
        return p
    g = gcd(*(part for vals in p._nums.values() for n in vals.values()
              for part in ((n,) if type(n) is int else (n.re, n.im)))) or 1

    def as_int(n):
        return n // g if type(n) is int or n.im else n.re // g

    return CliffordPoly._make(p.ctx, {exps: {mask: as_int(n) for mask, n in vals.items()}
                                      for exps, vals in p._nums.items()}, 1)


def monogenic_basis(ctx: AlgebraContext, k: int) -> List[MonogenicPoly]:
    """Basis of the degree-k spherical monogenics: the nonzero heads M_k.

    The head M_k of a degree-k harmonic h is h for k = 0 and has scalar
    part (m + k - 2) / (m + 2k - 2) * h for k >= 1, so the nonzero heads
    are independent as the harmonics are; they all vanish for m = 1, k = 1.
    """
    heads = []
    for h in harmonic_basis(ctx, k):
        mk, _ = monogenic_decompose(h)
        if not mk.poly.is_zero():
            heads.append(MonogenicPoly(integer_rescale(mk.poly), k))
    return heads
