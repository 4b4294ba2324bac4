"""Spherical harmonics and spherical monogenics in exact arithmetic.

A degree-k harmonic is fixed by its Cauchy data h and d_m h on x_m = 0,
so each basis element is written down as the series that extends one
monomial of x_m-degree <= 1 off that hyperplane. Each harmonic h then
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
from math import comb
from typing import List, Tuple

from .algebra import AlgebraContext
from .poly import SpaceTimeFunction, integer_rescale, vector_variable


def _check_head(poly: SpaceTimeFunction, degree: int, op, what: str) -> None:
    """ValueError unless poly is zero, or free of t, homogeneous of the
    given degree and annihilated by op."""
    if poly.is_zero():
        return
    if any(n or lam != 0 for _, n, lam in poly.keys()):
        raise ValueError("a head is a polynomial in x alone, with no t term")
    if not poly.is_homogeneous() or poly.degree() != degree:
        raise ValueError(f"not homogeneous of degree {degree}")
    if not op(poly).is_zero():
        raise ValueError(f"polynomial is not {what}")


@dataclass(frozen=True)
class HarmonicPoly:
    """Homogeneous degree-k polynomial with laplacian(poly) = 0 exactly."""

    poly: SpaceTimeFunction
    degree: int

    def __post_init__(self):
        _check_head(self.poly, self.degree, SpaceTimeFunction.laplacian, "harmonic")


@dataclass(frozen=True)
class MonogenicPoly:
    """Homogeneous degree-k polynomial with dirac(poly) = 0 exactly."""

    poly: SpaceTimeFunction
    degree: int

    def __post_init__(self):
        _check_head(self.poly, self.degree, SpaceTimeFunction.dirac, "monogenic")


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


def harmonic_basis(ctx: AlgebraContext, k: int) -> List[HarmonicPoly]:
    """Integer-coefficient basis of the degree-k scalar harmonics.

    One element per degree-k monomial x'^a' x_m^a with a <= 1, in sorted
    order: the harmonic with that monomial as its Cauchy data on x_m = 0,

        h = sum_j (-1)^j a! / (2j+a)! * x_m^(2j+a) * Lap'^j x'^a',

    Lap' the Laplacian in x_1 .. x_(m-1), rescaled to coprime integers:
    positive at its own monomial, 0 at every other one of x_m-degree <= 1.
    """
    if k < 0:
        raise ValueError("degree must be >= 0")
    out = []
    for exps in monomials_of_degree(ctx.m, k):
        a = exps[-1]
        if a > 1:
            continue
        coeffs = {}
        # term j: its x'-part and its x_m exponent n = 2j + a
        layer, n = {exps[:-1]: Fraction(1)}, a
        while layer:
            nxt = {}
            for low, c in layer.items():
                coeffs[low + (n,)] = c
                f = -c / ((n + 1) * (n + 2))
                for i, e in enumerate(low):
                    if e >= 2:
                        key = low[:i] + (e - 2,) + low[i + 1:]
                        nxt[key] = nxt.get(key, 0) + f * e * (e - 1)
            layer, n = nxt, n + 2
        terms = {(key, 0, 0): ctx.scalar(coeffs[key]) for key in sorted(coeffs)}
        out.append(HarmonicPoly(integer_rescale(SpaceTimeFunction(ctx, terms)), k))
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
            MonogenicPoly(SpaceTimeFunction.zero(ctx), 0),
        )
    divisor = ctx.m + 2 * k - 2
    assert divisor != 0
    mtil = h.poly.dirac().scale(Fraction(-1, divisor))
    mk = h.poly - vector_variable(ctx) * mtil
    return MonogenicPoly(mk, k), MonogenicPoly(mtil, k - 1)


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
