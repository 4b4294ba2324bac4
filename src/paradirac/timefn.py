"""Exact calculus in the time variable and space-time expressions.

Time profiles live in span{t^n e^{lambda t}}, the smallest class closed
under d/dt that contains polynomials and exponentials. The operator
symbol s = d/dt therefore acts exactly: s never needs an inverse here,
because the hypergeometric operator series below only ever applies
nonnegative powers of s to the profile.

SpaceTimeFunction (in poly, with the storage it shares) combines the
spatial polynomial engine with that time class: terms are indexed by
(exponents, n, lambda) with a left Multivector coefficient, and d/dt is
exact.  This module builds the parabolic operator D = d_x + f d_t + fdag
from those operators, and the operator series 0F1 on a time profile.
TimeFunction is the x-independent slice.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .algebra import witt_basis
from .poly import (CliffordPoly, SpaceTimeFunction, Sum, TimeFunction,
                   radial_series, rho_powers)
from .scalars import Scalar


def assemble_split(f0, f1, f2, f3) -> SpaceTimeFunction:
    """F0 + f*F1 + fdag*F2 + f*fdag*F3 for SpaceTimeFunction components."""
    ctx = f0.ctx
    f, fdag = witt_basis(ctx)
    return Sum(SpaceTimeFunction, ctx).add(f0).lmul(f, f1).lmul(
        fdag, f2).lmul(f * fdag, f3).value()


def parabolic_dirac(F: SpaceTimeFunction) -> SpaceTimeFunction:
    """D F = d_x F + f d_t F + fdag F, in one sum."""
    f, fdag = witt_basis(F.ctx)
    return Sum(SpaceTimeFunction, F.ctx).dirac(F).lmul(f, F.d_dt()).lmul(
        fdag, F).value()


def heat_residual(F: SpaceTimeFunction) -> SpaceTimeFunction:
    """(Delta - d_t) F; D squares to the negative of this operator."""
    return Sum(SpaceTimeFunction, F.ctx).laplacian(F).d_dt(F, -1).value()


def apply_0F1(gamma, base: CliffordPoly, a: TimeFunction, L: int,
              levels: Optional[list] = None) -> SpaceTimeFunction:
    """Operator series 0F1(gamma; rho^2 s / 4) applied to base(x) * a(t).

    Returns sum_{l} rho^{2l} * base * a^{(l)}(t) / (4^l l! (gamma)_l).  For
    a polynomial profile the series terminates by itself (the l-th
    derivative dies); otherwise it is truncated at l = L.  Each derivative
    is taken once, and a levels list receives (weight, a^{(l)}) for each
    level summed.  With an exact base, an exact polynomial profile and a
    rational gamma each level is made once as the small product
    base * a^{(l)} * weight and expanded by poly.radial_series; any other
    input is summed one Sum product stage per level on rho_powers(base),
    which keeps its float operations.  A nonpositive integral gamma of any
    real type is a pole of 0F1: ValueError.
    """
    if gamma <= 0 and gamma % 1 == 0:     # a pole of any real type
        raise ValueError(f"0F1 pole: gamma = {gamma} is a nonpositive integer")
    if L < 0:
        raise ValueError("truncation must be >= 0")
    rational = isinstance(gamma, (int, Fraction))
    last = a.max_n() if a.is_polynomial() else L
    chain = []              # (weight, a^{(l)})
    deriv = a
    # integer gamma would otherwise fall into float division below
    weight: Scalar = Fraction(1) if rational else 1
    for l in range(last + 1):
        if l:
            deriv = deriv.d_dt()
        if deriv.is_zero():
            break
        if l:
            weight = weight / (4 * l * (gamma + l - 1))
        chain.append((weight, deriv))
    if levels is not None:
        levels.extend(chain)
    ctx = base.ctx
    if rational and a.is_polynomial() and a.is_exact() and base.is_exact():
        head = SpaceTimeFunction.from_poly(base)
        return radial_series(SpaceTimeFunction, ctx, [[
            (l, Sum(SpaceTimeFunction, ctx).product(head, d, w).value())
            for l, (w, d) in enumerate(chain)]])
    total = Sum(SpaceTimeFunction, ctx)
    for (w, d), spatial in zip(chain, rho_powers(base)):
        total.product(SpaceTimeFunction.from_poly(spatial), d, w)
    return total.value()
