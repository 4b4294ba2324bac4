"""Exact calculus in the time variable and space-time expressions.

Time profiles live in span{t^n e^{lambda t}}, the smallest class closed
under d/dt that contains polynomials and exponentials. The operator
symbol s = d/dt therefore acts exactly: s never needs an inverse here,
because the hypergeometric operator series below only ever applies
nonnegative powers of s to the profile.

SpaceTimeFunction (in poly, the one body class) combines spatial
polynomials with that time class: terms are indexed by (exponents, n,
lambda) with a left Multivector coefficient, and d/dt is exact.  This
module builds the parabolic operator D = d_x + f d_t + fdag from those
operators, and the operator series 0F1 on a time profile,
whose levels poly.radial_series expands for exact and float input alike,
from derivatives(), the one place a seed profile is differentiated.
TimeFunction is the x-independent slice.
D is d_x + zeta with zeta = f d/dt + fdag (ParabolicZeta), acting on
Cl(1,1) coefficients with time-profile entries (ProfileWeight), so an
exact parabolic build's radial form takes the generalized builds' ladder.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .algebra import witt_basis
from .poly import SpaceTimeFunction, Sum, TimeFunction, radial_series
from .scalars import Scalar


def assemble_split(f0, f1, f2, f3) -> SpaceTimeFunction:
    """F0 + f*F1 + fdag*F2 + f*fdag*F3 for SpaceTimeFunction components."""
    ctx = f0.ctx
    f, fdag = witt_basis(ctx)
    return Sum(ctx).add(f0).lmul(f, f1).lmul(fdag, f2).lmul(
        f * fdag, f3).value()


def parabolic_dirac(F: SpaceTimeFunction) -> SpaceTimeFunction:
    """D F = d_x F + f d_t F + fdag F, in one sum."""
    f, fdag = witt_basis(F.ctx)
    return Sum(F.ctx).dirac(F).lmul(f, F.d_dt()).lmul(fdag, F).value()


def heat_residual(F: SpaceTimeFunction) -> SpaceTimeFunction:
    """(Delta - d_t) F; D squares to the negative of this operator."""
    return Sum(F.ctx).laplacian(F).d_dt(F, -1).value()


class ProfileWeight:
    """A Cl(1,1) coefficient with time-profile entries,
    w = w_1 + f w_f + fdag w_fdag + f fdag w_ffdag, the units left of the
    head M and the profiles right of it.  parts holds the four entries,
    each a tuple of terms (c, p, d): the exact c times the profile p, or
    times p' when d; a zero entry is empty.  == sums each entry of the
    difference in one Sum, with the derivative terms as d_dt stages.
    """

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(parts)

    @classmethod
    def of(cls, profiles) -> "ProfileWeight":
        """The profiles (w_1, w_f, w_fdag, w_ffdag); a missing, None or zero
        profile is an empty entry."""
        parts = [() if p is None or p.is_zero() else ((1, p, False),)
                 for p in profiles]
        return cls(parts + [()] * (4 - len(parts)))

    def hat(self) -> "ProfileWeight":
        """The main involution: the f and fdag entries negated."""
        one, f, fdag, ffdag = self.parts
        return ProfileWeight((one, _times(f, -1), _times(fdag, -1), ffdag))

    def scale(self, n) -> "ProfileWeight":
        return ProfileWeight([_times(part, n) for part in self.parts])

    def __eq__(self, other):
        if not isinstance(other, ProfileWeight):
            return NotImplemented
        for mine, theirs in zip(self.parts, other.parts):
            if mine or theirs:
                total = Sum((mine or theirs)[0][1].ctx)
                for sign, part in ((1, mine), (-1, theirs)):
                    for c, p, d in part:
                        (total.d_dt if d else total.add)(p, c if sign == 1 else -c)
                if not total.value().is_zero():
                    return False
        return True


def _times(part: tuple, n) -> tuple:
    return part if n == 1 or not part else tuple([
        (-c if n == -1 else c * n, p, d) for c, p, d in part])


class ParabolicZeta:
    """zeta = f d/dt + fdag on a ProfileWeight without derivative terms: by
    f^2 = 0, fdag f = 1 - f fdag and fdag f fdag = fdag,
    zeta w = w_f + f w_1' + fdag (w_1 + w_ffdag) + f fdag (w_fdag' - w_f)."""

    def __mul__(self, w: ProfileWeight) -> ProfileWeight:
        one, f, fdag, ffdag = w.parts
        one_d, fdag_d = (tuple([(c, p, True) for c, p, _ in part])
                         for part in (one, fdag))
        return ProfileWeight((f, one_d, one + ffdag, fdag_d + _times(f, -1)))


PARABOLIC_ZETA = ParabolicZeta()


def derivatives(a: TimeFunction, last: int) -> list:
    """[a, a', ..., a^(last)], stopping before the first zero derivative:
    the only place a seed profile is differentiated, each order once."""
    out = []
    while not a.is_zero() and len(out) <= last:
        out.append(a)
        if len(out) <= last:
            a = a.d_dt()
    return out


def apply_0F1(gamma, base: SpaceTimeFunction, a: TimeFunction, L: int,
              levels: Optional[list] = None) -> SpaceTimeFunction:
    """Operator series 0F1(gamma; rho^2 s / 4) applied to base(x) * a(t).

    Returns sum_{l} rho^{2l} * base * a^{(l)}(t) / (4^l l! (gamma)_l).  For
    a polynomial profile the series terminates by itself (the l-th
    derivative dies); otherwise it is truncated at l = L.  The derivatives
    come from derivatives(), and a levels list receives (weight, a^{(l)})
    for each level summed.  Each level is made once as the small product
    base * a^{(l)} * weight and expanded by poly.radial_series, on
    numerators when every level is exact and on raw values otherwise.  A
    nonpositive integral gamma of any real type is a pole of 0F1:
    ValueError.
    """
    if gamma <= 0 and gamma % 1 == 0:     # a pole of any real type
        raise ValueError(f"0F1 pole: gamma = {gamma} is a nonpositive integer")
    if L < 0:
        raise ValueError("truncation must be >= 0")
    chain = []              # (weight, a^{(l)})
    # integer gamma would otherwise fall into float division below
    weight: Scalar = Fraction(1) if isinstance(gamma, (int, Fraction)) else 1
    last = a.max_n() if a.is_polynomial() else L
    for l, deriv in enumerate(derivatives(a, last)):
        chain.append((weight, deriv))
        weight = weight / (4 * (l + 1) * (gamma + l))
    if levels is not None:
        levels.extend(chain)
    ctx = base.ctx
    return radial_series(ctx, [[
        (l, Sum(ctx).product(base, d, w).value())
        for l, (w, d) in enumerate(chain)]])
