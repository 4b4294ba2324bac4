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
Cl(1,1) coefficients whose entries are exact combinations of seed
derivatives (ProfileWeight), so an exact parabolic build's radial form
takes the generalized builds' ladder, in rational arithmetic alone.
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
    each a dict {(i, j): c}: the exact c, never zero, times s_i^(j), the
    j-th derivative of seed chain i.  lengths holds the chains' lengths,
    s_i^(lengths[i]) being zero, so d/dt maps (i, j) to (i, j + 1) and
    drops it past the chain's end.  hat, scale, zeta * and == are
    rational dict arithmetic; == compares weights on the same chains.
    """

    __slots__ = ("parts", "lengths")

    def __init__(self, parts, lengths=()):
        self.parts = tuple(parts)
        self.lengths = tuple(lengths)

    def hat(self) -> "ProfileWeight":
        """The main involution: the f and fdag entries negated."""
        one, f, fdag, ffdag = self.parts
        return ProfileWeight((one, *({key: -c for key, c in part.items()}
                                     for part in (f, fdag)), ffdag), self.lengths)

    def scale(self, n) -> "ProfileWeight":
        return self if n == 1 else ProfileWeight(
            [{key: c * n for key, c in part.items()} if n else {}
             for part in self.parts], self.lengths)

    def __eq__(self, other):
        if not isinstance(other, ProfileWeight):
            return NotImplemented
        return self.parts == other.parts


def _plus(a: dict, b: dict, sign: int) -> dict:
    """a + sign * b, zero coefficients dropped."""
    out = dict(a)
    for key, c in b.items():
        c = out.get(key, 0) + sign * c
        if c:
            out[key] = c
        else:
            del out[key]
    return out


class ParabolicZeta:
    """zeta = f d/dt + fdag on a ProfileWeight: by f^2 = 0,
    fdag f = 1 - f fdag and fdag f fdag = fdag,
    zeta w = w_f + f w_1' + fdag (w_1 + w_ffdag) + f fdag (w_fdag' - w_f)."""

    def __mul__(self, w: ProfileWeight) -> ProfileWeight:
        one, f, fdag, ffdag = w.parts
        n = w.lengths
        one_d, fdag_d = ({(i, j + 1): c for (i, j), c in part.items() if j + 1 < n[i]}
                         for part in (one, fdag))
        return ProfileWeight((f, one_d, _plus(one, ffdag, 1), _plus(fdag_d, f, -1)), n)


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
