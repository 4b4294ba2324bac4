"""Exact calculus in the time variable and space-time expressions.

Time profiles live in span{t^n e^{lambda t}}, the smallest class closed
under d/dt that contains polynomials and exponentials. The operator
symbol s = d/dt therefore acts exactly: s never needs an inverse here,
because the hypergeometric operator series below only ever applies
nonnegative powers of s to the profile.

SpaceTimeFunction (in poly, the one body class) combines spatial
polynomials with that time class: terms are indexed by (exponents, n,
lambda) with a left Multivector coefficient, and d/dt is exact.  This
module holds the parabolic operator D = d_x + f d_t + fdag, whose
exact bodies' rows are read once by poly.parabolic_rows, f and fdag
acting as signed blade permutations on integer numerators over 2 D
(raw values take one Sum of those operators), and the heat operator
Laplacian - d_t that D squares to the negative of, one Sum on every
body, so that verify's factorization check compares two independent
paths.  It also holds the
operator series 0F1 on a time profile, whose levels are one
poly.products each on exact input (one Sum product otherwise) and which
poly.radial_series expands, from derivatives(), the one place a seed
profile is differentiated.  TimeFunction is the x-independent slice.
D is d_x + zeta with zeta = f d/dt + fdag (ParabolicZeta), acting on
Cl(1,1) coefficients whose entries are integer combinations of seed
derivatives over one denominator (ProfileWeight), so an exact parabolic
build's radial form takes the generalized builds' ladder, in integer
arithmetic alone.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .algebra import _ratio, witt_basis
from .poly import (SpaceTimeFunction, Sum, TimeFunction, parabolic_rows,
                   products, radial_series)
from .scalars import Scalar


def assemble_split(f0, f1, f2, f3) -> SpaceTimeFunction:
    """F0 + f*F1 + fdag*F2 + f*fdag*F3 for SpaceTimeFunction components."""
    ctx = f0.ctx
    f, fdag = witt_basis(ctx)
    return Sum(ctx).add(f0).lmul(f, f1).lmul(fdag, f2).lmul(
        f * fdag, f3).value()


def parabolic_dirac(F: SpaceTimeFunction) -> SpaceTimeFunction:
    """D F = d_x F + f d_t F + fdag F: an exact body's rows read once
    (poly.parabolic_rows), raw values in one Sum."""
    DF = parabolic_rows(F)
    if DF is not None:
        return DF
    f, fdag = witt_basis(F.ctx)
    return Sum(F.ctx).dirac(F).lmul(f, F.d_dt()).lmul(fdag, F).value()


def heat_residual(F: SpaceTimeFunction) -> SpaceTimeFunction:
    """(Delta - d_t) F; D squares to the negative of this operator."""
    return Sum(F.ctx).laplacian(F).d_dt(F, -1).value()


class ProfileWeight:
    """A Cl(1,1) coefficient with time-profile entries,
    w = w_1 + f w_f + fdag w_fdag + f fdag w_ffdag, the units left of the
    head M and the profiles right of it.  nums holds the four entries,
    each a dict {(i, j): n}: the integer n, never zero, over the one
    denominator q > 0, times s_i^(j), the j-th derivative of seed chain
    i; parts holds their values.  lengths holds the chains' lengths,
    s_i^(lengths[i]) being zero, so d/dt maps (i, j) to (i, j + 1) and
    drops it past the chain's end.  hat, scale, zeta * and == are integer
    arithmetic on the numerators, == cross-multiplied, and compares
    weights on the same chains.
    """

    __slots__ = ("nums", "q", "lengths")

    def __init__(self, parts, lengths=()):
        parts = tuple(parts)
        q = lcm(*(Fraction(c).denominator for part in parts for c in part.values()))
        self.nums = tuple({key: int(c * q) for key, c in part.items()}
                          for part in parts)
        self.q, self.lengths = q, tuple(lengths)

    @classmethod
    def _of(cls, nums, q: int, lengths) -> "ProfileWeight":
        w = cls.__new__(cls)
        w.nums, w.q, w.lengths = tuple(nums), q, lengths
        return w

    @property
    def parts(self) -> tuple:
        """The four entries' values, {(i, j): c}, c a Fraction."""
        return tuple({key: Fraction(n, self.q) for key, n in part.items()}
                     for part in self.nums)

    def hat(self) -> "ProfileWeight":
        """The main involution: the f and fdag entries negated."""
        one, f, fdag, ffdag = self.nums
        return ProfileWeight._of((one, *({key: -n for key, n in part.items()}
                                         for part in (f, fdag)), ffdag),
                                 self.q, self.lengths)

    def scale(self, n, d: int = 1) -> "ProfileWeight":
        """Times n / d, n rational and d > 0."""
        p, r = _ratio(n)
        return ProfileWeight._of([{key: c * p for key, c in part.items()} if p else {}
                                  for part in self.nums], self.q * r * d, self.lengths)

    def reduced(self) -> "ProfileWeight":
        """The same value with the common factor of q and the numerators
        divided out."""
        g = gcd(self.q, *(n for part in self.nums for n in part.values()))
        return self if g == 1 else ProfileWeight._of(
            [{key: n // g for key, n in part.items()} for part in self.nums],
            self.q // g, self.lengths)

    def __eq__(self, other):
        if not isinstance(other, ProfileWeight):
            return NotImplemented
        p, q = self.q, other.q
        return all(a.keys() == b.keys() and all(n * q == b[key] * p
                                                for key, n in a.items())
                   for a, b in zip(self.nums, other.nums))


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
        one, f, fdag, ffdag = w.nums
        n = w.lengths
        one_d, fdag_d = ({(i, j + 1): c for (i, j), c in part.items() if j + 1 < n[i]}
                         for part in (one, fdag))
        return ProfileWeight._of(
            (f, one_d, _plus(one, ffdag, 1), _plus(fdag_d, f, -1)), w.q, n)


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
    base * a^{(l)} * weight, by poly.products on an exact weight and
    exact bodies and by one Sum product otherwise, and expanded by
    poly.radial_series, on numerators when every level is exact and on
    raw values otherwise.  A nonpositive integral gamma of any real type
    is a pole of 0F1: ValueError.
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
    return radial_series(ctx, [[(l, _level(ctx, base, d, w))
                                for l, (w, d) in enumerate(chain)]])


def _level(ctx, base, d, w) -> SpaceTimeFunction:
    """base * d * w: poly.products on an exact weight and exact bodies,
    else one Sum product."""
    level = (products(ctx, [(base, [(w.numerator, d)])], w.denominator)
             if type(w) is Fraction else None)
    return Sum(ctx).product(base, d, w).value() if level is None else level
