"""The Cl(1,1) parameter element zeta and analytic functions of zeta* zeta.

zeta = a f fdag + b f + c fdag + d fdag f is represented faithfully by
the 2x2 matrix [[a, b], [c, d]] (f fdag, f, fdag, fdag f map to the four
matrix units), so products, involution, inversion, and eigenvalue work
all happen at matrix level. xi = (f fdag - fdag f) zeta has matrix
[[a, b], [-c, -d]] and satisfies xi^2 = zeta* zeta, which is what lets an
analytic psi(zeta* zeta) be evaluated through the eigenvalues of xi:
Sylvester's two-point interpolation for distinct eigenvalues, and its
confluent limit psi(l^2) + 2 l psi'(l^2) (xi - l) for a repeated one.

An exact element is also carried as an IntMatrix: its matrix as integer
numerators over one positive denominator, integer pairs (re, im) for
entries that are not real.  The exact series builds get every Cl(1,1)
weight from IntMatrix arithmetic, and the ladder identities verify checks
them by run on those numerators alone.  ZetaElement has the same
operations under the same names (hat, scale, inverse, reduced, identity),
so one recurrence, radial_weights, makes the weights of both types.
IntMatrix.blades lays an element out on the blades, as to_multivector.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Sequence, Tuple

from .algebra import (AlgebraContext, Multivector, Numerator, _nadd, _nmul,
                      _nneg, _ratio)
from .scalars import Scalar, is_exact

# repeated-eigenvalue branch: relative gap below this uses the confluent formula
BRANCH_TOL = 1e-9


class NotInvertibleError(ZeroDivisionError, ValueError):
    """zeta has zero determinant and cannot be inverted.

    A ValueError too: asking for the inverse of such a zeta is a malformed
    request, which the command line reports with exit code 2.
    """


@dataclass(frozen=True)
class ZetaElement:
    """a f fdag + b f + c fdag + d fdag f, matrix rep [[a, b], [c, d]]."""

    a: Scalar = 0
    b: Scalar = 0
    c: Scalar = 0
    d: Scalar = 0

    @classmethod
    def identity(cls) -> "ZetaElement":
        return cls(1, 0, 0, 1)

    @classmethod
    def zero(cls) -> "ZetaElement":
        return cls(0, 0, 0, 0)

    def is_exact(self) -> bool:
        return all(is_exact(v) for v in (self.a, self.b, self.c, self.d))

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def entries(self) -> Tuple[Scalar, Scalar, Scalar, Scalar]:
        return (self.a, self.b, self.c, self.d)

    # -- algebra ---------------------------------------------------------

    def involution(self) -> "ZetaElement":
        """Main involution: zeta* = a f fdag - b f - c fdag + d fdag f."""
        return ZetaElement(self.a, -self.b, -self.c, self.d)

    hat = involution        # the name IntMatrix uses

    def xi(self) -> "ZetaElement":
        """xi = (f fdag - fdag f) zeta, matrix [[a, b], [-c, -d]]."""
        return ZetaElement(self.a, self.b, -self.c, -self.d)

    def __add__(self, other: "ZetaElement") -> "ZetaElement":
        return ZetaElement(self.a + other.a, self.b + other.b,
                           self.c + other.c, self.d + other.d)

    def __sub__(self, other: "ZetaElement") -> "ZetaElement":
        return ZetaElement(self.a - other.a, self.b - other.b,
                           self.c - other.c, self.d - other.d)

    def __neg__(self) -> "ZetaElement":
        return ZetaElement(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        if isinstance(other, ZetaElement):
            a, b, c, d = self.entries()
            e, f_, g, h = other.entries()
            return ZetaElement(a * e + b * g, a * f_ + b * h,
                               c * e + d * g, c * f_ + d * h)
        return self.scale(other)

    def __rmul__(self, value):
        return self.scale(value)

    def scale(self, p: Scalar, q: int = 1) -> "ZetaElement":
        """Times p, or times the Fraction p / q of ints p and q > 1."""
        value = p if q == 1 else Fraction(p, q)
        return ZetaElement(self.a * value, self.b * value,
                           self.c * value, self.d * value)

    def star_zeta(self) -> "ZetaElement":
        """zeta* zeta; equal to xi^2."""
        return self.involution() * self

    def det(self) -> Scalar:
        return self.a * self.d - self.b * self.c

    def is_invertible(self) -> bool:
        return bool(self.det())

    def invert(self) -> "ZetaElement":
        det = self.det()
        if not det:
            raise NotInvertibleError(f"zeta {self.entries()} has det = 0")
        if isinstance(det, int):
            det = Fraction(det)       # keep integer entries exact
        return ZetaElement(self.d / det, -self.b / det,
                           -self.c / det, self.a / det)

    inverse = invert        # the name IntMatrix uses

    def reduced(self) -> "ZetaElement":
        """Itself: its entries carry no common denominator to divide out."""
        return self

    # -- spectral data -----------------------------------------------------

    def eigenvalues_xi(self) -> Tuple[complex, complex]:
        """Eigenvalues of xi: l = ((a-d) +- sqrt((a+d)^2 - 4bc)) / 2.

        Principal square root branch; the pair enters all formulas
        symmetrically, so the branch choice is unobservable.
        """
        a, b, c, d = (complex(v) for v in self.entries())
        root = cmath.sqrt((a + d) ** 2 - 4 * b * c)
        return ((a - d + root) / 2, (a - d - root) / 2)

    # -- embedding ------------------------------------------------------------

    def to_multivector(self, ctx: AlgebraContext) -> Multivector:
        """(f fdag) a + f b + fdag c + (fdag f) d, blade by blade.

        f fdag = (1 + eps e)/2, f = (e - eps)/2, fdag = -(e + eps)/2 and
        fdag f = (1 - eps e)/2 with e = e_{m+1}, so each entry puts +-entry/2
        on two of the blades 1, eps e, e and eps.  The values, their float
        operations and the blade order are those of the Multivector
        expression: each entry's products Fraction(+-1, 2) * entry, kept
        where nonzero, added in entry order to a sum that drops a blade when
        it vanishes.
        """
        top = 1 << (ctx.m + 1)
        half, neg = Fraction(1, 2), Fraction(-1, 2)
        terms: dict = {}
        for i, (entry, blades) in enumerate((
                (self.a, ((0, half), (top | 1, half))),
                (self.b, ((top, half), (1, neg))),
                (self.c, ((top, neg), (1, neg))),
                (self.d, ((0, half), (top | 1, neg))))):
            if entry == 0:
                continue
            for mask, h in blades:
                v = h * entry
                if not v:
                    continue
                if i == 0:      # the first operand's values are kept as they are
                    terms[mask] = v
                    continue
                s = terms.get(mask, 0) + v
                if s:
                    terms[mask] = s
                else:
                    terms.pop(mask, None)
        return Multivector(ctx, terms)


class IntMatrix:
    """An exact Cl(1,1) element: the integer matrix [[a, b], [c, d]] over q > 0.

    An entry is an int, or an integer pair (re, im) where its imaginary
    part is nonzero.  Two matrices are equal when their values are.
    """

    __slots__ = ("entries", "q")

    def __init__(self, entries: Sequence[Numerator], q: int = 1):
        self.entries, self.q = tuple(entries), q

    @classmethod
    def identity(cls) -> "IntMatrix":
        return cls((1, 0, 0, 1))

    @classmethod
    def of(cls, z: ZetaElement) -> "IntMatrix":
        """The matrix of an exact z over the lcm of its entries' denominators."""
        ratios = [_ratio(v) for v in z.entries()]
        sigma = lcm(*(q for _, q in ratios))
        return cls([_nmul(n, sigma // q) for n, q in ratios], sigma)

    def __repr__(self):
        return f"IntMatrix({self.entries!r}, {self.q})"

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return not any(_nadd(_nmul(x, other.q), _nneg(_nmul(y, self.q)))
                       for x, y in zip(self.entries, other.entries))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        a, b, c, d = self.entries
        e, f, g, h = other.entries
        return IntMatrix((_nadd(_nmul(a, e), _nmul(b, g)),
                          _nadd(_nmul(a, f), _nmul(b, h)),
                          _nadd(_nmul(c, e), _nmul(d, g)),
                          _nadd(_nmul(c, f), _nmul(d, h))), self.q * other.q)

    def hat(self) -> "IntMatrix":
        """The main involution, as ZetaElement.involution: b and c negated."""
        a, b, c, d = self.entries
        return IntMatrix((a, _nneg(b), _nneg(c), d), self.q)

    def scale(self, p: int, q: int = 1) -> "IntMatrix":
        """Times p / q, q > 0."""
        return IntMatrix([_nmul(n, p) for n in self.entries], self.q * q)

    def inverse(self) -> "IntMatrix":
        """The inverse matrix; ZeroDivisionError at det 0."""
        a, b, c, d = self.entries
        det = _nadd(_nmul(a, d), _nneg(_nmul(b, c)))
        if not det:
            raise ZeroDivisionError("IntMatrix has det = 0")
        # adj / det = adj conj(det) / |det|^2 for a pair, adj sign / |det| else
        if type(det) is tuple:
            p, norm = (det[0], -det[1]), det[0] ** 2 + det[1] ** 2
        else:
            p, norm = (1, det) if det > 0 else (-1, -det)
        return IntMatrix([_nmul(n, p) for n in (d, _nneg(b), _nneg(c), a)],
                         norm).scale(self.q)

    def reduced(self) -> "IntMatrix":
        """The same value with the common factor of q and the entries
        divided out."""
        g = self.q
        for n in self.entries:
            g = gcd(g, n) if type(n) is int else gcd(g, *n)
        if g == 1:
            return self
        return IntMatrix([n // g if type(n) is int else (n[0] // g, n[1] // g)
                          for n in self.entries], self.q // g)

    def blades(self, ctx: AlgebraContext) -> Tuple[Dict[int, Numerator], int]:
        """to_multivector's values in ctx as blade numerators over one
        denominator, in lowest terms: over 2 q, a+d on 1, a-d on eps e,
        b-c on e and -(b+c) on eps (e = e_{m+1}), each kept where nonzero.
        The common factor is divided out as reduced does, with no matrix
        made."""
        top = 1 << (ctx.m + 1)
        a, b, c, d = self.entries
        row, g = {}, 2 * self.q
        for mask, n in ((0, _nadd(a, d)), (top | 1, _nadd(a, _nneg(d))),
                        (top, _nadd(b, _nneg(c))), (1, _nneg(_nadd(b, c)))):
            if n:
                row[mask] = n
                g = gcd(g, n) if type(n) is int else gcd(g, *n)
        if g > 1:
            row = {mask: n // g if type(n) is int else (n[0] // g, n[1] // g)
                   for mask, n in row.items()}
        return row, 2 * self.q // g


def radial_weights(s, gamma: Fraction, L: int) -> list:
    """w_n = (-s/4)^n / (n! (gamma)_n), n = 0..L, of s an IntMatrix or a
    ZetaElement, gamma a half-integer: w_n = w_{n-1} s times
    -1 / (2n(2 gamma + 2n - 2)), reduced (an IntMatrix by one gcd), on the
    entries' own arithmetic."""
    two_gamma = int(2 * gamma)
    w = s.identity()
    out = [w]
    for n in range(1, L + 1):
        w = (w * s).scale(-1, 2 * n * (two_gamma + 2 * n - 2)).reduced()
        out.append(w)
    return out


class PowerSeries:
    """psi(w) = sum_n coeffs[n] w^n; carries its own derivative series."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Scalar]):
        self.coeffs = list(coeffs)

    def __call__(self, w: Scalar) -> Scalar:
        total: Scalar = 0
        for c in reversed(self.coeffs):
            total = total * w + c
        return total

    def derivative(self) -> "PowerSeries":
        return PowerSeries([n * c for n, c in enumerate(self.coeffs)][1:] or [0])


def sylvester_eval(psi: PowerSeries, z: ZetaElement) -> ZetaElement:
    """psi(zeta* zeta) through the eigenvalues of xi.

    Distinct branch:  psi(l+^2) (xi - l-)/(l+ - l-) + psi(l-^2) (xi - l+)/(l- - l+).
    Repeated branch (relative gap below BRANCH_TOL): the confluent limit
    psi(l^2) + 2 l psi'(l^2) (xi - l).
    A constant series is that constant times the identity, exactly.
    """
    c0, *rest = psi.coeffs or [0]
    if not any(rest):
        return ZetaElement.identity().scale(complex(c0))
    lp, lm = z.eigenvalues_xi()
    xi = ZetaElement(*(complex(v) for v in z.xi().entries()))
    ident = ZetaElement.identity()
    gap = abs(lp - lm)
    if gap < BRANCH_TOL * max(1.0, abs(lp) + abs(lm)):
        lam = (lp + lm) / 2
        dpsi = psi.derivative()
        base = ident.scale(complex(psi(lam * lam)))
        corr = (xi - ident.scale(lam)).scale(2 * lam * complex(dpsi(lam * lam)))
        return base + corr
    left = (xi - ident.scale(lm)).scale(complex(psi(lp * lp)) / (lp - lm))
    right = (xi - ident.scale(lp)).scale(complex(psi(lm * lm)) / (lm - lp))
    return left + right
