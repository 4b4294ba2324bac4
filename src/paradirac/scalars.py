"""Scalar coefficient domains.

Coefficients throughout the package are duck-typed Python numbers: int,
fractions.Fraction and GaussianRational for exact work, float and complex
for floating sweeps. GaussianRational supplies the exact complex domain
(rational real and imaginary parts) that plain Fraction lacks.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Hashable, Optional, Tuple, Union

Exact = Union[int, Fraction, "GaussianRational"]
Scalar = Union[int, float, complex, Fraction, "GaussianRational"]


class GaussianRational:
    """Complex number with Fraction real and imaginary parts.

    Closed under +, -, *, / (division by zero raises ZeroDivisionError).
    Mixed arithmetic with int and Fraction promotes the other operand;
    mixed arithmetic with float/complex degrades to complex.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __repr__(self):
        if not self.im:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __hash__(self):
        # equal int, Fraction, float and complex values hash alike: the real
        # case is Fraction's hash, the complex case CPython's complex hash
        # built from the exact hashes of the two parts
        if not self.im:
            return hash(self.re)
        width = sys.hash_info.width
        h = (hash(self.re) + sys.hash_info.imag * hash(self.im)) % (1 << width)
        if h >= 1 << (width - 1):
            h -= 1 << width
        return -2 if h == -1 else h

    def __eq__(self, other):
        # exact comparison, as Fraction compares with float
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction, float)):
            return self.im == 0 and self.re == other
        if isinstance(other, complex):
            return self.re == other.real and self.im == other.imag
        return NotImplemented

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re + other, self.im)
        if isinstance(other, (float, complex)):
            return complex(self) + other
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re * other, self.im * other)
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re / other, self.im / other)
        if isinstance(other, GaussianRational):
            den = other.re * other.re + other.im * other.im
            if not den:
                raise ZeroDivisionError("division by zero GaussianRational")
            num = self * other.conjugate()
            return GaussianRational(num.re / den, num.im / den)
        if isinstance(other, (float, complex)):
            return complex(self) / other
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other) / self
        if isinstance(other, (float, complex)):
            return other / complex(self)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


class _GaussInt:
    """Gaussian-integer numerator re + i im of a GaussianRational.

    Only what the sparse engine applies to its numerators: +, unary -, *,
    exact division by an int (//), == and truth, mixed with plain int
    numerators.  A value stays Gaussian as GaussianRational does, also
    once its imaginary part cancels.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int):
        self.re = re
        self.im = im

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other):
        if type(other) is _GaussInt:
            return self.re == other.re and self.im == other.im
        if type(other) is int:
            return not self.im and self.re == other
        return NotImplemented

    def __neg__(self):
        return _GaussInt(-self.re, -self.im)

    def __add__(self, other):
        if type(other) is _GaussInt:
            return _GaussInt(self.re + other.re, self.im + other.im)
        return _GaussInt(self.re + other, self.im)

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is _GaussInt:
            return _GaussInt(self.re * other.re - self.im * other.im,
                             self.re * other.im + self.im * other.re)
        return _GaussInt(self.re * other, self.im * other)

    __rmul__ = __mul__

    def __floordiv__(self, g: int):
        return _GaussInt(self.re // g, self.im // g)


# -- integer numerators over one denominator ----------------------------------
#
# The sparse engine stores an exact body as {key: {blade: numerator}} over
# one positive int denominator D, each numerator an int or a _GaussInt, and
# an inexact body as its raw values with D = None.


def _ratio(v: Exact) -> Tuple[Union[int, _GaussInt], int]:
    """(numerator, denominator) of an exact scalar, the denominator > 0."""
    t = type(v)
    if t is int:
        return v, 1
    if t is Fraction:
        return v.numerator, v.denominator
    re, im = v.re, v.im
    q = lcm(re.denominator, im.denominator)
    return _GaussInt(re.numerator * (q // re.denominator),
                     im.numerator * (q // im.denominator)), q


def _to_numerators(values: Dict[Hashable, Dict[int, Scalar]]
                   ) -> Tuple[Dict[Hashable, Dict[int, Scalar]], Optional[int]]:
    """(numerators, D) of {key: {blade: value}} with no zero value stored.

    D is the lcm of the denominators, so D and the numerators have no
    common factor.  (values, None) as soon as some value is not an int,
    Fraction or GaussianRational.
    """
    dens = set()
    for vals in values.values():
        for v in vals.values():
            t = type(v)
            if t is Fraction:
                dens.add(v.denominator)
            elif t is GaussianRational:
                dens.add(v.re.denominator)
                dens.add(v.im.denominator)
            elif t is not int:
                return values, None
    D = lcm(*dens)
    out = {}
    for key, vals in values.items():
        row = out[key] = {}
        for mask, v in vals.items():
            n, q = _ratio(v)
            row[mask] = n * (D // q) if q != D else n
    return out, D


def _reduced(nums: Dict[Hashable, Dict[int, Scalar]], D: Optional[int]
             ) -> Tuple[Dict[Hashable, Dict[int, Scalar]], Optional[int]]:
    """nums and D with their common factor divided out; raw values (D None)
    as they are."""
    if D is None or D == 1:
        return nums, D
    g = D
    for vals in nums.values():
        for n in vals.values():
            if type(n) is int:
                g = gcd(g, n)
            else:
                g = gcd(g, n.re, n.im)
            if g == 1:
                return nums, D
    return {key: {mask: n // g for mask, n in vals.items()}
            for key, vals in nums.items()}, D // g


def _value(n: Union[int, _GaussInt], D: int) -> Exact:
    """The value n / D: an int, a Fraction or, for a _GaussInt, a GaussianRational."""
    if type(n) is _GaussInt:
        g = GaussianRational.__new__(GaussianRational)
        g.re, g.im = Fraction(n.re, D), Fraction(n.im, D)
        return g
    if D == 1:
        return n
    q, r = divmod(n, D)
    return Fraction(n, D) if r else q


# the types of exact values; a subclass such as bool is not one
_EXACT_TYPES = (int, Fraction, GaussianRational)


def is_exact(value: Scalar) -> bool:
    """True when the scalar lives in an exact domain (no rounding)."""
    return isinstance(value, (int, Fraction, GaussianRational))


_DECIMAL_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def parse_rational(text: str) -> Fraction:
    """Exact value of a "p/q" or decimal string such as "-1.5e3".

    Fraction builds 10**exponent exactly, so an exponent beyond
    sys.get_int_max_str_digits(), the digit limit of int(), is refused.
    """
    exp = _DECIMAL_EXPONENT.search(text)
    limit = sys.get_int_max_str_digits()
    if exp and limit and abs(int(exp.group(1))) > limit:
        raise ValueError(f"decimal exponent of {text!r} exceeds {limit}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse number {text!r}") from None
