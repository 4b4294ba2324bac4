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
from math import log10
from typing import Union

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


def is_exact(value: Scalar) -> bool:
    """True when the scalar lives in an exact domain (no rounding)."""
    return isinstance(value, (int, Fraction, GaussianRational))


def to_float(value: Scalar) -> Scalar:
    """value as a float, or a complex for a GaussianRational or complex;
    a value beyond the float range is a ValueError."""
    try:
        if isinstance(value, (GaussianRational, complex)):
            return complex(value)
        return float(value)
    except OverflowError:
        # only an exact value overflows; name its size, not its digits
        parts = (value.re, value.im) if isinstance(value, GaussianRational) else (value,)
        bits = max(abs(p.numerator).bit_length() - p.denominator.bit_length()
                   for p in map(Fraction, parts))
        raise ValueError(f"a value of about 1e{round(bits * log10(2))} "
                         "is outside the float range") from None


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
