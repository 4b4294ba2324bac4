"""Clifford algebra Cl(1, m+1) with the nilpotent Witt pair.

Generators are ordered (eps, e_1, ..., e_{m+1}) with eps^2 = +1 and
e_j^2 = -1; distinct generators anticommute. Blades are bitmasks over
that order: bit 0 is eps, bit j is e_j. The Witt elements

    f = (e_{m+1} - eps)/2        fdag = -(e_{m+1} + eps)/2

satisfy f^2 = fdag^2 = 0 and f fdag + fdag f = 1, and every element
decomposes uniquely as F0 + f F1 + fdag F2 + f fdag F3 with components
in the subalgebra generated by e_1..e_m.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, Tuple, Union

from .scalars import Exact, GaussianRational, Scalar, is_exact


# one generator of a blade label: eps, or e<j> with j written without sign
_LABEL_GENERATOR = re.compile(r"eps|e[0-9]+")


class AlgebraMismatchError(ValueError):
    """Operands belong to different algebra contexts."""


class AlgebraContext:
    """Cl(1, m+1) for spatial dimension m >= 1.

    Holds the generator table and the blade-product table, whose entries
    are computed when first read. Instances are immutable; two contexts
    are interchangeable iff their m agree.
    """

    __slots__ = ("m", "n_gen", "_squares", "_mul_rows", "_f", "_fdag")

    def __init__(self, m: int):
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"spatial dimension must be a positive integer, got {m!r}")
        self.m = m
        self.n_gen = m + 2
        # index 0 is eps (+1), indices 1..m+1 are e_j (-1)
        self._squares = (1,) + (-1,) * (m + 1)
        self._mul_rows: Dict[int, Dict[int, Tuple[int, int]]] = {}
        self._f = None
        self._fdag = None

    def __repr__(self):
        return f"AlgebraContext(m={self.m})"

    def __eq__(self, other):
        return isinstance(other, AlgebraContext) and other.m == self.m

    def __hash__(self):
        return hash(("AlgebraContext", self.m))

    # -- blade arithmetic -------------------------------------------------

    def blade_mul(self, a: int, b: int) -> Tuple[int, int]:
        """Product of basis blades: returns (mask, sign).

        Inserts the generators of b into a in ascending index order,
        counting anticommutations past higher generators and applying
        the metric sign when indices collide. Uncached: it is the rule
        that fills a mul_row row.
        """
        sign = 1
        cur = a
        rest = b
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            rest ^= low
            higher = cur >> (i + 1)
            if higher.bit_count() & 1:
                sign = -sign
            if cur & low:
                sign *= self._squares[i]
                cur ^= low
            else:
                cur |= low
        return cur, sign

    def mul_row(self, left_mask: int) -> Dict[int, Tuple[int, int]]:
        """Left-multiplication row {b: blade_mul(left_mask, b)}.

        Int-keyed lookup for inner loops. An entry is computed the first
        time it is read: the full table has 4^{m+2} entries, far more than
        the products in use once m grows.
        """
        row = self._mul_rows.get(left_mask)
        if row is None:
            row = self._mul_rows[left_mask] = _ProductRow(self, left_mask)
        return row

    def blade_label(self, mask: int) -> str:
        if mask == 0:
            return "1"
        parts = []
        if mask & 1:
            parts.append("eps")
        for j in range(1, self.n_gen):
            if mask >> j & 1:
                parts.append(f"e{j}")
        return "".join(parts)

    def blade_from_label(self, label: str) -> int:
        """The mask of a canonical label, as blade_label writes it.

        A label naming the generators in another order is refused rather
        than read with a lost sign ("e2e1" is -e1e2): the ValueError names
        the canonical spelling.
        """
        if label == "1":
            return 0
        gens = _LABEL_GENERATOR.findall(label)
        if not gens or "".join(gens) != label:
            raise ValueError(f"invalid blade label {label!r}")
        mask = 0
        for g in gens:
            j = 0 if g == "eps" else int(g[1:])
            if not 0 <= j <= self.m + 1:
                raise ValueError(f"generator {g} outside Cl(1,{self.m + 1})")
            if mask >> j & 1:
                raise ValueError(f"repeated generator in blade label {label!r}")
            mask |= 1 << j
        canonical = self.blade_label(mask)
        if label != canonical:
            raise ValueError(f"blade label {label!r} is not canonical: "
                             f"write {canonical!r}, generators in the order "
                             f"eps, e1, e2, ..., and the sign in the value")
        return mask

    # -- element constructors ---------------------------------------------

    def scalar(self, value: Scalar) -> "Multivector":
        return Multivector(self, {0: value} if value else {})

    def zero(self) -> "Multivector":
        return Multivector(self, {})

    def one(self) -> "Multivector":
        return self.scalar(1)

    def eps(self) -> "Multivector":
        return Multivector(self, {1: 1})

    def e(self, j: int) -> "Multivector":
        if not 1 <= j <= self.m + 1:
            raise ValueError(f"generator index {j} outside 1..{self.m + 1}")
        return Multivector(self, {1 << j: 1})

    def blade(self, indices: Iterable[int], coeff: Scalar = 1) -> "Multivector":
        """Blade from generator indices; 0 stands for eps, j for e_j."""
        mask = 0
        for j in indices:
            bit = 1 << j
            if not 0 <= j <= self.m + 1 or mask & bit:
                raise ValueError(f"bad blade index sequence {list(indices)!r}")
            mask |= bit
        return Multivector(self, {mask: coeff} if coeff else {})


class _ProductRow(dict):
    """One row {b: (mask, sign)} of the blade-product table, filled on read."""

    def __init__(self, ctx: AlgebraContext, left: int):
        self.ctx, self.left = ctx, left

    def __missing__(self, b: int) -> Tuple[int, int]:
        entry = self[b] = self.ctx.blade_mul(self.left, b)
        return entry


# -- integer pairs -----------------------------------------------------------
#
# poly stores the numerator of a GaussianRational value as an integer pair
# (re, im).  The loops below take such a pair wherever they take a scalar:
# each tests a value for a tuple and does pair arithmetic only there, so one
# loop serves pairs, int numerators and plain scalars alike.  A numerator
# result is a pair only when its imaginary part is nonzero, and an int
# otherwise, so an exact value is read back as an int when integral, a
# Fraction when rational and a GaussianRational only when it is not real.

# an exact numerator: an int, or the integer pair (re, im) of a Gaussian one
Numerator = Union[int, Tuple[int, int]]


def _ratio(v: Exact) -> Tuple[Numerator, int]:
    """(numerator, denominator) of an exact scalar, the denominator > 0."""
    t = type(v)
    if t is int:
        return v, 1
    if t is Fraction:
        return v.numerator, v.denominator
    re, im = v.re, v.im
    if not im:
        return re.numerator, re.denominator
    q = lcm(re.denominator, im.denominator)
    return (re.numerator * (q // re.denominator),
            im.numerator * (q // im.denominator)), q


def _nmul(a, b):
    """a * b of numerators."""
    if type(a) is tuple:
        if type(b) is tuple:
            re, im = a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]
        else:
            re, im = a[0] * b, a[1] * b
    elif type(b) is tuple:
        re, im = a * b[0], a * b[1]
    else:
        return a * b
    return (re, im) if im else re


def _nadd(a, b):
    """a + b of numerators."""
    if type(a) is tuple:
        re, im = (a[0] + b[0], a[1] + b[1]) if type(b) is tuple else (a[0] + b, a[1])
    elif type(b) is tuple:
        re, im = a + b[0], b[1]
    else:
        return a + b
    return (re, im) if im else re


def _nneg(a):
    """-a, a pair when a is one."""
    return (-a[0], -a[1]) if type(a) is tuple else -a


def _mul_blade_into(out: Dict[int, Scalar], row, va: Scalar,
                    b: Dict[int, Scalar]) -> None:
    """out += (va times one blade) * b, row that blade's product row.

    Left multiplication by a blade is a signed permutation of the blades,
    so this is one pass over b; a sum that vanishes is dropped.  vb * va
    is the order every caller's float results are pinned to.
    """
    pa = type(va) is tuple
    for mb, vb in b.items():
        mask, sign = row[mb]
        o = out.get(mask, 0)
        if pa or type(vb) is tuple or type(o) is tuple:
            ar, ai = va if pa else (va, 0)
            br, bi = vb if type(vb) is tuple else (vb, 0)
            re, im = br * ar - bi * ai, br * ai + bi * ar
            if sign < 0:
                re, im = -re, -im
            if type(o) is tuple:
                re, im = re + o[0], im + o[1]
            else:
                re += o
            s = (re, im) if im else re
        else:
            s = o + vb * va if sign > 0 else o + -(vb * va)
        if s:
            out[mask] = s
        else:
            out.pop(mask, None)


def _mul_into(ctx: AlgebraContext, out: Dict[int, Scalar],
             a: Dict[int, Scalar], b: Dict[int, Scalar]) -> Dict[int, Scalar]:
    """out += a * b over {blade: scalar} dicts, dropping sums that vanish.

    The blade-product loop of Multivector products and of every body
    product and constant product in poly.  Returns out.
    """
    rows = ctx._mul_rows
    for ma, va in a.items():
        _mul_blade_into(out, rows.get(ma) or ctx.mul_row(ma), va, b)
    return out


class Multivector:
    """Sparse element of Cl(1, m+1): blade bitmask -> scalar coefficient.

    Value semantics; every operation returns a fresh instance and zero
    coefficients are never stored.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: AlgebraContext, terms: Dict[int, Scalar]):
        self.ctx = ctx
        self.terms = terms

    # -- helpers ------------------------------------------------------------

    def _check(self, other: "Multivector"):
        if self.ctx != other.ctx:
            raise AlgebraMismatchError(
                f"mixing Cl(1,{self.ctx.m + 1}) with Cl(1,{other.ctx.m + 1})"
            )

    def is_zero(self) -> bool:
        return not self.terms

    def is_exact(self) -> bool:
        return all(is_exact(v) for v in self.terms.values())

    def max_abs(self) -> float:
        if not self.terms:
            return 0.0
        return max(abs(complex(v)) for v in self.terms.values())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mask in sorted(self.terms):
            c = self.terms[mask]
            label = self.ctx.blade_label(mask)
            bits.append(f"{c!r}*{label}" if mask else f"{c!r}")
        return " + ".join(bits)

    def __eq__(self, other):
        if isinstance(other, Multivector):
            return self.ctx == other.ctx and self.terms == other.terms
        if isinstance(other, (int, float, complex, Fraction, GaussianRational)):
            if other == 0:
                return not self.terms
            return set(self.terms) == {0} and self.terms[0] == other
        return NotImplemented

    # -- linear structure ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Multivector):
            self._check(other)
            out = dict(self.terms)
            for mask, v in other.terms.items():
                s = out.get(mask, 0) + v
                if s:
                    out[mask] = s
                else:
                    out.pop(mask, None)
            return Multivector(self.ctx, out)
        if isinstance(other, (int, float, complex, Fraction, GaussianRational)):
            return self + self.ctx.scalar(other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Multivector(self.ctx, {m: -v for m, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Multivector):
            self._check(other)
            return Multivector(self.ctx, _mul_into(self.ctx, {}, self.terms,
                                                   other.terms))
        return self._scale(other)

    def __rmul__(self, other):
        # only scalars land here; Multivector*Multivector is handled above
        return self._scale(other)

    def _scale(self, value):
        if not isinstance(value, (int, float, complex, Fraction, GaussianRational)):
            return NotImplemented
        if value == 0:
            return Multivector(self.ctx, {})
        out = {}
        for mask, v in self.terms.items():
            s = v * value
            if s:
                out[mask] = s
        return Multivector(self.ctx, out)

    def __truediv__(self, value):
        if isinstance(value, Multivector):
            return NotImplemented
        out = {}
        for mask, v in self.terms.items():
            s = v / value
            if s:
                out[mask] = s
        return Multivector(self.ctx, out)

    # -- involution and split -------------------------------------------------

    def involution(self) -> "Multivector":
        """Main involution: each generator negated, blades scale by (-1)^grade."""
        out = {}
        for mask, v in self.terms.items():
            out[mask] = -v if mask.bit_count() & 1 else v
        return Multivector(self.ctx, out)


def witt_basis(ctx: AlgebraContext) -> Tuple[Multivector, Multivector]:
    """The nilpotent pair (f, fdag) of Cl(1, m+1)."""
    if ctx._f is None:
        half = Fraction(1, 2)
        top = 1 << (ctx.m + 1)
        ctx._f = Multivector(ctx, {top: half, 1: -half})
        ctx._fdag = Multivector(ctx, {top: -half, 1: -half})
    return ctx._f, ctx._fdag


@dataclass(frozen=True)
class SplitForm:
    """Components (f0, f1, f2, f3) of u = f0 + f*f1 + fdag*f2 + f*fdag*f3.

    Each component lives in the subalgebra generated by e_1..e_m.
    """

    f0: Multivector
    f1: Multivector
    f2: Multivector
    f3: Multivector

    def reassemble(self) -> Multivector:
        ctx = self.f0.ctx
        f, fdag = witt_basis(ctx)
        return self.f0 + f * self.f1 + fdag * self.f2 + f * fdag * self.f3


def split(u: Multivector) -> SplitForm:
    """Decompose u over the left Cl(1,1) basis {1, f, fdag, f fdag}.

    Writes each blade as eps^a * B * e_{m+1}^b with B in the e_1..e_m
    subalgebra, moves e_{m+1} left past B (sign (-1)^{grade(B)*b}) and
    rewrites eps^a e_{m+1}^b through the Witt pair:

        eps = -(f + fdag)    e_{m+1} = f - fdag    eps e_{m+1} = 2 f fdag - 1
    """
    parts = _split_blades(u.ctx, u.terms)
    return SplitForm(*(Multivector(u.ctx, d) for d in parts))


def _split_entry(top_bit: int, mask: int) -> Tuple[Tuple[int, int, int], ...]:
    """The share of split in the blade mask, ((component, blade, factor), ...):
    mask = eps^a B e_{m+1}^b, B in the e_1..e_m subalgebra, adds factor
    times its coefficient to B in the component, factor 1, -1, 2 or -2."""
    body = mask & ~(top_bit | 1)
    s = -1 if mask & top_bit and body.bit_count() & 1 else 1
    if not mask & top_bit:
        # eps = -(f + fdag)
        return ((1, body, -1), (2, body, -1)) if mask & 1 else ((0, body, 1),)
    if not mask & 1:
        # e_{m+1} = f - fdag
        return ((1, body, s), (2, body, -s))
    # eps e_{m+1} = 2 f fdag - 1
    return ((3, body, 2 * s), (0, body, -s))


def _split_blades(ctx: AlgebraContext, terms: Dict[int, Scalar]
                  ) -> Tuple[Dict[int, Scalar], ...]:
    """The four {blade: scalar} components of split over a coefficient dict.

    Only negates, doubles and adds the scalars, so integer numerators over
    a common denominator, pairs among them, split into numerators over the
    same denominator.
    """
    top_bit = 1 << (ctx.m + 1)
    parts: Tuple[Dict[int, Scalar], ...] = ({}, {}, {}, {})
    for mask, v in terms.items():
        for which, body, f in _split_entry(top_bit, mask):
            w = _nneg(v) if f < 0 else v
            if f * f == 4:
                w = _nmul(2, w)
            d = parts[which]
            s = _nadd(d.get(body, 0), w)
            if s:
                d[body] = s
            else:
                d.pop(body, None)
    return parts
