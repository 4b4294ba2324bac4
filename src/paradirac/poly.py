"""The sparse term engine and Clifford-valued polynomials in x_1..x_m.

SparseTerms stores a sum of terms key -> Multivector coefficient, zero
coefficients never stored, and owns the whole linear structure, the one
coefficient product and the one set of spatial operators (partial,
dirac, laplacian, evaluate); a subclass fixes only what a key is, how two
keys combine in a product and how a key's spatial exponents are read and
replaced.  CliffordPoly is keyed by exponent tuples; the space-time
container in timefn adds the time part of the key.

Storage rule.  An exact body (every coefficient an int, Fraction or
GaussianRational) is stored as {key: {blade: numerator}} over one shared
positive int denominator D: each numerator is an int, or a Gaussian
integer where the value is a GaussianRational, and no numerator is zero.
The operators work on numerators only: + and - rescale both sides to the
lcm of their denominators, scaling and division change D and the
numerators, and the products and derivatives run the blade-product
kernel on the numerators directly.  The product of two bodies, scale
and / divide out the factor D shares with every numerator; the other
operators keep the D they produce.  An inexact body (some float or complex value) is
stored as its raw values with D = None and runs the same loops on them,
so it repeats exactly the operations of a per-term Multivector loop.
The public mapping .terms, {key: Multivector} with int, Fraction and
GaussianRational values for an exact body, is built from the numerators
when first read.

The Multivector coefficient sits to the LEFT of the (commuting, scalar)
monomial. All noncommutativity therefore lives inside coefficient
products: the Dirac operator acts by left multiplication with e_i, so
identities like x c = c* x for Cl(1,1)-valued c come out of the blade
product itself and never need a separate rewriting pass.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import lcm, perm
from operator import add
from typing import Dict, Hashable, Iterator, Optional, Sequence, Tuple

from .algebra import (AlgebraContext, AlgebraMismatchError, Multivector,
                      _mul_into)
from .scalars import (_EXACT_TYPES, GaussianRational, Scalar, _ratio,
                      _reduced, _to_numerators, _value, is_exact)

Exponents = Tuple[int, ...]
# {key: {blade: numerator or raw value}}
Rows = Dict[Hashable, Dict[int, Scalar]]


def _times(vals: Dict[int, Scalar], factor) -> Dict[int, Scalar]:
    """{blade: v * factor}, dropping products that vanish."""
    out = {}
    for mask, v in vals.items():
        s = v * factor
        if s:
            out[mask] = s
    return out


def _rescaled(nums: Rows, factor: int) -> Rows:
    """Every numerator times factor: nums over D as numerators over factor * D."""
    if factor == 1:
        return nums
    return {key: _times(vals, factor) for key, vals in nums.items()}


def _acc(out: Rows, key, vals: Dict[int, Scalar]) -> None:
    """out[key] += vals, dropping blades and the key when the sum vanishes.

    A stored row is never changed in place, so rows may be shared.
    """
    s = out.get(key)
    if s is None:
        s = vals
    else:
        s = dict(s)
        for mask, v in vals.items():
            t = s.get(mask, 0) + v
            if t:
                s[mask] = t
            else:
                s.pop(mask, None)
    if s:
        out[key] = s
    else:
        out.pop(key, None)


class SparseTerms:
    """Finite sum of key -> nonzero left Multivector coefficient, value semantics."""

    __slots__ = ("ctx", "_nums", "_D", "_view")

    def __init__(self, ctx: AlgebraContext, terms: Dict[Hashable, Multivector]):
        self.ctx = ctx
        rows = {}
        for key, mv in terms.items():
            vals = {mask: v for mask, v in mv.terms.items() if v}
            if vals:
                rows[key] = vals
        self._nums, self._D = _to_numerators(rows)
        self._view = None

    @classmethod
    def _make(cls, ctx: AlgebraContext, nums: Rows, D: Optional[int]):
        """Body from numerators over D, or from raw values for D None."""
        self = cls.__new__(cls)
        self.ctx, self._nums, self._D, self._view = ctx, nums, D, None
        return self

    def _new(self, nums: Rows, D: Optional[int]):
        """A body of this type from numerators over D, or from the raw
        values an operation on an inexact body gives (D None)."""
        return type(self)._make(self.ctx, nums, D)

    @property
    def terms(self) -> Dict[Hashable, Multivector]:
        """{key: Multivector}, built once from the numerators when first read."""
        view = self._view
        if view is None:
            ctx = self.ctx
            view = self._view = {key: Multivector(ctx, self._coeffs(key))
                                 for key in self._nums}
        return view

    def _coeffs(self, key) -> Dict[int, Scalar]:
        """{blade: value} of one term: the view's once .terms is built,
        else made afresh from the numerators (raw values as stored)."""
        if self._view is not None:
            return self._view[key].terms
        D, vals = self._D, self._nums[key]
        if D is None:
            return vals
        return {mask: _value(n, D) for mask, n in vals.items()}

    def _values(self) -> Rows:
        """{key: {blade: value}}: the raw values, or those of .terms for an exact body."""
        if self._D is None:
            return self._nums
        return {key: self._coeffs(key) for key in self._nums}

    # -- what a subclass fixes -------------------------------------------------

    @staticmethod
    def _key_mul(a, b):
        """Key of the product of two terms."""
        raise NotImplementedError

    @staticmethod
    def _split_key(key) -> Tuple[Exponents, int, Scalar]:
        """(exponents, n, lambda) of the term c x^exps t^n e^{lambda t}."""
        raise NotImplementedError

    @staticmethod
    def _with_exps(key, exps: Exponents):
        """The key with its spatial exponents replaced by exps."""
        raise NotImplementedError

    # -- construction --------------------------------------------------------

    @classmethod
    def zero(cls, ctx: AlgebraContext):
        return cls._make(ctx, {}, 1)

    @classmethod
    def _single(cls, ctx: AlgebraContext, key, coeff):
        """One term from a Multivector or plain scalar coefficient."""
        mv = coeff if isinstance(coeff, Multivector) else ctx.scalar(coeff)
        return cls(ctx, {key: mv})

    # -- inspection -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._nums

    def is_exact(self) -> bool:
        # raw values left by an inexact operand may all be exact
        if self._D is None and not all(is_exact(v) for vals in self._nums.values()
                                       for v in vals.values()):
            return False
        return all(is_exact(self._split_key(key)[2]) for key in self._nums)

    def max_abs(self) -> float:
        D = self._D
        if D is None:
            return max((abs(complex(v)) for vals in self._nums.values()
                        for v in vals.values()), default=0.0)
        # n / D rounds the value once, as float(Fraction) does
        return max((abs(n) / D if type(n) is int
                    else abs(complex(n.re / D, n.im / D))
                    for vals in self._nums.values() for n in vals.values()),
                   default=0.0)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.ctx != other.ctx:
            return False
        Da, Db = self._D, other._D
        if Da is None or Db is None:
            return self.terms == other.terms
        a, b = self._nums, other._nums
        if Da == Db:
            return a == b
        if a.keys() != b.keys():
            return False
        for key, ta in a.items():
            tb = b[key]
            # equal values a / Da == b / Db, compared by cross-multiplication
            if ta.keys() != tb.keys() or any(
                    v * Db != tb[mask] * Da for mask, v in ta.items()):
                return False
        return True

    def __repr__(self):
        if not self._nums:
            return "0"
        bits = []
        for exps, n, lam, c in sorted(
                ((*self._split_key(key), c) for key, c in self.terms.items()),
                key=lambda row: (row[0], row[1], repr(row[2]))):
            piece = f"({c!r})" + "".join(
                f"*x{i + 1}^{e}" if e > 1 else f"*x{i + 1}"
                for i, e in enumerate(exps) if e)
            if n:
                piece += f"*t^{n}"
            if lam != 0:
                piece += f"*exp({lam!r}*t)"
            bits.append(piece)
        return " + ".join(bits)

    # -- linear structure -------------------------------------------------------

    def _check(self, other: "SparseTerms"):
        if self.ctx != other.ctx:
            raise AlgebraMismatchError("sums over different algebra contexts")

    def __add__(self, other):
        """Sum; exact operands are rescaled to the lcm of their denominators."""
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        Da, Db = self._D, other._D
        if Da is None or Db is None:
            a, b, D = self._values(), other._values(), None
        else:
            D = lcm(Da, Db)
            a, b = _rescaled(self._nums, D // Da), _rescaled(other._nums, D // Db)
        out = dict(a)
        for key, vals in b.items():
            _acc(out, key, vals)
        return self._new(out, D)

    def __neg__(self):
        return self._new({key: {mask: -v for mask, v in vals.items()}
                          for key, vals in self._nums.items()}, self._D)

    def __sub__(self, other):
        return self + (-other)

    def _times_exact(self, p, q: int) -> "SparseTerms":
        """Exact body times p / q: the numerators times p, D times q > 0."""
        return self._new(*_reduced(
            {key: _times(vals, p) for key, vals in self._nums.items()}, self._D * q))

    def _map(self, fn):
        """Apply fn to every raw value, dropping the values that vanish."""
        out = {}
        for key, vals in self._values().items():
            s = {}
            for mask, v in vals.items():
                r = fn(v)
                if r:
                    s[mask] = r
            if s:
                out[key] = s
        return self._new(out, None)

    def scale(self, value: Scalar):
        if self._D is not None and type(value) in _EXACT_TYPES:
            return self._times_exact(*_ratio(value))
        if value == 0:
            return self._new({}, 1)
        return self._map(lambda v: v * value)

    def lmul(self, mv: Multivector):
        """Left multiplication by a constant Multivector."""
        return self._const_mul(mv, left=True)

    def rmul(self, mv: Multivector):
        """Right multiplication by a constant Multivector."""
        return self._const_mul(mv, left=False)

    def _const_mul(self, mv: Multivector, left: bool):
        """mv * c (left) or c * mv for every coefficient c, on numerators."""
        mv._check(self)
        ctx = self.ctx
        rows, q = _to_numerators({0: mv.terms})
        if self._D is not None and q is not None:
            k, nums, D = rows[0], self._nums, self._D * q
        else:
            k, nums, D = mv.terms, self._values(), None
        out: Rows = {}
        for key, vals in nums.items():
            t = _mul_into(ctx, {}, k, vals) if left else _mul_into(ctx, {}, vals, k)
            if t:
                out[key] = t
        return self._new(out, D)

    def __truediv__(self, value: Scalar):
        if self._D is not None and type(value) in _EXACT_TYPES and value:
            return self._times_exact(*_ratio(Fraction(1) / value))
        return self._map(lambda v: v / value)

    def __mul__(self, other):
        """Product; scalars and Multivectors multiply every coefficient.

        For a Multivector right operand the product is p * const(mv);
        use lmul for mv * p since Python routes that through __rmul__.
        """
        if isinstance(other, SparseTerms):
            if not isinstance(other, type(self)):
                return NotImplemented
            self._check(other)
            ctx = self.ctx
            key_mul = self._key_mul
            Da, Db = self._D, other._D
            if Da is None or Db is None:
                a, b, D = self._values(), other._values(), None
            else:
                a, b, D = self._nums, other._nums, Da * Db
            b_rows = list(b.items())
            acc: Rows = {}
            for ka, ta in a.items():
                for kb, tb in b_rows:
                    _mul_into(ctx, acc.setdefault(key_mul(ka, kb), {}), ta, tb)
            return self._new(*_reduced({key: t for key, t in acc.items() if t}, D))
        if isinstance(other, Multivector):
            return self.rmul(other)
        return self.scale(other)

    def __rmul__(self, other):
        if isinstance(other, Multivector):
            return self.lmul(other)
        return self.scale(other)

    # -- spatial operators ---------------------------------------------------

    def _lowered(self, by: int, indices):
        """Sum over i in indices of n!/(n-by)! c x^(exps - by e_i), n = exps[i]."""
        split_key, with_exps = self._split_key, self._with_exps
        out: Rows = {}
        for key, vals in self._nums.items():
            exps = split_key(key)[0]
            for i in indices:
                n = exps[i]
                if n >= by:
                    new = with_exps(key, exps[:i] + (n - by,) + exps[i + 1:])
                    _acc(out, new, _times(vals, perm(n, by)))
        return self._new(out, self._D)

    def partial(self, i: int):
        """Scalar derivative d/dx_{i+1} (0-based index)."""
        return self._lowered(1, (i,))

    def dirac(self):
        """Left Dirac operator sum_i e_i d/dx_i; dirac(dirac(p)) = -laplacian(p)."""
        ctx, split_key, with_exps = self.ctx, self._split_key, self._with_exps
        acc: Rows = {}
        for key, vals in self._nums.items():
            exps = split_key(key)[0]
            for i, n in enumerate(exps):
                if n:   # blade 2 << i is e_{i+1}
                    new = with_exps(key, exps[:i] + (n - 1,) + exps[i + 1:])
                    _mul_into(ctx, acc.setdefault(new, {}), {2 << i: n}, vals)
        return self._new({key: t for key, t in acc.items() if t}, self._D)

    def laplacian(self):
        return self._lowered(2, range(self.ctx.m))

    def evaluate(self, point: Sequence[Scalar], t: Scalar = 0) -> Multivector:
        """Value at x = point and time t (complex once some lambda != 0)."""
        return next(self.evaluate_many(((point, t),)))

    def evaluate_many(self, points: Sequence[Tuple[Sequence[Scalar], Scalar]]
                      ) -> Iterator[Multivector]:
        """Values at each (point, t) pair, yielded in order as evaluated.

        The terms are prepared once per call: the distinct monomials as
        nonzero (i, d) pairs, each term's monomial, n and complex(lambda),
        and per blade a column of (term, coefficient) in term order.  Each
        point computes every x_i**d, t**n and exp(lambda t) once, then the
        weight w = x^exps * t^n * e^{lambda t} of every term, with the
        same operations in the same order as a term-by-term loop, and sums
        each column in term order, skipping zero weights.  So a value has
        the same bits whichever batch it is computed in.

        When every coordinate and t of the batch is a float, the exact
        coefficient of each term whose weight varies is rounded once up
        front: c * w with a float or complex w rounds c in just that way.
        The constant term keeps its exact coefficient.  A value beyond the
        float range, or not finite, raises ValueError naming the point.
        """
        ctx, m = self.ctx, self.ctx.m
        points = list(points)   # read twice: the float scan, then the values
        floats = all(isinstance(x, float) for point, t in points for x in (*point, t))
        pairs: Dict[Tuple[int, int], int] = {}      # (i, d) -> slot
        monos: Dict[Exponents, int] = {}
        mono_slots = []         # per monomial: the slots of its (i, d) pairs
        lams: Dict[complex, int] = {}
        rows = []               # per term: (monomial, n, lambda index or -1)
        cols: Dict[int, list] = {}      # blade -> [(term, coefficient)]
        for ti, (key, mv) in enumerate(self.terms.items()):
            exps, n, lam = self._split_key(key)
            mi = monos.setdefault(exps, len(monos))
            if mi == len(mono_slots):
                mono_slots.append(tuple(pairs.setdefault((i, d), len(pairs))
                                        for i, d in enumerate(exps) if d))
            li = lams.setdefault(complex(lam), len(lams)) if lam != 0 else -1
            rows.append((mi, n, li))
            varies = mono_slots[mi] or n or li >= 0
            for mask, c in mv.terms.items():
                cols.setdefault(mask, []).append(
                    (ti, _rounded(c) if floats and varies and is_exact(c) else c))
        ns = {n for _, n, _ in rows if n}
        for point, t in points:
            if len(point) != m:
                raise ValueError(f"point has {len(point)} coordinates, expected {m}")
            try:
                xd = [point[i] ** d for i, d in pairs]
                mono_w = []
                for slots in mono_slots:
                    w: Scalar = 1
                    for j in slots:
                        w = w * xd[j]
                    mono_w.append(w)
                tn = {n: t ** n for n in ns}
                if lams:
                    tc = complex(t)
                    ex = [cmath.exp(lam * tc) for lam in lams]
                weights = []
                for mi, n, li in rows:
                    w = mono_w[mi]
                    if n:
                        w = w * tn[n]
                    if li >= 0:
                        w = complex(w) * ex[li]
                    weights.append(w)
                out: Dict[int, Scalar] = {}
                for mask, col in cols.items():
                    s: Scalar = 0
                    for ti, c in col:
                        w = weights[ti]
                        if w:
                            s = s + c * w
                            if not s:   # a vanished sum restarts from int 0
                                s = 0
                    if s:
                        out[mask] = s
                # a float product can leave the range without raising
                if not all(cmath.isfinite(v) for v in out.values()
                           if isinstance(v, (float, complex))):
                    raise OverflowError
            except OverflowError:
                raise ValueError(f"value at x = {tuple(point)}, t = {t} is "
                                 "outside the float range") from None
            yield Multivector(ctx, out)


def _rounded(c: Scalar) -> Scalar:
    """float(c), complex(c) for a GaussianRational; c itself beyond float range."""
    try:
        return complex(c) if isinstance(c, GaussianRational) else float(c)
    except OverflowError:
        return c


class CliffordPoly(SparseTerms):
    """Polynomial with left Multivector coefficients, keyed by exponent tuples."""

    __slots__ = ()

    @staticmethod
    def _key_mul(a: Exponents, b: Exponents) -> Exponents:
        return tuple(map(add, a, b))

    @staticmethod
    def _split_key(key: Exponents):
        return key, 0, 0

    @staticmethod
    def _with_exps(key: Exponents, exps: Exponents) -> Exponents:
        return exps

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, ctx: AlgebraContext, coeff) -> "CliffordPoly":
        """Constant polynomial from a Multivector or plain scalar."""
        return cls._single(ctx, (0,) * ctx.m, coeff)

    @classmethod
    def monomial(cls, ctx: AlgebraContext, exps: Sequence[int], coeff) -> "CliffordPoly":
        exps = tuple(exps)
        if len(exps) != ctx.m or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent tuple {exps!r} for m={ctx.m}")
        return cls._single(ctx, exps, coeff)

    # -- inspection -----------------------------------------------------------

    def degree(self) -> int:
        """Total spatial degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self._nums), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self._nums}
        return len(degs) <= 1

    # -- operators ---------------------------------------------------------------

    def truncate_degree(self, max_degree: int) -> "CliffordPoly":
        """Drop every monomial of degree above max_degree."""
        return self._new({exps: vals for exps, vals in self._nums.items()
                          if sum(exps) <= max_degree}, self._D)


def vector_variable(ctx: AlgebraContext) -> CliffordPoly:
    """x = sum_i e_i x_i, satisfying x*x = -rho^2."""
    terms = {}
    for i in range(ctx.m):
        exps = tuple(1 if j == i else 0 for j in range(ctx.m))
        terms[exps] = ctx.e(i + 1)
    return CliffordPoly(ctx, terms)


def rho_squared(ctx: AlgebraContext) -> CliffordPoly:
    """rho^2 = sum_i x_i^2 (scalar coefficients)."""
    terms = {}
    for i in range(ctx.m):
        exps = tuple(2 if j == i else 0 for j in range(ctx.m))
        terms[exps] = ctx.one()
    return CliffordPoly(ctx, terms)


def rho_powers(p: CliffordPoly) -> Iterator[CliffordPoly]:
    """p, rho^2 p, rho^4 p, ...; each power is computed only when asked for."""
    rho2 = rho_squared(p.ctx)
    while True:
        yield p
        p = rho2 * p
