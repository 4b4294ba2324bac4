"""The sparse term engine and Clifford-valued polynomials in x_1..x_m.

SparseTerms stores a sum as {key -> Multivector}, zero coefficients never
stored, and owns the whole linear structure, the one coefficient product
and the one set of spatial operators (partial, dirac, laplacian,
evaluate); a subclass fixes only what a key is, how two keys combine in
a product and how a key's spatial exponents are read and replaced.
CliffordPoly is keyed by exponent tuples; the space-time container in
timefn adds the time part of the key.

Exact products (*, lmul, rmul, dirac) clear one common denominator per
operand, run the blade-product kernel on int or Gaussian-integer
numerators and divide once per result coefficient; the stored values
stay int, Fraction and GaussianRational.  An operand holding any float
or complex value makes both pass through unchanged.

The Multivector coefficient sits to the LEFT of the (commuting, scalar)
monomial. All noncommutativity therefore lives inside coefficient
products: the Dirac operator acts by left multiplication with e_i, so
identities like x c = c* x for Cl(1,1)-valued c come out of the blade
product itself and never need a separate rewriting pass.
"""

from __future__ import annotations

import cmath
from math import perm
from operator import add
from typing import Dict, Hashable, Iterator, Sequence, Tuple

from .algebra import (AlgebraContext, AlgebraMismatchError, Multivector,
                      _mul_into)
from .scalars import (GaussianRational, Scalar, _denominators, _divided,
                      _numerators, is_exact)

Exponents = Tuple[int, ...]


class SparseTerms:
    """Finite sum of key -> nonzero left Multivector coefficient, value semantics."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: AlgebraContext, terms: Dict[Hashable, Multivector]):
        self.ctx = ctx
        self.terms = terms

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
        return cls(ctx, {})

    @classmethod
    def _single(cls, ctx: AlgebraContext, key, coeff):
        """One term from a Multivector or plain scalar coefficient."""
        mv = coeff if isinstance(coeff, Multivector) else ctx.scalar(coeff)
        return cls(ctx, {} if mv.is_zero() else {key: mv})

    def _new(self, terms):
        return type(self)(self.ctx, terms)

    @staticmethod
    def _acc(out: dict, key, mv: Multivector) -> None:
        """out[key] += mv, dropping the key when the sum vanishes."""
        s = out.get(key)
        s = mv if s is None else s + mv
        if s.is_zero():
            out.pop(key, None)
        else:
            out[key] = s

    # -- inspection -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_exact(self) -> bool:
        return all(mv.is_exact() and is_exact(self._split_key(key)[2])
                   for key, mv in self.terms.items())

    def max_abs(self) -> float:
        return max((mv.max_abs() for mv in self.terms.values()), default=0.0)

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self.ctx == other.ctx and self.terms == other.terms
        return NotImplemented

    def __repr__(self):
        if not self.terms:
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
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for key, mv in other.terms.items():
            self._acc(out, key, mv)
        return self._new(out)

    def _map(self, fn):
        """Apply fn to every coefficient, dropping the ones that vanish."""
        out = {}
        for key, c in self.terms.items():
            s = fn(c)
            if not s.is_zero():
                out[key] = s
        return self._new(out)

    def __neg__(self):
        return self._map(lambda c: -c)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value: Scalar):
        return self._map(lambda c: c * value)

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
        d_mv, d_self = _denominators((mv.terms,), (c.terms for c in self.terms.values()))
        D = None if d_mv is None else d_mv * d_self
        k = _numerators(mv.terms, d_mv)
        out = {}
        for key, c in self.terms.items():
            nums = _numerators(c.terms, d_self)
            t = _mul_into(ctx, {}, k, nums) if left else _mul_into(ctx, {}, nums, k)
            if t:
                out[key] = Multivector(ctx, _divided(t, D))
        return self._new(out)

    def __truediv__(self, value: Scalar):
        return self._map(lambda c: c / value)

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
            da, db = _denominators((c.terms for c in self.terms.values()),
                                   (c.terms for c in other.terms.values()))
            D = None if da is None else da * db
            b_nums = [(kb, _numerators(cb.terms, db)) for kb, cb in other.terms.items()]
            acc: Dict[Hashable, Dict[int, Scalar]] = {}
            for ka, ca in self.terms.items():
                ta = _numerators(ca.terms, da)
                for kb, tb in b_nums:
                    _mul_into(ctx, acc.setdefault(key_mul(ka, kb), {}), ta, tb)
            return self._new({key: Multivector(ctx, _divided(t, D))
                              for key, t in acc.items() if t})
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
        out: Dict[Hashable, Multivector] = {}
        for key, mv in self.terms.items():
            exps = self._split_key(key)[0]
            for i in indices:
                n = exps[i]
                if n >= by:
                    new = self._with_exps(key, exps[:i] + (n - by,) + exps[i + 1:])
                    self._acc(out, new, mv * perm(n, by))
        return self._new(out)

    def partial(self, i: int):
        """Scalar derivative d/dx_{i+1} (0-based index)."""
        return self._lowered(1, (i,))

    def dirac(self):
        """Left Dirac operator sum_i e_i d/dx_i; dirac(dirac(p)) = -laplacian(p)."""
        ctx, split_key, with_exps = self.ctx, self._split_key, self._with_exps
        (D,) = _denominators(mv.terms for mv in self.terms.values())
        acc: Dict[Hashable, Dict[int, Scalar]] = {}
        for key, mv in self.terms.items():
            exps = split_key(key)[0]
            nums = _numerators(mv.terms, D)
            for i, n in enumerate(exps):
                if n:   # blade 2 << i is e_{i+1}
                    new = with_exps(key, exps[:i] + (n - 1,) + exps[i + 1:])
                    _mul_into(ctx, acc.setdefault(new, {}), {2 << i: n}, nums)
        return self._new({key: Multivector(ctx, _divided(t, D))
                          for key, t in acc.items() if t})

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
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    # -- operators ---------------------------------------------------------------

    def truncate_degree(self, max_degree: int) -> "CliffordPoly":
        """Drop every monomial of degree above max_degree."""
        return CliffordPoly(self.ctx, {exps: mv for exps, mv in self.terms.items()
                                       if sum(exps) <= max_degree})


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
