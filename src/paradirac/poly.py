"""The sparse term engine: Clifford-valued functions of x_1..x_m and t.

SpaceTimeFunction is the one body class: a sum of terms
c x^alpha t^n e^{lambda t}, keyed (alpha, n, lambda) with a left
Multivector coefficient c, zero coefficients never stored.  It owns the
whole linear structure, the coefficient products and the one set of
operators (partial, dirac, laplacian, d/dt, evaluate).  A polynomial in
x is the slice n = 0, lambda = 0, whose readers (degree, is_homogeneous,
truncate_degree) count spatial exponents only; TimeFunction is the
x-independent slice.

Storage rule.  An exact body (every coefficient an int, Fraction or
GaussianRational) is stored as {key: {blade: numerator}} over one shared
positive int denominator D.  A numerator is an integer pair (re, im)
where the value's imaginary part is nonzero and an int otherwise, and no
numerator is zero; so an exact value is read back as an int when
integral, a Fraction when rational and a GaussianRational only when it
is not real.  Every loop over numerators takes ints and pairs alike: it
tests a value for a tuple and does pair arithmetic only there (the
algebra kernels, which keep the rule).  An inexact body (some float or
complex value) is stored as its raw values with D = None.  The rule is
one of exact bodies: an inexact body keeps its exact raw values as their
own arithmetic makes them, so a Gaussian sum whose imaginary part
cancels stays a GaussianRational there.  Such a value is equal to its
canonical form and serialize writes it as the same bytes.  A body is read
through keys() and coeffs(key), which makes one term's {blade: value}
afresh; .terms, {key: Multivector}, is made afresh on every read.  No
reader hands out a stored row, and no other module reads the numerators.

The accumulator.  Every operator but scale and / (which change D and the
numerators of one body) and the one-pass kernels below, and every sum of
operator results, is built by a Sum: stages, such as a scaled body, a
constant product, dirac, a derivative or a product, each made when it is
recorded and merged at once, in order, into the Sum's own {key: row}
dict over one D; the first stage becomes that dict.  While
every stage is exact, a stage whose denominator divides D is made with
its numerators already multiplied by D / (its denominator); one that
needs a larger D first multiplies the accumulator's own rows, in place,
up to the lcm.  From the first inexact stage on the rows are raw values,
and each later stage is turned into raw values, scaled and merged, as
the binary operators do.  value() hands the dict over as the body and
leaves the Sum spent, so no later stage changes a body it returned.

The one-pass kernels.  The exact parabolic jobs make no Sum and no
intermediate body.  D = d_x + f d/dt + fdag and the four split-form
conditions read an exact body's rows once and write integer numerators
straight into their results (parabolic_rows, condition_rows; the heat
operator alone keeps its Sum, as the independent side of verify's
factorization check): 2 f = e_{m+1} - eps and
2 fdag = -(e_{m+1} + eps), and left multiplication by a blade is a
signed permutation of the blades (mul_row), so every image of a term is
an integer multiple of a permuted row, over 2 D.  products sums a
parabolic level, each head's rows times one integer time row, and ==
cross-multiplies the numerators of two exact bodies over different
denominators.  Raw values take the Sum chains.

The radial expander.  Every series the builders make, float ones
included, is sum_l rho^{2l} p_l over one small body p_l per level: w_l p
with a Cl(1,1) weight w_l (radial_product; a zeta.IntMatrix, laid out on
the blades by its own blades(), for exact input, a zeta.ZetaElement
otherwise) for a generalized or Helmholtz series, and for a parabolic
one the level's heads c_i M and c_i x M times their integer time rows,
one products call per level on exact input.  radial_series adds each term
of p_l under every shift x^{2j}, |j| = l, of its spatial exponents,
times the integer multinomial l!/prod j_i! (rho_terms): rho^{2l} is a
scalar, so no output term needs a Clifford product and no power of rho^2
is made.  The shifted exponent tuples come from a memo, _shifted, keyed
on (exponents, l) alone, never on a coefficient, n or lambda; it lists
them in rho_terms order and holds each distinct tuple once, so a warm
call makes the body a cold one makes, term order included.  Exact levels
are written at one denominator, straight into one accumulator, which can
be a body its caller gives up (the closed parabolic build's M block); a
series with any inexact level is summed on raw values by the same loop,
head by head.

Order guarantee.  A body built by a Sum has the values, the term order
and the blade order of the left-to-right chain of binary operators it
stands for, and on raw values the same float operations in the same
order.  A body from a one-pass kernel has the values, and the scalar
type of each, of the Sum chain it replaced (tests/oracles.py keeps
those chains), in a term order, blade order and D of its own.  A body
from radial_series of exact levels has the values, and
the scalar type of each, of the chain that multiplies each level by the
powers rho^{2l}, in a term order, blade order and D of its own.  No
pinned output reads these of an exact body: the solution JSON sorts
terms and blades, an exact residual is not sampled, and eval reads a
loaded file.  A float body from radial_series makes its float operations
in an order of its own, so its contract is an accuracy bound, not bits:
each coefficient lies within a small multiple of (L+1) 2^-52 times the
coefficient scale of the exact series built from the same input, each
float read as the dyadic rational it is (tests/test_accuracy.py states
the multiple and the scale per build).

The Multivector coefficient sits to the LEFT of the (commuting, scalar)
monomial. All noncommutativity therefore lives inside coefficient
products: the Dirac operator acts by left multiplication with e_i, so
identities like x c = c* x for Cl(1,1)-valued c come out of the blade
product itself and never need a separate rewriting pass.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, gcd, lcm, perm
from operator import add
from typing import Dict, Hashable, Iterator, Optional, Sequence, Tuple

from .algebra import (AlgebraContext, AlgebraMismatchError, Multivector,
                      Numerator, _mul_blade_into, _mul_into, _nadd, _nmul,
                      _nneg, _ratio, _split_blades)
from .scalars import Exact, GaussianRational, Scalar, is_exact
from .zeta import ZetaElement

Exponents = Tuple[int, ...]
SpaceTimeKey = Tuple[Exponents, int, Scalar]
# {key: {blade: numerator or raw value}}
Rows = Dict[Hashable, Dict[int, Scalar]]

# the types of exact values; a subclass such as bool is not one
_EXACT_TYPES = (int, Fraction, GaussianRational)


# -- numerators --------------------------------------------------------------


def _to_numerators(values: Rows) -> Tuple[Rows, Optional[int]]:
    """(numerators, D) of {key: {blade: value}} with no zero value.

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
            row[mask] = n if q == D else _nmul(n, D // q)
    return out, D


def _reduced(nums: Rows, D: Optional[int]) -> Tuple[Rows, Optional[int]]:
    """nums and D with their common factor divided out; raw values (D None)
    as they are."""
    if D is None or D == 1:
        return nums, D
    g = D
    for vals in nums.values():
        for n in vals.values():
            g = gcd(g, n) if type(n) is int else gcd(g, *n)
            if g == 1:
                return nums, D
    return {key: {mask: n // g if type(n) is int else (n[0] // g, n[1] // g)
                  for mask, n in vals.items()}
            for key, vals in nums.items()}, D // g


def _value(n: Numerator, D: int) -> Exact:
    """The value n / D: an int, a Fraction or, for a pair, a GaussianRational."""
    if type(n) is tuple:
        g = GaussianRational.__new__(GaussianRational)
        g.re, g.im = Fraction(n[0], D), Fraction(n[1], D)
        return g
    if D == 1:
        return n
    q, r = divmod(n, D)
    return Fraction(n, D) if r else q


def _valued(nums: Rows, D: int) -> Rows:
    """{key: {blade: value}} of numerators over D, fresh rows."""
    return {key: {mask: _value(n, D) for mask, n in vals.items()}
            for key, vals in nums.items()}


def _rounded(n: Numerator, D: int) -> Scalar:
    """n / D rounded once, as float() and complex() round its value; the
    exact value where it is beyond the float range."""
    try:
        if type(n) is tuple:
            return complex(n[0] / D, n[1] / D)
        return n / D
    except OverflowError:
        return _value(n, D)


# -- row kernels ---------------------------------------------------------------
#
# Each loop takes int numerators, integer pairs and raw values; it tests a
# value for a tuple and does pair arithmetic (_nmul, _nadd) only there.


def _scaled(vals: Dict[int, Scalar], f) -> Dict[int, Scalar]:
    """{blade: v * f}, dropping products that vanish."""
    out = {}
    for mask, v in vals.items():
        s = v * f if type(v) is not tuple and type(f) is not tuple else _nmul(v, f)
        if s:
            out[mask] = s
    return out


def _has_pairs(rows: Rows) -> bool:
    """Whether some numerator of rows is an integer pair."""
    return tuple in map(type, chain.from_iterable(map(dict.values, rows.values())))


def _merge(out: Rows, key, t: Dict[int, Scalar]) -> None:
    """out[key] += t in place, dropping blades and the key when they vanish;
    t itself becomes the row of a new key."""
    s = out.get(key)
    if s is None:
        if t:
            out[key] = t
        return
    for mask, v in t.items():
        r = s.get(mask, 0)
        r = r + v if type(r) is not tuple and type(v) is not tuple else _nadd(r, v)
        if r:
            s[mask] = r
        else:
            s.pop(mask, None)
    if not s:
        del out[key]


# -- the accumulator -------------------------------------------------------------


class Sum:
    """scale_1 op_1(body_1) + scale_2 op_2(body_2) + ..., merged as recorded.

    Each method makes one stage and merges it at once into the Sum's own
    accumulator (see the module docstring) and returns the Sum; value()
    hands the accumulator over as a SpaceTimeFunction, or a TimeFunction
    when every operand is one, and leaves the Sum spent: a later stage or
    value() raises ValueError.  A stage without a scale adds its terms as
    they are; on raw values the int scale -1 negates each value, as unary
    minus does, and any other scale multiplies each value, as scale() does.
    """

    __slots__ = ("_cls", "ctx", "_rows", "_D")

    def __init__(self, ctx: AlgebraContext):
        self._cls, self.ctx, self._rows, self._D = None, ctx, {}, 1

    def _check(self, body: "SpaceTimeFunction"):
        if self._rows is None:
            raise ValueError("the Sum is spent: value() was called")
        if body.ctx is not self.ctx and body.ctx != self.ctx:
            raise AlgebraMismatchError("sums over different algebra contexts")
        if type(body) is not TimeFunction:
            self._cls = SpaceTimeFunction
        elif self._cls is None:
            self._cls = TimeFunction

    def _stage(self, Ds: Optional[int], scale, make):
        """Merge make(exact, f), {key: row} of f times the stage's terms (a
        row may be empty), as numerators when exact, else as raw values
        with f = 1.  Ds is the stage's denominator before the scale, None
        for an inexact stage.  A zero scale merges nothing: its stage is
        zero."""
        if scale is None:
            p = 1
        elif not scale:
            return self
        elif Ds is not None and type(scale) in _EXACT_TYPES:
            p, q = _ratio(scale)
            Ds *= q
        else:
            Ds = None
        out, D = self._rows, self._D
        try:
            if Ds is None:
                if D is not None:       # from here on raw values
                    out = self._rows = _valued(out, D)
                    self._D = None
                made = make(False, 1)
                if type(scale) is int and scale == -1:
                    made = {key: {mask: -v for mask, v in vals.items()}
                            for key, vals in made.items()}
                elif scale is not None:
                    made = {key: _scaled(vals, scale) for key, vals in made.items()}
            elif D is None:
                made = _valued(make(True, p), Ds)
            else:
                new = lcm(D, Ds)
                if new != D:            # the accumulator's own rows, rescaled
                    g = new // D
                    for vals in out.values():
                        for mask, n in vals.items():
                            vals[mask] = n * g if type(n) is int else _nmul(n, g)
                    self._D = new
                made = make(True, _nmul(new // Ds, p))
            if out:
                for key, t in made.items():
                    _merge(out, key, t)
            else:               # a first stage becomes the accumulator
                self._rows = {key: t for key, t in made.items() if t}
        except OverflowError:   # an exact value met a float: float() overflowed
            raise ValueError("a sum or product of an exact value and a float "
                             "is beyond the float range") from None
        return self

    # -- stages ----------------------------------------------------------------

    def add(self, body: "SpaceTimeFunction", scale=None) -> "Sum":
        """+ scale * body."""
        self._check(body)

        def make(exact, f):
            rows = body._nums if exact else body._values()
            return {key: dict(vals) if f == 1 else _scaled(vals, f)
                    for key, vals in rows.items()}
        return self._stage(body._D, scale, make)

    def lmul(self, mv: Multivector, body: "SpaceTimeFunction", scale=None) -> "Sum":
        """+ scale * mv * body."""
        return self._const(mv, body, scale, True)

    def rmul(self, mv: Multivector, body: "SpaceTimeFunction", scale=None) -> "Sum":
        """+ scale * body * mv."""
        return self._const(mv, body, scale, False)

    def _const(self, w: Multivector, body: "SpaceTimeFunction", scale,
               left: bool) -> "Sum":
        """w * c (left) or c * w for every coefficient c of body."""
        self._check(body)
        w._check(body)
        ctx = self.ctx
        rows, q = _to_numerators({0: w.terms})
        row = rows[0]

        def make(exact, f):
            k, nums = (_scaled(row, f), body._nums) if exact else (w.terms, body._values())
            if left:
                return {key: _mul_into(ctx, {}, k, vals) for key, vals in nums.items()}
            return {key: _mul_into(ctx, {}, vals, k) for key, vals in nums.items()}
        D = body._D * q if body._D is not None and q is not None else None
        return self._stage(D, scale, make)

    def product(self, a: "SpaceTimeFunction", b: "SpaceTimeFunction",
                scale=None) -> "Sum":
        """+ scale * a * b, the coefficient of a on the left."""
        self._check(a)
        self._check(b)
        ctx = self.ctx

        def make(exact, f):
            ra, rb = (a._nums, b._nums) if exact else (a._values(), b._values())
            b_rows = [(eb, nb, lb, tb if f == 1 else _scaled(tb, f))
                      for (eb, nb, lb), tb in rb.items()]
            out: Rows = {}
            for (ea, na, la), ta in ra.items():
                for eb, nb, lb, tb in b_rows:
                    lam = la + lb   # a canonical zero, as TimeFunction.term's
                    key = (tuple(map(add, ea, eb)), na + nb, lam if lam else 0)
                    t = out.get(key)
                    if t is None:
                        t = out[key] = {}
                    _mul_into(ctx, t, ta, tb)
            return out
        D = a._D * b._D if a._D is not None and b._D is not None else None
        return self._stage(D, scale, make)

    def dirac(self, body: "SpaceTimeFunction", scale=None) -> "Sum":
        """+ scale * sum_i e_i d/dx_i body: left multiplication by e_i is a
        signed permutation of the blades, read from mul_row(e_i)."""
        self._check(body)
        ctx = self.ctx

        def make(exact, f):
            tables = ctx._mul_rows
            out: Rows = {}
            for (exps, n, lam), vals in (body._nums if exact
                                         else body._values()).items():
                for i, e in enumerate(exps):
                    if not e:
                        continue
                    new = (exps[:i] + (e - 1,) + exps[i + 1:], n, lam)
                    t = out.get(new)
                    if t is None:
                        t = out[new] = {}
                    _mul_blade_into(t, tables.get(2 << i) or ctx.mul_row(2 << i),
                                    _nmul(e, f), vals)
            return out
        return self._stage(body._D, scale, make)

    def lowered(self, body: "SpaceTimeFunction", by: int, indices, scale=None) -> "Sum":
        """+ scale * sum over i in indices of n!/(n-by)! c x^(exps - by e_i),
        n = exps[i]: partial derivatives (by = 1) and the Laplacian (by = 2)."""
        self._check(body)

        def make(exact, f):
            out: Rows = {}
            for (exps, n, lam), vals in (body._nums if exact
                                         else body._values()).items():
                for i in indices:
                    e = exps[i]
                    if e >= by:
                        new = (exps[:i] + (e - by,) + exps[i + 1:], n, lam)
                        _merge(out, new, _scaled(vals, _nmul(perm(e, by), f)))
            return out
        return self._stage(body._D, scale, make)

    def laplacian(self, body: "SpaceTimeFunction", scale=None) -> "Sum":
        return self.lowered(body, 2, range(self.ctx.m), scale)

    def d_dt(self, body: "SpaceTimeFunction", scale=None) -> "Sum":
        """+ scale * d/dt body: c t^n e^{lt} -> c n t^{n-1} e^{lt} + c l t^n e^{lt}.

        On numerators over D the derivative has denominator D * Q, Q the
        lcm of the denominators of the lambdas, so n contributes n Q and
        lambda = p / q contributes p Q / q.
        """
        self._check(body)
        lams = {lam for _, _, lam in body._nums if lam != 0}
        exact = body.time_numerators()
        D = None if exact is None else body._D * exact[0]

        def make(exact_stage, f):
            if exact_stage:
                Q, lam_factor = exact
                rows, nq = body._nums, _nmul(Q, f)
                lf = {lam: _nmul(c, f) for lam, c in lam_factor.items()}
            else:
                rows, nq, lf = body._values(), 1, {lam: lam for lam in lams}
            out: Rows = {}
            for (exps, n, lam), vals in rows.items():
                if n:
                    _merge(out, (exps, n - 1, lam), _scaled(vals, _nmul(n, nq)))
                if lam != 0:
                    _merge(out, (exps, n, lam), _scaled(vals, lf[lam]))
            return out
        return self._stage(D, scale, make)

    # -- the result ------------------------------------------------------------

    def value(self) -> "SpaceTimeFunction":
        """The sum, the accumulator itself; the Sum is spent."""
        if self._rows is None:
            raise ValueError("the Sum is spent: value() was called")
        rows, self._rows = self._rows, None
        return (self._cls or SpaceTimeFunction)._make(self.ctx, rows, self._D)


# -- one-pass kernels ----------------------------------------------------------
#
# See the module docstring.  d/dt of c t^n e^{lt} is n c t^{n-1} + l c, with
# l = p / Q over the lcm Q of the lambdas' denominators (time_numerators).
# An accumulate function adds to out[new]; its _pairs twin takes pairs too.


def _acc(out: Rows, new, row, k, src: Dict[int, Scalar]) -> None:
    """out[new] += k e src, row the mul_row of the blade e (None: e = 1),
    on ints."""
    t = out.get(new)
    if t is None:
        t = out[new] = {}
    if row is None:
        for mb, v in src.items():
            r = t.get(mb, 0) + v * k
            if r:
                t[mb] = r
            else:
                t.pop(mb, None)
        return
    for mb, v in src.items():
        mask, sign = row[mb]
        r = t.get(mask, 0) + (v * k if sign > 0 else -v * k)
        if r:
            t[mask] = r
        else:
            t.pop(mask, None)


def _acc_pairs(out: Rows, new, row, k, src: Dict[int, Scalar]) -> None:
    if row is None:
        _merge(out, new, _scaled(src, k))
    else:
        _mul_blade_into(out.setdefault(new, {}), row, k, src)


def _kernel(F: "SpaceTimeFunction"):
    """(Q, {lambda: p}, plain) of an exact body with exact lambdas, plain
    when every numerator and p is an int; else None."""
    t = F.time_numerators()
    if t is None:
        return None
    return (*t, all(type(p) is int for p in t[1].values()) and not _has_pairs(F._nums))


def _heat_into(out: Rows, key, src, Q: int, lam_num, acc) -> None:
    """out += Q (Delta - d/dt) src x^a t^n e^{lt}, key = (a, n, l)."""
    exps, n, lam = key
    for i, e in enumerate(exps):
        if e > 1:
            acc(out, (exps[:i] + (e - 2,) + exps[i + 1:], n, lam), None,
                e * (e - 1) * Q, src)
    if n:
        acc(out, (exps, n - 1, lam), None, -n * Q, src)
    if lam != 0:
        acc(out, key, None, _nneg(lam_num[lam]), src)


def _body(F: "SpaceTimeFunction", out: Rows, D: int) -> "SpaceTimeFunction":
    return F._new({key: t for key, t in out.items() if t}, D)


def parabolic_rows(F: "SpaceTimeFunction") -> Optional["SpaceTimeFunction"]:
    """D F of an exact body, over 2 D Q, or None: 2 fdag c + 2 f l c at a
    term's own key, 2 f n c at t^{n-1} and 2 a_i e_i c at x^{a - e_i}."""
    setup = _kernel(F)
    if setup is None:
        return None
    Q, lam_num, plain = setup
    acc = _acc if plain else _acc_pairs
    ctx = F.ctx
    top, eps = ctx.mul_row(1 << (ctx.m + 1)), ctx.mul_row(1)
    rows = [ctx.mul_row(2 << i) for i in range(ctx.m)]
    own = {lam: (_nadd(p, -Q), _nneg(_nadd(p, Q))) for lam, p in lam_num.items()}
    own[0] = (-Q, -Q)
    out: Rows = {}
    for key, vals in F._nums.items():
        exps, n, lam = key
        k_top, k_eps = own[lam]
        acc(out, key, top, k_top, vals)
        acc(out, key, eps, k_eps, vals)
        if n:
            new = (exps, n - 1, lam)
            acc(out, new, top, n * Q, vals)
            acc(out, new, eps, -n * Q, vals)
        for i, e in enumerate(exps):
            if e:
                acc(out, (exps[:i] + (e - 1,) + exps[i + 1:], n, lam), rows[i],
                    2 * Q * e, vals)
    return _body(F, out, F._D * 2 * Q)


def condition_rows(F: "SpaceTimeFunction") -> Optional[list]:
    """F1 + d_x F0, F3 + F0 - d_x F2, (Delta - d/dt) F0 and
    (Delta - d/dt) F2 of an exact body F = F0 + f F1 + fdag F2 + f fdag F3,
    each over D Q, or None.  Each term is split once (as split() splits
    it) and its components are mapped into the four bodies; no component
    body is made."""
    setup = _kernel(F)
    if setup is None:
        return None
    Q, lam_num, plain = setup
    acc = _acc if plain else _acc_pairs
    ctx = F.ctx
    rows = [ctx.mul_row(2 << i) for i in range(ctx.m)]
    c1, c3, h0, h2 = outs = ({}, {}, {}, {})
    for key, vals in F._nums.items():
        exps, n, lam = key
        f0, f1, f2, f3 = _split_blades(ctx, vals)
        if f1:
            acc(c1, key, None, Q, f1)
        if f3:
            acc(c3, key, None, Q, f3)
        if f0:
            acc(c3, key, None, Q, f0)
            _heat_into(h0, key, f0, Q, lam_num, acc)
        if f2:
            _heat_into(h2, key, f2, Q, lam_num, acc)
        if f0 or f2:
            for i, e in enumerate(exps):
                if e:
                    new = (exps[:i] + (e - 1,) + exps[i + 1:], n, lam)
                    if f0:
                        acc(c1, new, rows[i], e * Q, f0)
                    if f2:
                        acc(c3, new, rows[i], -e * Q, f2)
    return [_body(F, out, F._D * Q) for out in outs]


# -- bodies -----------------------------------------------------------------------


class SpaceTimeFunction:
    """Sum of c * x^alpha * t^n * e^{lambda t} with left Multivector c,
    keyed (alpha, n, lambda); value semantics."""

    __slots__ = ("ctx", "_nums", "_D")

    def __init__(self, ctx: AlgebraContext, terms: Dict[SpaceTimeKey, Multivector]):
        self.ctx = ctx
        rows = {}
        for key, mv in terms.items():
            vals = {mask: v for mask, v in mv.terms.items() if v}
            if vals:
                rows[key] = vals
        self._nums, self._D = _to_numerators(rows)

    @classmethod
    def _make(cls, ctx: AlgebraContext, nums: Rows, D: Optional[int]):
        """Body from numerators over D, or from raw values for D None."""
        self = cls.__new__(cls)
        self.ctx, self._nums, self._D = ctx, nums, D
        return self

    def _new(self, nums: Rows, D: Optional[int]):
        """A body of this type from rows like this body's, over D."""
        return type(self)._make(self.ctx, nums, D)

    @property
    def terms(self) -> Dict[SpaceTimeKey, Multivector]:
        """{key: Multivector}, made afresh on every read."""
        return {key: Multivector(self.ctx, self.coeffs(key)) for key in self._nums}

    def keys(self):
        """The term keys (exponents, n, lambda), a read-only view of the
        stored ones."""
        return self._nums.keys()

    def blades(self) -> set:
        """The blades of every term's coefficient; no value is made."""
        return {mask for vals in self._nums.values() for mask in vals}

    def coeffs(self, key) -> Dict[int, Scalar]:
        """{blade: value} of one term, a fresh dict: the numerators' values,
        or a copy of the raw values."""
        D, vals = self._D, self._nums[key]
        if D is None:
            return dict(vals)
        return {mask: _value(n, D) for mask, n in vals.items()}

    def _values(self) -> Rows:
        """{key: {blade: value}}: the stored raw values, or the values of the
        numerators; the rows are read, never changed."""
        return self._nums if self._D is None else _valued(self._nums, self._D)

    # -- construction --------------------------------------------------------

    @classmethod
    def zero(cls, ctx: AlgebraContext):
        return cls._make(ctx, {}, 1)

    @classmethod
    def _single(cls, ctx: AlgebraContext, key, coeff):
        """One term from a Multivector or plain scalar coefficient."""
        mv = coeff if isinstance(coeff, Multivector) else ctx.scalar(coeff)
        return cls(ctx, {key: mv})

    @classmethod
    def constant(cls, ctx: AlgebraContext, coeff):
        """Constant function from a Multivector or plain scalar."""
        return cls._single(ctx, ((0,) * ctx.m, 0, 0), coeff)

    @classmethod
    def monomial(cls, ctx: AlgebraContext, exps: Sequence[int], coeff):
        """coeff * x^exps."""
        exps = tuple(exps)
        if len(exps) != ctx.m or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent tuple {exps!r} for m={ctx.m}")
        return cls._single(ctx, (exps, 0, 0), coeff)

    # -- inspection -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._nums

    def is_exact(self) -> bool:
        # raw values left by an inexact operand may all be exact
        if self._D is None and not all(is_exact(v) for vals in self._nums.values()
                                       for v in vals.values()):
            return False
        return all(is_exact(lam) for _, _, lam in self._nums)

    def term_max_abs(self, key) -> float:
        """max over the blades of one term of |value|, each value rounded
        once (n / D on numerators): no Fraction is made."""
        D, vals = self._D, self._nums[key]
        if D is None:
            return max(abs(complex(v)) for v in vals.values())
        return max(abs(n) / D if type(n) is int else abs(complex(n[0] / D, n[1] / D))
                   for n in vals.values())

    def max_abs(self) -> float:
        return max(map(self.term_max_abs, self._nums), default=0.0)

    def is_finite(self) -> bool:
        """True when no coefficient and no lambda is an infinity or a NaN."""
        values = [lam for _, _, lam in self._nums]
        if self._D is None:     # raw values; numerators over D are ints
            values += [v for vals in self._nums.values() for v in vals.values()]
        return all(cmath.isfinite(v) for v in values
                   if isinstance(v, (float, complex)))

    def degree(self) -> int:
        """Total spatial degree; -1 for the zero body."""
        return max((sum(exps) for exps, _, _ in self._nums), default=-1)

    def is_homogeneous(self) -> bool:
        """Every term of one total spatial degree."""
        return len({sum(exps) for exps, _, _ in self._nums}) <= 1

    def is_polynomial(self) -> bool:
        """No exponential factor e^{lambda t} with lambda != 0."""
        return all(lam == 0 for _, _, lam in self._nums)

    def max_n(self) -> int:
        return max((n for _, n, _ in self._nums), default=0)

    def __eq__(self, other):
        """Equal values.  Exact bodies hold no zero, so they are equal when
        their keys and blades are and each numerator pair cross-multiplies
        to equal products, which builds no body; raw values subtract."""
        if not isinstance(other, SpaceTimeFunction):
            return NotImplemented
        if self.ctx != other.ctx:
            return False
        a, b, Da, Db = self._nums, other._nums, self._D, other._D
        if Da == Db and a == b:
            return True
        if Da is None or Db is None:
            return (self - other).is_zero()
        if Da == Db or a.keys() != b.keys():
            return False
        g = gcd(Da, Db)
        fa, fb = Db // g, Da // g
        for key, va in a.items():
            vb = b[key]
            if va.keys() != vb.keys():
                return False
            for mask, n in va.items():
                x = vb[mask]
                if (n * fa != x * fb if type(n) is int and type(x) is int
                        else _nmul(n, fa) != _nmul(x, fb)):
                    return False
        return True

    def __repr__(self):
        if not self._nums:
            return "0"
        bits = []
        for (exps, n, lam), vals in sorted(
                self._values().items(),
                key=lambda row: (row[0][0], row[0][1], repr(row[0][2]))):
            piece = f"({Multivector(self.ctx, vals)!r})" + "".join(
                f"*x{i + 1}^{e}" if e > 1 else f"*x{i + 1}"
                for i, e in enumerate(exps) if e)
            if n:
                piece += f"*t^{n}"
            if lam != 0:
                piece += f"*exp({lam!r}*t)"
            bits.append(piece)
        return " + ".join(bits)

    # -- linear structure -------------------------------------------------------

    def __add__(self, other):
        """Sum; exact operands are taken to the lcm of their denominators."""
        if not isinstance(other, SpaceTimeFunction):
            return NotImplemented
        return Sum(self.ctx).add(self).add(other).value()

    def __neg__(self):
        return Sum(self.ctx).add(self, -1).value()

    def __sub__(self, other):
        if not isinstance(other, SpaceTimeFunction):
            return NotImplemented
        return Sum(self.ctx).add(self).add(other, -1).value()

    def _times_exact(self, p, q: int) -> "SpaceTimeFunction":
        """Exact body times p / q: the numerators times p, D times q > 0."""
        return self._new(*_reduced({key: _scaled(vals, p) for key, vals
                                    in self._nums.items()}, self._D * q))

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
        return type(self)._make(self.ctx, out, None)

    def scale(self, value: Scalar):
        if value == 0:
            return self._make(self.ctx, {}, 1)
        if self._D is not None and type(value) in _EXACT_TYPES:
            return self._times_exact(*_ratio(value))
        return self._map(lambda v: v * value)

    def lmul(self, mv: Multivector):
        """Left multiplication by a constant Multivector."""
        return Sum(self.ctx).lmul(mv, self).value()

    def rmul(self, mv: Multivector):
        """Right multiplication by a constant Multivector."""
        return Sum(self.ctx).rmul(mv, self).value()

    def __truediv__(self, value: Scalar):
        if self._D is not None and type(value) in _EXACT_TYPES and value:
            return self._times_exact(*_ratio(Fraction(1) / value))
        return self._map(lambda v: v / value)

    def __mul__(self, other):
        """Product; scalars and Multivectors multiply every coefficient.

        For a Multivector right operand the product is p * const(mv);
        use lmul for mv * p since Python routes that through __rmul__.
        """
        if isinstance(other, SpaceTimeFunction):
            p = Sum(self.ctx).product(self, other).value()
            return p._new(*_reduced(p._nums, p._D))
        if isinstance(other, Multivector):
            return self.rmul(other)
        return self.scale(other)

    def __rmul__(self, other):
        if isinstance(other, Multivector):
            return self.lmul(other)
        return self.scale(other)

    # -- operators -------------------------------------------------------------

    def truncate_degree(self, max_degree: int) -> "SpaceTimeFunction":
        """Drop every term of total spatial degree above max_degree."""
        return self._new({key: vals for key, vals in self._nums.items()
                          if sum(key[0]) <= max_degree}, self._D)

    def partial(self, i: int):
        """Scalar derivative d/dx_{i+1} (0-based index)."""
        return Sum(self.ctx).lowered(self, 1, (i,)).value()

    def dirac(self):
        """Left Dirac operator sum_i e_i d/dx_i; dirac(dirac(p)) = -laplacian(p)."""
        return Sum(self.ctx).dirac(self).value()

    def laplacian(self):
        return Sum(self.ctx).laplacian(self).value()

    def d_dt(self) -> "SpaceTimeFunction":
        """Exact derivative: c t^n e^{lt} -> c n t^{n-1} e^{lt} + c l t^n e^{lt}."""
        return Sum(self.ctx).d_dt(self).value()

    def time_numerators(self) -> Optional[Tuple[int, Dict[Scalar, Numerator]]]:
        """(Q, {lambda: lambda Q}) for an exact body whose lambdas are exact:
        Q is the lcm of the lambdas' denominators, so d/dt of the body has
        numerators over D Q, n contributing n Q and lambda its numerator
        lambda Q.  None for raw values or an inexact lambda."""
        lams = {lam for _, _, lam in self._nums if lam != 0}
        if self._D is None or not all(type(lam) in _EXACT_TYPES for lam in lams):
            return None
        ratios = {lam: _ratio(lam) for lam in lams}
        Q = lcm(*(q for _, q in ratios.values()))
        return Q, {lam: _nmul(p, Q // q) for lam, (p, q) in ratios.items()}

    def split(self):
        """Four component functions (F0, F1, F2, F3), coefficients in Cl(0,m)."""
        outs = ({}, {}, {}, {})
        for key, vals in self._nums.items():
            for out, comp in zip(outs, _split_blades(self.ctx, vals)):
                if comp:
                    out[key] = comp
        return tuple(self._new(d, self._D) for d in outs)

    def evaluate(self, point: Sequence[Scalar], t: Scalar = 0) -> Multivector:
        """Value at x = point and time t (complex once some lambda != 0)."""
        return next(self.evaluate_many(((point, t),)))

    def evaluate_many(self, points: Sequence[Tuple[Sequence[Scalar], Scalar]]
                      ) -> Iterator[Multivector]:
        """Values at each (point, t) pair, yielded in order as evaluated.

        The terms are prepared once per call: the distinct (i, d) pairs of
        the monomials, the monomials' distinct prefixes, each a parent
        prefix and one more pair, the distinct complex(lambda), and per
        blade a column of (weight slot, coefficient) in term order.  Each
        point computes every x_i**d once, then the weight of every prefix
        as its parent's weight times one power, so a monomial's weight
        x^exps is the same left-to-right product a term-by-term loop
        makes.  A term without t reads its monomial's weight; a term with
        t gets w = x^exps * t^n * e^{lambda t} in that order.  Each column
        is summed in term order, skipping zero weights.  So a value has
        the same bits whichever batch it is computed in.

        When every coordinate and t of the batch is a float, the exact
        coefficient of each term whose weight varies is rounded once up
        front (n / D on numerators): c * w with a float or complex w
        rounds c in just that way.  The constant term keeps its exact
        coefficient.  A value beyond the float range, or not finite,
        raises ValueError naming the point.
        """
        ctx, m, D = self.ctx, self.ctx.m, self._D
        points = list(points)   # read twice: the float scan, then the values
        floats = all(isinstance(x, float) for point, t in points for x in (*point, t))
        pairs: Dict[Tuple[int, int], int] = {}      # (i, d) -> slot
        prefixes: Dict[Tuple[int, int], int] = {}   # (parent, slot) -> prefix
        steps = []              # per prefix after the empty one: (parent, slot)
        lams: Dict[complex, int] = {}
        timed = []              # per term with t: (prefix, n, lambda index or -1)
        rows = []               # per term: (prefix, index in timed or -1, stored row)
        for (exps, n, lam), vals in self._nums.items():
            wi = 0              # the empty prefix, weight 1
            for i, d in enumerate(exps):
                if d:
                    step = (wi, pairs.setdefault((i, d), len(pairs)))
                    wi = prefixes.get(step)
                    if wi is None:
                        steps.append(step)
                        wi = prefixes[step] = len(steps)
            li = lams.setdefault(complex(lam), len(lams)) if lam != 0 else -1
            ti = -1
            if n or li >= 0:
                ti = len(timed)
                timed.append((wi, n, li))
            rows.append((wi, ti, vals))
        # weight slots: the prefixes' (0 the empty one), then the timed terms'
        first = len(steps) + 1
        cols: Dict[int, list] = {}      # blade -> [(weight slot, coefficient)]
        for wi, ti, vals in rows:
            slot, varies = (first + ti, True) if ti >= 0 else (wi, wi > 0)
            rounds = floats and varies
            for mask, c in vals.items():
                if D is not None:
                    c = _rounded(c, D) if rounds else _value(c, D)
                elif rounds and is_exact(c):
                    # a raw GaussianRational rounds to a complex, as c * w does
                    n, q = _ratio(c)
                    c = _rounded((n, 0) if type(c) is GaussianRational
                                 and not c.im else n, q)
                cols.setdefault(mask, []).append((slot, c))
        ns = {n for _, n, _ in timed if n}
        for point, t in points:
            if len(point) != m:
                raise ValueError(f"point has {len(point)} coordinates, expected {m}")
            try:
                xd = [point[i] ** d for i, d in pairs]
                ws: list = [1]
                for parent, j in steps:
                    ws.append(ws[parent] * xd[j])
                tn = {n: t ** n for n in ns}
                if lams:
                    tc = complex(t)
                    ex = [cmath.exp(lam * tc) for lam in lams]
                for wi, n, li in timed:
                    w = ws[wi]
                    if n:
                        w = w * tn[n]
                    if li >= 0:
                        w = complex(w) * ex[li]
                    ws.append(w)
                out: Dict[int, Scalar] = {}
                for mask, col in cols.items():
                    s: Scalar = 0
                    for wi, c in col:
                        w = ws[wi]
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


class TimeFunction(SpaceTimeFunction):
    """The x-independent slice: a finite sum of c * t^n * e^{lambda t}."""

    __slots__ = ()

    @classmethod
    def term(cls, ctx: AlgebraContext, coeff, n: int = 0, lam: Scalar = 0) -> "TimeFunction":
        """Single term c*t^n*e^{lam t}; coeff may be a scalar or Multivector."""
        if n < 0:
            raise ValueError("t exponent must be >= 0")
        # a canonical zero, so that polynomial and exponential keys never alias
        return cls._single(ctx, ((0,) * ctx.m, n, lam if lam else 0), coeff)

    @classmethod
    def polynomial(cls, ctx: AlgebraContext, coeffs: Sequence[Scalar]) -> "TimeFunction":
        """Polynomial sum coeffs[n] * t^n."""
        zero_exps = (0,) * ctx.m
        return cls(ctx, {(zero_exps, n, 0): ctx.scalar(c)
                         for n, c in enumerate(coeffs) if c})

    def evaluate(self, t: Scalar) -> Multivector:
        return super().evaluate((0,) * self.ctx.m, t)


def vector_variable(ctx: AlgebraContext) -> SpaceTimeFunction:
    """x = sum_i e_i x_i, satisfying x*x = -rho^2."""
    terms = {}
    for i in range(ctx.m):
        exps = tuple(1 if j == i else 0 for j in range(ctx.m))
        terms[exps, 0, 0] = ctx.e(i + 1)
    return SpaceTimeFunction(ctx, terms)


def rho_squared(ctx: AlgebraContext) -> SpaceTimeFunction:
    """rho^2 = sum_i x_i^2 (scalar coefficients)."""
    terms = {}
    for i in range(ctx.m):
        exps = tuple(2 if j == i else 0 for j in range(ctx.m))
        terms[exps, 0, 0] = ctx.one()
    return SpaceTimeFunction(ctx, terms)


@lru_cache(maxsize=None)
def rho_terms(m: int, l: int) -> Tuple[Tuple[Exponents, int], ...]:
    """The terms of rho^{2l} = (x_1^2 + ... + x_m^2)^l: (2j, l!/prod j_i!)
    for every j with |j| = l, made when first asked for."""
    if m == 1:
        return (((2 * l,), 1),)
    return tuple(((2 * j,) + rest, comb(l, j) * c) for j in range(l + 1)
                 for rest, c in rho_terms(m - 1, l - j))


# one object per distinct shifted exponent tuple over all _shifted entries
_EXPONENTS: Dict[Exponents, Exponents] = {}


@lru_cache(maxsize=None)
def _shifted(exps: Exponents, l: int) -> Tuple[Exponents, ...]:
    """exps + 2j for every term (2j, c) of rho^{2l}, in rho_terms order,
    made when first asked for; each distinct tuple is held once."""
    return tuple(_EXPONENTS.setdefault(e, e) for e in (
        tuple(map(add, exps, s)) for s, _ in rho_terms(len(exps), l)))


def radial_product(w, p: SpaceTimeFunction) -> SpaceTimeFunction:
    """The small body w p of a Cl(1,1) weight w and a body p.  An
    exact weight, a zeta.IntMatrix, on an exact p takes one blade product
    of its blades(ctx) per term of p, over p's denominator times the
    weight's; a zeta.ZetaElement weight is p.lmul of its Multivector."""
    ctx = p.ctx
    if isinstance(w, ZetaElement):
        return p.lmul(w.to_multivector(ctx))
    row, q = w.blades(ctx)
    out: Rows = {}
    for key, vals in p._nums.items():
        t = _mul_into(ctx, {}, row, vals)
        if t:
            out[key] = t
    return SpaceTimeFunction._make(ctx, out, p._D * q)


def products(ctx: AlgebraContext, terms, q: int = 1) -> Optional[SpaceTimeFunction]:
    """sum over (a, combination) in terms of a * sum(k p for k, p in
    combination) / q, the coefficient of a on the left: the exact bodies
    a and p, the int or pair numerators k, or None when some body holds
    raw values.

    Each combination is summed first into one row per key of its p (for
    the parabolic levels, a time row), then multiplied out against a's
    rows in one pass, a scalar row by scaling and any other by blade
    products; the result's numerators are over q times the lcm of the
    a's denominators times that of the p's.
    """
    bodies = [a for a, _ in terms] + [p for _, combo in terms for _, p in combo]
    if any(b._D is None for b in bodies):
        return None
    acc = _acc_pairs if any(type(k) is tuple for _, combo in terms for k, _ in combo) \
        or any(_has_pairs(b._nums) for b in bodies) else _acc
    Da = lcm(*(a._D for a, _ in terms))
    Dp = lcm(*(p._D for _, combo in terms for _, p in combo))
    out: Rows = {}
    for a, combo in terms:
        row: Rows = {}
        for k, p in combo:
            f = _nmul(k, Dp // p._D)
            for key, vals in p._nums.items():
                acc(row, key, None, f, vals)
        fa = Da // a._D
        for (eb, nb, lb), tb in row.items():
            if not tb:
                continue
            c = _nmul(tb[0], fa) if len(tb) == 1 and 0 in tb else None
            for (ea, na, la), ta in a._nums.items():
                lam = la + lb
                key = (tuple(map(add, ea, eb)) if any(eb) else ea, na + nb,
                       lam if lam else 0)
                if c is not None:
                    acc(out, key, None, c, ta)
                    continue
                t = out.get(key)
                if t is None:
                    t = out[key] = {}
                _mul_into(ctx, t, ta if fa == 1 else _scaled(ta, fa), tb)
    return SpaceTimeFunction._make(ctx, {key: t for key, t in out.items() if t},
                                   Da * Dp * q)


def radial_series(ctx: AlgebraContext, heads, into=None) -> SpaceTimeFunction:
    """sum over the heads, and over the (l, p) levels of a head, of
    rho^{2l} p: small bodies p, such as the products w_l p of
    radial_product.  into, a body the caller gives up, is taken as a head
    already summed: its rows become the result's, and into is left with
    no storage, so any later use of it raises AttributeError.

    rho^{2l} is a scalar with integer terms (rho_terms), so each term of a
    level is added under every shift x^{2j}, |j| = l, of its spatial
    exponents, times the integer l!/prod j_i!, its time part riding
    along.  The shifted exponents are read from the memo _shifted, keyed
    on the term's exponent tuple and l only, in rho_terms order, so the
    term order does not depend on what the memo holds.  When every
    level is exact (also one that keeps its exact values raw), every level
    of every head is written at one denominator; when any level is
    inexact, every level's values are summed raw (D = None) by the same
    loop.  Exact levels are summed straight into one accumulator; on raw
    values a head is summed on its own and the heads are merged in order,
    as a Sum merges its stages.
    """
    total: Rows = {}
    D0: Optional[int] = 1
    if into is not None:        # consumed: its rows become the result's
        total, D0 = into._nums, into._D
        del into._nums, into._D
    groups = [[(l, *(_to_numerators(p._nums) if p._D is None
                     else (p._nums, p._D))) for l, p in head] for head in heads]
    if D0 is None or any(Dp is None for parts in groups for _, _, Dp in parts):
        D = None
        groups = [[(l, p._values(), 1) for l, p in head] for head in heads]
        if D0 is not None:
            total = _valued(total, D0)
    else:
        D = lcm(D0, *(Dp for parts in groups for _, _, Dp in parts))
        if D != D0:             # into's own rows, rescaled in place
            g = D // D0
            for vals in total.values():
                for mask, n in vals.items():
                    vals[mask] = n * g if type(n) is int else _nmul(n, g)
    m = ctx.m
    # exact levels are written straight into total; pairs anywhere take
    # pair arithmetic throughout (raw values are never pairs)
    pairs = D is not None and any(_has_pairs(rows) for rows in [total] + [
        nums for parts in groups for _, nums, _ in parts])
    for parts in groups:
        out: Rows = {} if D is None else total
        for l, nums, Dp in parts:
            f = 1 if D is None else D // Dp
            cs = [c * f for _, c in rho_terms(m, l)]
            for (exps, n, lam), vals in nums.items():
                items = tuple(vals.items())
                for e, c in zip(_shifted(exps, l), cs):
                    new = (e, n, lam)
                    o = out.get(new)
                    if o is None:
                        out[new] = ({mask: _nmul(v, c) for mask, v in items}
                                    if pairs else {mask: v * c for mask, v in items})
                        continue
                    for mask, v in items:
                        r = (_nadd(o.get(mask, 0), _nmul(v, c)) if pairs
                             else o.get(mask, 0) + v * c)
                        if r:
                            o[mask] = r
                        else:
                            del o[mask]
                    if not o:
                        del out[new]
        if D is not None:
            continue
        # raw values: a head is summed on its own and merged in order
        if total:
            for key, t in out.items():
                _merge(total, key, t)
        else:
            total = out
    return SpaceTimeFunction._make(ctx, total, D)


def integer_rescale(p: SpaceTimeFunction) -> SpaceTimeFunction:
    """Smallest positive rational multiple of p with integer coefficients.

    That is p's numerators divided by their common factor, as plain int
    coefficients (int arithmetic is far cheaper than Fraction in the
    verification sweeps).  Leaves float polynomials untouched.
    """
    if p._D is None or p.is_zero():
        return p
    # over D = 0 the common factor is the numerators' own
    return p._new(_reduced(p._nums, 0)[0], 1)
