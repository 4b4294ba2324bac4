"""Exact calculus in the time variable and space-time expressions.

Time profiles live in span{t^n e^{lambda t}}, the smallest class closed
under d/dt that contains polynomials and exponentials. The operator
symbol s = d/dt therefore acts exactly: s never needs an inverse here,
because the hypergeometric operator series below only ever applies
nonnegative powers of s to the profile.

SpaceTimeFunction combines the spatial polynomial engine with that time
class: terms are indexed by (exponents, n, lambda) with a left
Multivector coefficient.  It shares the Dirac, Laplace and partial
operators of the engine and owns d/dt; the parabolic operator
D = d_x + f d_t + fdag is built from them.  TimeFunction is its
x-independent slice.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Dict, Sequence, Tuple

from .algebra import AlgebraContext, Multivector, split, witt_basis
from .poly import CliffordPoly, SparseTerms, rho_powers
from .scalars import Scalar

SpaceTimeKey = Tuple[Tuple[int, ...], int, Scalar]


def _norm_lambda(lam: Scalar) -> Scalar:
    # canonical zero so polynomial and exponential keys never alias
    return lam if lam else 0


class SpaceTimeFunction(SparseTerms):
    """Sum of c * x^alpha * t^n * e^{lambda t} with left Multivector c."""

    __slots__ = ()

    @staticmethod
    def _key_mul(a: SpaceTimeKey, b: SpaceTimeKey) -> SpaceTimeKey:
        return (tuple(map(add, a[0], b[0])), a[1] + b[1],
                _norm_lambda(a[2] + b[2]))

    @staticmethod
    def _split_key(key: SpaceTimeKey) -> SpaceTimeKey:
        return key

    @staticmethod
    def _with_exps(key: SpaceTimeKey, exps) -> SpaceTimeKey:
        return exps, key[1], key[2]

    @classmethod
    def from_poly(cls, p: CliffordPoly,
                  tf: "TimeFunction | None" = None) -> "SpaceTimeFunction":
        """p(x) * a(t); with tf omitted the profile is the constant 1."""
        F = cls(p.ctx, {(exps, 0, 0): mv for exps, mv in p.terms.items()})
        return F if tf is None else F * tf

    # -- inspection --------------------------------------------------------

    def is_polynomial(self) -> bool:
        """No exponential factor e^{lambda t} with lambda != 0."""
        return all(lam == 0 for _, _, lam in self.terms)

    def max_n(self) -> int:
        return max((n for _, n, _ in self.terms), default=0)

    # -- operators ----------------------------------------------------------------

    def d_dt(self) -> "SpaceTimeFunction":
        """Exact derivative: c t^n e^{lt} -> c n t^{n-1} e^{lt} + c l t^n e^{lt}."""
        out: Dict[SpaceTimeKey, Multivector] = {}
        for (exps, n, lam), mv in self.terms.items():
            if n:
                self._acc(out, (exps, n - 1, lam), mv * n)
            if lam != 0:
                self._acc(out, (exps, n, lam), mv * lam)
        return self._new(out)

    def split(self):
        """Four component functions (F0, F1, F2, F3), coefficients in Cl(0,m)."""
        outs = ({}, {}, {}, {})
        for key, mv in self.terms.items():
            parts = split(mv)
            for out, comp in zip(outs, (parts.f0, parts.f1, parts.f2, parts.f3)):
                if not comp.is_zero():
                    out[key] = comp
        return tuple(self._new(d) for d in outs)


class TimeFunction(SpaceTimeFunction):
    """The x-independent slice: a finite sum of c * t^n * e^{lambda t}."""

    __slots__ = ()

    @classmethod
    def term(cls, ctx: AlgebraContext, coeff, n: int = 0, lam: Scalar = 0) -> "TimeFunction":
        """Single term c*t^n*e^{lam t}; coeff may be a scalar or Multivector."""
        if n < 0:
            raise ValueError("t exponent must be >= 0")
        return cls._single(ctx, ((0,) * ctx.m, n, _norm_lambda(lam)), coeff)

    @classmethod
    def polynomial(cls, ctx: AlgebraContext, coeffs: Sequence[Scalar]) -> "TimeFunction":
        """Polynomial sum coeffs[n] * t^n."""
        zero_exps = (0,) * ctx.m
        return cls(ctx, {(zero_exps, n, 0): ctx.scalar(c)
                         for n, c in enumerate(coeffs) if c})

    def evaluate(self, t: Scalar) -> Multivector:
        return super().evaluate((0,) * self.ctx.m, t)


def assemble_split(f0, f1, f2, f3) -> SpaceTimeFunction:
    """F0 + f*F1 + fdag*F2 + f*fdag*F3 for SpaceTimeFunction components."""
    ctx = f0.ctx
    f, fdag = witt_basis(ctx)
    return f0 + f1.lmul(f) + f2.lmul(fdag) + f3.lmul(f * fdag)


def parabolic_dirac(F: SpaceTimeFunction) -> SpaceTimeFunction:
    """D F = d_x F + f d_t F + fdag F."""
    f, fdag = witt_basis(F.ctx)
    return F.dirac() + F.d_dt().lmul(f) + F.lmul(fdag)


def heat_residual(F: SpaceTimeFunction) -> SpaceTimeFunction:
    """(Delta - d_t) F; D squares to the negative of this operator."""
    return F.laplacian() - F.d_dt()


def apply_0F1(gamma, base: CliffordPoly, a: TimeFunction, L: int) -> SpaceTimeFunction:
    """Operator series 0F1(gamma; rho^2 s / 4) applied to base(x) * a(t).

    Returns sum_{l} rho^{2l} * base * a^{(l)}(t) / (4^l l! (gamma)_l).
    For a polynomial profile the series terminates by itself (the l-th
    derivative dies); otherwise it is truncated at l = L.
    """
    if gamma <= 0 and (isinstance(gamma, int) or (isinstance(gamma, Fraction) and gamma.denominator == 1)):
        raise ValueError(f"0F1 pole: gamma = {gamma} is a nonpositive integer")
    if L < 0:
        raise ValueError("truncation must be >= 0")
    last = a.max_n() if a.is_polynomial() else L
    total = SpaceTimeFunction.zero(base.ctx)
    deriv = a               # a^{(l)}
    # integer gamma would otherwise fall into float division below
    weight: Scalar = Fraction(1) if isinstance(gamma, (int, Fraction)) else 1
    # spatial = rho^{2l} * base
    for l, spatial in zip(range(last + 1), rho_powers(base)):
        if deriv.is_zero():
            break
        if l:
            weight = weight / (4 * l * (gamma + l - 1))
        total = total + SpaceTimeFunction.from_poly(spatial, deriv).scale(weight)
        deriv = deriv.d_dt()
    return total
