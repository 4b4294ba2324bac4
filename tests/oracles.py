"""Slow reference helpers shared by several test modules.

They are independent of the fast paths the package uses: direct power
series next to the spectral (Sylvester) evaluation, the spatial degrees
read straight off a body's keys, and the sparse term engine's operators
computed term by term on Multivector coefficients instead of stored
integer numerators.
"""

from fractions import Fraction

from paradirac.algebra import Multivector, split
from paradirac.scalars import GaussianRational
from paradirac.zeta import PowerSeries, ZetaElement


def exp_series(n_terms=60):
    """Taylor coefficients of exp(w) up to w^n_terms."""
    coeffs = [Fraction(1)]
    for n in range(1, n_terms + 1):
        coeffs.append(coeffs[-1] / n)
    return PowerSeries(coeffs)


def hyp0f1_series(gamma, n_terms=60):
    """0F1(gamma; w) = sum w^n / (n! (gamma)_n) up to w^n_terms."""
    coeffs = [Fraction(1)]
    g = Fraction(gamma) if isinstance(gamma, int) else gamma
    for n in range(1, n_terms + 1):
        coeffs.append(coeffs[-1] / (n * (g + n - 1)))
    return PowerSeries(coeffs)


def series_eval(psi, z, L):
    """sum_{n<=L} psi_n (zeta* zeta)^n by direct Cl(1,1) powers."""
    w = z.star_zeta()
    power = ZetaElement.identity()
    total = ZetaElement.zero()
    for n, cn in enumerate(psi.coeffs[: L + 1]):
        if n:
            power = power * w
        if cn:
            total = total + power.scale(cn)
    return total


def spatial_degrees(F):
    """Sorted total spatial degrees of the terms of a space-time function."""
    return sorted({sum(exps) for exps, _, _ in F.terms})


# -- per-term Multivector oracles for the sparse term engine ---------------------
#
# Each takes and returns a {(exps, n, lambda): Multivector} mapping, the .terms
# of a space-time body (a CliffordPoly's keys are widened with as_spacetime),
# and computes with plain Multivector and Fraction arithmetic term by term.
# Blade sums run in the order the engine's loops use, so that float values
# come out bit for bit alike.


def as_spacetime(terms):
    """A CliffordPoly's terms keyed (exps, 0, 0)."""
    return {(exps, 0, 0): mv for exps, mv in terms.items()}


def termwise(contributions):
    """Sum (key, Multivector) pairs with Multivector additions, dropping zero sums."""
    out = {}
    for key, mv in contributions:
        out[key] = out[key] + mv if key in out else mv
    return {k: mv for k, mv in out.items() if not mv.is_zero()}


def _lowered(exps, i, by):
    return exps[:i] + (exps[i] - by,) + exps[i + 1:]


def o_add(a, b):
    return termwise([*a.items(), *b.items()])


def o_neg(a):
    return {key: -mv for key, mv in a.items()}


def o_scale(a, c):
    return termwise((key, mv * c) for key, mv in a.items())


def o_div(a, c):
    return termwise((key, mv / c) for key, mv in a.items())


def o_lmul(a, c):
    return termwise((key, c * mv) for key, mv in a.items())


def o_rmul(a, c):
    return termwise((key, mv * c) for key, mv in a.items())


def o_mul(ctx, a, b):
    """Product: every pair of terms, blade products summed one at a time."""
    acc = {}
    for (ea, na, la), ca in a.items():
        for (eb, nb, lb), cb in b.items():
            key = (tuple(x + y for x, y in zip(ea, eb)), na + nb,
                   la + lb if la + lb else 0)
            out = acc.setdefault(key, {})
            for ma, va in ca.terms.items():
                for mb, vb in cb.terms.items():
                    mask, sign = ctx.blade_mul(ma, mb)
                    v = vb * va if sign > 0 else -(vb * va)
                    s = out.get(mask, 0) + v
                    if s:
                        out[mask] = s
                    else:
                        out.pop(mask, None)
    return {key: Multivector(ctx, t) for key, t in acc.items() if t}


def o_partial(a, i):
    return termwise(((_lowered(exps, i, 1), n, lam), mv * exps[i])
                    for (exps, n, lam), mv in a.items() if exps[i])


def o_dirac(ctx, a):
    return termwise(((_lowered(exps, i, 1), n, lam), ctx.e(i + 1) * (mv * exps[i]))
                    for (exps, n, lam), mv in a.items()
                    for i in range(ctx.m) if exps[i])


def o_laplacian(ctx, a):
    return termwise(((_lowered(exps, i, 2), n, lam), mv * (exps[i] * (exps[i] - 1)))
                    for (exps, n, lam), mv in a.items()
                    for i in range(ctx.m) if exps[i] > 1)


def o_d_dt(a):
    contributions = []
    for (exps, n, lam), mv in a.items():
        if n:
            contributions.append(((exps, n - 1, lam), mv * n))
        if lam != 0:
            contributions.append(((exps, n, lam), mv * lam))
    return termwise(contributions)


def o_split(a):
    """The four component mappings, algebra.split applied term by term."""
    outs = ({}, {}, {}, {})
    for key, mv in a.items():
        parts = split(mv)
        for out, comp in zip(outs, (parts.f0, parts.f1, parts.f2, parts.f3)):
            if not comp.is_zero():
                out[key] = comp
    return outs


def o_evaluate(ctx, a, point, t):
    """Value of the lambda = 0 terms at an exact point: sum of c * x^exps * t^n."""
    total = ctx.zero()
    for (exps, n, lam), mv in a.items():
        if lam == 0:
            w = Fraction(1)
            for x, e in zip(point, exps):
                w *= Fraction(x) ** e
            total = total + mv * (w * Fraction(t) ** n)
    return total


EXACT_TYPES = (int, Fraction, GaussianRational)


def exact_values(*maps):
    """Every coefficient value of the given term mappings is exact."""
    return all(type(v) in EXACT_TYPES for terms in maps
               for mv in terms.values() for v in mv.terms.values())


def assert_matches(got, want, exact):
    """got (a {key: Multivector} mapping) equals the oracle's want.

    Exact operands: equal values, each an int, Fraction or GaussianRational,
    and a GaussianRational exactly where the oracle has one.  Inexact
    operands: the same type and repr per blade, bit for bit.  Either way
    no key is empty and no stored value is zero.
    """
    for mv in got.values():
        assert mv.terms and all(v != 0 for v in mv.terms.values())
    if not exact:
        assert typed(got) == typed(want)
        return
    assert got == want
    for key, mv in got.items():
        for mask, v in mv.terms.items():
            assert type(v) in EXACT_TYPES
            assert isinstance(v, GaussianRational) == isinstance(
                want[key].terms[mask], GaussianRational)


def typed(terms):
    """Per key and blade, (type name, repr) of the coefficient."""
    return {key: {b: (type(v).__name__, repr(v)) for b, v in mv.terms.items()}
            for key, mv in terms.items()}
