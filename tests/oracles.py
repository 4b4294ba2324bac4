"""Slow reference helpers shared by several test modules.

They are independent of the fast paths the package uses: direct power
series next to the spectral (Sylvester) evaluation, and the spatial
degrees read straight off a body's keys.
"""

from fractions import Fraction

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
