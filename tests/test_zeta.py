import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exp_series, hyp0f1_series, series_eval
from paradirac.algebra import AlgebraContext, split
from paradirac.scalars import GaussianRational
from paradirac.zeta import (IntMatrix, NotInvertibleError, PowerSeries,
                            ZetaElement, radial_weights, sylvester_eval)

rng = random.Random(77001)

CTX = AlgebraContext(1)


def random_zeta(r=rng, span=3):
    return ZetaElement(*(r.randint(-span, span) for _ in range(4)))


def max_entry_diff(u, v):
    return max(abs(complex(a) - complex(b))
               for a, b in zip(u.entries(), v.entries()))


# -- algebra of the (a, b, c, d) quadruples ----------------------------------


def test_multivector_homomorphism():
    # the quadruple product must track the Clifford product of
    # a ff' + b f + c f' + d f'f
    for _ in range(60):
        u, v = random_zeta(), random_zeta()
        lhs = (u * v).to_multivector(CTX)
        rhs = u.to_multivector(CTX) * v.to_multivector(CTX)
        assert (lhs - rhs).is_zero()


def zeta_from_multivector(mv):
    """Inverse of to_multivector; requires a pure Cl(1,1) element."""
    parts = split(mv)
    comps = (parts.f0, parts.f1, parts.f2, parts.f3)
    for comp in comps:
        if any(mask for mask in comp.terms):
            raise ValueError("multivector has components outside Cl(1,1)")
    s0, s1, s2, s3 = (comp.terms.get(0, 0) for comp in comps)
    # u = s0 + f s1 + fdag s2 + f fdag s3 with 1 = f fdag + fdag f
    return ZetaElement(s0 + s3, s1, s2, s0)


def test_from_multivector_roundtrip():
    for _ in range(40):
        z = random_zeta()
        assert zeta_from_multivector(z.to_multivector(CTX)) == z


def test_from_multivector_rejects_foreign_blades():
    ctx = AlgebraContext(2)
    with pytest.raises(ValueError):
        zeta_from_multivector(ctx.e(1))


def test_involution_matches_multivector_involution():
    for _ in range(40):
        z = random_zeta()
        lhs = z.involution().to_multivector(CTX)
        rhs = z.to_multivector(CTX).involution()
        assert (lhs - rhs).is_zero()


def test_star_zeta_equals_xi_squared():
    for _ in range(40):
        z = random_zeta()
        assert z.star_zeta() == z.xi() * z.xi()


def test_star_zeta_off_diagonal_case():
    # (0, lam, 1, 0) has involution-product -lam * identity
    lam = Fraction(-3)
    z = ZetaElement(0, lam, 1, 0)
    assert z.star_zeta() == ZetaElement.identity().scale(-lam)


def test_identity_and_inverse():
    one = ZetaElement.identity()
    for _ in range(40):
        z = random_zeta()
        assert z * one == z and one * z == z
        if z.is_invertible():
            zi = z.invert()
            assert z * zi == one
            assert zi * z == one


def test_self_inverse_element():
    w = ZetaElement(0, 1, 1, 0)
    assert w.invert() == w


def test_not_invertible():
    z = ZetaElement(1, 2, 2, 4)
    assert z.det() == 0
    with pytest.raises(NotInvertibleError):
        z.invert()
    # and the error doubles as ZeroDivisionError for generic handlers
    with pytest.raises(ZeroDivisionError):
        z.invert()


def test_eigenvalues_sum_and_product():
    for _ in range(60):
        z = random_zeta()
        lp, lm = z.eigenvalues_xi()
        a, b, c, d = z.entries()
        assert cmath.isclose(lp + lm, a - d, abs_tol=1e-12)
        assert cmath.isclose(lp * lm, b * c - a * d, abs_tol=1e-12)


def test_eigenvalues_defective_family_collapse_exactly():
    # d = -a with c = 0 makes the discriminant (a+d)^2 - 4bc vanish in
    # exact IEEE arithmetic, so both roots coincide bit for bit
    for a, b in ((0.3, 1.0), (-1.7, 0.25), (2.0, -3.0)):
        lp, lm = ZetaElement(a, b, 0.0, -a).eigenvalues_xi()
        assert lp == lm == a


# -- scalar power series ------------------------------------------------------


def test_power_series_exp():
    psi = exp_series()
    assert math.isclose(psi(1.0), math.e, rel_tol=1e-14)
    assert math.isclose(psi(-2.5), math.exp(-2.5), rel_tol=1e-13)


def test_power_series_hyp0f1_matches_cosh():
    # 0F1(1/2; w^2/4) = cosh(w)
    psi = hyp0f1_series(Fraction(1, 2))
    for w in (0.5, 1.0, 2.0):
        assert math.isclose(psi(w * w / 4), math.cosh(w), rel_tol=1e-13)


def test_power_series_derivative():
    psi = PowerSeries([1, 2, 3])          # 1 + 2w + 3w^2
    dpsi = psi.derivative()
    assert dpsi(2.0) == 2 + 12.0


# -- Sylvester evaluation ------------------------------------------------------


def test_sylvester_diagonal_oracle():
    # xi eigenvalues of (2,0,0,1) are 2 and -1; exp of the square gives
    # entries exp(4) and exp(1) on the diagonal
    z = ZetaElement(2.0, 0.0, 0.0, 1.0)
    out = sylvester_eval(exp_series(), z)
    assert math.isclose(out.a.real, math.exp(4), rel_tol=1e-12)
    assert math.isclose(out.d.real, math.exp(1), rel_tol=1e-12)
    assert abs(out.b) < 1e-12 and abs(out.c) < 1e-12


def test_sylvester_matches_series_random():
    psi = exp_series()
    for _ in range(40):
        z = ZetaElement(*(rng.uniform(-1.2, 1.2) for _ in range(4)))
        syl = sylvester_eval(psi, z)
        ser = series_eval(psi, z, 60)
        scale = max(1.0, max(abs(complex(v)) for v in ser.entries()))
        assert max_entry_diff(syl, ser) / scale < 1e-12


def test_sylvester_defective_branch():
    psi = exp_series()
    for a, b in ((0.4, 1.3), (-0.9, 2.0), (1.5, -0.7)):
        z = ZetaElement(a, b, 0.0, -a)
        syl = sylvester_eval(psi, z)
        ser = series_eval(psi, z, 80)
        scale = max(1.0, max(abs(complex(v)) for v in ser.entries()))
        assert max_entry_diff(syl, ser) / scale < 1e-10


@pytest.mark.parametrize("coeffs", [[1.0], [0.75, 0.0, 0.0], [2], []])
def test_sylvester_of_a_constant_series_is_exact(coeffs):
    # the spectral formula rounds even a constant: on this zeta it gave
    # 1.0000000000000004 - 5.55e-17j for the constant 1
    z = ZetaElement(complex(-1.08, 1.08), -0.55, complex(1.08, 1.08),
                    complex(-1.08, 1.08))
    c = complex(coeffs[0]) if coeffs else 0j
    got = sylvester_eval(PowerSeries(coeffs), z).entries()
    assert got == (c, 0j, 0j, c)
    assert all(type(v) is complex for v in got)


def test_series_eval_identity_argument():
    # psi applied to the zero quadruple is psi(0) * identity
    psi = exp_series()
    out = series_eval(psi, ZetaElement.zero(), 10)
    assert out == ZetaElement.identity()


def test_gaussian_rational_entries_survive():
    z = ZetaElement(GaussianRational(1, 1), Fraction(0), Fraction(0),
                    GaussianRational(1, -1))
    assert z.is_exact()
    zz = z.star_zeta()
    assert zz.is_exact()


# -- IntMatrix: exact elements on integer numerators ----------------------------


small_q = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
exact_entry = st.one_of(st.integers(-3, 3), small_q,
                        st.builds(GaussianRational, small_q, small_q))
exact_zetas = st.builds(ZetaElement, exact_entry, exact_entry, exact_entry,
                        exact_entry)


def value(w: IntMatrix) -> ZetaElement:
    """The exact element an IntMatrix stands for."""
    def one(n):
        if type(n) is tuple:
            return GaussianRational(Fraction(n[0], w.q), Fraction(n[1], w.q))
        return Fraction(n, w.q)
    return ZetaElement(*map(one, w.entries))


def assert_pairs_only_where_not_real(w: IntMatrix):
    """Each entry is an int, or a pair exactly when its imaginary part is
    nonzero."""
    for n in w.entries:
        assert type(n) is int or (type(n) is tuple and len(n) == 2
                                  and all(type(x) is int for x in n) and n[1])


@settings(max_examples=150, deadline=None)
@given(exact_zetas, exact_zetas, st.integers(-5, 5), st.integers(1, 6))
def test_int_matrix_arithmetic_matches_zeta_element(z, w, p, q):
    Z, W = IntMatrix.of(z), IntMatrix.of(w)
    assert value(Z) == z and Z.q > 0
    assert value(Z * W) == z * w
    assert value(Z.hat()) == z.involution()
    assert value(Z.scale(p, q)) == z.scale(Fraction(p, q))
    assert value(Z.reduced()) == z and Z.reduced() == Z
    assert (Z == W) == (z == w)
    assert Z.scale(2, 2) == Z
    assert (Z.scale(-1) == Z) == z.is_zero()
    for v in (Z, Z * W, Z.hat() * Z, Z * Z.hat(), Z.scale(p, q), Z.reduced(),
              *radial_weights(Z, Fraction(3, 2), 3)):
        assert_pairs_only_where_not_real(v)
    if z.is_invertible():
        assert value(Z.inverse()) == z.invert()
        assert_pairs_only_where_not_real(Z.inverse() * W)
    else:
        with pytest.raises(ZeroDivisionError):
            Z.inverse()


def test_int_matrix_entries_are_pairs_only_where_not_real():
    Z = IntMatrix.of(ZetaElement(GaussianRational(1, 0), Fraction(1, 2), 0,
                                 GaussianRational(3, Fraction(1, 3))))
    assert Z.entries == (6, 3, 0, (18, 2)) and Z.q == 6
    # products whose imaginary parts cancel are ints: i i = -1 and
    # (18 + 2i)(9 - i) = 164
    I = IntMatrix.of(ZetaElement(GaussianRational(0, 1), 0, 0, GaussianRational(0, 1)))
    assert (I * I).entries == (-1, 0, 0, -1)
    W = IntMatrix.of(ZetaElement(1, 0, 0, GaussianRational(3, Fraction(-1, 3))))
    assert W.entries == (3, 0, 0, (9, -1)) and (Z * W).entries[3] == 164
    assert IntMatrix(((0, 2), 0, 0, 4), 6).reduced().entries == ((0, 1), 0, 0, 2)
    for w in (Z, I * I, Z * W, Z.hat(), Z.scale(-2, 3), Z.inverse(), Z * W.inverse()):
        assert_pairs_only_where_not_real(w)
