"""The accuracy bound of float builds.

A float is a dyadic rational, so the input of a float build converts to
an exact input exactly (oracles.dyadic), and the exact build of that
input is the series the float build approximates.  Every coefficient of
a float build, and every coefficient of the exact build that the float
one lacks, lies within

    C (L+1) 2^-52 * scale

of the exact value: scale is the largest |coefficient| of the exact
body, times kappa(zeta) = max|entry of zeta| * max|entry of zeta^-1| for
gen-invertible, whose coefficients Q_l carry zeta^-1, and times the
spread of the eigenvalues of xi for a Sylvester build, whose formula
divides by their gap.  L is the number of levels less one.  The same C
holds for the builders (levels expanded by radial_series) and for the
stage constructions of oracles.py (series summed stage by stage on the
powers rho^{2l} M), so both float constructions are held to one stated
bound.  A Sylvester build is
compared with the exact "direct" build: the spectral formula evaluates
the same weights.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (EPS, chain_parabolic_closed, chain_parabolic_recurrence,
                     dyadic_body, dyadic_zeta, max_error, scale_of,
                     stage_generalized, stage_helmholtz)
from paradirac.algebra import AlgebraContext
from paradirac.builders import (build_generalized, build_helmholtz,
                                build_parabolic_closed,
                                build_parabolic_recurrence)
from paradirac.harmonics import harmonic_basis, monogenic_basis
from paradirac.poly import TimeFunction
from paradirac.zeta import BRANCH_TOL, ZetaElement

C = 2
SERIES_MODES = ("gen-monogenic", "gen-factored", "gen-invertible",
                "helmholtz", "sylvester")

# the command-line bench's float zeta entries, +-k/100 for k = 1..200, and
# complex ones with such parts
real_entry = st.builds(lambda s, k: s * k / 100, st.sampled_from((1, -1)),
                       st.integers(1, 200))
entry = st.one_of(real_entry, st.builds(complex, real_entry, real_entry))


def kappa(z: ZetaElement) -> float:
    return (max(abs(v) for v in z.entries())
            * max(abs(v) for v in z.invert().entries()))


def spread(z: ZetaElement) -> float:
    """max(1, |l+| + |l-|) / |l+ - l-| of the eigenvalues l+-, by which the
    Sylvester formula divides; 1 on its confluent branch, which divides by
    nothing."""
    lp, lm = z.eigenvalues_xi()
    size, gap = max(1.0, abs(lp) + abs(lm)), abs(lp - lm)
    return size / gap if gap >= BRANCH_TOL * size else 1.0


def assert_within(body, exact, L, factor=1.0):
    bound = C * (L + 1) * EPS * scale_of(exact) * factor
    assert max_error(body, exact) <= bound


def check_series(mode, heads, z, L):
    """The float build of mode and its stage construction against the
    exact build of the same input."""
    zx = dyadic_zeta(z)
    if mode in ("helmholtz", "sylvester"):
        radial = "direct" if mode == "helmholtz" else "sylvester"
        sol = build_helmholtz(heads, z, L, radial)
        stage = stage_helmholtz(heads, z, L, radial)
        exact = build_helmholtz(heads, zx, L).body
    else:
        form = mode[4:]
        sol = build_generalized(heads, z, L, form)
        stage = stage_generalized(heads, z, L, form)
        exact = build_generalized(heads, zx, L, form).body
    assert not sol.exact and sol._radial is None
    factor = {"gen-invertible": kappa, "sylvester": spread}.get(
        mode, lambda z: 1.0)(z)
    assert_within(sol.body, exact, L, factor)
    assert_within(stage, exact, L, factor)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_float_series_builds_are_within_the_bound(data):
    m = data.draw(st.integers(1, 3), label="m")
    mode = data.draw(st.sampled_from(SERIES_MODES), label="mode")
    z = ZetaElement(*data.draw(st.tuples(*[entry] * 4), label="zeta"))
    if mode == "gen-invertible" and not z.is_invertible():
        mode = "gen-monogenic"
    L = data.draw(st.integers(0, 8), label="L")
    basis = harmonic_basis if mode in ("helmholtz", "sylvester") else monogenic_basis
    ctx = AlgebraContext(m)
    ks = data.draw(st.lists(st.sampled_from([k for k in range(3) if basis(ctx, k)]),
                            min_size=1, max_size=2), label="degrees")
    heads = [data.draw(st.sampled_from(basis(ctx, k))) for k in ks]
    check_series(mode, heads, z, L)


def test_float_series_builds_of_the_pinned_grid_are_within_the_bound():
    # the zeta of the pinned float evaluations: rational, Gaussian and
    # defective (one repeated eigenvalue of xi)
    zetas = [ZetaElement(0.5, -1.0, 0.75, 2.0), ZetaElement(1.0, 2.0, 0.5, 1.0),
             ZetaElement(complex(1, 0.5), 0j, complex(-1, 2 / 3), complex(1, 1)),
             ZetaElement(2.0, 1.0, 1.0, 0.0)]
    for z in zetas:
        for mode in SERIES_MODES[:2] + SERIES_MODES[2 + (not z.is_invertible()):]:
            for m, k, L in ((1, 0, 4), (2, 1, 3), (3, 2, 2)):
                basis = harmonic_basis if mode in ("helmholtz", "sylvester") \
                    else monogenic_basis
                check_series(mode, [basis(AlgebraContext(m), k)[-1]], z, L)


def test_a_one_level_sylvester_build_is_within_the_bound():
    # psi_0 is the constant 1: through the spectral formula it rounds to
    # 1 + 4.5e-16 on this zeta, past the bound's 4.4e-16
    z = ZetaElement(complex(-1.08, 1.08), -0.55, complex(1.08, 1.08),
                    complex(-1.08, 1.08))
    check_series("sylvester", harmonic_basis(AlgebraContext(1), 0), z, 0)


# parabolic profiles: a float polynomial, a float exponential, or both
LAMBDAS = (-1.0, 0.5, -2.0, 1j, complex(-0.5, 1))


def float_profile(data, ctx, label):
    kind = data.draw(st.sampled_from(("poly", "exp", "mix")), label=label)
    tf = TimeFunction.zero(ctx)
    if kind != "exp":
        tf = tf + TimeFunction.polynomial(ctx, data.draw(
            st.lists(real_entry, min_size=1, max_size=6)))
    if kind != "poly":
        tf = tf + TimeFunction.term(ctx, data.draw(entry), n=data.draw(
            st.integers(0, 2)), lam=data.draw(st.sampled_from(LAMBDAS)))
    return tf


def levels(profiles, L):
    """L, or the highest power of t for polynomial profiles."""
    if all(p.is_polynomial() for p in profiles):
        return max([0] + [p.max_n() for p in profiles])
    return L


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_float_parabolic_builds_are_within_the_bound(data):
    m = data.draw(st.integers(1, 3), label="m")
    ctx = AlgebraContext(m)
    k = data.draw(st.sampled_from([k for k in range(3) if monogenic_basis(ctx, k)]),
                  label="k")
    M = data.draw(st.sampled_from(monogenic_basis(ctx, k)), label="head")
    L = data.draw(st.integers(0, 8), label="L")
    if data.draw(st.booleans(), label="closed"):
        a = float_profile(data, ctx, "a")
        sol = build_parabolic_closed(M, a, L)
        chain = chain_parabolic_closed(M, a, L)
        exact = build_parabolic_closed(M, dyadic_body(a), L).body
        n = levels([a], L)
    else:
        seeds = {name: float_profile(data, ctx, name) for name in sorted(data.draw(
            st.sets(st.sampled_from(("a0", "b0", "a2", "b2")), min_size=1),
            label="seeds"))}
        sol = build_parabolic_recurrence(M, seeds, L)
        chain = chain_parabolic_recurrence(M, seeds, L)
        exact = build_parabolic_recurrence(
            M, {name: dyadic_body(p) for name, p in seeds.items()}, L).body
        n = levels(list(seeds.values()), L)
    assert not sol.exact and sol._radial is None
    assert_within(sol.body, exact, n)
    assert_within(chain, exact, n)


def test_a_float_closed_build_keeps_its_top_derivative():
    # a truncated closed build's top f level holds a^(L+1): without it the
    # float body would lack a whole term of the exact Sum chain
    ctx = AlgebraContext(2)
    M = monogenic_basis(ctx, 1)[0]
    a = TimeFunction.term(ctx, 1.0, lam=-1.0)
    for L in (0, 2, 5):
        exact = chain_parabolic_closed(M, dyadic_body(a), L)
        assert_within(build_parabolic_closed(M, a, L).body, exact, L)
