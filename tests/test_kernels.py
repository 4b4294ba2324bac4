"""The one-pass kernels of exact parabolic jobs against their Sum chains.

An exact body's D F and split conditions are read off its integer rows in
one pass (poly.parabolic_rows and condition_rows), and a parabolic level
is one product of integer rows (poly.products).  Each is checked here
against the chain of Sum stages it replaced (oracles.sum_parabolic_dirac,
sum_conditions and ladder_body): equal values, each of the type the
chain gives it.  Exact equality of bodies over different denominators
is checked against the subtraction it replaced.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (form_chains, ladder_body, sum_conditions, sum_parabolic_dirac,
                     typed)
from paradirac.algebra import AlgebraContext, Multivector
from paradirac.builders import build_parabolic_closed, build_parabolic_recurrence
from paradirac.harmonics import monogenic_basis
from paradirac.poly import SpaceTimeFunction, TimeFunction
from paradirac.scalars import GaussianRational
from paradirac.timefn import parabolic_dirac
from paradirac.verify import (_conditions, check_component_conditions,
                              check_factorization, perturb_component)

CONTEXTS = {m: AlgebraContext(m) for m in (1, 2, 3, 4)}
small_q = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3, 6)))
NUMERATORS = {
    "int": st.integers(-3, 3),
    "rational": small_q,
    "gaussian": st.builds(GaussianRational, small_q, small_q),
}
LAMBDAS = st.sampled_from((0, 0, 0, Fraction(-1), Fraction(1, 2), Fraction(-2, 3),
                           1, GaussianRational(0, 1),
                           GaussianRational(Fraction(1, 2), Fraction(-1, 3))))


@st.composite
def bodies(draw, m):
    """An exact body of Cl(1, m+1): t^n up to n = 4, a few lambdas, any
    blade, and numerators of one kind, over few keys so that terms
    collide."""
    ctx = CONTEXTS[m]
    kind = draw(st.sampled_from(sorted(NUMERATORS)))
    blades = st.integers(0, (1 << (m + 2)) - 1)
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        key = (tuple(draw(st.integers(0, 3)) for _ in range(m)),
               draw(st.integers(0, 4)), draw(LAMBDAS))
        mv = Multivector(ctx, {draw(blades): draw(NUMERATORS[kind])
                               for _ in range(draw(st.integers(1, 3)))})
        mv = Multivector(ctx, {b: v for b, v in mv.terms.items() if v})
        terms[key] = terms[key] + mv if key in terms else mv
    return SpaceTimeFunction(ctx, {k: mv for k, mv in terms.items() if not mv.is_zero()})


def assert_same_values(got, want):
    assert type(got) is type(want)
    assert typed(got.terms) == typed(want.terms)
    assert got == want and want == got


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_pass_D_is_its_sum_chain(data):
    F = data.draw(bodies(data.draw(st.integers(1, 4), label="m")), label="F")
    assert_same_values(parabolic_dirac(F), sum_parabolic_dirac(F))
    # D squares to -(Laplacian - d_t): the one-pass D checked against the
    # heat operator's Sum, one sample at a time
    assert check_factorization(F.ctx, [F]).passed


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_pass_conditions_are_their_sum_chains(data):
    F = data.draw(bodies(data.draw(st.integers(1, 4), label="m")), label="F")
    got = _conditions(F)
    assert len(got) == 4
    for R, want in zip(got, sum_conditions(F)):
        assert_same_values(R, want)


def _exact_build(data, m):
    """An exact closed or recurrence build on small polynomial profiles,
    and its profiles in SEEDS order (the closed build's a alone)."""
    ctx = CONTEXTS[m]
    k = data.draw(st.sampled_from([k for k in range(3) if monogenic_basis(ctx, k)]),
                  label="k")
    basis = monogenic_basis(ctx, k)
    M = basis[data.draw(st.integers(0, len(basis) - 1), label="head")]
    profile = st.lists(st.one_of(st.integers(-2, 2), small_q), min_size=1,
                       max_size=4).map(lambda c: TimeFunction.polynomial(ctx, c))
    if data.draw(st.booleans(), label="closed"):
        a = data.draw(profile, label="a")
        return build_parabolic_closed(M, a), M, [a]
    seeds = {name: data.draw(profile, label=name) for name in ("a0", "b0", "a2", "b2")
             if data.draw(st.booleans(), label=f"has {name}")}
    profiles = [seeds.get(name) for name in ("a0", "b0", "a2", "b2")]
    return build_parabolic_recurrence(M, seeds), M, profiles


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_component_flags_of_mutants_are_the_sum_chains(data):
    m = data.draw(st.integers(1, 4), label="m")
    sol, _, _ = _exact_build(data, m)
    exps = [0] * m
    for _ in range(data.draw(st.integers(0, 3), label="degree")):
        exps[data.draw(st.integers(0, m - 1), label="axis")] += 1
    coeff = data.draw(st.one_of(st.integers(-3, 3), small_q), label="coeff")
    blade = 2 * data.draw(st.integers(0, (1 << m) - 1), label="blade")
    mutant = perturb_component(sol, data.draw(st.integers(0, 3), label="slot"), exps,
                               Multivector(CONTEXTS[m], {blade: coeff} if coeff else {}))
    rep = check_component_conditions(mutant)
    flags = [R.is_zero() for R in sum_conditions(mutant.body)]
    dirac_zero = sum_parabolic_dirac(mutant.body).is_zero()
    assert rep.detail == {
        "cond_f1": flags[0], "cond_f3": flags[1], "heat_f0": flags[2],
        "heat_f2": flags[3], "dirac_zero": dirac_zero,
        "equivalent": all(flags) == dirac_zero}
    assert rep.detail["equivalent"]
    assert rep.passed == (all(flags) and dirac_zero)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_parabolic_levels_are_their_sum_chain(data):
    m = data.draw(st.integers(1, 3), label="m")
    sol, M, profiles = _exact_build(data, m)
    ((_, _, P, Q),) = sol._radial
    # a closed build sums its P_l M as apply_0F1's series; the oracle sums
    # them from the levels, as a recurrence build does
    assert_same_values(sol.body, ladder_body(M, P, Q, form_chains(sol, profiles)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_exact_equality_is_the_zero_difference(data):
    m = data.draw(st.integers(1, 3), label="m")
    F = data.draw(bodies(m), label="F")
    G = data.draw(bodies(m), label="G")
    # the same values as F over another denominator, and F plus a term
    X = data.draw(bodies(m), label="X")
    same = (F + X) - X
    for a, b in ((F, G), (F, same), (same, F), (F, F + G), (G, same)):
        assert (a == b) == (b == a) == (a - b).is_zero()
