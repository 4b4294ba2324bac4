import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paradirac.algebra import (AlgebraContext, AlgebraMismatchError,
                               Multivector, split, witt_basis)
from paradirac.scalars import GaussianRational

rng = random.Random(20815)


def random_mv(ctx, r=rng, sparse=3):
    terms = {}
    for _ in range(r.randint(1, sparse)):
        mask = r.randrange(1 << (ctx.m + 2))
        c = r.randint(-6, 6)
        if c:
            terms[mask] = terms.get(mask, 0) + c
    return Multivector(ctx, {k: v for k, v in terms.items() if v})


# -- generator relations -------------------------------------------------------


@pytest.mark.parametrize("m", range(1, 7))
def test_generator_relations(m):
    ctx = AlgebraContext(m)
    gens = [ctx.eps()] + [ctx.e(j) for j in range(1, m + 2)]
    assert (gens[0] * gens[0]) == 1
    for g in gens[1:]:
        assert (g * g) == -1
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            assert (gens[i] * gens[j] + gens[j] * gens[i]).is_zero()


def test_blade_product_oracles():
    ctx = AlgebraContext(3)
    e1, e2 = ctx.e(1), ctx.e(2)
    assert e1 * e2 == ctx.blade([1, 2])
    assert e2 * e1 == ctx.blade([1, 2], -1)
    assert ctx.blade([1, 2]) * ctx.blade([1, 2]) == -1
    # eps commutes past itself with +1 square
    assert ctx.eps() * ctx.blade([0, 1]) == e1


def test_blade_label_roundtrip():
    ctx = AlgebraContext(3)
    for mask in range(1 << 5):
        assert ctx.blade_from_label(ctx.blade_label(mask)) == mask
    with pytest.raises(ValueError):
        ctx.blade_from_label("e9")


@pytest.mark.parametrize("names", [
    names for size in (2, 3)
    for names in itertools.permutations(("eps", "e1", "e2", "e4"), size)])
def test_blade_from_label_reads_only_canonical_labels(names):
    # a label in another order would lose the sign of the generators'
    # product ("e2e1" is -e1e2), so it is refused, naming the canonical one
    ctx = AlgebraContext(3)
    label = "".join(names)
    product = ctx.one()
    for name in names:
        product = product * (ctx.eps() if name == "eps" else ctx.e(int(name[1:])))
    (mask, value), = product.terms.items()
    canonical = ctx.blade_label(mask)
    if label == canonical:
        assert value == 1 and ctx.blade_from_label(label) == mask
    else:
        with pytest.raises(ValueError, match=f"write '{canonical}'"):
            ctx.blade_from_label(label)


@pytest.mark.parametrize("label", ["", "e", "x", "e1x", "e 1", "e+1", "e1e1",
                                   "epseps", "e5", "e0", "e01", "1e1"])
def test_blade_from_label_rejects_malformed_labels(label):
    with pytest.raises(ValueError):
        AlgebraContext(3).blade_from_label(label)


def test_context_mismatch_raises():
    a = AlgebraContext(2).e(1)
    b = AlgebraContext(3).e(1)
    with pytest.raises(AlgebraMismatchError):
        a * b


# -- algebra laws -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_associativity_hypothesis(data):
    ctx = AlgebraContext(data.draw(st.integers(1, 3)))
    n = 1 << (ctx.m + 2)
    mv = st.dictionaries(st.integers(0, n - 1),
                         st.integers(-4, 4).filter(bool), max_size=3)
    a, b, c = (Multivector(ctx, data.draw(mv)) for _ in range(3))
    assert ((a * b) * c - a * (b * c)).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_involution_antihomomorphism(data):
    # main involution is an algebra automorphism: (uv)* = u* v*
    ctx = AlgebraContext(data.draw(st.integers(1, 3)))
    n = 1 << (ctx.m + 2)
    mv = st.dictionaries(st.integers(0, n - 1),
                         st.integers(-4, 4).filter(bool), max_size=3)
    u, v = (Multivector(ctx, data.draw(mv)) for _ in range(2))
    assert ((u * v).involution() - u.involution() * v.involution()).is_zero()


def textbook_product(ctx, a, b):
    """a * b from generator words, without the package's blade tables.

    Each blade is its ascending list of generator indices (0 = eps). The
    concatenated word is bubble-sorted, one sign flip per swap of distinct
    generators, and then each adjacent repeat cancels to its square:
    eps^2 = +1, e_j^2 = -1.
    """
    out = {}
    for ma, va in a.terms.items():
        for mb, vb in b.terms.items():
            word = [i for i in range(ctx.n_gen) if ma >> i & 1]
            word += [i for i in range(ctx.n_gen) if mb >> i & 1]
            sign = 1
            for end in range(len(word) - 1, 0, -1):
                for j in range(end):
                    if word[j] > word[j + 1]:
                        word[j], word[j + 1] = word[j + 1], word[j]
                        sign = -sign
            mask, j = 0, 0
            while j < len(word):
                if j + 1 < len(word) and word[j] == word[j + 1]:
                    sign *= 1 if word[j] == 0 else -1
                    j += 2
                else:
                    mask |= 1 << word[j]
                    j += 1
            out[mask] = out.get(mask, 0) + sign * (va * vb)
    return {mask: v for mask, v in out.items() if v != 0}


small = st.integers(-3, 3)
exact_scalars = st.one_of(
    small, st.builds(Fraction, small, st.integers(1, 4)),
    st.builds(GaussianRational, st.builds(Fraction, small, st.integers(1, 3)),
              small))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_product_matches_textbook_oracle(data):
    ctx = AlgebraContext(data.draw(st.integers(1, 3)))
    n = 1 << (ctx.m + 2)
    mv = st.dictionaries(st.integers(0, n - 1), exact_scalars.filter(bool),
                         max_size=4)
    a, b = (Multivector(ctx, data.draw(mv)) for _ in range(2))
    assert (a * b).terms == textbook_product(ctx, a, b)


def test_involution_grade_signs():
    ctx = AlgebraContext(3)
    for mask in range(1 << 5):
        u = Multivector(ctx, {mask: 1})
        sign = -1 if mask.bit_count() % 2 else 1
        assert u.involution() == Multivector(ctx, {mask: sign})


def test_distributivity_random():
    ctx = AlgebraContext(4)
    for _ in range(50):
        a, b, c = (random_mv(ctx) for _ in range(3))
        assert (a * (b + c) - (a * b + a * c)).is_zero()


def test_fraction_and_float_scalars():
    ctx = AlgebraContext(2)
    u = ctx.e(1) * Fraction(1, 3)
    assert (u * 3) == ctx.e(1)
    v = ctx.e(2) * 0.5
    assert (v + v) == ctx.e(2) * 1.0


# -- Witt pair and split form --------------------------------------------------


@pytest.mark.parametrize("m", range(1, 7))
def test_witt_relations(m):
    ctx = AlgebraContext(m)
    f, fdag = witt_basis(ctx)
    assert (f * f).is_zero()
    assert (fdag * fdag).is_zero()
    assert f * fdag + fdag * f == 1
    assert f - fdag == ctx.e(m + 1)
    assert f + fdag == -ctx.eps()


def test_split_oracles():
    ctx = AlgebraContext(2)
    f, fdag = witt_basis(ctx)
    s = split(fdag * f)
    assert (s.f0, s.f1, s.f2, s.f3) == (ctx.one(), ctx.zero(), ctx.zero(),
                                        -ctx.one())
    s = split(f * ctx.e(2))
    assert (s.f0, s.f1, s.f2, s.f3) == (ctx.zero(), ctx.e(2), ctx.zero(),
                                        ctx.zero())
    s = split(f * fdag)
    assert (s.f0, s.f3) == (ctx.zero(), ctx.one())


def test_split_components_avoid_top_generators():
    # components must live in the e_1..e_m subalgebra
    ctx = AlgebraContext(3)
    for _ in range(40):
        u = random_mv(ctx)
        s = split(u)
        for comp in (s.f0, s.f1, s.f2, s.f3):
            for mask in comp.terms:
                assert mask & 1 == 0                       # no eps
                assert mask >> (ctx.m + 1) & 1 == 0        # no e_{m+1}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_split_reassemble_roundtrip(m):
    ctx = AlgebraContext(m)
    for _ in range(60):
        u = random_mv(ctx)
        assert split(u).reassemble() == u


def test_split_linearity():
    ctx = AlgebraContext(2)
    u, v = random_mv(ctx), random_mv(ctx)
    su, sv, suv = split(u), split(v), split(u + v)
    assert suv.f0 == su.f0 + sv.f0
    assert suv.f3 == su.f3 + sv.f3
