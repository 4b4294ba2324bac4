import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paradirac.scalars import GaussianRational, parse_rational

small_fractions = st.builds(Fraction, st.integers(-8, 8), st.sampled_from((1, 2, 3, 4, 8)))
gaussian = st.builds(GaussianRational, small_fractions, small_fractions)
# floats and complexes built from dyadic rationals, so that exact equality
# with a GaussianRational actually occurs
dyadic = st.builds(lambda n, d: n / d, st.integers(-8, 8), st.sampled_from((1, 2, 4, 8)))
values = st.one_of(st.integers(-8, 8), small_fractions, gaussian, dyadic,
                   st.builds(complex, dyadic, dyadic),
                   st.floats(allow_nan=False), st.complex_numbers(allow_nan=False))


def _same_value(v):
    """v again as each scalar type that can hold its complex value."""
    c = complex(v)
    out = [c]
    if math.isfinite(c.real) and math.isfinite(c.imag):
        re, im = Fraction(c.real), Fraction(c.imag)
        out.append(GaussianRational(re, im))
        if not im:
            out += [c.real, re]
    return st.sampled_from(out)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_equal_scalars_hash_alike(data):
    a = data.draw(values)
    b = data.draw(st.one_of(values, _same_value(a)))
    if a == b:
        assert b == a
        assert hash(a) == hash(b)


def test_gaussian_rational_equality_is_exact():
    assert GaussianRational(1, 1) == 1 + 1j
    assert hash(GaussianRational(1, 1)) == hash(1 + 1j)
    assert GaussianRational(Fraction(1, 3)) != 1 / 3
    assert GaussianRational(Fraction(1, 3), 1) != complex(1 / 3, 1)
    assert GaussianRational(Fraction(1, 2), -3) == 0.5 - 3j
    # parts too large for a float still hash
    big = GaussianRational(10 ** 400, 1)
    assert hash(big) == hash(GaussianRational(10 ** 400, 1))


def test_equal_lambda_keys_merge():
    d = {GaussianRational(1, 1): "a", 1 + 1j: "b", GaussianRational(2): "c", 2.0: "d"}
    assert len(d) == 2


def test_parse_rational_is_exact_and_bounds_exponents():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-1.5e-3") == Fraction(-3, 2000)
    bad = ["1/0", "1e", "x"]
    limit = sys.get_int_max_str_digits()
    if limit:       # 0 would mean the interpreter sets no limit
        assert parse_rational(f"1e{limit}") == 10 ** limit
        bad += [f"1e{limit + 1}", f"2.5E-{limit + 1}"]
    for text in bad:
        with pytest.raises(ValueError):
            parse_rational(text)

