from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from freebanach.scalars import (
    Dyadic,
    ScalarDomainError,
    common_denominator,
    dyadic_range,
    fraction_str,
    full_scalar_set,
)

dyadics = st.builds(Dyadic, st.integers(-200, 200), st.integers(0, 6))


def test_normalization():
    assert Dyadic(4, 2).num == 1 and Dyadic(4, 2).log2den == 0
    assert Dyadic(6, 1) == Dyadic(3)
    assert Dyadic(0, 5) == Dyadic(0, 0)
    with pytest.raises(ScalarDomainError):
        Dyadic(1, -1)


def test_parse_and_str():
    assert Dyadic.parse("3/4") == Dyadic(3, 2)
    assert Dyadic.parse("-2") == Dyadic(-2)
    assert str(Dyadic(3, 2)) == "3/4"
    with pytest.raises(ScalarDomainError):
        Dyadic.parse("1/3")


def test_full_scalar_set_sizes():
    assert len(full_scalar_set(1)) == 9  # a/2 for a in [-4, 4]
    assert len(full_scalar_set(2)) == 33
    assert Dyadic(0) in full_scalar_set(1)
    assert max(full_scalar_set(1)).as_fraction() == 2


@given(dyadics, dyadics)
def test_arithmetic_matches_fractions(a, b):
    assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()
    assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()
    assert (a * b).as_fraction() == a.as_fraction() * b.as_fraction()
    assert (a < b) == (a.as_fraction() < b.as_fraction())


@given(dyadics)
def test_normal_form_invariant(a):
    assert a.num == 0 and a.log2den == 0 or a.num % 2 == 1 or a.log2den == 0
    assert Dyadic.from_fraction(a.as_fraction()) == a
    assert -(-a) == a
    # the hash kept in its slot: equal for equal values, and the tuple's as before
    assert hash(a) == hash(a) == hash(Dyadic(2 * a.num, a.log2den + 1)) == hash((a.num, a.log2den))


def test_helpers():
    assert common_denominator([Fraction(1, 2), Fraction(1, 3)]) == 6
    assert fraction_str(Fraction(4, 2)) == "2"
    assert fraction_str(Fraction(-3, 4)) == "-3/4"
    assert len(dyadic_range(4, 1)) == 9
