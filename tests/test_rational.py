import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuspcheck.rational import (
    TOO_MANY_DIGITS,
    format_rational,
    format_rational_vector,
    parse_rational,
)


@pytest.mark.parametrize(
    "text, expected",
    [
        (3, Fraction(3)),
        (-7, Fraction(-7)),
        ("3", Fraction(3)),
        ("3/4", Fraction(3, 4)),
        ("-3/4", Fraction(-3, 4)),
        ("+5/10", Fraction(1, 2)),
        ("0", Fraction(0)),
        (Fraction(2, 6), Fraction(1, 3)),
    ],
)
def test_parse_accepts_exact_forms(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize(
    "bad",
    [
        "1/0", "0/0", "1.5", "", "a", "1/2/3", "1 / 2", 1.5, True, False, None, [1],
        " 3 ", " 1", "3\n", "١/٢", "٠", "１",
    ],
)
def test_parse_rejects_inexact_or_malformed(bad):
    with pytest.raises(ValueError, match="invalid rational"):
        parse_rational(bad)


def test_parse_names_the_digit_limit_past_it():
    # Past the int-to-str limit Python's own message names
    # sys.set_int_max_str_digits(); the parser names the variable instead.
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for text in ("-1" + "0" * 4399, "1/" + "3" * 4400, "7" * 4400 + "/2"):
            with pytest.raises(ValueError) as info:
                parse_rational(text)
            assert str(info.value) == TOO_MANY_DIGITS.format(4300)
            assert "PYTHONINTMAXSTRDIGITS" in str(info.value)
        assert parse_rational("-1" + "0" * 4299) == -(10**4299)
    finally:
        sys.set_int_max_str_digits(old)


def test_format_lowest_terms():
    assert format_rational(Fraction(2, 4)) == "1/2"
    assert format_rational(Fraction(-2, 4)) == "-1/2"
    assert format_rational(Fraction(8, 2)) == "4"
    assert format_rational(Fraction(0, 5)) == "0"


def test_vector_helpers():
    assert format_rational_vector([Fraction(1, 2), Fraction(3)]) == ["1/2", "3"]


@given(
    st.fractions(
        min_value=-10**9, max_value=10**9, max_denominator=10**9
    )
)
def test_parse_format_round_trip(q):
    assert parse_rational(format_rational(q)) == q


@given(st.integers(), st.integers(min_value=1))
def test_format_is_canonical(num, den):
    text = format_rational(Fraction(num, den))
    again = format_rational(parse_rational(text))
    assert again == text
