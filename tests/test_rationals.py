from fractions import Fraction

import pytest

from orbcalc.rationals import (
    MAX_DIGITS,
    Rational,
    as_rational,
    format_rational,
    parse_rational,
    rational_from_json,
    rational_to_json,
)


def test_rational_is_stdlib_fraction():
    assert Rational is Fraction


@pytest.mark.parametrize(
    "text, expected",
    [
        ("3/4", Fraction(3, 4)),
        ("-3/4", Fraction(-3, 4)),
        ("7", Fraction(7)),
        (" 10/4 ", Fraction(5, 2)),
        ("0", Fraction(0)),
        ("3.5", Fraction(7, 2)),  # decimal literals convert exactly
        pytest.param("9" * MAX_DIGITS, Fraction(10**MAX_DIGITS - 1), id="nines-at-cap"),
    ],
)
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize(
    "text",
    ["", "x", "1/0", "1/2/3", "1e5", pytest.param("9" * (MAX_DIGITS + 1), id="nines-over-cap")],
)
def test_parse_rational_rejects(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@pytest.mark.parametrize(
    "value, expected",
    [
        (Fraction(3, 4), "3/4"),
        (Fraction(-3, 4), "-3/4"),
        (Fraction(8, 4), "2"),
        (Fraction(0), "0"),
        (Fraction(39, 8), "39/8"),
    ],
)
def test_format_rational(value, expected):
    assert format_rational(value) == expected


def test_format_parse_round_trip():
    for num in range(-12, 13):
        for den in range(1, 9):
            q = Fraction(num, den)
            assert parse_rational(format_rational(q)) == q


def test_json_round_trip():
    q = Fraction(-39, 8)
    blob = rational_to_json(q)
    assert blob == {"num": -39, "den": 8}
    assert rational_from_json(blob) == q
    assert isinstance(blob["num"], int) and isinstance(blob["den"], int)


def test_as_rational_coercions():
    assert as_rational(5) == Fraction(5)
    assert as_rational("5/3") == Fraction(5, 3)
    assert as_rational(Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(TypeError):
        as_rational(0.5)
