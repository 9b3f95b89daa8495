"""Exact rational values and their text/JSON encodings.

The universal value type of this package is :class:`fractions.Fraction`,
re-exported as ``Rational``.  It already guarantees the two invariants we
rely on everywhere: values are stored in lowest terms and the denominator
is always positive.  No floating point number ever enters a computation;
floats appear only in explicitly-named oracles.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction

#: longest numeric literal, in characters, that the parsers accept.  Every
#: value the package handles is far shorter, and CPython 3.11+ will not
#: print an int of more than 4300 digits, so a longer input could compute a
#: result that it then cannot write.
MAX_DIGITS = 1000


def as_rational(value: int | str | Fraction) -> Fraction:
    """Coerce an int, a Fraction, or a string like ``"-3/4"`` to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"``, ``"n"`` or a decimal like ``"3.5"``, optionally signed.

    Exponents (``"1e5"``) are refused: ``Fraction`` would expand them in full.
    So is a literal longer than :data:`MAX_DIGITS` characters.
    """
    try:
        if "e" in text.lower():
            raise ValueError("exponent literals are not accepted")
        if len(text) > MAX_DIGITS:
            raise ValueError(f"literals over {MAX_DIGITS} characters are not accepted")
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational literal: {text!r}") from exc


def format_rational(q: Fraction) -> str:
    """Render a Fraction as ``"p/q"``, or just ``"n"`` when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def rational_to_json(q: Fraction) -> dict:
    """Exact JSON encoding as a ``{"num", "den"}`` pair; never a float."""
    return {"num": q.numerator, "den": q.denominator}


def rational_from_json(obj: dict) -> Fraction:
    return Fraction(obj["num"], obj["den"])
