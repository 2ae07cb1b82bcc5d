"""Exact rationals as they travel on the wire.

All rational numbers in input and output documents are decimal strings
"p/q" (or plain integers); serialization is always canonical lowest terms
with a positive denominator, so parse -> serialize -> parse is a fixed
point.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Iterable

# Python refuses int <-> str conversions past a digit limit (CVE-2020-10735);
# its own message names a call the user of a command line cannot make.
TOO_MANY_DIGITS = "an integer has over {} digits; set PYTHONINTMAXSTRDIGITS to raise the limit"

# ASCII digits only, matched against the whole string: \d would admit any
# Unicode digit and $ a trailing newline, both outside the wire format.
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_rational(value: int | str | Fraction) -> Fraction:
    """Parse an exact rational from an int or a "p/q" string.

    Floats are rejected: they carry no exactness guarantee.  Strings must
    match ``[+-]?[0-9]+(/[0-9]+)?`` exactly, with no surrounding space.
    Raises ValueError with an "invalid rational" message on bad input,
    including a zero denominator, and with ``TOO_MANY_DIGITS`` for a
    numerator or denominator past the int-to-str limit.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"invalid rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.fullmatch(value):
            raise ValueError(f"invalid rational: {value!r}")
        num, _, den = value.partition("/")
        try:
            p, q = int(num), int(den or 1)
        except ValueError as exc:  # the pattern matched, so only the limit is left
            raise ValueError(TOO_MANY_DIGITS.format(sys.get_int_max_str_digits())) from exc
        if q == 0:
            raise ValueError(f"invalid rational: {value!r} (zero denominator)")
        return Fraction(p, q)
    raise ValueError(f"invalid rational: {value!r} (expected int or 'p/q' string)")


def format_rational(q: Fraction) -> str:
    """Canonical string form: "p" for integers, "p/q" otherwise."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_rational_vector(values: Iterable[Fraction]) -> list[str]:
    return [format_rational(v) for v in values]
