"""Exact numbers as text, slopes and mediant parent splitting.

All values are integers or `fractions.Fraction`s over Python's unbounded
integers, so nothing here ever rounds or overflows.  Every exact number
basket3 reads or writes as text has one spelling, written here once: an
integer is ``0`` or ``-?[1-9][0-9]*``, and a fraction is an integer or a
reduced ``p/q`` with ``q > 1``.  A slope b/r with b >= 2 splits into the
two Stern-Brocot parents whose mediant it is, and that split drives every
induction in the inequality machinery.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Iterator, NamedTuple

from .baskets import OrbifoldPoint, check_point

__all__ = [
    "AtomError",
    "FRACTION_RULE",
    "INT_RULE",
    "MediantSplit",
    "NAT_RULE",
    "SLOPE_RANGE",
    "exact_fraction",
    "format_fraction",
    "matched_ratio",
    "mediant_parents",
    "parse_fraction",
    "parse_int",
    "parse_ratio",
    "slopes",
    "split_slope",
]

# One spelling per number: ASCII digits, no leading zero, no "-0", no "+",
# no "_" and no space.  These are what format_fraction and str(int) write.
NAT_RULE = "[1-9][0-9]*"
INT_RULE = f"0|-?{NAT_RULE}"
FRACTION_RULE = f"(?:{INT_RULE})(?:/{NAT_RULE})?"
_INT = re.compile(INT_RULE)
_FRACTION = re.compile(FRACTION_RULE)
# The half-open slope interval (0/1, 1/2], as its ends (b, r): every basket
# slope lies in it.
SLOPE_RANGE = ((0, 1), (1, 2))


class AtomError(ValueError):
    """Raised when asked to split a unit fraction; b = 1 has no parents."""


def format_fraction(q: Fraction | int) -> str:
    """Render an int or a Fraction as reduced "p/q", or a bare integer when q == 1.

    The value goes through ``exact_fraction``, so a Fraction is not
    normalised a second time, and a float or a bool is refused.
    """
    return str(exact_fraction(q))


def parse_int(text: str) -> int:
    """A canonical integer: ``0`` or ``-?[1-9][0-9]*``.

    int() alone also takes "+1", "1_2", " 1", "01" and "-0".
    """
    if type(text) is not str or _INT.fullmatch(text) is None:
        raise ValueError(f"malformed integer {text!r}; want 0 or -?[1-9][0-9]*")
    return int(text)


def parse_ratio(text: str) -> tuple[int, int]:
    """(p, q) of a canonical fraction: an integer, or reduced ``p/q`` with q > 1."""
    if type(text) is not str or _FRACTION.fullmatch(text) is None:
        raise ValueError(f"malformed fraction {text!r}; want an integer or p/q")
    return matched_ratio(text)


def matched_ratio(text: str) -> tuple[int, int]:
    """(p, q) of text that ``FRACTION_RULE`` has matched: reduced, q > 1 if given.

    The half of ``parse_ratio`` after the match, for a reader whose own
    pattern has already matched the text with ``FRACTION_RULE``.
    """
    num, _, den = text.partition("/")
    if not den:
        return int(num), 1
    num, den = int(num), int(den)
    if den == 1 or gcd(num, den) != 1:
        raise ValueError(f"fraction {text!r} is not in lowest terms")
    return num, den


def parse_fraction(text: str | int) -> Fraction:
    """An int, or a canonical fraction string as ``parse_ratio`` reads it.

    No decimal point, exponent, sign on q, "+", "_", whitespace, leading
    zero, "-0", zero or unit q, or unreduced p/q: each value has the one
    spelling that ``format_fraction`` writes.
    """
    if type(text) is int:
        return Fraction(text)
    if type(text) is not str:
        raise ValueError(
            "fractions cross I/O as ASCII 'p/q' strings or integers, "
            f"got {type(text).__name__} {text!r}"
        )
    return Fraction(*parse_ratio(text))


def _check_type(name: str, value, kinds: tuple[type, ...]) -> None:
    # Exact types, as in exact_fraction: a bool is not an int, and a float
    # or a string is never coerced.
    if type(value) not in kinds:
        want = " or ".join("None" if k is type(None) else k.__name__ for k in kinds)
        raise ValueError(
            f"{name} must be {want}, got {type(value).__name__} {value!r}"
        )


def exact_fraction(value: Fraction | int) -> Fraction:
    """An int (not a bool) as a Fraction, or a Fraction as the same object.

    Fraction() alone also reads text such as "04/2" and floats such as 0.1.
    """
    if isinstance(value, Fraction):
        return value
    if type(value) is not int:
        raise ValueError(
            f"want an int or a Fraction, got {type(value).__name__} {value!r}"
        )
    return Fraction(value)


def slopes(r_lo: int, r_hi: int, b_max: int | None = None) -> Iterator[tuple[int, int]]:
    """Every coprime (b, r) with b/r <= 1/2, r_lo <= r <= r_hi, b <= b_max, by (r, b).

    The one walk over the basket slopes, those of ``SLOPE_RANGE``.
    ``b_max`` keeps a walk over few multiplicities and many indices linear
    in the indices.
    """
    for r in range(r_lo, r_hi + 1):
        top = r // 2 if b_max is None else min(r // 2, b_max)
        for b in range(1, top + 1):
            if gcd(b, r) == 1:
                yield b, r


def split_slope(b: int, r: int) -> tuple[tuple[int, int], tuple[int, int], int]:
    """``((b_high, r_high), (b_low, r_low), cf_det)`` for b/r, unchecked.

    b_high*r - b*r_high = 1 fixes r_high = -b^-1 mod r.  The continued-
    fraction parent has the smaller index, so cf_det = +1 iff 2*r_high < r.
    """
    r_hi = -pow(b, -1, r) % r
    b_hi = (b * r_hi + 1) // r
    return (b_hi, r_hi), (b - b_hi, r - r_hi), 1 if 2 * r_hi < r else -1


class MediantSplit(NamedTuple):
    """Parents of a slope, in (larger-slope, smaller-slope) order.

    ``cf_det`` is b1*r2 - b2*r1 for the raw continued-fraction parent order
    (truncation parent first); it is +1 when the truncation parent is the
    high one and -1 when the ordering had to be switched.
    """

    high: OrbifoldPoint
    low: OrbifoldPoint
    cf_det: int


def mediant_parents(b: int, n: int) -> MediantSplit:
    """Split slope b/n into the two parents whose mediant it is.

    The truncation parent is the value of [0; a1, ..., a_{t-1}]; the other
    parent is the componentwise complement.  Both slopes are at most 1/2,
    both denominators below n, and the returned (high, low) pair always has
    determinant b_high*r_low - b_low*r_high = +1.
    """
    check_point(b, n)
    if b == 1:
        raise AtomError(f"1/{n} is an atom; unit fractions have no mediant parents")
    high, low, cf_det = split_slope(b, n)
    return MediantSplit(OrbifoldPoint(*high), OrbifoldPoint(*low), cf_det)
