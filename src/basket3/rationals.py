"""Exact rationals, continued fractions, slopes and mediant parent splitting.

All values are `fractions.Fraction` over Python's unbounded integers, so
nothing here ever rounds or overflows.  Continued fractions are restricted
to the finite expansions of rationals in (0, 1/2], which is all the slope
calculus needs: a slope b/r with b >= 2 splits into the two Stern-Brocot
parents whose mediant it is, and that split drives every induction in the
inequality machinery.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator, NamedTuple

from .baskets import OrbifoldPoint

__all__ = [
    "AtomError",
    "ContinuedFraction",
    "MediantSplit",
    "cf_expand",
    "cf_value",
    "format_fraction",
    "is_unimodular",
    "mediant_parents",
    "parse_fraction",
    "slopes",
    "split_slope",
]

HALF = Fraction(1, 2)
_FRACTION = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


class AtomError(ValueError):
    """Raised when asked to split a unit fraction; b = 1 has no parents."""


def format_fraction(q: Fraction | int) -> str:
    """Render as fully reduced "p/q", or a bare integer when q == 1."""
    return str(Fraction(q))


def parse_fraction(text: str | int) -> Fraction:
    """Parse an int or an ASCII "p/q" or "p" string; a zero q raises.

    Only ``-?[0-9]+(/[0-9]+)?`` is read: no decimal point, exponent, sign
    on q, leading "+", underscore or surrounding whitespace.
    """
    if type(text) is int:
        return Fraction(text)
    match = _FRACTION.fullmatch(text) if type(text) is str else None
    if match is None:
        raise ValueError(
            "fractions cross I/O as ASCII 'p/q' strings or integers, "
            f"got {type(text).__name__} {text!r}"
        )
    num, den = match.groups()
    return Fraction(int(num), int(den or 1))


@dataclass(frozen=True, slots=True)
class ContinuedFraction:
    """Canonical expansion [0; a1, ..., at] of a rational in (0, 1/2].

    a1 >= 2 because the value is at most 1/2, and at >= 2 whenever t > 1,
    which fixes the usual [..., at] vs [..., at - 1, 1] ambiguity.
    """

    terms: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("continued fraction needs at least one term")
        if any(a < 1 for a in self.terms):
            raise ValueError(f"terms must be positive integers, got {self.terms}")
        if self.terms[0] < 2:
            raise ValueError("first term must be >= 2 for a value in (0, 1/2]")
        if len(self.terms) > 1 and self.terms[-1] < 2:
            raise ValueError("canonical form requires the last term >= 2")

    def value(self) -> Fraction:
        return cf_value(self)

    def __str__(self) -> str:
        return "[0; " + ", ".join(str(a) for a in self.terms) + "]"


def cf_expand(q: Fraction) -> ContinuedFraction:
    """Continued fraction expansion of q in (0, 1/2].

    The Euclidean algorithm already yields the canonical form: the last
    quotient is >= 2 because remainders strictly decrease.
    """
    q = Fraction(q)
    if not 0 < q <= HALF:
        raise ValueError(f"value must lie in (0, 1/2], got {q}")
    terms = []
    x, y = q.denominator, q.numerator
    while y:
        a, rem = divmod(x, y)
        terms.append(a)
        x, y = y, rem
    return ContinuedFraction(tuple(terms))


def cf_value(cf: ContinuedFraction) -> Fraction:
    """Exact value of [0; a1, ..., at]."""
    value = Fraction(0)
    for a in reversed(cf.terms):
        value = 1 / (a + value)
    return value


def slopes(r_lo: int, r_hi: int, b_max: int | None = None) -> Iterator[tuple[int, int]]:
    """Every coprime (b, r) with b/r <= 1/2, r_lo <= r <= r_hi, b <= b_max, by (r, b).

    The one walk over the slopes; ``b_max`` keeps a walk over few
    multiplicities and many indices linear in the indices.
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
    if n < 2 or not 0 < 2 * b <= n:
        raise ValueError(f"need 0 < b <= n/2 with n >= 2, got (b, n)=({b}, {n})")
    if gcd(b, n) != 1:
        raise ValueError(f"b and n must be coprime, got ({b}, {n})")
    if b == 1:
        raise AtomError(f"1/{n} is an atom; unit fractions have no mediant parents")
    high, low, cf_det = split_slope(b, n)
    return MediantSplit(OrbifoldPoint(*high), OrbifoldPoint(*low), cf_det)


def is_unimodular(p1: OrbifoldPoint, p2: OrbifoldPoint) -> bool:
    """True when b1*r2 - b2*r1 is +1 or -1."""
    return abs(p1.b * p2.r - p2.b * p1.r) == 1
