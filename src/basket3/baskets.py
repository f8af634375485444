"""Basket data model and the local terms of the orbifold plurigenus formula.

A basket is a finite multiset of points (b, r) with gcd(b, r) = 1 and
0 < b <= r/2.  Each point contributes a periodized parabola term ``mbar``,
its linear counterpart ``m_lin``, and their gap ``delta``, which is always
a nonnegative integer.  The correction term ``l_correction`` sums mbar
values over the basket; ``scaled_l_table`` gives l(0) .. l(m_max) as exact
integers over one denominator, and ``l_table`` is its Fraction view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import Iterable, Iterator

__all__ = [
    "Basket",
    "BasketError",
    "EMPTY_BASKET",
    "LocalIndexError",
    "NonCoprimeError",
    "OrbifoldPoint",
    "SlopeError",
    "check_point",
    "delta",
    "delta_pair",
    "delta_row",
    "l_correction",
    "l_table",
    "low_slope",
    "m_lin",
    "mbar",
    "scaled_l_table",
    "sigma",
    "sigma12",
]


class BasketError(ValueError):
    """Invalid basket data."""


class LocalIndexError(BasketError):
    """Local index r is below 2."""


class SlopeError(BasketError):
    """Multiplicity b is outside 0 < b <= r/2."""


class NonCoprimeError(BasketError):
    """b and r share a common factor."""


def check_point(b: int, r: int) -> None:
    """Refuse (b, r) unless it is a basket point: r >= 2, 0 < b <= r/2, coprime.

    The one statement of the rule, for points, splits and certificates.
    """
    if r < 2:
        raise LocalIndexError(f"local index must be >= 2, got r={r}")
    if not 0 < 2 * b <= r:
        raise SlopeError(f"need 0 < b <= r/2, got (b, r)=({b}, {r})")
    if gcd(b, r) != 1:
        raise NonCoprimeError(f"b and r must be coprime, got ({b}, {r})")


@dataclass(frozen=True, slots=True)
class OrbifoldPoint:
    """A single basket point (b, r): local multiplicity b, local index r."""

    b: int
    r: int

    def __post_init__(self) -> None:
        check_point(self.b, self.r)

    @property
    def slope(self) -> Fraction:
        return Fraction(self.b, self.r)

    def key(self) -> tuple[int, int]:
        """Canonical sort key: by index, then multiplicity."""
        return (self.r, self.b)

    def __str__(self) -> str:
        return f"{self.b}/{self.r}"


@dataclass(frozen=True, slots=True)
class Basket:
    """Finite multiset of orbifold points, stored canonically sorted.

    ``items`` holds (point, multiplicity) pairs, ascending by (r, b).
    """

    items: tuple[tuple[OrbifoldPoint, int], ...] = ()
    # hash(items), taken once: memo keys hash a basket on every lookup, and
    # the generated __hash__ would rehash each point every time.  It is a
    # hash of ints only, so it survives pickling.
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        keys = [p.key() for p, _ in self.items]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise BasketError("basket items must be sorted by (r, b) without repeats")
        if any(mult < 1 for _, mult in self.items):
            raise BasketError("multiplicities must be >= 1")
        object.__setattr__(self, "_hash", hash(self.items))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Basket":
        """Validate raw (b, r) pairs (repeats allowed) into a canonical basket."""
        counts: dict[OrbifoldPoint, int] = {}
        for b, r in pairs:
            if type(b) is not int or type(r) is not int:  # no bool, no coercion
                raise BasketError(f"b and r must be integers, got ({b!r}, {r!r})")
            p = OrbifoldPoint(b, r)
            counts[p] = counts.get(p, 0) + 1
        return cls(tuple((p, counts[p]) for p in sorted(counts, key=OrbifoldPoint.key)))

    @classmethod
    def from_points(cls, points: Iterable[OrbifoldPoint]) -> "Basket":
        return cls.from_pairs((p.b, p.r) for p in points)

    def expand(self) -> Iterator[OrbifoldPoint]:
        """Points with multiplicity, in canonical order."""
        for p, mult in self.items:
            for _ in range(mult):
                yield p

    def pairs(self) -> list[tuple[int, int]]:
        return [(p.b, p.r) for p in self.expand()]

    def __len__(self) -> int:
        return sum(mult for _, mult in self.items)

    def __str__(self) -> str:
        if not self.items:
            return "{}"
        parts = [f"{p}x{m}" if m > 1 else str(p) for p, m in self.items]
        return "{" + ", ".join(parts) + "}"


EMPTY_BASKET = Basket()


def mbar(j: int, p: OrbifoldPoint) -> Fraction:
    """Periodized parabola term s(r - s)/(2r) with s = jb mod r."""
    s = (j * p.b) % p.r
    return Fraction(s * (p.r - s), 2 * p.r)


def m_lin(j: int, p: OrbifoldPoint) -> Fraction:
    """Linear parabola term jb(r - jb)/(2r); goes negative once jb > r."""
    t = j * p.b
    return Fraction(t * (p.r - t), 2 * p.r)


def delta_row(b: int, r: int, ns) -> tuple[int, ...]:
    """Integer gaps mbar - m_lin for raw (b, r) at each n in ns, n >= 0.

    Each is i*b*n - (i^2 + i)/2 * r with i = floor(bn/r); (i^2 + i) is
    even, so the division is exact.
    """
    return tuple([(i := b * n // r) * b * n - (i * i + i) // 2 * r for n in ns])


def delta_pair(n: int, b: int, r: int) -> int:
    """Integer gap mbar - m_lin for raw (b, r): the one-index ``delta_row``."""
    return delta_row(b, r, (n,))[0]


def delta(n: int, p: OrbifoldPoint) -> int:
    """Integer gap mbar(n, p) - m_lin(n, p)."""
    return delta_pair(n, p.b, p.r)


def _l_point(p: OrbifoldPoint, m: int) -> Fraction:
    # sum of mbar(j, p) for j = 1 .. m-1, using r-periodicity of mbar.
    r = p.r
    vals = [Fraction(((j * p.b) % r) * (r - (j * p.b) % r), 2 * r) for j in range(r)]
    cycles, rem = divmod(m - 1, r)
    return cycles * sum(vals) + sum(vals[1 : rem + 1])


def l_correction(basket: Basket, m: int) -> Fraction:
    """Correction term l(m): sum of mbar(j, p) over the basket for j < m.

    l(0) = l(1) = 0.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if m <= 1:
        return Fraction(0)
    return sum((mult * _l_point(p, m) for p, mult in basket.items), Fraction(0))


def scaled_l_table(basket: Basket, m_max: int) -> tuple[int, list[int]]:
    """(D, [D * l(0), ..., D * l(m_max)]) with D = 2 * lcm(r_i), all integers.

    D * mbar(j, p) = (D / 2r) * s(r - s) with s = jb mod r is an integer, so
    the table is filled by accumulating integers, one step per m.
    """
    if m_max < 0:
        raise ValueError(f"m_max must be nonnegative, got {m_max}")
    den = 2 * lcm(*(p.r for p, _ in basket.items))
    steps = [0] * (m_max + 1)  # steps[m] = D * (l(m) - l(m - 1))
    for p, mult in basket.items:
        b, r = p.b, p.r
        scale = mult * (den // (2 * r))
        for m in range(2, m_max + 1):
            s = (m - 1) * b % r
            steps[m] += scale * s * (r - s)
    return den, list(accumulate(steps))


def l_table(basket: Basket, m_max: int) -> list[Fraction]:
    """l(0) .. l(m_max): the Fraction view of ``scaled_l_table``."""
    den, nums = scaled_l_table(basket, m_max)
    return [Fraction(num, den) for num in nums]


def sigma(basket: Basket) -> int:
    """Sum of multiplicities b over the basket."""
    return sum(mult * p.b for p, mult in basket.items)


def low_slope(b: int, r: int) -> bool:
    """Whether b/r is at or below 1/12: the paper's fixed slope cut, stated once."""
    return 12 * b <= r


def sigma12(basket: Basket) -> int:
    """Sum of b over points with slope at most 1/12 (inclusive)."""
    return sum(mult * p.b for p, mult in basket.items if low_slope(p.b, p.r))
