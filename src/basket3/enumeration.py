"""Exhaustive basket/candidate enumeration.

``enumerate_baskets`` walks every multiset of admissible points whose
multiplicity sum stays within a budget; with the "no slope at or below
1/12" restriction this is a finite set, which is what makes a smallest
working plurigenus exponent ``m0`` computable at all.

Formal candidates attach an Euler characteristic and a canonical volume to
a basket.  The volume policy is explicit input or a minimal-admissible
search over K^3 = k/D, k >= 1, requiring every P_m up to the horizon to be
an integer (and nonnegative when asked).  chi enters P_m only through the
integer shift -(2m - 1) * chi, so integrality is settled once per basket.
The search never steps k one at a time, since D can be huge.  P_2 =
k/2D + l(2) - 3 chi is an integer only on the grid k = rem + 2D t, and a
step along it moves each P_m by the integer n_m = m(m - 1)(2m - 1)/6.  So
one ``chi_mk_row`` row per basket, at k = rem, decides the whole grid and
gives every P_m on it as the integer line base_m + t n_m - (2m - 1) chi;
each chi then takes the least t that keeps every P_m >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import lcm
from operator import add, floordiv, sub
from typing import Iterator

from .baskets import Basket, OrbifoldPoint, low_slope, scaled_l_table
from .rationals import _check_type, exact_fraction, slopes
from .riemann_roch import ThreefoldInvariants, chi_mk_row

__all__ = [
    "Candidate",
    "EnumConstraints",
    "ExplicitK3",
    "M0Report",
    "MinimalK3Search",
    "NoCandidatesError",
    "attach_invariants",
    "enumerate_baskets",
    "enumerate_candidates",
    "find_m0",
]


class NoCandidatesError(ValueError):
    """The constraint set admits no candidate at all."""


@dataclass(frozen=True)
class ExplicitK3:
    """Use this exact volume, an int or a Fraction, for every candidate."""

    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", exact_fraction(self.value))


@dataclass(frozen=True)
class MinimalK3Search:
    """Search K^3 in (1/denominator) * Z, smallest admissible first.

    ``denominator`` defaults per basket to lcm(r_i)^3.  The search starts
    at k = 1, so every volume it finds is positive.
    """

    denominator: int | None = None

    def __post_init__(self) -> None:
        _check_type("denominator", self.denominator, (int, type(None)))
        if self.denominator is not None and self.denominator < 1:
            raise ValueError(f"denominator must be positive, got {self.denominator}")


@dataclass(frozen=True)
class EnumConstraints:
    """Bounds and policies for the candidate enumeration.

    ``max_index`` bounds the local index r, and only where it means
    something: it is required when ``require_sigma12_zero`` is false (a
    positive sigma_max admits points 1/r for every r otherwise) and refused
    when it is true, where r < 12b bounds r and max_index is not read.
    """

    chi_min: int
    chi_max: int
    sigma_max: int
    require_sigma12_zero: bool = True
    k3_policy: ExplicitK3 | MinimalK3Search = field(default_factory=MinimalK3Search)
    m_max: int = 12
    require_nonneg_pm: bool = True
    max_index: int | None = None

    def __post_init__(self) -> None:
        for name in ("chi_min", "chi_max", "sigma_max", "m_max"):
            _check_type(name, getattr(self, name), (int,))
        _check_type("max_index", self.max_index, (int, type(None)))
        for name in ("require_sigma12_zero", "require_nonneg_pm"):
            _check_type(name, getattr(self, name), (bool,))
        _check_type("k3_policy", self.k3_policy, (ExplicitK3, MinimalK3Search))
        if self.sigma_max < 0:
            raise ValueError("sigma_max must be nonnegative")
        if self.max_index is not None:
            if self.max_index < 0:
                raise ValueError("max_index must be nonnegative")
            if self.require_sigma12_zero:
                raise ValueError(
                    "max_index bounds r only without require_sigma12_zero;"
                    " drop max_index or set require_sigma12_zero to false"
                )
        if self.m_max < 2:
            raise ValueError("m_max must be at least 2")
        if self.chi_min > self.chi_max:
            raise ValueError("empty chi range")


@dataclass(frozen=True)
class Candidate:
    """A basket with formal invariants whose P_m table passed the filters."""

    basket: Basket
    chi: int
    k3: Fraction
    pm: tuple[int, ...]
    m_max: int

    def p(self, m: int) -> int:
        if not 2 <= m <= self.m_max:
            raise ValueError(f"P_{m} is outside the computed horizon")
        return self.pm[m - 2]

    def invariants(self) -> ThreefoldInvariants:
        return ThreefoldInvariants(self.k3, self.chi, self.basket)


def admissible_points(constraints: EnumConstraints) -> tuple[OrbifoldPoint, ...]:
    """Points usable in a basket under the constraints, in canonical order.

    With require_sigma12_zero no point may have a ``low_slope``, which
    forces r < 12b; otherwise max_index must bound r to keep the set
    finite.
    """
    sigma_max, sigma12_zero = constraints.sigma_max, constraints.require_sigma12_zero
    r_max = 12 * sigma_max - 1 if sigma12_zero else constraints.max_index
    if r_max is None and sigma_max:
        raise ValueError(
            "enumeration without the sigma12 = 0 restriction needs max_index"
        )
    # With sigma_max 0 no point is admissible, bounded or not.
    return tuple(
        OrbifoldPoint(b, r)
        for b, r in slopes(2, r_max or 0, sigma_max)
        if not (sigma12_zero and low_slope(b, r))
    )


def enumerate_baskets(constraints: EnumConstraints) -> Iterator[Basket]:
    """Every admissible basket with sigma <= sigma_max, in canonical order.

    The order is lexicographic on the expanded, (r, b)-sorted point list;
    the empty basket comes first.  Each basket appears exactly once.
    """
    yield from _walk(admissible_points(constraints), 0, constraints.sigma_max, [])


def _walk(
    points: tuple[OrbifoldPoint, ...],
    start: int,
    budget: int,
    chosen: list[OrbifoldPoint],
) -> Iterator[Basket]:
    """The baskets that extend ``chosen`` by points[start:] within the budget.

    ``chosen`` holds admissible points themselves, in canonical order with
    repeats adjacent, so each basket is made from their runs as
    (point, count) pairs, without re-making or re-checking a point;
    ``Basket`` still checks the order and the multiplicities.  A
    module-level function, so a walk leaves no reference cycle behind.
    """
    yield Basket(tuple([(p, len(list(run))) for p, run in groupby(chosen)]))
    for i in range(start, len(points)):
        p = points[i]
        if p.b <= budget:
            chosen.append(p)
            yield from _walk(points, i, budget - p.b, chosen)
            chosen.pop()


def _plurigenera(
    ells: tuple[int, list[int]], k3: Fraction, ms: range
) -> list[int] | None:
    # P_m at chi = 0 for each m in ``ms``, or None if one is not an integer.
    # ``ells`` is the scaled table (den, den * l(m)) of ``scaled_l_table``.
    w, row = chi_mk_row(k3, 0, *ells, ms)
    if any(value % w for value in row):
        return None
    return [value // w for value in row]


@lru_cache(maxsize=8)
def _grid_rows(m_max: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(2m - 1) and n_m = m(m - 1)(2m - 1)/6 for m = 2 .. m_max.

    P_m moves by -(2m - 1) per unit of chi and by n_m per step of the
    K^3 grid; both rows depend on m_max alone.
    """
    ms = range(2, m_max + 1)
    odd = tuple(2 * m - 1 for m in ms)
    return odd, tuple(m * (m - 1) * o // 6 for m, o in zip(ms, odd))


def attach_invariants(
    basket: Basket, constraints: EnumConstraints
) -> Iterator[Candidate]:
    """Candidates over the chi range whose P_m tables pass the filters.

    With an explicit volume, a (basket, chi) pair yields at most one
    candidate; the minimal search yields the smallest admissible volume or
    nothing.  Either way a basket costs one ``chi_mk_row`` row, at chi = 0,
    since chi enters P_m only as -(2m - 1) * chi.  The search takes that row
    at the least k >= 0 of the P_2 grid k = rem (mod 2D): a P_m that is not
    an integer there is an integer nowhere on the grid, so the basket then
    has no candidates.
    """
    policy = constraints.k3_policy
    m_max, nonneg = constraints.m_max, constraints.require_nonneg_pm
    ms = range(2, m_max + 1)
    odd, step = _grid_rows(m_max)
    chis = range(constraints.chi_min, constraints.chi_max + 1)
    ells = scaled_l_table(basket, m_max)
    if isinstance(policy, ExplicitK3):
        k3 = policy.value
        base = _plurigenera(ells, k3, ms) if k3 > 0 else None
        if base is None:
            return
        # Each chi moves every P_m by -(2m - 1), from the row at chi_min - 1.
        # A row is made as a list, then a tuple: tuple() of a map guesses
        # its length and reallocates.
        table = [p - o * (chis.start - 1) for p, o in zip(base, odd)]
        for chi in chis:
            table = tuple(list(map(sub, table, odd)))
            if not (nonneg and min(table) < 0):
                yield Candidate(basket, chi, k3, table, m_max)
        return
    denominator = policy.denominator
    if denominator is None:
        denominator = lcm(*(p.r for p, _ in basket.items)) ** 3
    # P_2 is an integer only for k = rem (mod 2D), and k -> k + 2D moves
    # each P_m by the integer n_m, so the row at k = rem decides the grid.
    mod = 2 * denominator
    den, nums = ells
    rem = -(mod * nums[2] // den) % mod
    base = _plurigenera(ells, Fraction(rem, denominator), ms)
    if base is None:
        return
    t_first = 0 if rem else 1  # the search starts at k = 1
    # row: P_m at k = rem, base_m - (2m - 1) chi, moved by -(2m - 1) per chi.
    row, last_t = [p - o * (chis.start - 1) for p, o in zip(base, odd)], None
    for chi in chis:
        row = tuple(list(map(sub, row, odd)))
        t = t_first
        if nonneg and chi > 0:
            # P_m >= 0 from t >= -row_m / step_m; for chi <= 0 it holds at
            # every k >= 1, since l(m) >= 0.
            t = max(t, -min(map(floordiv, row, step)))
        if t != last_t:  # candidates with the same t share K^3 and shift
            k3, shift = Fraction(rem + mod * t, denominator), [t * s for s in step]
            last_t = t
        table = tuple(list(map(add, row, shift))) if t else row
        yield Candidate(basket, chi, k3, table, m_max)


def enumerate_candidates(constraints: EnumConstraints) -> Iterator[Candidate]:
    for basket in enumerate_baskets(constraints):
        yield from attach_invariants(basket, constraints)


@dataclass(frozen=True)
class M0Report:
    """Smallest m with P_m >= 2 across every candidate, if any."""

    m0: int | None
    witness: Candidate | None
    candidates: int
    m_max: int

    @property
    def found(self) -> bool:
        return self.m0 is not None


def find_m0(constraints: EnumConstraints) -> M0Report:
    """Scan the candidate set for the smallest uniformly working m.

    One pass over the stream, in memory linear in m_max.  Raises
    NoCandidatesError when the constraints admit no candidate; an exhausted
    horizon is reported, not raised.
    """
    m_max = constraints.m_max
    # uniform[m - 2]: every candidate so far has P_m >= 2.  The witness is
    # the first candidate whose first such m is the largest.
    uniform = [True] * (m_max - 1)
    witness, latest, count = None, 1, 0
    for cand in enumerate_candidates(constraints):
        count += 1
        uniform = [u and p >= 2 for u, p in zip(uniform, cand.pm)]
        first = next((m for m, p in enumerate(cand.pm, 2) if p >= 2), m_max + 1)
        if first > latest:
            witness, latest = cand, first
    if not count:
        raise NoCandidatesError("no candidates under the given constraints")
    m0 = next((m for m, u in enumerate(uniform, 2) if u), None)
    return M0Report(m0, witness, count, m_max)
