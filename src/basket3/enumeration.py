"""Exhaustive basket/candidate enumeration.

``enumerate_baskets`` walks every multiset of admissible points whose
multiplicity sum stays within a budget; with the "no slope at or below
1/12" restriction this is a finite set, which is what makes a smallest
working plurigenus exponent ``m0`` computable at all.

Formal candidates attach an Euler characteristic and a canonical volume to
a basket.  The volume policy is explicit input or a minimal-admissible
search over K^3 in (1/D) * Z requiring every P_m up to the horizon to be
an integer (and nonnegative when asked); the search solves the integrality
congruences exactly instead of stepping k, since D can be huge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator

from .baskets import Basket, OrbifoldPoint, low_slope, scaled_l_table
from .rationals import exact_fraction, slopes
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
        if self.denominator is not None and self.denominator < 1:
            raise ValueError(f"denominator must be positive, got {self.denominator}")


@dataclass(frozen=True)
class EnumConstraints:
    """Bounds and policies for the candidate enumeration."""

    chi_min: int
    chi_max: int
    sigma_max: int
    require_sigma12_zero: bool = True
    k3_policy: ExplicitK3 | MinimalK3Search = field(default_factory=MinimalK3Search)
    m_max: int = 12
    require_nonneg_pm: bool = True
    max_index: int | None = None

    def __post_init__(self) -> None:
        if self.sigma_max < 0:
            raise ValueError("sigma_max must be nonnegative")
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
    points = admissible_points(constraints)

    def walk(start: int, budget: int, chosen: list[OrbifoldPoint]):
        yield Basket.from_points(chosen)
        for i in range(start, len(points)):
            p = points[i]
            if p.b <= budget:
                chosen.append(p)
                yield from walk(i, budget - p.b, chosen)
                chosen.pop()

    yield from walk(0, constraints.sigma_max, [])


def _merge_progressions(
    a: tuple[int, int], b: tuple[int, int]
) -> tuple[int, int] | None:
    # Intersect k = ra (mod ma) with k = rb (mod mb).
    ra, ma = a
    rb, mb = b
    g = gcd(ma, mb)
    if (rb - ra) % g:
        return None
    m = lcm(ma, mb)
    t = ((rb - ra) // g * pow(ma // g, -1, mb // g)) % (mb // g)
    return (ra + ma * t) % m, m


def _pm_table(
    ells: tuple[int, list[int]],
    chi: int,
    k3: Fraction,
    m_max: int,
    require_nonneg: bool,
) -> tuple[int, ...] | None:
    # ``ells`` is the scaled table (den, den * l(m)) of ``scaled_l_table``.
    w, row = chi_mk_row(k3, chi, *ells, range(2, m_max + 1))
    table = []
    for value in row:
        p_m, rest = divmod(value, w)
        if rest:
            return None
        table.append(p_m)
    return None if require_nonneg and min(table) < 0 else tuple(table)


def _integrality_progression(
    ells: tuple[int, list[int]], m_max: int, denominator: int
) -> tuple[int, int] | None:
    # The set of k with chi(mK) integral for all m <= m_max at K^3 = k/D is
    # an arithmetic progression (or empty); chi shifts are integral anyway.
    # Up to an integer, w * chi(mK) = a k + b with a = n_m w / 2D and
    # b = w l(m).
    den, nums = ells
    w = lcm(2 * denominator, den)
    k_scale, ell_scale = w // (2 * denominator), w // den
    progression = (0, 1)
    for m in range(2, m_max + 1):
        n_m = m * (m - 1) * (2 * m - 1) // 6
        a = n_m * k_scale
        b = nums[m] * ell_scale
        g = gcd(a, w)
        if b % g:
            return None
        mod = w // g
        if mod > 1:
            k0 = (-(b // g) * pow(a // g, -1, mod)) % mod
            merged = _merge_progressions(progression, (k0, mod))
            if merged is None:
                return None
            progression = merged
    return progression


def _smallest_admissible_k(
    progression: tuple[int, int],
    ells: tuple[int, list[int]],
    chi: int,
    constraints: EnumConstraints,
    denominator: int,
) -> int:
    den, nums = ells
    k_low = 1
    if constraints.require_nonneg_pm and chi > 0:
        # P_m >= 0 gives k >= ((2m-1) chi - l(m)) * 2D / n_m; for chi <= 0
        # the right side is never positive.
        for m in range(2, constraints.m_max + 1):
            n_m = m * (m - 1) * (2 * m - 1) // 6
            bound = ((2 * m - 1) * chi * den - nums[m]) * 2 * denominator
            k_low = max(k_low, -(-bound // (n_m * den)))
    rem, mod = progression
    k = rem + mod * -((rem - k_low) // mod)
    assert k >= k_low and (k - rem) % mod == 0
    return k


def attach_invariants(
    basket: Basket, constraints: EnumConstraints
) -> Iterator[Candidate]:
    """Candidates over the chi range whose P_m tables pass the filters.

    With an explicit volume, a (basket, chi) pair yields at most one
    candidate; the minimal search yields the smallest admissible volume or
    nothing.
    """
    policy = constraints.k3_policy
    ells = scaled_l_table(basket, constraints.m_max)
    if isinstance(policy, ExplicitK3):
        if policy.value <= 0:
            return
    else:
        denominator = policy.denominator
        if denominator is None:
            denominator = lcm(*(p.r for p, _ in basket.items)) ** 3
        progression = _integrality_progression(ells, constraints.m_max, denominator)
        if progression is None:
            return
    for chi in range(constraints.chi_min, constraints.chi_max + 1):
        if isinstance(policy, ExplicitK3):
            k3 = policy.value
        else:
            k = _smallest_admissible_k(progression, ells, chi, constraints, denominator)
            k3 = Fraction(k, denominator)
        table = _pm_table(
            ells, chi, k3, constraints.m_max, constraints.require_nonneg_pm
        )
        if table is None:
            continue
        yield Candidate(basket, chi, k3, table, constraints.m_max)


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

    Raises NoCandidatesError when the constraints admit no candidate; an
    exhausted horizon is reported, not raised.
    """
    candidates = list(enumerate_candidates(constraints))
    if not candidates:
        raise NoCandidatesError("no candidates under the given constraints")
    m0 = None
    for m in range(2, constraints.m_max + 1):
        if all(c.p(m) >= 2 for c in candidates):
            m0 = m
            break

    def first_success(c: Candidate) -> int:
        for m in range(2, constraints.m_max + 1):
            if c.p(m) >= 2:
                return m
        return constraints.m_max + 1

    witness = max(candidates, key=first_success)
    return M0Report(m0, witness, len(candidates), constraints.m_max)
