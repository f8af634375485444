"""Constant chains relating chi(omega), plurigenera, and canonical volume.

Starting from an exponent m0 with P_m0 >= 2 (rounded up to a multiple of
120), the growth arguments yield, all exactly:

    t0       = 5 m0 + 6        birationality threshold
    c1       = 1 / (2 m0)      P_m >= c1 m        for m >= 12 m0 + 10
    c2       = min(c1, 1/4)    P_m >= c2 m P_t/t  for m >= 10 m0 + 2t + 10
    m1       = 10 m0 + 34      worst threshold over t <= 12
    c_prime  = 1 / (16 (1 + 116/c2))   P_m >= c_prime m^3 K^3 for m >= m1

and two branch constants for chi(O) <= c * K^3: the general branch
32 * 120^3 and the finite-basket branch 8 (5 m0 + 6)^3.  Both are
reported; the bound check uses their maximum.

Sharper published constants (m1 = 112, c' = 5/89168) exist via stronger
inequalities not derived here; they are exposed side by side for
comparison and never conflated with the derived chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping

from .rationals import _check_type
from .riemann_roch import ThreefoldInvariants, chi_mk

__all__ = [
    "ChiBoundReport",
    "ConstantChain",
    "GrowthReport",
    "PmBoundReport",
    "PUBLISHED_C_PRIME",
    "PUBLISHED_M1",
    "ThresholdError",
    "check_chi_bound",
    "check_pm_bound",
    "derive_constants",
    "growth_diagnostics",
]

PUBLISHED_C_PRIME = Fraction(5, 89168)
PUBLISHED_M1 = 112


class ThresholdError(ValueError):
    """The requested m is below the validity threshold of the bound."""


@dataclass(frozen=True)
class ConstantChain:
    """All constants derived from one m0, exact."""

    m0: int
    t0: int
    c1: Fraction
    c2: Fraction
    m1: int
    c_prime: Fraction
    c_general: int
    c_finite: int

    @property
    def c(self) -> int:
        return max(self.c_general, self.c_finite)


def derive_constants(m0_raw: int) -> ConstantChain:
    """Constant chain for m0 = lcm(m0_raw, 120); m0_raw is an int (not a bool)."""
    _check_type("m0", m0_raw, (int,))
    if m0_raw < 2:
        raise ValueError(f"m0 must be at least 2, got {m0_raw}")
    m0 = lcm(m0_raw, 120)
    t0 = 5 * m0 + 6
    c1 = Fraction(1, 2 * m0)
    c2 = min(c1, Fraction(1, 4))
    m1 = 10 * m0 + 34
    c_prime = 1 / (16 * (1 + 116 / c2))
    return ConstantChain(
        m0=m0,
        t0=t0,
        c1=c1,
        c2=c2,
        m1=m1,
        c_prime=c_prime,
        c_general=32 * 120**3,
        c_finite=8 * t0**3,
    )


@dataclass(frozen=True)
class ChiBoundReport:
    """chi(omega) against the lower bound -c * K^3."""

    chi_omega: int
    k3: Fraction
    bound: Fraction | None
    general_type: bool

    @property
    def ok(self) -> bool | None:
        if not self.general_type:
            return None
        return self.chi_omega >= self.bound

    def __bool__(self) -> bool:
        return bool(self.ok)


def check_chi_bound(inv: ThreefoldInvariants, chain: ConstantChain) -> ChiBoundReport:
    """Check chi(omega) >= -c * K^3 with c the larger branch constant.

    A nonpositive K^3 is outside general type; no verdict is given then.
    """
    if inv.k3 <= 0:
        return ChiBoundReport(inv.chi_omega, inv.k3, None, False)
    return ChiBoundReport(inv.chi_omega, inv.k3, -chain.c * inv.k3, True)


@dataclass(frozen=True)
class PmBoundReport:
    """P_m (as exact chi(mK)) against the volume lower bounds."""

    m: int
    value: Fraction
    general_bound: Fraction | None
    strong_bound: Fraction | None

    @property
    def general_ok(self) -> bool | None:
        if self.general_bound is None:
            return None
        return self.value >= self.general_bound

    @property
    def strong_ok(self) -> bool | None:
        if self.strong_bound is None:
            return None
        return self.value >= self.strong_bound

    @property
    def ok(self) -> bool:
        return self.general_ok is not False and self.strong_ok is not False

    def __bool__(self) -> bool:
        return self.ok


def check_pm_bound(
    inv: ThreefoldInvariants, chain: ConstantChain, m: int
) -> PmBoundReport:
    """Check P_m >= c' m^3 K^3 (valid from m1 on).

    For chi(O) <= 0 the stronger bound P_m >= m^3 K^3 / 16 holds from
    m = 2 already and is checked as well; in that case m below m1 is not
    an error, but m below 2 is.  For chi(O) > 0, m below m1 raises
    ThresholdError.  m must be an int (not a bool).
    """
    _check_type("m", m, (int,))
    general_bound = strong_bound = None
    if m >= chain.m1:
        general_bound = chain.c_prime * m**3 * inv.k3
    elif inv.chi > 0:
        raise ThresholdError(
            f"bound for chi > 0 needs m >= m1 = {chain.m1}, got {m}"
        )
    elif m < 2:
        raise ThresholdError(f"bound for chi <= 0 needs m >= 2, got {m}")
    if inv.chi <= 0 and m >= 2:
        strong_bound = Fraction(m**3, 16) * inv.k3
    return PmBoundReport(m, chi_mk(inv, m), general_bound, strong_bound)


@dataclass(frozen=True)
class GrowthReport:
    """Diagnostics for superadditivity and the derived growth bound.

    These encode geometric facts about actual plurigenus tables; formal
    tables may violate them, which is flagged, never raised.
    """

    superadditivity_violations: tuple[tuple[int, int], ...]
    growth_violations: tuple[int, ...]
    checked_pairs: int
    checked_growth: int

    @property
    def clean(self) -> bool:
        return not self.superadditivity_violations and not self.growth_violations


def growth_diagnostics(
    pm_table: Mapping[int, int], m0: int, t_prime: int
) -> GrowthReport:
    """Flag failures of P_{s+t} >= P_s + P_t - 1 and of the derived bound.

    Superadditivity is checked for every s <= t with P_s, P_t > 0 and
    s + t in the table.  When P_{t_prime} >= 2, every s >= t0 = 5 m0 + 6
    in the table is checked against P_s > floor((s - t0)/t_prime) *
    (P_{t_prime} - 1).
    """
    table = dict(pm_table)
    super_bad = []
    pairs = 0
    for s in sorted(table):
        for t in sorted(table):
            if t < s or s + t not in table:
                continue
            if table[s] > 0 and table[t] > 0:
                pairs += 1
                if table[s + t] < table[s] + table[t] - 1:
                    super_bad.append((s, t))
    growth_bad = []
    checked_growth = 0
    t0 = 5 * m0 + 6
    p_t = table.get(t_prime)
    if p_t is not None and p_t >= 2:
        for s in sorted(table):
            if s >= t0:
                checked_growth += 1
                if table[s] <= ((s - t0) // t_prime) * (p_t - 1):
                    growth_bad.append(s)
    return GrowthReport(tuple(super_bad), tuple(growth_bad), pairs, checked_growth)
