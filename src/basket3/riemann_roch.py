"""Euler characteristics chi(mK), plurigenera, and the sigma identity.

The central formula, for a minimal 3-fold of general type with terminal
singularities described by (K^3, chi(O), basket):

    chi(mK) = m(m-1)(2m-1)/12 * K^3 - (2m-1) * chi(O) + l(m)

Plurigenera are defined as P_m = chi(mK) for m >= 2; that identification
holds on minimal general-type 3-folds by vanishing and is never applied at
m = 1.  chi(omega) = -chi(O) by Serre duality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

from .baskets import EMPTY_BASKET, Basket, l_correction, sigma

__all__ = [
    "InconsistentInvariantsError",
    "PlurigenusReport",
    "SigmaIdentityReport",
    "ThreefoldInvariants",
    "chi_mk",
    "chi_mk_row",
    "k3_from_p2",
    "plurigenus",
    "sigma_identity_check",
]


class InconsistentInvariantsError(ValueError):
    """Invariants whose plurigenera are not integers where they must be."""


@dataclass(frozen=True)
class ThreefoldInvariants:
    """Input data (K^3, chi(O), basket) for every formula evaluation.

    K^3 may be any exact rational; integrality of the resulting chi(mK) is
    reported downstream, not enforced here.
    """

    k3: Fraction
    chi: int
    basket: Basket = EMPTY_BASKET

    def __post_init__(self) -> None:
        object.__setattr__(self, "k3", Fraction(self.k3))

    @property
    def chi_omega(self) -> int:
        return -self.chi


@dataclass(frozen=True)
class PlurigenusReport:
    """chi(mK) with its integrality flag; p_m is set only when integral."""

    m: int
    chi_mk: Fraction
    is_integral: bool
    p_m: int | None


def chi_mk_row(
    k3: Fraction, chi: int, den: int, ells, ms: Iterable[int]
) -> tuple[int, list[int]]:
    """W and W * chi(mK) for each m in ``ms``, all integers.

    ``ells[m]`` is den * l(m).  W = lcm(12 den(K^3), den) clears every
    denominator, so chi(mK) is integral exactly when W divides its entry.
    """
    w = lcm(12 * k3.denominator, den)
    k3_part = k3.numerator * (w // (12 * k3.denominator))
    chi_part = chi * w
    ell_scale = w // den
    return w, [
        m * (m - 1) * (2 * m - 1) * k3_part
        - (2 * m - 1) * chi_part
        + ell_scale * ells[m]
        for m in ms
    ]


def chi_mk(inv: ThreefoldInvariants, m: int) -> Fraction:
    """Exact chi(mK) for m >= 0."""
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    ell = l_correction(inv.basket, m)
    w, (value,) = chi_mk_row(inv.k3, inv.chi, ell.denominator, {m: ell.numerator}, (m,))
    return Fraction(value, w)


def plurigenus(inv: ThreefoldInvariants, m: int) -> PlurigenusReport:
    """P_m = chi(mK) for m >= 2; non-integral values are data, not errors."""
    if m < 2:
        raise ValueError(f"plurigenus is only defined for m >= 2, got {m}")
    value = chi_mk(inv, m)
    integral = value.denominator == 1
    return PlurigenusReport(m, value, integral, int(value) if integral else None)


def k3_from_p2(chi: int, basket: Basket, p2: int) -> Fraction:
    """Invert the m = 2 formula: K^3 = 2(P_2 + 3 chi - l(2))."""
    return 2 * (p2 + 3 * chi - l_correction(basket, 2))


@dataclass(frozen=True)
class SigmaIdentityReport:
    """Both sides of sigma(B) = 10 chi + 5 P_2 - P_3."""

    sigma: int
    rhs: int
    p2: int
    p3: int

    @property
    def ok(self) -> bool:
        return self.sigma == self.rhs

    def __bool__(self) -> bool:
        return self.ok


def sigma_identity_check(inv: ThreefoldInvariants) -> SigmaIdentityReport:
    """Check sigma(B) = 10 chi + 5 P_2 - P_3 with P_m computed via chi_mk.

    Raises InconsistentInvariantsError when P_2 or P_3 is not an integer.
    """
    reports = [plurigenus(inv, m) for m in (2, 3)]
    bad = [rep for rep in reports if not rep.is_integral]
    if bad:
        names = ", ".join(f"P_{rep.m} = {rep.chi_mk}" for rep in bad)
        raise InconsistentInvariantsError(f"non-integral plurigenera: {names}")
    p2, p3 = (rep.p_m for rep in reports)
    assert p2 is not None and p3 is not None
    return SigmaIdentityReport(sigma(inv.basket), 10 * inv.chi + 5 * p2 - p3, p2, p3)
