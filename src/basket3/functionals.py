"""Linear functionals in the parabola terms and the inequality calculus.

A functional is an integer coefficient vector (c_1, ..., c_N) applied to
mbar^j (giving xi_bar), to m_lin^j (giving xi_lin), or to delta^j (giving
xi_delta = xi_bar - xi_lin).  The two built-in functionals restate the
plurigenus inequalities

    (1)  P_4 + P_5 + P_6 - 3 P_2 - P_3 - P_7 >= 0
    (2)  2 P_5 + 3 P_6 + P_8 + P_10 + P_12
             >= chi(O) + 10 P_2 + 4 P_3 + P_7 + P_11 + P_13 + 14 sigma12

as per-basket statements: the K^3 and chi terms cancel exactly, leaving
xi_bar_1(B) >= 0 and xi_bar_2(B) >= 14 sigma12(B).

The two "computational lemmas" govern how delta^n behaves under a mediant
split with b1*r2 - b2*r1 = 1: additive when n has no representation
x*r1 + y*r2 with x, y > 0, and off by exactly -min(x, y) when n has the
(unique) representation with 0 < x <= r2, 0 < y <= r1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .baskets import Basket, OrbifoldPoint, delta_pair, scaled_l_table, sigma12
from .riemann_roch import InconsistentInvariantsError, ThreefoldInvariants, chi_mk_row

__all__ = [
    "Functional",
    "INEQ1",
    "INEQ2",
    "INEQUALITIES",
    "Inequality",
    "LemmaHypothesisError",
    "LemmaSweep",
    "PlurigenusFormReport",
    "SingleBasketCheck",
    "box_representation",
    "check_lemmas_exhaustive",
    "has_positive_representation",
    "lemma_diff_check",
    "lemma_nodiff_check",
    "point_target",
    "verify_plurigenus_form",
    "verify_single_basket",
    "xi_bar",
    "xi_bar_pair",
    "xi_delta",
    "xi_lin",
]


@dataclass(frozen=True)
class Functional:
    """Integer coefficients (c_1, ..., c_N) on mbar^1, ..., mbar^N.

    Trailing zeros are canonicalized away; at least one coefficient must
    survive.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(int(c) for c in self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs:
            raise ValueError("functional needs at least one nonzero coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def support(self) -> tuple[int, ...]:
        """Indices j with c_j != 0, ascending."""
        return tuple(j for j, c in enumerate(self.coeffs, start=1) if c != 0)

    def moments(self) -> tuple[int, int]:
        """(sum c_j * j, sum c_j * j^2).

        A zero second moment makes the functional balanced: xi_lin is then
        b * (first moment)/2, independent of r.
        """
        first = sum(c * j for j, c in enumerate(self.coeffs, start=1))
        second = sum(c * j * j for j, c in enumerate(self.coeffs, start=1))
        return first, second

    @property
    def is_balanced(self) -> bool:
        return self.moments()[1] == 0


SLOPE_CUT = Fraction(1, 12)


def point_target(floor: int, b: int, r: int, cut: Fraction = SLOPE_CUT) -> Fraction:
    """Target for xi_bar at the single point b/r: floor * b when b/r <= cut."""
    low = b * cut.denominator <= cut.numerator * r
    return Fraction(floor * b) if low else Fraction(0)


@dataclass(frozen=True)
class Inequality:
    """sum_m a_m P_m >= chi_coeff * chi(O) + floor * sigma12, as {m: a_m}.

    Everything else derives from the table: l(m) = sum_{j<m} mbar^j gives
    the functional c_j = sum_{m>j} a_m; the K^3 terms must cancel, and the
    chi(O) terms leave chi_coeff = -sum_m a_m (2m - 1).
    """

    p_coeffs: dict[int, int]
    floor: int
    functional: Functional = field(init=False)
    chi_coeff: int = field(init=False)

    def __post_init__(self) -> None:
        items = self.p_coeffs.items()
        k3_terms = sum(a * m * (m - 1) * (2 * m - 1) for m, a in items)
        if k3_terms:
            raise ValueError(f"K^3 terms of {self.p_coeffs} do not cancel: {k3_terms}")
        top = max(self.p_coeffs)
        suffix_sums = tuple(sum(a for m, a in items if m > j) for j in range(1, top))
        object.__setattr__(self, "functional", Functional(suffix_sums))
        object.__setattr__(self, "chi_coeff", -sum(a * (2 * m - 1) for m, a in items))

    def target(self, basket: Basket) -> Fraction:
        """floor * sigma12: the sum of ``point_target`` over the basket."""
        return Fraction(self.floor * sigma12(basket))


INEQUALITIES = {
    1: Inequality({2: -3, 3: -1, 4: 1, 5: 1, 6: 1, 7: -1}, floor=0),
    2: Inequality(
        {2: -10, 3: -4, 5: 2, 6: 3, 7: -1, 8: 1, 10: 1, 11: -1, 12: 1, 13: -1},
        floor=14,
    ),
}
INEQ1 = INEQUALITIES[1].functional
INEQ2 = INEQUALITIES[2].functional


def xi_bar_pair(func: Functional, b: int, r: int) -> Fraction:
    """xi_bar on a single raw point, as one exact fraction over 2r."""
    num = 0
    for j, c in enumerate(func.coeffs, start=1):
        if c:
            s = (j * b) % r
            num += c * s * (r - s)
    return Fraction(num, 2 * r)


def xi_bar(func: Functional, basket: Basket) -> Fraction:
    """Sum of c_j * mbar^j over the basket; additive over multiset union."""
    return sum(
        (mult * xi_bar_pair(func, p.b, p.r) for p, mult in basket.items),
        Fraction(0),
    )


def xi_lin(func: Functional, p: OrbifoldPoint) -> Fraction:
    """Sum of c_j * m_lin^j at a single point."""
    num = 0
    for j, c in enumerate(func.coeffs, start=1):
        if c:
            t = j * p.b
            num += c * t * (p.r - t)
    return Fraction(num, 2 * p.r)


def xi_delta_pair(func: Functional, b: int, r: int) -> int:
    """xi_delta on a raw point: sum of c_j * delta^j, an exact integer."""
    return sum(
        c * delta_pair(j, b, r) for j, c in enumerate(func.coeffs, start=1) if c
    )


def xi_delta(func: Functional, p: OrbifoldPoint) -> int:
    """Sum of c_j * delta^j at a point; equals xi_bar - xi_lin exactly."""
    return xi_delta_pair(func, p.b, p.r)


class LemmaHypothesisError(ValueError):
    """A lemma was invoked outside its hypotheses."""


def _min_x_solution(r1: int, r2: int, n: int) -> tuple[int, int]:
    # Smallest x in [1, r2] with x*r1 = n (mod r2), and the matching y
    # (possibly nonpositive).  Requires gcd(r1, r2) = 1.
    x = (n * pow(r1, -1, r2)) % r2
    if x == 0:
        x = r2
    return x, (n - x * r1) // r2


def box_representation(r1: int, r2: int, n: int) -> tuple[int, int] | None:
    """The unique (x, y) with n = x*r1 + y*r2, 0 < x <= r2, 0 < y <= r1.

    Returns None when no such representation exists.
    """
    x, y = _min_x_solution(r1, r2, n)
    return (x, y) if 1 <= y <= r1 else None


def has_positive_representation(r1: int, r2: int, n: int) -> bool:
    """True when n = x*r1 + y*r2 for some integers x, y > 0."""
    _, y = _min_x_solution(r1, r2, n)
    return y >= 1


def _require_det_one(p1: OrbifoldPoint, p2: OrbifoldPoint) -> None:
    det = p1.b * p2.r - p2.b * p1.r
    if det != 1:
        raise LemmaHypothesisError(
            f"need b1*r2 - b2*r1 = 1, got {det} for {p1}, {p2}"
        )


def lemma_nodiff_check(p1: OrbifoldPoint, p2: OrbifoldPoint, n: int) -> bool:
    """Check delta^n additivity when n is not x*r1 + y*r2 with x, y > 0.

    Also confirms the interval emptiness the lemma asserts: no rational b/n
    lies strictly between the two slopes.  Returns True when both hold
    (they must); raises LemmaHypothesisError when a hypothesis fails.
    """
    if n < 1:
        raise LemmaHypothesisError(f"n must be positive, got {n}")
    _require_det_one(p1, p2)
    if has_positive_representation(p1.r, p2.r, n):
        raise LemmaHypothesisError(
            f"n={n} is representable as x*{p1.r} + y*{p2.r} with x, y > 0"
        )
    additive = delta_pair(n, p1.b + p2.b, p1.r + p2.r) == delta_pair(
        n, p1.b, p1.r
    ) + delta_pair(n, p2.b, p2.r)
    # Smallest integer strictly above b2*n/r2 must not be below b1*n/r1.
    k = p2.b * n // p2.r + 1
    interval_empty = k * p1.r >= p1.b * n
    return additive and interval_empty


def lemma_diff_check(p1: OrbifoldPoint, p2: OrbifoldPoint, n: int) -> int:
    """Offset of delta^n under the split when n = x*r1 + y*r2 in the box.

    Returns delta^n(b1+b2, r1+r2) - delta^n(b1, r1) - delta^n(b2, r2) and
    confirms it equals -min(x, y).
    """
    if n < 1:
        raise LemmaHypothesisError(f"n must be positive, got {n}")
    _require_det_one(p1, p2)
    rep = box_representation(p1.r, p2.r, n)
    if rep is None:
        raise LemmaHypothesisError(
            f"n={n} has no representation x*{p1.r} + y*{p2.r} "
            f"with 0 < x <= {p2.r}, 0 < y <= {p1.r}"
        )
    x, y = rep
    offset = (
        delta_pair(n, p1.b + p2.b, p1.r + p2.r)
        - delta_pair(n, p1.b, p1.r)
        - delta_pair(n, p2.b, p2.r)
    )
    if offset != -min(x, y):
        raise ArithmeticError(
            f"offset {offset} != -min{(x, y)} for {p1}, {p2}, n={n}"
        )
    return offset


@dataclass(frozen=True)
class LemmaSweep:
    """Tallies from an exhaustive run of both lemmas over unimodular pairs.

    ``uncovered`` counts n values outside both hypotheses: representable
    with positive x, y but not inside the box; those only occur above
    r1*r2 and neither lemma claims anything there.
    """

    pairs: int
    nodiff_checked: int
    diff_checked: int
    uncovered: int
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def check_lemmas_exhaustive(
    r1_max: int, r2_max: int, n_factor: int = 2
) -> LemmaSweep:
    """Run both lemmas over every unimodular pair with r1, r2 in range.

    Each unordered unimodular pair appears once, oriented so that the
    determinant is +1; n runs from 1 to n_factor * r1 * r2.
    """
    from math import gcd

    pairs = 0
    nodiff_checked = diff_checked = uncovered = 0
    mismatches: list[str] = []
    for r1 in range(2, r1_max + 1):
        for b1 in range(1, r1 // 2 + 1):
            if gcd(b1, r1) != 1:
                continue
            for r2 in range(2, r2_max + 1):
                # b2 with b1*r2 - b2*r1 = 1, if it lands in the valid range.
                num = b1 * r2 - 1
                if num % r1:
                    continue
                b2 = num // r1
                if not 0 < 2 * b2 <= r2:
                    continue
                p1 = OrbifoldPoint(b1, r1)
                p2 = OrbifoldPoint(b2, r2)
                pairs += 1
                inv_r1 = pow(r1, -1, r2)
                bs, rs = b1 + b2, r1 + r2
                for n in range(1, n_factor * r1 * r2 + 1):
                    x = (n * inv_r1) % r2
                    if x == 0:
                        x = r2
                    y, resid = divmod(n - x * r1, r2)
                    assert resid == 0
                    gap = (
                        delta_pair(n, bs, rs)
                        - delta_pair(n, b1, r1)
                        - delta_pair(n, b2, r2)
                    )
                    if y < 1:
                        nodiff_checked += 1
                        k = b2 * n // r2 + 1
                        if gap != 0 or k * r1 < b1 * n:
                            mismatches.append(f"nodiff {p1} {p2} n={n} gap={gap}")
                    elif y <= r1:
                        diff_checked += 1
                        if gap != -min(x, y):
                            mismatches.append(
                                f"diff {p1} {p2} n={n} gap={gap} xy=({x},{y})"
                            )
                    else:
                        # Positive representation without a box one; possible
                        # only for n > r1*r2, where neither lemma applies.
                        uncovered += 1
                        if n <= r1 * r2:
                            mismatches.append(f"uncovered {p1} {p2} n={n}")
    return LemmaSweep(
        pairs, nodiff_checked, diff_checked, uncovered, tuple(mismatches)
    )


@dataclass(frozen=True)
class SingleBasketCheck:
    """xi_bar at one point against a target value."""

    point: OrbifoldPoint
    value: Fraction
    target: Fraction

    @property
    def slack(self) -> Fraction:
        return self.value - self.target

    @property
    def ok(self) -> bool:
        return self.value >= self.target

    def __bool__(self) -> bool:
        return self.ok


def verify_single_basket(
    func: Functional, p: OrbifoldPoint, target: Fraction | int
) -> SingleBasketCheck:
    """Check xi_bar(func, {p}) >= target and report the exact slack."""
    return SingleBasketCheck(p, xi_bar_pair(func, p.b, p.r), Fraction(target))


@dataclass(frozen=True)
class PlurigenusFormReport:
    """The three agreeing evaluations of one plurigenus inequality.

    p_form is the P-side LHS - RHS (including the -chi term of form 2 but
    not the sigma12 target), l_form the same thing written in correction
    terms, xi_form the basket functional; the three are equal exactly.
    """

    which: int
    p_form: Fraction
    l_form: Fraction
    xi_form: Fraction
    target: Fraction
    integral: bool

    @property
    def slack(self) -> Fraction:
        return self.p_form - self.target

    @property
    def ok(self) -> bool:
        return self.slack >= 0

    def __bool__(self) -> bool:
        return self.ok


def verify_plurigenus_form(
    inv: ThreefoldInvariants, which: int, *, strict: bool = True
) -> PlurigenusFormReport:
    """Evaluate inequality (1) or (2) three ways and check they agree.

    The K^3 and chi terms cancel between the plurigenera, so the P-form
    equals the l-form equals xi_bar of the basket for *any* exact rational
    K^3 and integer chi.  With strict=True, non-integral plurigenera in the
    form's support raise InconsistentInvariantsError instead.
    """
    ineq = INEQUALITIES.get(which)
    if ineq is None:
        raise ValueError(f"form must be 1 or 2, got {which}")
    p_coeffs = ineq.p_coeffs
    # Both sums run over scaled integers: P-values over w, l-values over den.
    den, ells = scaled_l_table(inv.basket, max(p_coeffs))
    w, row = chi_mk_row(inv.k3, inv.chi, den, ells, p_coeffs)
    bad = sorted(m for m, v in zip(p_coeffs, row) if v % w)
    if strict and bad:
        raise InconsistentInvariantsError(f"non-integral plurigenera at m = {bad}")
    p_sum = sum(c * v for c, v in zip(p_coeffs.values(), row))
    p_form = Fraction(p_sum - ineq.chi_coeff * inv.chi * w, w)
    l_form = Fraction(sum(c * ells[m] for m, c in p_coeffs.items()), den)
    xi_form = xi_bar(ineq.functional, inv.basket)
    if not p_form == l_form == xi_form:
        raise ArithmeticError(
            f"form {which} evaluations disagree: {p_form}, {l_form}, {xi_form}"
        )
    target = ineq.target(inv.basket)
    return PlurigenusFormReport(which, p_form, l_form, xi_form, target, not bad)
