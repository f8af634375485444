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
from math import lcm
from operator import itemgetter, mul, sub

from .baskets import Basket, delta_row, low_slope, scaled_l_table, sigma12
from .rationals import slopes, split_slope
from .riemann_roch import InconsistentInvariantsError, ThreefoldInvariants, chi_mk_row

__all__ = [
    "Functional",
    "INEQ1",
    "INEQ2",
    "INEQUALITIES",
    "Inequality",
    "LemmaSweep",
    "PlurigenusFormReport",
    "check_lemmas_exhaustive",
    "delta_vector",
    "lemma_offsets",
    "point_target",
    "split_offsets",
    "verify_plurigenus_form",
    "xi_bar",
    "xi_bar_num",
    "xi_bar_pair",
    "xi_lin_num",
]


@dataclass(frozen=True)
class Functional:
    """Integer coefficients (c_1, ..., c_N) on mbar^1, ..., mbar^N.

    Every coefficient must be an int (not a bool).  Trailing zeros are
    canonicalized away; at least one coefficient must survive.
    """

    coeffs: tuple[int, ...]
    # Indices j with c_j != 0, ascending, their c_j, and the moments
    # m1 = sum c_j * j, m2 = sum c_j * j^2; derived, so not part of eq or
    # repr.
    support: tuple[int, ...] = field(init=False, compare=False, repr=False)
    weights: tuple[int, ...] = field(init=False, compare=False, repr=False)
    m1: int = field(init=False, compare=False, repr=False)
    m2: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        coeffs = tuple(self.coeffs)
        for c in coeffs:
            if type(c) is not int:  # no bool, no truncation
                raise ValueError(
                    f"coefficients must be ints, got {type(c).__name__} {c!r}"
                )
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs:
            raise ValueError("functional needs at least one nonzero coefficient")
        object.__setattr__(self, "coeffs", coeffs)
        support = tuple(j for j, c in enumerate(coeffs, start=1) if c)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", tuple(coeffs[j - 1] for j in support))
        object.__setattr__(self, "m1", sum(c * j for j, c in enumerate(coeffs, 1)))
        object.__setattr__(self, "m2", sum(c * j * j for j, c in enumerate(coeffs, 1)))

    def weigh(self, values) -> int:
        """sum of c_j * v_j for per-j values v_j listed over the support."""
        return sum(map(mul, self.weights, values))

    def moments(self) -> tuple[int, int]:
        """(m1, m2) = (sum c_j * j, sum c_j * j^2).

        A zero second moment makes the functional balanced: xi_lin is then
        b * m1/2, independent of r.
        """
        return self.m1, self.m2

    @property
    def is_balanced(self) -> bool:
        return self.m2 == 0


def point_target(floor: int, b: int, r: int) -> int:
    """Target for xi_bar at the single point b/r: floor * b at a ``low_slope``."""
    return floor * b if low_slope(b, r) else 0


@dataclass(frozen=True)
class Inequality:
    """sum_m a_m P_m >= chi_coeff * chi(O) + floor * sigma12.

    The constructor takes the a_m as a mapping {m: a_m}, or as the (m, a_m)
    pairs that ``dataclasses.replace`` passes back, and keeps them as the
    tuple of (m, a_m) pairs sorted by m, so the record is hashable.  Everything else derives from the table:
    l(m) = sum_{j<m} mbar^j gives the functional c_j = sum_{m>j} a_m; the
    K^3 terms must cancel, and the chi(O) terms leave
    chi_coeff = -sum_m a_m (2m - 1).
    """

    p_coeffs: tuple[tuple[int, int], ...]
    floor: int
    functional: Functional = field(init=False)
    chi_coeff: int = field(init=False)

    def __post_init__(self) -> None:
        items = tuple(sorted(dict(self.p_coeffs).items()))
        object.__setattr__(self, "p_coeffs", items)
        k3_terms = sum(a * m * (m - 1) * (2 * m - 1) for m, a in items)
        if k3_terms:
            raise ValueError(f"K^3 terms of {dict(items)} do not cancel: {k3_terms}")
        top = items[-1][0]
        suffix_sums = tuple(sum(a for m, a in items if m > j) for j in range(1, top))
        object.__setattr__(self, "functional", Functional(suffix_sums))
        object.__setattr__(self, "chi_coeff", -sum(a * (2 * m - 1) for m, a in items))

    def target(self, basket: Basket) -> int:
        """floor * sigma12: the sum of ``point_target`` over the basket."""
        return self.floor * sigma12(basket)


INEQUALITIES = {
    1: Inequality({2: -3, 3: -1, 4: 1, 5: 1, 6: 1, 7: -1}, floor=0),
    2: Inequality(
        {2: -10, 3: -4, 5: 2, 6: 3, 7: -1, 8: 1, 10: 1, 11: -1, 12: 1, 13: -1},
        floor=14,
    ),
}
INEQ1 = INEQUALITIES[1].functional
INEQ2 = INEQUALITIES[2].functional


def xi_bar_num(func: Functional, b: int, r: int) -> int:
    """2r * xi_bar at b/r: sum of c_j * s(r - s) with s = jb mod r."""
    num = 0
    for j, c in zip(func.support, func.weights):
        s = j * b % r
        num += c * s * (r - s)
    return num


def xi_bar_pair(func: Functional, b: int, r: int) -> Fraction:
    """xi_bar on a single raw point, as one exact fraction over 2r."""
    return Fraction(xi_bar_num(func, b, r), 2 * r)


def _xi_bar_scaled(func: Functional, basket: Basket) -> tuple[int, int]:
    """(D, D * xi_bar) with D = 2 * lcm(r_i): the basket sum in integers.

    Each point's 2r * xi_bar is an integer, so D * xi_bar is the sum of
    mult * xi_bar_num * (D/2 // r) over the basket.  D is the one of
    ``scaled_l_table``, so the l-form is compared with it as an integer.
    """
    items = basket.items
    half = lcm(*(p.r for p, _ in items))  # D / 2; 1 for the empty basket
    num = sum(mult * xi_bar_num(func, p.b, p.r) * (half // p.r) for p, mult in items)
    return 2 * half, num


def xi_bar(func: Functional, basket: Basket) -> Fraction:
    """Sum of c_j * mbar^j over the basket; additive over multiset union.

    The sum is taken in integers over D = 2 * lcm(r_i) by
    ``_xi_bar_scaled`` and made a Fraction once.
    """
    den, num = _xi_bar_scaled(func, basket)
    return Fraction(num, den)


def xi_lin_num(func: Functional, b: int, r: int) -> int:
    """2r * xi_lin at b/r: sum of c_j * t(r - t) with t = jb.

    In closed form, b*r*m1 - b^2*m2 with the functional's moments.
    """
    return b * (r * func.m1 - b * func.m2)


def delta_vector(func: Functional, b: int, r: int) -> tuple[int, ...]:
    """delta^j at b/r for each j in the functional's support, in order."""
    return delta_row(b, r, func.support)


def xi_delta_pair(func: Functional, b: int, r: int) -> int:
    """xi_delta on a raw point: sum of c_j * delta^j, an exact integer."""
    return func.weigh(delta_vector(func, b, r))


def lemma_offsets(r1: int, r2: int, ns) -> tuple[int | None, ...]:
    """The offsets of delta^n that the split lemmas predict, for each n in ns.

    ``ns`` is an ascending, nonempty sequence of positive n.  With
    n = x*r1 + y*r2 and x smallest in [1, r2]: -min(x, y) when the
    representation lies in the box 0 < y <= r1, 0 when n has no
    representation with x, y > 0 (y <= 0), and None otherwise, where
    neither lemma applies.  Below r1 + r2 no n has a representation with
    x, y >= 1, so the vector is all zeros without a modular inverse;
    otherwise one inverse serves every n.  Requires gcd(r1, r2) = 1.
    """
    if ns[-1] < r1 + r2:
        return (0,) * len(ns)
    inverse = pow(r1, -1, r2)
    offsets = []
    for n in ns:
        x = n * inverse % r2 or r2  # x*r1 = n (mod r2)
        y = (n - x * r1) // r2
        offsets.append(0 if y < 1 else -min(x, y) if y <= r1 else None)
    return tuple(offsets)


def split_offsets(d, d_hi, d_lo) -> tuple[int, ...]:
    """delta^n(child) - delta^n(hi) - delta^n(lo), from their delta rows over one ns."""
    return tuple(map(sub, map(sub, d, d_hi), d_lo))


def _no_slope_between(b_hi: int, r_hi: int, b_lo: int, r_lo: int, n: int) -> bool:
    # The smallest integer strictly above b_lo*n/r_lo is not below b_hi*n/r_hi.
    k = b_lo * n // r_lo + 1
    return k * r_hi >= b_hi * n


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


def check_lemmas_exhaustive(r1_max: int, r2_max: int) -> LemmaSweep:
    """Run both lemmas over every mediant split into r1 <= r1_max, r2 <= r2_max.

    The splits, with the high parent's index r1, are those of the
    certificates; n runs from 1 to 2 * r1 * r2.
    """
    pairs = 0
    nodiff_checked = diff_checked = uncovered = 0
    mismatches: list[str] = []
    for b, r in slopes(5, r1_max + r2_max):
        if b == 1:
            continue
        (b1, r1), (b2, r2), _ = split_slope(b, r)
        if r1 > r1_max or r2 > r2_max:
            continue
        pairs += 1
        split = f"{b1}/{r1} {b2}/{r2}"
        ns = range(1, 2 * r1 * r2 + 1)
        gaps = split_offsets(
            delta_row(b, r, ns), delta_row(b1, r1, ns), delta_row(b2, r2, ns)
        )
        for n, expected, gap in zip(ns, lemma_offsets(r1, r2, ns), gaps):
            if expected == 0:
                nodiff_checked += 1
                if gap != 0 or not _no_slope_between(b1, r1, b2, r2, n):
                    mismatches.append(f"nodiff {split} n={n} gap={gap}")
            elif expected is not None:
                diff_checked += 1
                if gap != expected:
                    mismatches.append(f"diff {split} n={n} gap={gap} lemma={expected}")
            else:
                # Positive representation without a box one; possible
                # only for n > r1*r2, where neither lemma applies.
                uncovered += 1
                if n <= r1 * r2:
                    mismatches.append(f"uncovered {split} n={n}")
    return LemmaSweep(
        pairs, nodiff_checked, diff_checked, uncovered, tuple(mismatches)
    )


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
    def ok(self) -> bool:
        return self.p_form >= self.target

    @property
    def slack(self) -> Fraction:
        return self.p_form - self.target

    def __bool__(self) -> bool:
        return self.ok


# Per form: its largest m, its a_m, a getter of its P_m from a row
# (P_2, ..., P_M) that covers the form, and [int] * (number of a_m): the
# types of an all-int read.
_ROW_FORMS = {
    which: (
        ineq.p_coeffs[-1][0],
        tuple(a for _, a in ineq.p_coeffs),
        itemgetter(*(m - 2 for m, _ in ineq.p_coeffs)),
        [int] * len(ineq.p_coeffs),
    )
    for which, ineq in INEQUALITIES.items()
}


def _basket_half(basket: Basket, which: int) -> tuple[int, list[int], int, int]:
    """Everything a form check needs of the basket alone, in integers.

    Returns (D, [D*l(0), ..., D*l(top)], D*l_form, target) with
    D = 2*lcm(r_i), top the form's largest m and target = floor * sigma12,
    after checking the per-basket identity l_form == xi_bar in integers:
    D*l_form, from the scaled l table, must equal D*xi_bar, from
    ``_xi_bar_scaled`` (ArithmeticError otherwise, its text made only
    then).  Every (K^3, chi) of one basket has p_form = l_form, so the
    form holds on each of its rows exactly when D*l_form >= target * D.
    A caller that checks many rows of one basket takes the half once and
    passes it to ``_row_check`` per row.
    """
    ineq = INEQUALITIES[which]
    den, ells = scaled_l_table(basket, ineq.p_coeffs[-1][0])
    l_num = sum(c * ells[m] for m, c in ineq.p_coeffs)
    _, xi_num = _xi_bar_scaled(ineq.functional, basket)  # over the same D
    if l_num != xi_num:
        raise ArithmeticError(
            f"form {which} evaluations disagree: "
            f"{Fraction(l_num, den)}, {Fraction(xi_num, den)}"
        )
    return den, ells, l_num, ineq.target(basket)


def _row_check(
    half: tuple, which: int, pm: tuple[int, ...], chi: int, k3: Fraction,
    strict: bool = False,
) -> list[int]:
    """The form's non-integral P_m on one row, against a ``_basket_half`` of its basket.

    ``pm = (P_2, ..., P_M)`` holds ints (an entry the form reads that is
    not an int raises ValueError); the form's P_m above M come from a
    ``chi_mk_row`` on (K^3, chi), over W = lcm(12 den(K^3), D).  When the
    row covers the form, the P-form is one dot product of the form's a_m
    with the row's entries and W = 1.  The computed P_m that are not
    integers are listed (and raise InconsistentInvariantsError under
    ``strict``); then the P-form must equal the l-form as scaled integers,
    p_num * D == l_num * W, or ArithmeticError is raised.  Returns the
    list, empty when every P_m the form reads is an integer.
    """
    den, ells, l_num, _ = half
    top, coeffs, read, ints = _ROW_FORMS[which]
    ineq = INEQUALITIES[which]
    if len(pm) + 1 >= top and list(map(type, given := read(pm))) == ints:
        # The row covers the form and holds only ints (no bool or float).
        w, bad = 1, []
        p_num = sum(map(mul, coeffs, given)) - ineq.chi_coeff * chi
    else:
        # given: the sum of a_m * P_m over the m <= M that pm holds.
        given, computed, top = 0, [], len(pm) + 1
        for m, a in ineq.p_coeffs:
            if m > top:
                computed.append((m, a))
            elif type(p := pm[m - 2]) is int:  # no bool, float or Fraction
                given += a * p
            else:
                raise ValueError(
                    f"P_{m} in pm must be int, got {type(p).__name__} {p!r}"
                )
        ms = [m for m, _ in computed]
        w, row = chi_mk_row(k3, chi, den, ells, ms) if ms else (1, ())
        bad = [m for m, v in zip(ms, row) if v % w]
        if strict and bad:
            raise InconsistentInvariantsError(f"non-integral plurigenera at m = {bad}")
        p_num = (given - ineq.chi_coeff * chi) * w + sum(
            [a * v for (_, a), v in zip(computed, row)]
        )
    if p_num * den != l_num * w:
        l_form = Fraction(l_num, den)
        raise ArithmeticError(
            f"form {which} evaluations disagree: "
            f"{Fraction(p_num, w)}, {l_form}, {l_form}"
        )
    return bad


def verify_plurigenus_form(
    inv: ThreefoldInvariants,
    which: int,
    *,
    strict: bool = True,
    pm: tuple[int, ...] = (),
) -> PlurigenusFormReport:
    """Evaluate inequality (1) or (2) three ways and check they agree.

    The K^3 and chi terms cancel between the plurigenera, so the P-form
    equals the l-form equals xi_bar of the basket for *any* exact rational
    K^3 and integer chi.  With strict=True, non-integral plurigenera in the
    form's support raise InconsistentInvariantsError instead.  ``which``
    must be the int 1 or 2.

    ``inv`` is read only through its fields ``basket`` (a Basket),
    ``chi`` (an int) and ``k3`` (an int or Fraction, used only when some
    P_m is computed), so it may be a ThreefoldInvariants or anything else
    that carries them, such as an enumeration ``Candidate``.  Those are
    not type-checked here.

    ``pm = (P_2, ..., P_M)`` is a row of ints the caller already holds,
    such as ``Candidate.pm``: the P-form reads each of its P_m with
    m <= M from that row (an entry it reads that is not an int raises
    ValueError), and only the form's P_m above M come from a
    ``chi_mk_row`` on (K^3, chi).  Without a row (M = 1) every P_m is
    computed; when the row covers the form, no ``chi_mk_row`` is made.

    The work is split by what it depends on.  Per basket, in
    ``_basket_half``: the scaled l table, the l-form, the target and the
    l-form = xi_bar identity, all in integers.  Per row, in
    ``_row_check``: the computed P_m, their integrality (and the strict
    raise), and the P-form = l-form identity in integers, so every row is
    checked on its own.  A caller that checks many rows of one basket, as
    ``enumerate`` does, takes the half once and calls ``_row_check`` per
    row.  The one report returned is made here, from the half and the
    row's non-integral P_m.
    """
    if type(which) is not int or which not in INEQUALITIES:
        raise ValueError(
            f"form must be the int 1 or 2, got {type(which).__name__} {which!r}"
        )
    half = _basket_half(inv.basket, which)
    bad = _row_check(half, which, pm, inv.chi, inv.k3, strict)
    den, _, l_num, target = half
    value = Fraction(l_num, den)
    return PlurigenusFormReport(which, value, value, value, Fraction(target), not bad)
