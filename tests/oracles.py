"""Independent oracles and random data generators for the tests.

The counting and enumeration logic here deliberately avoids the library
code paths it is used to check.  ``verify_both_ways`` and
``basket_lines_by_candidate`` are the exceptions: each holds one of the
library's ways of doing a thing to another.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import combinations_with_replacement
from math import floor, gcd, lcm
from random import Random

from basket3.baskets import Basket, OrbifoldPoint
from basket3.certificates import Certificate, _node_line, verify_certificate
from basket3.enumeration import (
    EnumConstraints,
    ExplicitK3,
    M0Report,
    NoCandidatesError,
    enumerate_candidates,
)
from basket3.functionals import INEQUALITIES, verify_plurigenus_form
from basket3.rationals import format_fraction, slopes
from basket3.riemann_roch import ThreefoldInvariants, plurigenus

X10_WEIGHTS = (1, 1, 1, 1, 5)
X10_DEGREE = 10


def weighted_monomial_count(degree: int, weights: tuple[int, ...]) -> int:
    """Number of monomials of the given weighted degree (DP over weights)."""
    if degree < 0:
        return 0
    ways = [0] * (degree + 1)
    ways[0] = 1
    for w in weights:
        for d in range(w, degree + 1):
            ways[d] += ways[d - w]
    return ways[degree]


def hypersurface_h0(m: int, weights=X10_WEIGHTS, degree=X10_DEGREE) -> int:
    """h^0 of O(m) on a hypersurface of the given degree: N(m) - N(m - d)."""
    return weighted_monomial_count(m, weights) - weighted_monomial_count(
        m - degree, weights
    )


def l_by_definition(basket: Basket, m: int) -> Fraction:
    """l(m) = sum of mbar(j, p) over the expanded basket and 0 < j < m.

    mbar(j, p) = s(r - s)/(2r) with s = jb mod r, summed term by term.
    """
    total = Fraction(0)
    for b, r in basket.pairs():
        for j in range(1, m):
            s = (j * b) % r
            total += Fraction(s * (r - s), 2 * r)
    return total


def mbar_by_definition(j: int, b: int, r: int) -> Fraction:
    """The periodized parabola term s(r - s)/(2r) with s = jb mod r."""
    s = j * b % r
    return Fraction(s * (r - s), 2 * r)


def delta_by_definition(j: int, b: int, r: int) -> Fraction:
    """delta^j(b/r) = mbar^j - m_lin^j, with m_lin^j = t(r - t)/(2r), t = jb."""
    t = j * b
    return mbar_by_definition(j, b, r) - Fraction(t * (r - t), 2 * r)


def lemma_offset_by_search(r1: int, r2: int, n: int) -> int | None:
    """The split-lemma offset for n, by trying every x in 1..n.

    -min(x, y) for a representation n = x*r1 + y*r2 with 0 < x <= r2 and
    0 < y <= r1; 0 when no representation has x, y > 0; None otherwise.
    """
    positive = False
    for x in range(1, n + 1):
        y, rest = divmod(n - x * r1, r2)
        if rest == 0 and y >= 1:
            if x <= r2 and y <= r1:
                return -min(x, y)
            positive = True
    return None if positive else 0


def mediant_parents_by_convergents(
    b: int, r: int
) -> tuple[tuple[int, int], tuple[int, int], int]:
    """((b_high, r_high), (b_low, r_low), cf_det) from the convergents of b/r.

    The previous convergent h/k of [0; a1, ..., at] comes from the
    recurrence h_i = a_i h_{i-1} + h_{i-2}; it and its complement
    (b - h, r - k) are the parents.  cf_det is h*(r - k) - (b - h)*k, and
    the parent with the larger slope is high.
    """
    h_prev, k_prev, h, k = 1, 0, 0, 1
    x, y = r, b
    while y:
        a, rest = divmod(x, y)
        h_prev, k_prev, h, k = h, k, a * h + h_prev, a * k + k_prev
        x, y = y, rest
    assert (h, k) == (b, r)
    first, second = (h_prev, k_prev), (b - h_prev, r - k_prev)
    cf_det = first[0] * second[1] - second[0] * first[1]
    if cf_det == 1:
        return first, second, cf_det
    return second, first, cf_det


def slopes_in_interval(
    r_max: int, lo: tuple[int, int], hi: tuple[int, int]
) -> list[tuple[int, int]]:
    """The (b, r) of ``slopes(2, r_max)`` with lo < b/r <= hi, in its (r, b) order.

    A filter by cross-multiplication, which uses no Farey or mediant
    structure of the interval.
    """
    (p, q), (s, t) = lo, hi
    return [(b, r) for b, r in slopes(2, r_max) if p * r < b * q and b * t <= s * r]


def admissible_points_by_definition(
    sigma_max: int, sigma12_zero: bool, max_index: int | None
) -> tuple[OrbifoldPoint, ...]:
    """Coprime b/r <= 1/2 with b <= sigma_max and r < 12b or r <= max_index.

    One nested loop per multiplicity, then a sort by (r, b).
    """
    points = []
    for b in range(1, sigma_max + 1):
        r_top = 12 * b - 1 if sigma12_zero else max_index
        for r in range(max(2, 2 * b), r_top + 1):
            if gcd(b, r) == 1:
                points.append(OrbifoldPoint(b, r))
    return tuple(sorted(points, key=lambda p: (p.r, p.b)))


def brute_force_baskets(
    points: tuple[OrbifoldPoint, ...], sigma_max: int
) -> set[Basket]:
    """All multisets over the points with multiplicity sum <= sigma_max."""
    found = {Basket()}
    for size in range(1, sigma_max + 1):
        for combo in combinations_with_replacement(points, size):
            if sum(p.b for p in combo) <= sigma_max:
                found.add(Basket.from_points(combo))
    return found


def plurigenera_by_definition(
    basket: Basket, chi: int, k3: Fraction, m_max: int, nonneg: bool
) -> tuple[int, ...] | None:
    """(P_2, ..., P_m_max) from ``plurigenus``, or None if one is not an
    integer, or is negative when ``nonneg`` asks."""
    inv = ThreefoldInvariants(k3, chi, basket)
    table = []
    for m in range(2, m_max + 1):
        report = plurigenus(inv, m)
        if not report.is_integral or (nonneg and report.p_m < 0):
            return None
        table.append(report.p_m)
    return tuple(table)


# Volumes above this are not searched.  Every P_m >= 0 once
# K^3 >= 12 chi / (m(m - 1)), which is at most 6 chi, so with chi <= 12 a
# least admissible volume on a grid of step 2 is at most 74.
K3_HORIZON = 128


def candidates_by_definition(
    basket: Basket, constraints: EnumConstraints
) -> list[tuple[int, Fraction, tuple[int, ...]]]:
    """(chi, K^3, P table) for each candidate of one basket, by trial.

    An explicit positive volume is tried as given.  The minimal search
    walks volumes in increasing order: an admissible volume has an integral
    P_2, so it is 2(P_2 + 3 chi - l(2)) for an integer P_2, and those
    volumes step by 2.  The walk starts at the least P_2 giving K^3 > 0 and
    takes the first volume in (1/D) * Z whose table passes, or none up to
    ``K3_HORIZON``.
    """
    m_max, nonneg = constraints.m_max, constraints.require_nonneg_pm
    policy = constraints.k3_policy
    found = []
    for chi in range(constraints.chi_min, constraints.chi_max + 1):
        if isinstance(policy, ExplicitK3):
            volumes = [policy.value] if policy.value > 0 else []
        else:
            denominator = policy.denominator
            if denominator is None:
                denominator = lcm(*(r for _, r in basket.pairs())) ** 3
            ell = l_by_definition(basket, 2)
            p2 = floor(ell - 3 * chi) + 1
            volumes = []
            while (k3 := 2 * (p2 + 3 * chi - ell)) <= K3_HORIZON:
                if (k3 * denominator).denominator == 1:
                    volumes.append(k3)
                p2 += 1
        for k3 in volumes:
            table = plurigenera_by_definition(basket, chi, k3, m_max, nonneg)
            if table is not None:
                found.append((chi, k3, table))
                break
    return found


def find_m0_by_list(constraints: EnumConstraints) -> M0Report:
    """``find_m0`` over the whole candidate list: the first m with every
    P_m >= 2, and as witness the first candidate, by ``max``, whose least
    m with P_m >= 2 is the largest."""
    candidates = list(enumerate_candidates(constraints))
    if not candidates:
        raise NoCandidatesError("no candidates under the given constraints")
    m_max = constraints.m_max
    m0 = next(
        (m for m in range(2, m_max + 1) if all(c.p(m) >= 2 for c in candidates)),
        None,
    )

    def first_success(c):
        return next((m for m in range(2, m_max + 1) if c.p(m) >= 2), m_max + 1)

    witness = max(candidates, key=first_success)
    return M0Report(m0, witness, len(candidates), m_max)


def random_point(rng: Random, r_max: int = 40) -> OrbifoldPoint:
    r = rng.randrange(2, r_max + 1)
    choices = [b for b in range(1, r // 2 + 1) if gcd(b, r) == 1]
    return OrbifoldPoint(rng.choice(choices), r)


def random_basket(rng: Random, max_points: int = 4, r_max: int = 40) -> Basket:
    count = rng.randrange(0, max_points + 1)
    return Basket.from_points(random_point(rng, r_max) for _ in range(count))


def random_k3(rng: Random) -> Fraction:
    return Fraction(rng.randrange(-100, 301), rng.randrange(1, 60))


def verify_both_ways(path) -> object:
    """The report of a certificate file, checked as it is read and after reading it.

    ``verify_certificate(path)`` and ``verify_certificate(Certificate.read(path))``
    must give equal reports, in every field, or raise the same error; the
    report, or the (type, text) of the error, is returned.
    """
    outcomes = []
    for verify in (
        lambda: verify_certificate(path),
        lambda: verify_certificate(Certificate.read(path)),
    ):
        try:
            outcomes.append(verify())
        except ValueError as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


def basket_lines_by_candidate(basket: Basket, cands) -> tuple[str, bool]:
    """``cli._basket_lines`` from one ``verify_plurigenus_form`` per candidate and form.

    Each candidate is checked on forms 1 and 2, in that order, against its
    own row, and its line is the sorted ``json.dumps`` of its record with
    ``K^3`` written by ``format_fraction``.  Returns the lines and whether
    every check held; an error of a check is raised as it is.
    """
    lines, ok = [], True
    for cand in cands:
        for which in (1, 2):
            report = verify_plurigenus_form(cand, which, strict=False, pm=cand.pm)
            ok = report.ok and ok
        record = {"basket": basket.pairs(), "chi": cand.chi,
                  "k3": format_fraction(cand.k3), "pm": list(cand.pm)}
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    return "".join(lines), ok


def basket_half_by_fractions(basket: Basket, which: int) -> tuple:
    """``functionals._basket_half`` restated in Fractions from the definitions.

    The l table is ``l_by_definition`` at m = 0 .. top, the form's largest
    m; the l-form is sum a_m l(m) and xi_bar the sum of c_j mbar^j over the
    expanded basket, which must be equal (ArithmeticError otherwise); the
    target is floor * sigma12, summed point by point.  The table and the
    l-form are scaled by D = 2 * lcm(r_i) and returned as ints, as the
    half returns them (AssertionError if one is not an integer).
    """
    ineq = INEQUALITIES[which]
    ells = [l_by_definition(basket, m) for m in range(ineq.p_coeffs[-1][0] + 1)]
    l_form = sum(a * ells[m] for m, a in ineq.p_coeffs)
    xi_form = sum(
        c * mbar_by_definition(j, b, r)
        for b, r in basket.pairs()
        for j, c in enumerate(ineq.functional.coeffs, start=1)
    )
    if l_form != xi_form:
        raise ArithmeticError(f"form {which} evaluations disagree: {l_form}, {xi_form}")
    target = ineq.floor * sum(b for b, r in basket.pairs() if 12 * b <= r)
    den = 2 * lcm(*(r for _, r in basket.pairs()))

    def scaled(value: Fraction) -> int:
        value *= den
        assert value.denominator == 1, value
        return value.numerator

    return den, [scaled(v) for v in ells], scaled(l_form), target


def with_nodes(cert: Certificate, nodes) -> Certificate:
    """The certificate of ``nodes`` under ``cert``'s header, as the reader takes it.

    Each node is written with the writer's ``_node_line``, the header's
    ``nodes:`` count is set to theirs, and the text is read back with
    ``Certificate.from_text``, so a node the reader refuses raises its error.
    """
    header = cert._header().decode("ascii")
    header = re.sub(r"(?m)^nodes: \d+$", f"nodes: {len(nodes)}", header)
    return Certificate.from_text(header + "".join(map(_node_line, nodes)))
