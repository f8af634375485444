"""Independent oracles and random data generators for the tests.

The counting and enumeration logic here deliberately avoids the library
code paths it is used to check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd
from random import Random

from basket3.baskets import Basket, OrbifoldPoint

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


def random_point(rng: Random, r_max: int = 40) -> OrbifoldPoint:
    r = rng.randrange(2, r_max + 1)
    choices = [b for b in range(1, r // 2 + 1) if gcd(b, r) == 1]
    return OrbifoldPoint(rng.choice(choices), r)


def random_basket(rng: Random, max_points: int = 4, r_max: int = 40) -> Basket:
    count = rng.randrange(0, max_points + 1)
    return Basket.from_points(random_point(rng, r_max) for _ in range(count))


def random_k3(rng: Random) -> Fraction:
    return Fraction(rng.randrange(-100, 301), rng.randrange(1, 60))
