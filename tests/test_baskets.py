"""Basket model and the local parabola terms."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basket3.baskets import (
    Basket,
    BasketError,
    EMPTY_BASKET,
    LocalIndexError,
    NonCoprimeError,
    OrbifoldPoint,
    SlopeError,
    delta,
    l_correction,
    l_table,
    m_lin,
    mbar,
    scaled_l_table,
    sigma,
    sigma12,
)
from oracles import l_by_definition


@st.composite
def points(draw, r_max=60):
    r = draw(st.integers(2, r_max))
    b = draw(st.sampled_from([b for b in range(1, r // 2 + 1) if gcd(b, r) == 1]))
    return OrbifoldPoint(b, r)


@st.composite
def baskets(draw, max_points=5, r_max=60):
    return Basket.from_points(draw(st.lists(points(r_max), max_size=max_points)))


class TestPointValidation:
    def test_non_coprime(self):
        with pytest.raises(NonCoprimeError):
            OrbifoldPoint(2, 4)

    def test_slope_too_big(self):
        with pytest.raises(SlopeError):
            OrbifoldPoint(3, 5)

    def test_bad_index(self):
        with pytest.raises(LocalIndexError):
            OrbifoldPoint(1, 1)

    def test_slope(self):
        assert OrbifoldPoint(2, 5).slope == Fraction(2, 5)


class TestBasket:
    def test_canonicalization(self):
        basket = Basket.from_pairs([(1, 3), (1, 2), (1, 3)])
        assert basket.items == (
            (OrbifoldPoint(1, 2), 1),
            (OrbifoldPoint(1, 3), 2),
        )
        assert basket.pairs() == [(1, 2), (1, 3), (1, 3)]
        assert len(basket) == 3

    def test_rejects_unsorted_items(self):
        with pytest.raises(BasketError):
            Basket(((OrbifoldPoint(1, 3), 1), (OrbifoldPoint(1, 2), 1)))

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(BasketError):
            Basket(((OrbifoldPoint(1, 2), 0),))

    @pytest.mark.parametrize(
        "pair",
        [(1.7, 2.2), (1, 2.0), (True, 2), (1, "3"), (None, 2), (1, Fraction(3))],
    )
    def test_from_pairs_rejects_non_integers(self, pair):
        with pytest.raises(BasketError, match="integers"):
            Basket.from_pairs([(1, 2), pair])

    def test_union(self):
        left = Basket.from_pairs([(1, 2)])
        right = Basket.from_pairs([(1, 2), (2, 5)])
        assert (left + right).pairs() == [(1, 2), (1, 2), (2, 5)]


class TestLocalTerms:
    def test_mbar_examples(self):
        assert mbar(1, OrbifoldPoint(1, 2)) == Fraction(1, 4)
        assert mbar(6, OrbifoldPoint(1, 2)) == 0
        assert mbar(1, OrbifoldPoint(2, 5)) == Fraction(3, 5)

    def test_m_lin_examples(self):
        assert m_lin(6, OrbifoldPoint(1, 2)) == -6
        assert m_lin(0, OrbifoldPoint(3, 7)) == 0
        assert m_lin(5, OrbifoldPoint(2, 5)) == -5

    def test_delta_examples(self):
        p = OrbifoldPoint(1, 2)
        assert [delta(n, p) for n in (3, 4, 6)] == [1, 2, 6]
        assert delta(5, OrbifoldPoint(2, 5)) == 5

    def test_delta_vanishes_at_small_n(self):
        for p in (OrbifoldPoint(1, 2), OrbifoldPoint(2, 5), OrbifoldPoint(5, 11)):
            assert delta(1, p) == 0 and delta(2, p) == 0

    def test_delta_is_the_gap_exhaustively(self):
        # Exact identity delta = mbar - m_lin for all r <= 200, n <= 26.
        for r in range(2, 201):
            for b in range(1, r // 2 + 1):
                if gcd(b, r) != 1:
                    continue
                p = OrbifoldPoint(b, r)
                for n in range(27):
                    gap = delta(n, p)
                    assert gap == mbar(n, p) - m_lin(n, p)
                    assert gap >= 0

    @given(points())
    def test_mbar_periodicity(self, p):
        for j in range(2 * p.r):
            assert mbar(j + p.r, p) == mbar(j, p)

    @given(points())
    def test_mbar_symmetry(self, p):
        for j in range(1, p.r):
            assert mbar(j, p) == mbar(p.r - j, p)


class TestCorrectionTerm:
    def test_examples(self):
        assert l_correction(Basket.from_pairs([(1, 2)]), 2) == Fraction(1, 4)
        assert l_correction(EMPTY_BASKET, 9) == 0
        assert l_correction(Basket.from_pairs([(1, 2), (2, 5)]), 2) == Fraction(17, 20)

    def test_vanishes_below_two(self):
        basket = Basket.from_pairs([(2, 5)])
        assert l_correction(basket, 0) == 0
        assert l_correction(basket, 1) == 0

    def test_periodic_shortcut_matches_direct_sum(self):
        for pair in ((1, 2), (2, 5), (3, 7), (5, 11)):
            p = OrbifoldPoint(*pair)
            basket = Basket.from_pairs([pair])
            for m in range(3 * p.r + 5):
                direct = sum((mbar(j, p) for j in range(1, m)), Fraction(0))
                assert l_correction(basket, m) == direct

    def test_l_table_matches_l_correction(self):
        basket = Basket.from_pairs([(1, 2), (2, 5), (2, 5)])
        table = l_table(basket, 20)
        assert table == [l_correction(basket, m) for m in range(21)]

    @settings(max_examples=60)
    @given(baskets(max_points=4), st.integers(0, 40))
    def test_tables_match_definition(self, basket, m_max):
        den, nums = scaled_l_table(basket, m_max)
        assert den == 2 * lcm(*(r for _, r in basket.pairs()))
        assert all(type(num) is int for num in nums)
        expected = [l_by_definition(basket, m) for m in range(m_max + 1)]
        assert [Fraction(num, den) for num in nums] == expected
        assert l_table(basket, m_max) == expected

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            scaled_l_table(EMPTY_BASKET, -1)

    @settings(max_examples=40)
    @given(baskets(max_points=3), baskets(max_points=3), st.integers(0, 15))
    def test_additive_over_union(self, left, right, m):
        union = left + right
        assert l_correction(union, m) == l_correction(left, m) + l_correction(right, m)
        assert sigma(union) == sigma(left) + sigma(right)
        assert sigma12(union) == sigma12(left) + sigma12(right)


class TestSigmas:
    def test_sigma_examples(self):
        assert sigma(Basket.from_pairs([(1, 2), (2, 5)])) == 3
        assert sigma(EMPTY_BASKET) == 0
        assert sigma(Basket.from_pairs([(1, 2)] * 3)) == 3

    def test_sigma12_boundary(self):
        assert sigma12(Basket.from_pairs([(1, 12)])) == 1
        assert sigma12(Basket.from_pairs([(1, 11)])) == 0
        assert sigma12(Basket.from_pairs([(1, 13), (2, 25), (1, 2)])) == 3

    def test_sigma12_at_most_sigma(self):
        basket = Basket.from_pairs([(1, 13), (2, 25), (1, 2), (3, 37)])
        assert sigma12(basket) <= sigma(basket)
