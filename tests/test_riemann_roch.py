"""chi(mK), plurigenera, inversion, and the sigma identity."""

from fractions import Fraction
from math import lcm
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basket3.baskets import Basket, EMPTY_BASKET, mbar, scaled_l_table
from basket3.riemann_roch import (
    InconsistentInvariantsError,
    ThreefoldInvariants,
    chi_mk,
    chi_mk_row,
    k3_from_p2,
    plurigenus,
    sigma_identity_check,
)
from oracles import l_by_definition, random_basket, random_k3

X10 = ThreefoldInvariants(Fraction(2), -3, EMPTY_BASKET)


class TestChiMk:
    def test_x10_low_degrees(self):
        assert chi_mk(X10, 2) == 10
        assert chi_mk(X10, 3) == 20

    def test_m_one_is_minus_chi(self):
        rng = Random(7)
        for _ in range(30):
            inv = ThreefoldInvariants(
                Fraction(rng.randrange(1, 40), rng.randrange(1, 9)),
                rng.randrange(-6, 7),
                random_basket(rng),
            )
            assert chi_mk(inv, 1) == -inv.chi == inv.chi_omega

    @settings(max_examples=40)
    @given(st.randoms(use_true_random=False), st.integers(0, 20))
    def test_row_matches_formula(self, rng, m_max):
        basket = random_basket(rng)
        k3, chi = random_k3(rng), rng.randrange(-9, 10)
        w, row = chi_mk_row(k3, chi, *scaled_l_table(basket, m_max), range(m_max + 1))
        assert all(type(value) is int for value in row)
        for m, value in enumerate(row):
            expected = (
                Fraction(m * (m - 1) * (2 * m - 1), 12) * k3
                - (2 * m - 1) * chi
                + l_by_definition(basket, m)
            )
            assert Fraction(value, w) == expected
            # One divmod decides integrality over the common denominator.
            assert (value % w == 0) == (expected.denominator == 1)

    def test_m_zero_is_chi(self):
        inv = ThreefoldInvariants(Fraction(7, 3), 4, Basket.from_pairs([(2, 5)]))
        assert chi_mk(inv, 0) == 4

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            chi_mk(X10, -1)

    def test_cubic_plus_periodic_structure(self):
        # chi(mK) minus the cubic-and-chi part differs across one full
        # period of the basket by the constant full-period mbar sum.
        rng = Random(11)
        for _ in range(20):
            basket = random_basket(rng, max_points=3, r_max=12)
            if not basket.items:
                continue
            inv = ThreefoldInvariants(
                Fraction(rng.randrange(1, 30), rng.randrange(1, 7)),
                rng.randrange(-5, 6),
                basket,
            )
            period = lcm(*(p.r for p, _ in basket.items))
            full_sum = sum(
                (mult * mbar(j, p) for p, mult in basket.items for j in range(period)),
                Fraction(0),
            )

            def pure(m):
                return Fraction(m * (m - 1) * (2 * m - 1), 12) * inv.k3 - (
                    2 * m - 1
                ) * inv.chi

            for m in (1, 3, 8, 20):
                lhs = chi_mk(inv, m + period) - chi_mk(inv, m)
                assert lhs == pure(m + period) - pure(m) + full_sum


class TestPlurigenus:
    def test_half_k3_example(self):
        inv = ThreefoldInvariants(Fraction(11, 2), 1, Basket.from_pairs([(1, 2)]))
        assert plurigenus(inv, 2).p_m == 0
        assert plurigenus(inv, 3).p_m == 9

    def test_non_integral_is_reported_not_rejected(self):
        rep = plurigenus(ThreefoldInvariants(Fraction(1), 1, EMPTY_BASKET), 2)
        assert rep.chi_mk == Fraction(-5, 2)
        assert not rep.is_integral
        assert rep.p_m is None

    def test_below_two_rejected(self):
        with pytest.raises(ValueError):
            plurigenus(X10, 1)


class TestK3FromP2:
    def test_examples(self):
        assert k3_from_p2(1, Basket.from_pairs([(1, 2)]), 0) == Fraction(11, 2)
        assert k3_from_p2(-3, EMPTY_BASKET, 10) == 2
        assert k3_from_p2(0, EMPTY_BASKET, 0) == 0

    def test_round_trip(self):
        rng = Random(23)
        for _ in range(50):
            basket = random_basket(rng)
            chi = rng.randrange(-8, 9)
            p2 = rng.randrange(-5, 40)
            inv = ThreefoldInvariants(k3_from_p2(chi, basket, p2), chi, basket)
            assert chi_mk(inv, 2) == p2


class TestSigmaIdentity:
    def test_half_k3_example(self):
        inv = ThreefoldInvariants(Fraction(11, 2), 1, Basket.from_pairs([(1, 2)]))
        report = sigma_identity_check(inv)
        assert report.ok and report.sigma == 1
        assert (report.p2, report.p3) == (0, 9)

    def test_x10(self):
        report = sigma_identity_check(X10)
        assert report.ok
        assert report.rhs == -30 + 5 * 10 - 20 == 0

    def test_independent_of_k3(self):
        basket = Basket.from_pairs([(1, 2)])
        shifted = ThreefoldInvariants(Fraction(11, 2) + 2, 1, basket)
        assert sigma_identity_check(shifted).ok

    def test_non_integral_rejected(self):
        with pytest.raises(InconsistentInvariantsError):
            sigma_identity_check(ThreefoldInvariants(Fraction(1), 1, EMPTY_BASKET))
