"""Slope filtration, basket enumeration, and candidate generation."""

from fractions import Fraction

import pytest

from basket3.baskets import Basket, OrbifoldPoint
from basket3.enumeration import (
    EnumConstraints,
    ExplicitK3,
    MinimalK3Search,
    NoCandidatesError,
    admissible_points,
    attach_invariants,
    enumerate_baskets,
    enumerate_candidates,
    farey_stage,
    find_m0,
)
from basket3.rationals import mediant_parents
from oracles import brute_force_baskets


def non_units(stage):
    return {p for p in stage if p.b >= 2}


class TestFareyStage:
    def test_stage_five_adds_only_two_fifths(self):
        assert non_units(farey_stage(5)) == {OrbifoldPoint(2, 5)}

    def test_stage_six_adds_no_new_slope_beyond_the_unit(self):
        assert farey_stage(6) - farey_stage(5) == {OrbifoldPoint(1, 6)}

    def test_stage_seven_additions(self):
        added = non_units(farey_stage(7)) - non_units(farey_stage(6))
        assert added == {OrbifoldPoint(2, 7), OrbifoldPoint(3, 7)}

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            farey_stage(1)

    def test_filtration_and_parent_closure(self):
        previous = farey_stage(2)
        for n in range(3, 101):
            stage = farey_stage(n)
            assert stage >= previous
            assert all(p.r == n for p in stage - previous)
            for p in stage - previous:
                if p.b >= 2:
                    split = mediant_parents(p.b, p.r)
                    assert split.high in previous and split.low in previous
            previous = stage


class TestEnumerateBaskets:
    def test_sigma_zero(self):
        c = EnumConstraints(chi_min=0, chi_max=0, sigma_max=0)
        assert list(enumerate_baskets(c)) == [Basket()]

    def test_sigma_one(self):
        c = EnumConstraints(chi_min=0, chi_max=0, sigma_max=1)
        baskets = list(enumerate_baskets(c))
        assert len(baskets) == 11
        assert baskets[0] == Basket()
        assert {b.pairs()[0] for b in baskets[1:]} == {(1, r) for r in range(2, 12)}

    @pytest.mark.parametrize("sigma_max", [2, 3, 4])
    def test_complete_against_brute_force(self, sigma_max):
        c = EnumConstraints(chi_min=0, chi_max=0, sigma_max=sigma_max)
        emitted = list(enumerate_baskets(c))
        assert len(emitted) == len(set(emitted)), "duplicates emitted"
        assert set(emitted) == brute_force_baskets(admissible_points(c), sigma_max)

    def test_sigma_two_count(self):
        c = EnumConstraints(chi_min=0, chi_max=0, sigma_max=2)
        assert len(list(enumerate_baskets(c))) == 76

    def test_canonical_order(self):
        c = EnumConstraints(chi_min=0, chi_max=0, sigma_max=3)
        keys = [tuple(b.pairs()) for b in enumerate_baskets(c)]
        assert keys == sorted(keys, key=lambda pairs: [(r, b) for b, r in pairs])

    def test_unrestricted_slope_needs_index_bound(self):
        c = EnumConstraints(
            chi_min=0, chi_max=0, sigma_max=1, require_sigma12_zero=False
        )
        with pytest.raises(ValueError):
            admissible_points(c)
        bounded = EnumConstraints(
            chi_min=0,
            chi_max=0,
            sigma_max=1,
            require_sigma12_zero=False,
            max_index=14,
        )
        points = admissible_points(bounded)
        assert OrbifoldPoint(1, 13) in points


class TestAttachInvariants:
    def test_x10_explicit(self):
        c = EnumConstraints(
            chi_min=-3, chi_max=-3, sigma_max=0, k3_policy=ExplicitK3(Fraction(2))
        )
        (cand,) = attach_invariants(Basket(), c)
        assert cand.p(2) == 10 and cand.p(3) == 20

    def test_half_k3_explicit(self):
        c = EnumConstraints(
            chi_min=1,
            chi_max=1,
            sigma_max=1,
            k3_policy=ExplicitK3(Fraction(11, 2)),
            require_nonneg_pm=True,
        )
        (cand,) = attach_invariants(Basket.from_pairs([(1, 2)]), c)
        assert cand.p(2) == 0 and cand.p(3) == 9

    def test_rejected_non_integral(self):
        c = EnumConstraints(
            chi_min=1, chi_max=1, sigma_max=0, k3_policy=ExplicitK3(Fraction(1))
        )
        assert list(attach_invariants(Basket(), c)) == []

    def test_nonpositive_volume_rejected(self):
        c = EnumConstraints(
            chi_min=0, chi_max=0, sigma_max=0, k3_policy=ExplicitK3(Fraction(-2))
        )
        assert list(attach_invariants(Basket(), c)) == []

    def test_minimal_search_empty_basket(self):
        c = EnumConstraints(
            chi_min=1, chi_max=1, sigma_max=0, m_max=12,
            k3_policy=MinimalK3Search(),
        )
        (cand,) = attach_invariants(Basket(), c)
        # Integrality forces even k; P_2 >= 0 forces K^3 >= 6.
        assert cand.k3 == 6
        assert cand.p(2) == 0
        assert all(cand.p(m) >= 0 for m in range(2, 13))

    @pytest.mark.parametrize("denominator", [0, -8])
    def test_search_denominator_must_be_positive(self, denominator):
        with pytest.raises(ValueError, match="denominator"):
            MinimalK3Search(denominator)

    def test_minimal_search_is_minimal(self):
        c = EnumConstraints(chi_min=0, chi_max=0, sigma_max=1, m_max=12)
        (cand,) = attach_invariants(Basket.from_pairs([(1, 2)]), c)
        denominator = 8
        k = cand.k3 * denominator
        assert k.denominator == 1
        # Nothing smaller on the same grid is admissible.
        from basket3.enumeration import _pm_table
        from basket3.baskets import scaled_l_table

        ells = scaled_l_table(Basket.from_pairs([(1, 2)]), 12)
        for smaller in range(1, int(k)):
            assert _pm_table(ells, 0, Fraction(smaller, denominator), 12, True) is None


class TestFindM0:
    def test_x10_alone(self):
        c = EnumConstraints(
            chi_min=-3, chi_max=-3, sigma_max=0, k3_policy=ExplicitK3(Fraction(2))
        )
        report = find_m0(c)
        assert report.m0 == 2 and report.candidates == 1

    def test_half_k3_needs_three(self):
        c = EnumConstraints(
            chi_min=1,
            chi_max=1,
            sigma_max=1,
            k3_policy=ExplicitK3(Fraction(11, 2)),
            m_max=12,
        )
        report = find_m0(c)
        assert report.m0 == 3
        assert report.witness.basket == Basket.from_pairs([(1, 2)])

    def test_empty_candidate_set(self):
        c = EnumConstraints(
            chi_min=0, chi_max=0, sigma_max=0, k3_policy=ExplicitK3(Fraction(-1))
        )
        with pytest.raises(NoCandidatesError):
            find_m0(c)

    def test_horizon_exhausted(self):
        c = EnumConstraints(
            chi_min=5,
            chi_max=5,
            sigma_max=0,
            k3_policy=ExplicitK3(Fraction(2)),
            m_max=3,
            require_nonneg_pm=False,
        )
        report = find_m0(c)
        assert report.m0 is None and not report.found

    def test_candidate_stream_matches_basket_order(self):
        c = EnumConstraints(chi_min=0, chi_max=1, sigma_max=1, m_max=6)
        cands = list(enumerate_candidates(c))
        basket_keys = [tuple(cand.basket.pairs()) for cand in cands]
        assert basket_keys == sorted(
            basket_keys, key=lambda pairs: [(r, b) for b, r in pairs]
        )
