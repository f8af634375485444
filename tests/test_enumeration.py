"""Slope filtration, basket enumeration, and candidate generation."""

import gc
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    find_m0,
)
from basket3.rationals import mediant_parents, slopes
from basket3.riemann_roch import ThreefoldInvariants, plurigenus
from oracles import (
    admissible_points_by_definition,
    brute_force_baskets,
    candidates_by_definition,
    find_m0_by_list,
    l_by_definition,
    plurigenera_by_definition,
)


def non_units(stage):
    return {p for p in stage if p.b >= 2}


def slopes_up_to(n):
    """The slopes with denominator up to n, as a set of points."""
    return {OrbifoldPoint(b, r) for b, r in slopes(2, n)}


class TestFareyStage:
    def test_stage_five_adds_only_two_fifths(self):
        assert non_units(slopes_up_to(5)) == {OrbifoldPoint(2, 5)}

    def test_stage_six_adds_no_new_slope_beyond_the_unit(self):
        assert slopes_up_to(6) - slopes_up_to(5) == {OrbifoldPoint(1, 6)}

    def test_stage_seven_additions(self):
        added = non_units(slopes_up_to(7)) - non_units(slopes_up_to(6))
        assert added == {OrbifoldPoint(2, 7), OrbifoldPoint(3, 7)}

    def test_matches_definition(self):
        for n in range(2, 40):
            expected = {
                OrbifoldPoint(b, r)
                for r in range(2, n + 1)
                for b in range(1, r // 2 + 1)
                if gcd(b, r) == 1
            }
            assert slopes_up_to(n) == expected

    def test_filtration_and_parent_closure(self):
        previous = slopes_up_to(2)
        for n in range(3, 101):
            stage = slopes_up_to(n)
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

    @pytest.mark.parametrize(
        ("sigma_max", "sigma12_zero", "max_index"),
        [(0, True, None), (2, True, None), (3, True, None), (3, False, 9)],
    )
    def test_baskets_equal_their_from_points(self, sigma_max, sigma12_zero, max_index):
        # Each basket is made from the admissible points the walk holds, not
        # through Basket.from_points.  In order, the baskets must equal
        # from_points of every point multiset within the budget, sorted by
        # its (r, b)-sorted point list.
        c = EnumConstraints(0, 0, sigma_max, sigma12_zero, max_index=max_index)
        points = admissible_points(c)
        multisets = sorted(
            (
                combo
                for size in range(sigma_max + 1)
                for combo in combinations_with_replacement(points, size)
                if sum(p.b for p in combo) <= sigma_max
            ),
            key=lambda combo: [p.key() for p in combo],
        )
        expected = [Basket.from_points(combo) for combo in multisets]
        assert list(enumerate_baskets(c)) == expected

    def test_walk_leaves_no_cyclic_garbage(self):
        # With the collector off and every object it finds kept, one full
        # walk must leave nothing behind for it: the walk's objects are
        # freed by their reference counts as soon as it ends.
        c = EnumConstraints(chi_min=0, chi_max=0, sigma_max=3)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            count = sum(1 for _ in enumerate_baskets(c))
            gc.collect()
            garbage = [type(obj).__name__ for obj in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert count > 1
        assert garbage == []

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


@pytest.mark.parametrize("sigma_max", range(6))
@pytest.mark.parametrize("sigma12_zero", [True, False])
@pytest.mark.parametrize("max_index", [None, 1, 2, 7, 30])
def test_admissible_points_match_definition(sigma_max, sigma12_zero, max_index):
    kwargs = dict(chi_min=0, chi_max=0, sigma_max=sigma_max)
    if sigma12_zero and max_index is not None:
        # r < 12b bounds r there; a max_index would be silently unread.
        with pytest.raises(ValueError, match="max_index.*require_sigma12_zero"):
            EnumConstraints(**kwargs, max_index=max_index)
        return
    c = EnumConstraints(
        **kwargs, require_sigma12_zero=sigma12_zero, max_index=max_index
    )
    if sigma_max and not sigma12_zero and max_index is None:
        with pytest.raises(ValueError):
            admissible_points(c)
        return
    assert admissible_points(c) == admissible_points_by_definition(
        sigma_max, sigma12_zero, max_index
    )


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

    @pytest.mark.parametrize("k3", ["04/2", 0.1, True])
    def test_explicit_volume_is_int_or_fraction(self, k3):
        want = f"want an int or a Fraction, got {type(k3).__name__} "
        with pytest.raises(ValueError, match=want):
            ExplicitK3(k3)

    def test_explicit_volume_values(self):
        k3 = Fraction(11, 2)
        assert ExplicitK3(k3).value is k3
        assert ExplicitK3(2).value == Fraction(2)
        assert type(ExplicitK3(2).value) is Fraction

    def test_candidate_invariants_share_the_volume(self):
        c = EnumConstraints(
            chi_min=-3, chi_max=-3, sigma_max=0, k3_policy=ExplicitK3(2)
        )
        (cand,) = attach_invariants(Basket(), c)
        assert cand.invariants().k3 is cand.k3

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

    @pytest.mark.parametrize("denominator", [True, False, 8.0, "8", Fraction(8)])
    def test_search_denominator_is_an_int(self, denominator):
        want = f"denominator must be int or None, got {type(denominator).__name__} "
        with pytest.raises(ValueError, match=want):
            MinimalK3Search(denominator)

    def test_no_candidates_off_the_p2_grid(self):
        # l(2) = 3/5 for 2/5, so with D = 1 the value 2D * l(2) = 6/5 is not
        # an integer: P_2 = k/2 + 3/5 - 3 chi is an integer at no k.
        basket = Basket.from_pairs([(2, 5)])
        for nonneg in (True, False):
            c = EnumConstraints(
                chi_min=-8, chi_max=8, sigma_max=0, m_max=6,
                k3_policy=MinimalK3Search(1), require_nonneg_pm=nonneg,
            )
            assert list(attach_invariants(basket, c)) == []
        for k in range(1, 41):
            inv = ThreefoldInvariants(Fraction(k), 0, basket)
            assert not plurigenus(inv, 2).is_integral

    def test_minimal_search_is_minimal(self):
        basket = Basket.from_pairs([(1, 2)])
        c = EnumConstraints(chi_min=0, chi_max=0, sigma_max=1, m_max=12)
        (cand,) = attach_invariants(basket, c)
        denominator = 8  # lcm(2)^3
        k = cand.k3 * denominator
        assert k.denominator == 1
        assert plurigenera_by_definition(basket, 0, cand.k3, 12, True) == cand.pm
        # At every smaller k on the grid some P_m is non-integral or negative.
        for smaller in range(1, int(k)):
            inv = ThreefoldInvariants(Fraction(smaller, denominator), 0, basket)
            reports = [plurigenus(inv, m) for m in range(2, 13)]
            assert any(not rep.is_integral or rep.p_m < 0 for rep in reports)

    def test_nonneg_bound_rounds_up_where_p3_binds(self):
        # On the grid k = 1 + 48t (K^3 = k/24) the least volume with every
        # P_m >= 0 at chi = 1 is set by P_3, not P_2: t = 0 gives K^3 = 1/24
        # with P_3 = -1, so the bound must round (chi*(2m-1) - base_m)/step_m
        # up.
        basket = Basket.from_pairs([(11, 24)])
        c = EnumConstraints(
            chi_min=1, chi_max=1, sigma_max=0, m_max=6,
            k3_policy=MinimalK3Search(24),
        )
        (cand,) = attach_invariants(basket, c)
        assert cand.k3 == Fraction(49, 24)
        assert cand.pm == (1, 4, 14, 30, 56)
        below = ThreefoldInvariants(Fraction(1, 24), 1, basket)
        assert plurigenus(below, 3).p_m == -1


VALID = dict(chi_min=0, chi_max=1, sigma_max=1, m_max=6)


@pytest.mark.parametrize(
    "name, value, want",
    [
        ("chi_min", 0.0, "int"),
        ("chi_min", False, "int"),
        ("chi_max", "1", "int"),
        ("chi_max", Fraction(1), "int"),
        ("sigma_max", True, "int"),
        ("sigma_max", 1.0, "int"),
        ("m_max", 6.0, "int"),
        ("m_max", None, "int"),
        ("max_index", True, "int or None"),
        ("max_index", 30.0, "int or None"),
        ("require_sigma12_zero", 1, "bool"),
        ("require_sigma12_zero", None, "bool"),
        ("require_nonneg_pm", 0, "bool"),
        ("require_nonneg_pm", "true", "bool"),
        ("k3_policy", None, "ExplicitK3 or MinimalK3Search"),
        ("k3_policy", Fraction(2), "ExplicitK3 or MinimalK3Search"),
    ],
)
def test_constraints_take_exact_types(name, value, want):
    # sigma_max=True would otherwise enumerate as sigma_max 1.
    message = f"{name} must be {want}, got {type(value).__name__} {value!r}"
    with pytest.raises(ValueError) as info:
        EnumConstraints(**{**VALID, name: value})
    assert str(info.value) == message


def test_max_index_is_nonnegative():
    # A bound beside require_sigma12_zero: test_admissible_points_match_definition.
    with pytest.raises(ValueError, match="^max_index must be nonnegative$"):
        EnumConstraints(**VALID, require_sigma12_zero=False, max_index=-5)
    bounded = EnumConstraints(**VALID, require_sigma12_zero=False, max_index=0)
    assert list(enumerate_baskets(bounded)) == [Basket()]


def _points(r):
    return [(b, r) for b in range(1, r // 2 + 1) if gcd(b, r) == 1]


small_baskets = st.lists(
    st.integers(2, 24).flatmap(lambda r: st.sampled_from(_points(r))), max_size=3
).map(Basket.from_pairs)
k3_policies = st.one_of(
    st.sampled_from([None, 1, 2, 8, 24, 36, 72, 1000]).map(MinimalK3Search),
    st.fractions(-2, 60, max_denominator=24).map(ExplicitK3),
)


def k3_policies_for(basket):
    # Besides any fraction, explicit volumes with an integral P_2 at chi = 0:
    # K^3 = 2(P_2 - l(2)), which the other P_m may or may not keep integral.
    ell = l_by_definition(basket, 2)
    p2_volumes = st.integers(-2, 30).map(lambda p2: ExplicitK3(2 * (p2 - ell)))
    return st.one_of(k3_policies, p2_volumes)


@settings(max_examples=200, deadline=None)
@given(
    small_baskets,
    st.integers(-10, 8),
    st.integers(0, 4),
    st.integers(2, 20),
    st.booleans(),
    st.data(),
)
def test_attach_matches_definition(basket, chi_min, width, m_max, nonneg, data):
    policy = data.draw(k3_policies_for(basket))
    c = EnumConstraints(
        chi_min=chi_min,
        chi_max=chi_min + width,
        sigma_max=0,
        k3_policy=policy,
        m_max=m_max,
        require_nonneg_pm=nonneg,
    )
    got = list(attach_invariants(basket, c))
    assert all(cand.basket == basket and cand.m_max == m_max for cand in got)
    assert [(cand.chi, cand.k3, cand.pm) for cand in got] == candidates_by_definition(
        basket, c
    )


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


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2),
    st.integers(-6, 4),
    st.integers(0, 3),
    st.integers(2, 12),
    st.booleans(),
    k3_policies,
)
def test_find_m0_matches_list_reference(
    sigma_max, chi_min, width, m_max, nonneg, policy
):
    c = EnumConstraints(
        chi_min=chi_min,
        chi_max=chi_min + width,
        sigma_max=sigma_max,
        k3_policy=policy,
        m_max=m_max,
        require_nonneg_pm=nonneg,
    )
    try:
        expected = find_m0_by_list(c)
    except NoCandidatesError:
        with pytest.raises(NoCandidatesError):
            find_m0(c)
        return
    assert find_m0(c) == expected
