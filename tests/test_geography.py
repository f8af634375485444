"""Constant chains and the global bound checks."""

import re
from fractions import Fraction

import pytest

from basket3.baskets import Basket, EMPTY_BASKET
from basket3.geography import (
    PUBLISHED_C_PRIME,
    PUBLISHED_M1,
    ThresholdError,
    check_chi_bound,
    check_pm_bound,
    derive_constants,
    growth_diagnostics,
)
from basket3.riemann_roch import ThreefoldInvariants, chi_mk
from oracles import hypersurface_h0

X10 = ThreefoldInvariants(Fraction(2), -3, EMPTY_BASKET)


class TestDeriveConstants:
    def test_chain_for_120(self):
        chain = derive_constants(120)
        assert chain.m0 == 120
        assert chain.t0 == 606
        assert chain.c1 == Fraction(1, 240)
        assert chain.c2 == Fraction(1, 240)
        assert chain.m1 == 1234
        assert chain.c_prime == Fraction(1, 445456)
        assert chain.c_general == 32 * 120**3 == 55296000
        assert chain.c_finite == 8 * 606**3
        assert chain.c == max(chain.c_general, chain.c_finite)

    def test_c_prime_consistency(self):
        chain = derive_constants(120)
        assert chain.c_prime == 1 / (16 * (1 + 116 / chain.c2))

    def test_m0_rounded_to_multiple_of_120(self):
        assert derive_constants(7).m0 == 840
        assert derive_constants(2).m0 == 120

    def test_monotonicity(self):
        chains = [derive_constants(m0) for m0 in (120, 240, 360, 480)]
        for earlier, later in zip(chains, chains[1:]):
            assert later.c_prime <= earlier.c_prime
            assert later.m1 >= earlier.m1

    def test_published_constants_exposed_separately(self):
        chain = derive_constants(120)
        assert PUBLISHED_C_PRIME == Fraction(5, 89168)
        assert PUBLISHED_M1 == 112
        assert chain.c_prime != PUBLISHED_C_PRIME

    def test_rejects_tiny_m0(self):
        with pytest.raises(ValueError):
            derive_constants(1)

    @pytest.mark.parametrize("m0", [120.0, "120", True])
    def test_m0_is_not_coerced(self, m0):
        message = f"m0 must be int, got {type(m0).__name__} {m0!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            derive_constants(m0)


class TestChiBound:
    def test_positive_chi_omega_passes(self):
        report = check_chi_bound(X10, derive_constants(120))
        assert report.ok is True
        assert report.chi_omega == 3

    def test_half_k3_example(self):
        inv = ThreefoldInvariants(Fraction(11, 2), 1, Basket.from_pairs([(1, 2)]))
        report = check_chi_bound(inv, derive_constants(120))
        assert report.ok is True
        assert report.chi_omega == -1

    def test_no_verdict_outside_general_type(self):
        inv = ThreefoldInvariants(Fraction(0), 1, EMPTY_BASKET)
        report = check_chi_bound(inv, derive_constants(120))
        assert report.ok is None and not report.general_type


class TestPmBound:
    def test_strong_branch_at_m_two(self):
        report = check_pm_bound(X10, derive_constants(120), 2)
        assert report.strong_bound == 1
        assert report.value == 10
        assert report.ok

    def test_threshold_error_for_positive_chi(self):
        inv = ThreefoldInvariants(Fraction(11, 2), 1, Basket.from_pairs([(1, 2)]))
        with pytest.raises(ThresholdError):
            check_pm_bound(inv, derive_constants(120), 100)

    @pytest.mark.parametrize("m", [2.0, "2", True])
    def test_m_is_not_coerced(self, m):
        message = f"m must be int, got {type(m).__name__} {m!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            check_pm_bound(X10, derive_constants(120), m)

    @pytest.mark.parametrize("m", [1, 0, -5])
    def test_m_below_two_names_its_rule_for_nonpositive_chi(self, m):
        inv = ThreefoldInvariants(Fraction(2), -3, EMPTY_BASKET)
        message = f"bound for chi <= 0 needs m >= 2, got {m}"
        with pytest.raises(ThresholdError, match=f"^{re.escape(message)}$"):
            check_pm_bound(inv, derive_constants(120), m)

    def test_general_branch_at_m1(self):
        chain = derive_constants(120)
        inv = ThreefoldInvariants(Fraction(11, 2), 1, Basket.from_pairs([(1, 2)]))
        report = check_pm_bound(inv, chain, chain.m1)
        assert report.general_bound == chain.c_prime * chain.m1**3 * inv.k3
        assert report.value == chi_mk(inv, chain.m1)
        assert report.ok

    def test_both_branches_for_nonpositive_chi(self):
        chain = derive_constants(120)
        report = check_pm_bound(X10, chain, chain.m1)
        assert report.general_bound is not None and report.strong_bound is not None
        assert report.ok


class TestGrowthDiagnostics:
    def test_x10_table_clean(self):
        table = {m: hypersurface_h0(m) for m in range(2, 10)}
        report = growth_diagnostics(table, 2, 2)
        assert report.clean
        assert report.checked_pairs > 0

    def test_fabricated_violation(self):
        report = growth_diagnostics({2: 1, 4: 0}, 2, 2)
        assert report.superadditivity_violations == ((2, 2),)

    def test_empty_table(self):
        report = growth_diagnostics({}, 2, 2)
        assert report.clean
        assert report.checked_pairs == 0 and report.checked_growth == 0

    def test_growth_bound_branch(self):
        # t0 = 16 with m0 = 2; a table that dips below the derived bound.
        table = {2: 5, 16: 2, 18: 1}
        report = growth_diagnostics(table, 2, 2)
        assert 18 in report.growth_violations
