"""Functionals, the split lemmas, and the inequality forms."""

import re
import sys
import threading
from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import basket3.functionals
from basket3.baskets import (
    EMPTY_BASKET,
    Basket,
    OrbifoldPoint,
    delta,
    delta_row,
    l_correction,
    m_lin,
    mbar,
    sigma12,
)
from basket3.functionals import (
    Functional,
    INEQ1,
    INEQ2,
    INEQUALITIES,
    Inequality,
    PlurigenusFormReport,
    check_lemmas_exhaustive,
    delta_vector,
    lemma_offsets,
    split_offsets,
    verify_plurigenus_form,
    xi_bar,
    xi_bar_num,
    xi_bar_pair,
    xi_delta_pair,
    xi_lin_num,
)
from basket3.riemann_roch import (
    InconsistentInvariantsError,
    ThreefoldInvariants,
    chi_mk_row,
    k3_from_p2,
    plurigenus,
)
from oracles import (
    basket_half_by_fractions,
    l_by_definition,
    lemma_offset_by_search,
    random_basket,
    random_k3,
)


@st.composite
def points(draw, r_max=200):
    r = draw(st.integers(2, r_max))
    b = draw(st.sampled_from([b for b in range(1, r // 2 + 1) if gcd(b, r) == 1]))
    return OrbifoldPoint(b, r)


baskets = st.lists(points(40), max_size=4).map(Basket.from_points)
volumes = st.builds(Fraction, st.integers(-100, 300), st.integers(1, 60))


@st.composite
def form_invariants(draw):
    """Invariants with a free volume or with one that makes P_2 an integer.

    The first rarely has an integral P_2, so its row is mostly empty; the
    second gives long integral rows, which reach every horizon M.
    """
    basket, chi = draw(baskets), draw(st.integers(-20, 20))
    k3 = draw(st.one_of(
        volumes, st.integers(-50, 50).map(lambda p2: k3_from_p2(chi, basket, p2))
    ))
    return ThreefoldInvariants(k3, chi, basket)


functionals = st.builds(
    Functional,
    st.lists(st.integers(-9, 9), min_size=1, max_size=12).filter(any).map(tuple),
)


@st.composite
def balanced_coeffs(draw, bound=20, max_len=15):
    """Coefficients in [-bound, bound] with sum c_j * j^2 = 0, not all zero.

    Drawn from c_N down to c_1, each within reach of the rest: after c_j
    the running sum of c_k * k^2 stays within what c_1 .. c_{j-1} can
    still cancel, so c_1 closes it exactly.
    """
    size = draw(st.integers(2, max_len))
    coeffs = [0] * size
    total = 0
    for j in range(size, 0, -1):
        reach = bound * sum(k * k for k in range(1, j))
        lo = max(-bound, -((reach + total) // (j * j)))
        hi = min(bound, (reach - total) // (j * j))
        coeffs[j - 1] = draw(st.integers(lo, hi))
        total += coeffs[j - 1] * j * j
    assert total == 0
    assume(any(coeffs))
    return tuple(coeffs)


class TestFunctional:
    def test_built_in_coefficients(self):
        assert INEQ1.coeffs == (-2, 1, 2, 1, 0, -1)
        assert INEQ2.coeffs == (-9, 1, 5, 5, 3, 0, 1, 0, 0, -1, 0, -1)

    def test_trailing_zeros_canonicalized(self):
        assert Functional((1, 0, 0)) == Functional((1,))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            Functional((0, 0))

    @pytest.mark.parametrize(
        ("coeffs", "bad"),
        [((1.9, -2.5), "1.9"), (("3", True), "'3'"), ((1, True), "True"),
         ((2, 0.0), "0.0"), ((Fraction(4, 2),), "Fraction(2, 1)")],
    )
    def test_non_int_coefficients_rejected(self, coeffs, bad):
        # Nothing is truncated or coerced: the first non-int is named.
        with pytest.raises(ValueError, match=f"got \\w+ {re.escape(bad)}$"):
            Functional(coeffs)

    def test_support(self):
        assert INEQ1.support == (1, 2, 3, 4, 6)
        assert INEQ2.support == (1, 2, 3, 4, 5, 7, 10, 12)

    def test_support_is_not_compared_or_shown(self):
        func = Functional((1, 0, -2, 0))
        assert func.support == (1, 3)
        assert func.weights == (1, -2)
        assert func == Functional((1, 0, -2))
        assert hash(func) == hash(Functional((1, 0, -2)))
        assert repr(func) == "Functional(coeffs=(1, 0, -2))"

    def test_derived_chi_coefficients(self):
        assert INEQUALITIES[1].chi_coeff == 0
        assert INEQUALITIES[2].chi_coeff == 1

    def test_inequalities_are_hashable_values(self):
        # The coefficients are kept as (m, a_m) pairs sorted by m, whatever
        # the order of the mapping they were given in.
        one = Inequality({7: -1, 6: 1, 5: 1, 4: 1, 3: -1, 2: -3}, floor=0)
        assert one.p_coeffs == ((2, -3), (3, -1), (4, 1), (5, 1), (6, 1), (7, -1))
        assert one == INEQUALITIES[1] and hash(one) == hash(INEQUALITIES[1])
        keyed = {ineq: which for which, ineq in INEQUALITIES.items()}
        assert keyed[one] == 1 and keyed[INEQUALITIES[2]] == 2

    def test_uncancelled_k3_terms_rejected(self):
        with pytest.raises(ValueError, match="K\\^3"):
            Inequality({2: 1, 3: -1}, floor=0)

    def test_moments(self):
        assert INEQ1.moments() == (4, 0)
        assert INEQ2.moments() == (28, 0)
        assert Functional((1,)).moments() == (1, 1)
        assert INEQ1.is_balanced and INEQ2.is_balanced


class TestXiEvaluations:
    def test_xi_bar_examples(self):
        assert xi_bar(INEQ1, Basket.from_pairs([(2, 5)])) == 0
        assert xi_bar(INEQ2, EMPTY_BASKET) == 0
        assert xi_bar(INEQ2, Basket.from_pairs([(1, 5), (1, 6)])) == 7
        assert xi_bar(INEQ1, Basket.from_pairs([(1, 9)])) == 2

    @settings(max_examples=150)
    @given(functionals, st.lists(points(60), max_size=6).map(Basket.from_points))
    @example(INEQ2, EMPTY_BASKET)
    def test_xi_bar_is_the_sum_of_point_values(self, func, basket):
        # Summed as integers over 2 * lcm(r_i), made a Fraction once.
        expected = sum(
            (mult * xi_bar_pair(func, p.b, p.r) for p, mult in basket.items), Fraction(0)
        )
        got = xi_bar(func, basket)
        assert type(got) is Fraction and got == expected

    def test_xi_lin_single_coefficient(self):
        # m_lin^1 is 1/4 at 1/2, and 2r = 4.
        assert xi_lin_num(Functional((1,)), 1, 2) == 1

    @given(points())
    def test_balanced_closed_form(self, p):
        # Balanced, the linear part is b * M1/2 (M1 = 4 and 28), over 2r.
        assert xi_lin_num(INEQ1, p.b, p.r) == 2 * p.r * 2 * p.b
        assert xi_lin_num(INEQ2, p.b, p.r) == 2 * p.r * 14 * p.b
        # A small balanced functional beyond the built-ins.
        assert xi_lin_num(Functional((-4, 1)), p.b, p.r) == 2 * p.r * -p.b

    @settings(max_examples=150)
    @given(functionals, points())
    def test_integer_kernels_match_definitions(self, func, p):
        # The integer kernels against sums of the Fraction terms in baskets.
        terms = list(zip(func.support, func.weights))
        assert xi_bar_num(func, p.b, p.r) == 2 * p.r * sum(c * mbar(j, p) for j, c in terms)
        assert xi_lin_num(func, p.b, p.r) == 2 * p.r * sum(c * m_lin(j, p) for j, c in terms)
        assert delta_vector(func, p.b, p.r) == tuple(delta(j, p) for j, _ in terms)

    @settings(max_examples=150)
    @given(
        st.one_of(
            balanced_coeffs(),
            st.lists(st.integers(-20, 20), min_size=1, max_size=15)
            .filter(any)
            .map(tuple),
        ),
        points(2000),
    )
    def test_xi_lin_closed_form(self, coeffs, p):
        # b*r*m1 - b^2*m2 against 2r times the sum of the m_lin terms.
        func = Functional(coeffs)
        terms = zip(func.support, func.weights)
        assert xi_lin_num(func, p.b, p.r) == 2 * p.r * sum(
            c * m_lin(j, p) for j, c in terms
        )
        if func.is_balanced:
            assert xi_lin_num(func, p.b, p.r) == p.b * p.r * func.moments()[0]

    def test_xi_delta_examples(self):
        assert xi_delta_pair(INEQ1, 1, 2) == -2
        assert xi_delta_pair(INEQ1, 2, 5) == -4
        assert xi_delta_pair(INEQ1, 1, 5) == -1

    @settings(max_examples=150)
    @given(functionals, points())
    def test_xi_delta_is_the_gap(self, func, p):
        lin = Fraction(xi_lin_num(func, p.b, p.r), 2 * p.r)
        assert xi_delta_pair(func, p.b, p.r) == xi_bar(func, Basket.from_points([p])) - lin


@st.composite
def coprime_lemma_inputs(draw, r_max=30):
    r1 = draw(st.integers(2, r_max))
    r2 = draw(st.integers(2, r_max).filter(lambda r2: gcd(r1, r2) == 1))
    return r1, r2, draw(st.integers(1, 3 * r1 * r2))


class TestRepresentations:
    def test_box_cases(self):
        # 5 = 1*2 + 1*3 and 12 = 3*2 + 2*3 lie in the box 0 < y <= r1, so the
        # offset is -min(x, y); 6 has no representation with x, y > 0.
        assert lemma_offsets(2, 3, (5, 6, 12)) == (-1, 0, -2)

    def test_positive_but_no_box(self):
        # 11 = 4*2 + 1*3 has positive representations but none in the box.
        assert lemma_offsets(2, 3, (11,)) == (None,)


@st.composite
def coprime_lemma_vectors(draw, r_max=30):
    """(r1, r2, ns): ns ascending, topping out below r1 + r2 or up to 3*r1*r2."""
    r1 = draw(st.integers(2, r_max))
    r2 = draw(st.integers(2, r_max).filter(lambda r2: gcd(r1, r2) == 1))
    top = draw(st.one_of(st.integers(1, r1 + r2 - 1), st.integers(r1 + r2, 3 * r1 * r2)))
    ns = draw(st.sets(st.integers(1, top), max_size=12)) | {top}
    return r1, r2, tuple(sorted(ns))


class TestLemmaOffset:
    @settings(max_examples=300)
    @given(coprime_lemma_inputs())
    def test_matches_search(self, args):
        r1, r2, n = args
        assert lemma_offsets(r1, r2, (n,))[0] == lemma_offset_by_search(r1, r2, n)

    # The examples pin both sides of the early return (all of ns below
    # r1 + r2) and the n > r1*r2 where neither lemma applies (None).
    @settings(max_examples=300)
    @given(coprime_lemma_vectors())
    @example((2, 3, (1, 2, 3, 4)))
    @example((7, 5, (11,)))
    @example((7, 5, (12,)))
    @example((2, 3, (5, 6, 7, 11, 12, 13)))
    @example((30, 29, (1, 58, 59, 870, 871, 2610)))
    def test_vector_matches_search(self, args):
        r1, r2, ns = args
        expected = [lemma_offset_by_search(r1, r2, n) for n in ns]
        assert list(lemma_offsets(r1, r2, ns)) == expected


class TestLemmas:
    # The split of 2/5 into 1/2 and 1/3: predicted offsets against the
    # observed gaps, from the three delta rows.
    def gaps(self, ns):
        return split_offsets(delta_row(2, 5, ns), delta_row(1, 2, ns), delta_row(1, 3, ns))

    def test_nodiff_holds(self):
        assert lemma_offsets(2, 3, (3, 4)) == (0, 0)
        assert self.gaps((3, 4)) == (0, 0)

    def test_diff_offsets(self):
        ns = (5, 7, 10, 12)
        assert lemma_offsets(2, 3, ns) == (-1, -1, -2, -2)
        assert self.gaps(ns) == (-1, -1, -2, -2)

    def test_diff_hypothesis_failures(self):
        # 3 has no representation with x, y > 0 (the no-difference lemma
        # applies); 11 has one, but not in the box, so neither lemma does.
        assert lemma_offsets(2, 3, (3, 11)) == (0, None)

    def test_small_sweep_clean(self):
        sweep = check_lemmas_exhaustive(12, 12)
        assert sweep.ok
        counts = (sweep.pairs, sweep.nodiff_checked, sweep.diff_checked, sweep.uncovered)
        assert counts == (34, 1043, 1647, 604)

    def test_sweep_names_each_mismatch(self, monkeypatch):
        # A lemma vector shifted by one n gives a mismatch of every kind; each
        # names the split by its parents, the n and the values compared.
        monkeypatch.setattr(
            "basket3.functionals.lemma_offsets",
            lambda r1, r2, ns: (None, *lemma_offsets(r1, r2, ns)[:-1]),
        )
        sweep = check_lemmas_exhaustive(2, 3)
        assert (sweep.pairs, sweep.nodiff_checked, sweep.diff_checked, sweep.uncovered) == (
            1, 5, 5, 2
        )
        assert sweep.mismatches == (
            "uncovered 1/2 1/3 n=1",
            "nodiff 1/2 1/3 n=5 gap=-1",
            "diff 1/2 1/3 n=6 gap=0 lemma=-1",
            "nodiff 1/2 1/3 n=7 gap=-1",
            "diff 1/2 1/3 n=10 gap=-2 lemma=-1",
        )


class TestSingleBasket:
    def test_examples(self):
        # xi_bar of a one-point basket against its inequality's target.
        cases = [(1, (2, 5), 0, 0), (2, (1, 12), 14, 0), (2, (3, 10), 1, 1)]
        for which, (b, r), value, slack in cases:
            ineq = INEQUALITIES[which]
            got = xi_bar_pair(ineq.functional, b, r)
            assert got == value
            assert got - ineq.target(Basket.from_pairs([(b, r)])) == slack


class TestBasketHalf:
    """A form's basket half checks the l-form = xi_bar identity in integers."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(points(60), max_size=5).map(Basket.from_points), st.sampled_from([1, 2]))
    @example(EMPTY_BASKET, 1)
    @example(Basket.from_pairs([(1, 12), (5, 59), (29, 59)]), 2)
    def test_half_equals_the_fraction_restatement(self, basket, which):
        half = basket3.functionals._basket_half(basket, which)
        assert half == basket_half_by_fractions(basket, which)
        den, ells, l_num, target = half
        assert {type(v) for v in (den, *ells, l_num, target)} == {int}

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(points(60), max_size=5).map(Basket.from_points),
        volumes,
        st.integers(-20, 20),
        st.sampled_from([1, 2]),
    )
    @example(Basket.from_pairs([(1, 12), (5, 59), (29, 59)]), Fraction(3), 1, 2)
    def test_integer_verdict_equals_the_definition(self, basket, k3, chi, which):
        # The verdict enumerate takes once per basket, D*l_form >= target * D,
        # is the form's ok for every (K^3, chi) of the basket.
        half = basket3.functionals._basket_half(basket, which)
        den, ells, l_num, target = half
        assert {type(v) for v in (den, *ells, l_num, target)} == {int}
        inv = ThreefoldInvariants(k3, chi, basket)
        assert (l_num >= target * den) is form_by_definition(inv, which).ok


class TestPlurigenusForms:
    def test_half_k3_form_one(self):
        inv = ThreefoldInvariants(Fraction(11, 2), 1, Basket.from_pairs([(1, 2)]))
        report = verify_plurigenus_form(inv, 1)
        assert report.p_form == report.l_form == report.xi_form == 0
        assert report.ok

    def test_empty_basket_all_zero(self):
        inv = ThreefoldInvariants(Fraction(2), -3, EMPTY_BASKET)
        report = verify_plurigenus_form(inv, 1)
        assert report.p_form == 0 and report.ok

    def test_strict_rejects_non_integral(self):
        inv = ThreefoldInvariants(Fraction(1), 1, EMPTY_BASKET)
        with pytest.raises(InconsistentInvariantsError):
            verify_plurigenus_form(inv, 1, strict=True)

    def test_form_two_target(self):
        basket = Basket.from_pairs([(1, 13), (2, 5)])
        inv = ThreefoldInvariants(Fraction(3), 2, basket)
        report = verify_plurigenus_form(inv, 2, strict=False)
        assert report.target == 14 * sigma12(basket) == 14
        assert report.xi_form == xi_bar(INEQ2, basket)
        assert report.ok

    def test_cancellation_of_k3_and_chi(self):
        rng = Random(5)
        basket = random_basket(rng)
        values = set()
        for _ in range(100):
            inv = ThreefoldInvariants(random_k3(rng), rng.randrange(-20, 21), basket)
            values.add(verify_plurigenus_form(inv, 1, strict=False).p_form)
        assert len(values) == 1

    def test_l_form_is_the_stated_combination(self):
        rng = Random(9)
        basket = random_basket(rng)
        inv = ThreefoldInvariants(random_k3(rng), rng.randrange(-9, 9), basket)
        report = verify_plurigenus_form(inv, 1, strict=False)
        expected = (
            -3 * l_correction(basket, 2)
            - l_correction(basket, 3)
            + l_correction(basket, 4)
            + l_correction(basket, 5)
            + l_correction(basket, 6)
            - l_correction(basket, 7)
        )
        assert report.l_form == expected

    def test_bad_which(self):
        with pytest.raises(ValueError):
            verify_plurigenus_form(
                ThreefoldInvariants(Fraction(2), -3, EMPTY_BASKET), 3
            )

    @pytest.mark.parametrize("which", [True, False, 1.0, 2.0, "1", None])
    def test_which_is_not_coerced(self, which):
        # 1.0 and True hash as 1, so a dict lookup alone would take them.
        inv = ThreefoldInvariants(Fraction(2), -3, EMPTY_BASKET)
        with pytest.raises(ValueError, match=re.escape(f"{which!r}")):
            verify_plurigenus_form(inv, which)

    @pytest.mark.parametrize("value", [20.0, Fraction(20), True])
    def test_a_given_row_holds_ints(self, value):
        # X10 has P_2 = 10 and P_3 = 20; the form reads P_3 from the row,
        # which stops at P_3 or covers both forms.
        inv = ThreefoldInvariants(Fraction(2), -3, EMPTY_BASKET)
        message = f"P_3 in pm must be int, got {type(value).__name__} {value!r}"
        for top in (3, 13):
            row = tuple(plurigenus(inv, m).p_m for m in range(2, top + 1))
            assert row[:2] == (10, 20)
            for which in (1, 2):
                assert verify_plurigenus_form(inv, which, pm=row).ok
                with pytest.raises(ValueError, match=re.escape(message)):
                    verify_plurigenus_form(inv, which, pm=(10, value, *row[2:]))

    @settings(max_examples=80, deadline=None)
    @given(form_invariants(), st.booleans())
    @example(ThreefoldInvariants(2, -3, EMPTY_BASKET), True)
    @example(ThreefoldInvariants(Fraction(29, 6), 1, Basket.from_pairs([(1, 2), (1, 3)])),
             False)
    def test_a_given_row_gives_the_computed_report(self, inv, strict):
        # pm = (P_2, ..., P_M) for every horizon M whose row is integral:
        # the same report, or the same error, as with every P_m computed.
        row = []
        for m in range(2, 31):
            rep = plurigenus(inv, m)
            if not rep.is_integral:
                break
            row.append(rep.p_m)
        for which in (1, 2):
            expected = form_outcome(inv, which, strict)
            for top in range(2, len(row) + 2):
                assert form_outcome(inv, which, strict, tuple(row[: top - 1])) == expected

    def test_strict_after_non_strict_on_same_basket(self):
        basket = Basket.from_pairs([(1, 2)])
        bad = ThreefoldInvariants(Fraction(1, 3), 1, basket)
        good = ThreefoldInvariants(Fraction(11, 2), 1, basket)
        for which in (1, 2):
            assert not verify_plurigenus_form(bad, which, strict=False).integral
            with pytest.raises(InconsistentInvariantsError):
                verify_plurigenus_form(bad, which, strict=True)
            assert verify_plurigenus_form(good, which, strict=True).integral

    def test_each_candidate_is_checked_against_its_own_row(self, monkeypatch):
        # One entry of the (K^3, chi) row moved by W stays integral, so only
        # the per-call P-form identity can see it, also after an unpatched
        # call on the same basket.
        basket = Basket.from_pairs([(1, 3), (2, 7)])
        candidates = [(Fraction(5, 2), 0), (Fraction(7, 3), -2)]
        for which in (1, 2):
            verify_plurigenus_form(
                ThreefoldInvariants(*candidates[0], basket), which, strict=False
            )

        def shifted(*args):
            w, row = chi_mk_row(*args)
            return w, [row[0] + w, *row[1:]]

        monkeypatch.setattr("basket3.functionals.chi_mk_row", shifted)
        for which in (1, 2):
            for k3, chi in candidates:
                inv = ThreefoldInvariants(k3, chi, basket)
                with pytest.raises(ArithmeticError, match=f"form {which} .* disagree"):
                    verify_plurigenus_form(inv, which, strict=False)

    def test_a_broken_basket_identity_raises_on_every_call(self, monkeypatch):
        # The l-form = xi_bar identity is checked by every call's basket
        # half, so no call slips through.
        # xi_bar is broken at its integer basket sum, which the half reads.
        basket = Basket.from_pairs([(2, 5), (3, 11)])
        scaled = basket3.functionals._xi_bar_scaled

        def off_by_one(func, bk):
            den, num = scaled(func, bk)
            return den, num + den

        monkeypatch.setattr("basket3.functionals._xi_bar_scaled", off_by_one)
        den, num = scaled(INEQ1, basket)
        assert xi_bar(INEQ1, basket) == Fraction(num, den) + 1  # the patch counts
        for _ in range(2):
            for which in (1, 2):
                for k3, chi in [(Fraction(3), 1), (Fraction(9, 4), -5)]:
                    inv = ThreefoldInvariants(k3, chi, basket)
                    with pytest.raises(ArithmeticError, match=f"form {which} .* disagree"):
                        verify_plurigenus_form(inv, which, strict=False)

    def test_candidates_of_one_basket_get_their_own_reports(self):
        basket = Basket.from_pairs([(1, 2)])
        candidates = [(Fraction(11, 2), 1, True), (Fraction(1, 3), -2, False)]
        for which in (1, 2):
            for k3, chi, integral in candidates:
                inv = ThreefoldInvariants(k3, chi, basket)
                report = verify_plurigenus_form(inv, which, strict=False)
                expected = form_by_definition(inv, which)
                assert report == expected
                assert report.integral is integral
                assert report.ok is expected.ok

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(baskets, min_size=2, max_size=7),
        st.lists(
            st.tuples(st.integers(0, 6), volumes, st.integers(-20, 20),
                      st.sampled_from((1, 2))),
            min_size=3, max_size=16,
        ),
    )
    def test_interleaved_calls_match_definitions(self, pool, calls):
        # Calls hop between baskets (A, B, A, ...) with fresh K^3, chi and
        # form each time, so a stale or mis-keyed basket half shows.
        for i, k3, chi, which in calls:
            inv = ThreefoldInvariants(k3, chi, pool[i % len(pool)])
            report = verify_plurigenus_form(inv, which, strict=False)
            assert report == form_by_definition(inv, which)

    def test_concurrent_calls_match_definitions(self):
        rng = Random(11)
        invs = [
            ThreefoldInvariants(random_k3(rng), rng.randrange(-9, 10), random_basket(rng))
            for _ in range(12)
        ]
        jobs = [(inv, which) for inv in invs for which in (1, 2)]
        expected = [form_by_definition(inv, which) for inv, which in jobs]
        failures = []

        def worker(seed):
            order = list(range(len(jobs))) * 5
            Random(seed).shuffle(order)
            for k in order:
                inv, which = jobs[k]
                try:
                    report = verify_plurigenus_form(inv, which, strict=False)
                except Exception as exc:  # a thread's exception would be lost
                    report = exc
                if report != expected[k]:
                    failures.append((k, report))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []


def form_outcome(inv, which, strict, pm=()):
    """The report of a form check, or the type and text of its error."""
    try:
        return verify_plurigenus_form(inv, which, strict=strict, pm=pm)
    except InconsistentInvariantsError as exc:
        return type(exc), str(exc)


def form_by_definition(inv, which):
    """The form's report, every value evaluated term by term from its definition."""
    ineq = INEQUALITIES[which]
    pairs = inv.basket.pairs()
    chi_mk = {
        m: Fraction(m * (m - 1) * (2 * m - 1), 12) * inv.k3
        - (2 * m - 1) * inv.chi
        + l_by_definition(inv.basket, m)
        for m, _ in ineq.p_coeffs
    }
    p_form = sum(a * chi_mk[m] for m, a in ineq.p_coeffs) - ineq.chi_coeff * inv.chi
    l_form = sum(
        (a * l_by_definition(inv.basket, m) for m, a in ineq.p_coeffs), Fraction(0)
    )
    xi_form = sum((xi_bar_pair(ineq.functional, b, r) for b, r in pairs), Fraction(0))
    target = Fraction(ineq.floor * sum(b for b, r in pairs if 12 * b <= r))
    integral = all(v.denominator == 1 for v in chi_mk.values())
    return PlurigenusFormReport(which, p_form, l_form, xi_form, target, integral)
