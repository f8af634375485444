"""Rationals, continued fractions, and mediant splitting."""

from fractions import Fraction
from math import gcd

import pytest

from basket3.baskets import NonCoprimeError, OrbifoldPoint
from basket3.rationals import (
    AtomError,
    ContinuedFraction,
    cf_expand,
    cf_value,
    format_fraction,
    is_unimodular,
    mediant_parents,
    parse_fraction,
    slopes,
)
from oracles import mediant_parents_by_convergents


class TestMakeRational:
    """Exact rationals from and to their I/O string form."""

    def test_round_trip_strings(self):
        assert format_fraction(Fraction(11, 2)) == "11/2"
        assert format_fraction(Fraction(6, 2)) == "3"
        assert parse_fraction("11/2") == Fraction(11, 2)
        assert parse_fraction(-4) == Fraction(-4)
        with pytest.raises(ZeroDivisionError):
            parse_fraction("2/0")
        bad_strings = ("0.5", "1e3", " 1/2 ", "1_0/3", "+3/4", "1/-2", "3/", "")
        for bad in (5.5, True, None, [1, 2], *bad_strings):
            with pytest.raises(ValueError):
                parse_fraction(bad)


class TestContinuedFractions:
    @pytest.mark.parametrize(
        ("q", "terms"),
        [
            (Fraction(2, 5), (2, 2)),
            (Fraction(1, 7), (7,)),
            (Fraction(5, 12), (2, 2, 2)),
            (Fraction(1, 2), (2,)),
        ],
    )
    def test_expand(self, q, terms):
        assert cf_expand(q).terms == terms

    @pytest.mark.parametrize(
        ("terms", "q"),
        [
            ((2, 2), Fraction(2, 5)),
            ((3, 3), Fraction(3, 10)),
            ((9,), Fraction(1, 9)),
        ],
    )
    def test_value(self, terms, q):
        assert cf_value(ContinuedFraction(terms)) == q

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ContinuedFraction(())

    def test_noncanonical_rejected(self):
        with pytest.raises(ValueError):
            ContinuedFraction((2, 1))
        with pytest.raises(ValueError):
            ContinuedFraction((1, 3))

    @pytest.mark.parametrize("q", [Fraction(0), Fraction(3, 5), Fraction(-1, 2), Fraction(2)])
    def test_domain(self, q):
        with pytest.raises(ValueError):
            cf_expand(q)

    def test_round_trip_exhaustive(self):
        # Every admissible slope with denominator up to 1000.
        for r in range(2, 1001):
            for b in range(1, r // 2 + 1):
                if gcd(b, r) == 1:
                    q = Fraction(b, r)
                    cf = cf_expand(q)
                    assert cf.value() == q
                    assert cf.terms[0] >= 2
                    assert len(cf.terms) == 1 or cf.terms[-1] >= 2


class TestMediantParents:
    def test_two_five(self):
        split = mediant_parents(2, 5)
        assert (split.high, split.low) == (OrbifoldPoint(1, 2), OrbifoldPoint(1, 3))

    def test_three_ten(self):
        split = mediant_parents(3, 10)
        assert (split.high, split.low) == (OrbifoldPoint(1, 3), OrbifoldPoint(2, 7))
        assert 1 * 7 - 2 * 3 == 1

    def test_switched_orientation(self):
        # The truncation parent of 5/12 is 2/5, the low one.
        split = mediant_parents(5, 12)
        assert (split.high, split.low) == (OrbifoldPoint(3, 7), OrbifoldPoint(2, 5))
        assert split.cf_det == -1

    def test_atom(self):
        with pytest.raises(AtomError):
            mediant_parents(1, 7)

    def test_invalid(self):
        with pytest.raises(ValueError):
            mediant_parents(2, 4)
        with pytest.raises(ValueError):
            mediant_parents(3, 5)

    def test_exhaustive_properties(self):
        for n in range(2, 1001):
            for b in range(2, n // 2 + 1):
                if gcd(b, n) != 1:
                    continue
                hi, lo, cf_det = mediant_parents(b, n)
                assert ((hi.b, hi.r), (lo.b, lo.r), cf_det) == (
                    mediant_parents_by_convergents(b, n)
                )
                assert hi.b + lo.b == b and hi.r + lo.r == n
                assert hi.r < n and lo.r < n
                assert hi.b * lo.r - lo.b * hi.r == 1
                # Strict slope ordering around the child, in cross products.
                assert hi.b * n > b * hi.r
                assert lo.b * n < b * lo.r


class TestSlopes:
    @pytest.mark.parametrize("b_max", [None, 0, 1, 3])
    def test_matches_definition(self, b_max):
        for r_lo in range(-1, 8):
            for r_hi in range(-1, 40):
                expected = [
                    (b, r)
                    for r in range(max(r_lo, 2), r_hi + 1)
                    for b in range(1, r // 2 + 1)
                    if gcd(b, r) == 1 and (b_max is None or b <= b_max)
                ]
                assert list(slopes(r_lo, r_hi, b_max)) == expected


class TestIsUnimodular:
    def test_examples(self):
        assert is_unimodular(OrbifoldPoint(1, 2), OrbifoldPoint(1, 3))
        assert not is_unimodular(OrbifoldPoint(1, 2), OrbifoldPoint(1, 2))
        assert is_unimodular(OrbifoldPoint(2, 5), OrbifoldPoint(1, 3))

    def test_validation_flows_through(self):
        with pytest.raises(NonCoprimeError):
            OrbifoldPoint(2, 4)
