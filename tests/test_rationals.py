"""Exact numbers as text, slopes and mediant splitting."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basket3.baskets import NonCoprimeError, OrbifoldPoint
from basket3.rationals import (
    AtomError,
    format_fraction,
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
        assert format_fraction(-7) == "-7" and format_fraction(0) == "0"
        assert parse_fraction("11/2") == Fraction(11, 2)
        assert parse_fraction(-4) == Fraction(-4)
        bad_strings = ("0.5", "1e3", " 1/2 ", "1_0/3", "+3/4", "1/-2", "3/", "", "2/0",
                       "02", "-0", "4/2", "3/1", "0/5", "1/01")
        for bad in (5.5, True, None, [1, 2], *bad_strings):
            with pytest.raises(ValueError):
                parse_fraction(bad)

    # The writer takes what the reader takes, an int or a Fraction; a float
    # or a bool would be written as some other number.
    @pytest.mark.parametrize("bad", [0.1, True, False, "1/2", None])
    def test_format_refuses_floats_and_bools(self, bad):
        with pytest.raises(ValueError, match="want an int or a Fraction"):
            format_fraction(bad)

    # Every string the reader takes must be the one spelling format_fraction
    # writes.  Random edits of canonical strings, with the characters
    # numbers are spelled with: most are refused, the rest must round-trip.
    @settings(max_examples=300, deadline=None)
    @given(st.fractions(max_denominator=10**6), st.data())
    def test_accepted_edits_round_trip(self, q, data):
        text = format_fraction(q)
        assert parse_fraction(text) == q
        for _ in range(data.draw(st.integers(1, 3))):
            op = data.draw(st.sampled_from(["insert", "delete", "replace"]))
            i = data.draw(st.integers(0, len(text)))
            char = data.draw(st.sampled_from("0123456789/-+_ "))
            if op == "insert":
                text = text[:i] + char + text[i:]
            elif op == "delete":
                text = text[:i] + text[i + 1:]
            else:
                text = text[:i] + char + text[i + 1:]
        try:
            value = parse_fraction(text)
        except ValueError:
            return
        assert format_fraction(value) == text


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
        # The splits of 2/5 and 3/8 are the pairs (1/2, 1/3) and (2/5, 1/3),
        # each with determinant b_high*r_low - b_low*r_high = 1.
        for (b, r), pair in (((2, 5), ((1, 2), (1, 3))), ((3, 8), ((2, 5), (1, 3)))):
            hi, lo, _ = mediant_parents(b, r)
            assert ((hi.b, hi.r), (lo.b, lo.r)) == pair
            assert hi.b * lo.r - lo.b * hi.r == 1

    def test_validation_flows_through(self):
        with pytest.raises(NonCoprimeError):
            OrbifoldPoint(2, 4)
