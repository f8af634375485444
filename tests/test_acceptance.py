"""Acceptance criteria, one test per criterion.

Each test name carries its criterion number; the conftest hook prints one
PASS/FAIL line per criterion in the terminal summary.
"""

import json
from fractions import Fraction
from random import Random

from basket3.baskets import (
    Basket,
    EMPTY_BASKET,
    OrbifoldPoint,
    delta,
    l_correction,
)
from basket3.certificates import proof_replay, verify_certificate
from basket3.cli import main
from basket3.enumeration import EnumConstraints, MinimalK3Search, enumerate_candidates
from basket3.functionals import (
    INEQ1,
    INEQ2,
    check_lemmas_exhaustive,
    verify_plurigenus_form,
    xi_bar,
    xi_bar_pair,
    xi_delta_pair,
)
from basket3.geography import check_chi_bound, derive_constants
from basket3.riemann_roch import (
    ThreefoldInvariants,
    chi_mk,
    k3_from_p2,
    sigma_identity_check,
)
from oracles import hypersurface_h0, random_basket, random_k3


def test_criterion_1_golden_tables():
    p12 = OrbifoldPoint(1, 2)
    assert [delta(n, p12) for n in (3, 4, 6)] == [1, 2, 6]

    for r in (2, 3, 4):
        assert xi_bar(INEQ1, Basket.from_pairs([(1, r)])) == 0
    assert xi_bar(INEQ1, Basket.from_pairs([(1, 5)])) == 1

    table = [xi_bar(INEQ2, Basket.from_pairs([(1, r)])) for r in range(2, 12)]
    assert table == [0, 0, 0, 2, 5, 6, 8, 10, 12, 13]

    assert xi_bar(INEQ1, Basket.from_pairs([(2, 5)])) == 0
    assert xi_delta_pair(INEQ1, 2, 5) == -4


def test_criterion_2_lemma_brute_force():
    sweep = check_lemmas_exhaustive(25, 25)
    assert sweep.mismatches == ()
    counts = (sweep.pairs, sweep.nodiff_checked, sweep.diff_checked, sweep.uncovered)
    assert counts == (175, 18548, 32498, 13950)


def test_criterion_3_proof_replay_at_500():
    for func, floor in ((INEQ1, 0), (INEQ2, 14)):
        cert = proof_replay(func, 500, low_slope_floor=floor)

        # Every single basket satisfies the inequality at its target.
        assert cert.least_slack[0] >= 0

        # Independent re-verification agrees node by node.
        report = verify_certificate(cert)
        assert report.ok, report.issues[:5]

        # Direct evaluation agrees with every recorded node value.
        index = {(n.b, n.r): n for n in cert.nodes}
        for (b, r), node in index.items():
            value = xi_bar_pair(func, b, r)
            assert Fraction(node.xi_num, 2 * r) == value
            target = Fraction(floor * b) if 12 * b <= r else Fraction(0)
            assert node.target_int == target
            assert value >= target

        if func is INEQ2:
            sporadic = {
                (n.b, n.r): n.net_offset
                for n in cert.nodes
                if n.r <= 12 and n.b_hi is not None and n.net_offset != 0
            }
            assert sporadic == {(3, 10): 1, (5, 12): 1}


def test_criterion_4_cancellation():
    rng = Random(2024)
    l_coeffs = {
        1: {2: -3, 3: -1, 4: 1, 5: 1, 6: 1, 7: -1},
        2: {2: -10, 3: -4, 5: 2, 6: 3, 7: -1, 8: 1, 10: 1, 11: -1, 12: 1, 13: -1},
    }
    for _ in range(10):
        basket = random_basket(rng)
        expected = {
            which: sum(
                (c * l_correction(basket, m) for m, c in l_coeffs[which].items()),
                Fraction(0),
            )
            for which in (1, 2)
        }
        assert expected[1] == xi_bar(INEQ1, basket)
        assert expected[2] == xi_bar(INEQ2, basket)
        for _ in range(100):
            inv = ThreefoldInvariants(random_k3(rng), rng.randrange(-30, 31), basket)
            for which in (1, 2):
                report = verify_plurigenus_form(inv, which, strict=False)
                assert report.p_form == report.l_form == report.xi_form
                assert report.p_form == expected[which]
                assert report.ok


def test_criterion_5_sigma_identity():
    rng = Random(77)
    for _ in range(200):
        basket = random_basket(rng)
        chi = rng.randrange(-10, 11)
        p2 = rng.randrange(-5, 60)
        inv = ThreefoldInvariants(k3_from_p2(chi, basket, p2), chi, basket)
        report = sigma_identity_check(inv)
        assert report.ok
        assert report.sigma - 10 * chi - 5 * report.p2 + report.p3 == 0


def test_criterion_6_weighted_hypersurface_oracle():
    # Degree-10 hypersurface in weights (1,1,1,1,5): K^3 = 2, chi(O) = -3,
    # empty basket.  The monomial-count oracle regenerates every value.
    inv = ThreefoldInvariants(Fraction(2), -3, EMPTY_BASKET)
    oracle = [hypersurface_h0(m) for m in range(2, 10)]
    assert oracle == [10, 20, 35, 57, 88, 130, 185, 255]
    for m, expected in zip(range(2, 10), oracle):
        assert chi_mk(inv, m) == expected


def test_criterion_7_constants_and_candidate_properties():
    chain = derive_constants(120)
    assert chain.c_general == 32 * 120**3

    constraints = EnumConstraints(
        chi_min=-8,
        chi_max=8,
        sigma_max=4,
        m_max=30,
        k3_policy=MinimalK3Search(),
        require_nonneg_pm=True,
    )
    count = 0
    for cand in enumerate_candidates(constraints):
        count += 1
        inv = cand.invariants()
        assert check_chi_bound(inv, chain).ok is True
        for which in (1, 2):
            report = verify_plurigenus_form(inv, which, strict=True)
            assert report.ok
    assert count > 1000


def test_criterion_8_replay_determinism_across_jobs(tmp_path, capsys):
    paths = []
    for jobs in ("1", "8"):
        out = tmp_path / f"cert-jobs{jobs}.txt"
        code = main(
            ["replay", "--which", "2", "--r-max", "60", "--out", str(out),
             "--jobs", jobs]
        )
        capsys.readouterr()
        assert code == 0
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_acceptance_criteria_summary_is_complete():
    # Keep the criterion list in sync with the tests above.
    names = [name for name in globals() if name.startswith("test_criterion_")]
    assert len(names) == 8
    assert json.dumps(sorted(names))  # stable, serializable
