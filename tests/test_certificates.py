"""Certificate building, serialization, and independent verification."""

from math import gcd

import pytest

from basket3 import certificates
from basket3.baskets import OrbifoldPoint
from basket3.certificates import Certificate, proof_replay, verify_certificate
from basket3.functionals import INEQ1, INEQ2, xi_bar_pair

# Equality set of the first inequality for r <= 12, computed by direct
# evaluation of xi_bar: exactly the points whose repeated mediant splits
# bottom out in atoms 1/2, 1/3, 1/4 only.
INEQ1_EQUALITY_R12 = {
    (1, 2), (1, 3), (1, 4), (2, 5), (2, 7), (3, 7), (3, 8), (4, 9),
    (3, 10), (3, 11), (4, 11), (5, 11), (5, 12),
}


def expected_count(r_max):
    return sum(
        1
        for r in range(2, r_max + 1)
        for b in range(1, r // 2 + 1)
        if gcd(b, r) == 1
    )


class TestReplay:
    def test_two_five_node(self):
        cert = proof_replay(INEQ1, 5)
        node = cert.node_for(OrbifoldPoint(2, 5))
        assert node.parents == (OrbifoldPoint(1, 2), OrbifoldPoint(1, 3))
        assert node.xi_delta == -4
        assert node.net_offset == 0

    def test_ineq2_sporadic_offsets(self):
        cert = proof_replay(INEQ2, 12, low_slope_floor=14)
        nonzero = {
            (n.point.b, n.point.r): n.net_offset
            for n in cert.nodes
            if not n.is_leaf and n.net_offset
        }
        assert nonzero == {(3, 10): 1, (5, 12): 1}

    def test_ineq1_equality_set(self):
        cert = proof_replay(INEQ1, 12)
        assert cert.min_slack() == 0
        attained = {(p.b, p.r) for p in cert.min_slack_points()}
        assert attained == INEQ1_EQUALITY_R12
        assert {(1, 2), (1, 3), (1, 4), (2, 5)} <= attained

    def test_slack_summary_is_min_and_attaining_points(self):
        for func in (INEQ1, INEQ2):
            cert = proof_replay(func, 30)
            assert cert.slack_summary() == (cert.min_slack(), cert.min_slack_points())

    def test_node_counts_cover_all_slopes(self):
        cert = proof_replay(INEQ1, 30)
        assert len(cert.nodes) == expected_count(30)

    def test_rejects_tiny_range(self):
        with pytest.raises(ValueError):
            proof_replay(INEQ1, 1)


class TestSerialization:
    def test_round_trip(self):
        cert = proof_replay(INEQ2, 15, low_slope_floor=14)
        assert Certificate.from_text(cert.to_text()) == cert

    def test_deterministic_bytes(self):
        one = proof_replay(INEQ1, 25).to_text()
        two = proof_replay(INEQ1, 25).to_text()
        assert one == two

    def test_jobs_do_not_change_bytes(self):
        seq = proof_replay(INEQ2, 40, low_slope_floor=14)
        par = proof_replay(INEQ2, 40, low_slope_floor=14, jobs=2)
        assert seq.to_text() == par.to_text()

    def test_file_round_trip(self, tmp_path):
        cert = proof_replay(INEQ1, 10)
        path = tmp_path / "cert.txt"
        cert.write(path)
        assert Certificate.read(path) == cert


class TestVerification:
    def test_fresh_certificates_verify(self):
        for func, floor in ((INEQ1, 0), (INEQ2, 14)):
            cert = proof_replay(func, 40, low_slope_floor=floor)
            report = verify_certificate(cert)
            assert report.ok, report.issues[:3]
            assert report.min_slack >= 0

    def test_agrees_with_direct_evaluation(self):
        cert = proof_replay(INEQ1, 40)
        for node in cert.nodes:
            assert node.xi_bar == xi_bar_pair(INEQ1, node.point.b, node.point.r)

    def test_tampered_value_detected(self):
        cert = proof_replay(INEQ1, 12)
        text = cert.to_text().replace(
            "2/5 split 1/2,1/3 cfdet=1 offsets=- net=0 xidelta=-4 xibar=0",
            "2/5 split 1/2,1/3 cfdet=1 offsets=- net=0 xidelta=-4 xibar=1",
        )
        assert text != cert.to_text()
        report = verify_certificate(Certificate.from_text(text))
        assert not report.ok
        assert any("2/5" in issue for issue in report.issues)

    def test_tampered_parent_detected(self):
        cert = proof_replay(INEQ1, 12)
        text = cert.to_text().replace("split 1/2,1/3", "split 1/2,1/4")
        report = verify_certificate(Certificate.from_text(text))
        assert not report.ok

    def test_missing_node_detected(self):
        cert = proof_replay(INEQ1, 12)
        lines = cert.to_text().splitlines()
        drop = next(i for i, line in enumerate(lines) if line.startswith("2/5 "))
        lines[drop:drop + 1] = []
        lines[5] = f"nodes: {len(cert.nodes) - 1}"
        report = verify_certificate(Certificate.from_text("\n".join(lines) + "\n"))
        assert not report.ok
        assert any("coverage" in issue for issue in report.issues)

    def test_unsorted_nodes_detected(self):
        cert = proof_replay(INEQ1, 8)
        shuffled = Certificate(
            cert.functional,
            cert.r_max,
            cert.low_slope_floor,
            cert.slope_cut,
            tuple(reversed(cert.nodes)),
        )
        report = verify_certificate(shuffled)
        assert any("order" in issue for issue in report.issues)

    def test_wrong_lemma_rule_is_caught(self, monkeypatch):
        # A split lemma that disagrees with the recomputed offsets must stop
        # the builder and be reported by the verifier, in both of its forms.
        cert = proof_replay(INEQ2, 12, low_slope_floor=14)
        for wrong, rule in ((lambda r1, r2, n: 0, "additivity"),
                            (lambda r1, r2, n: 7, "the offset lemma")):
            monkeypatch.setattr(certificates, "lemma_offset", wrong)
            with pytest.raises(ArithmeticError, match="contradicts lemma value"):
                proof_replay(INEQ2, 12, low_slope_floor=14)
            issues = verify_certificate(cert).issues
            assert any(f"contradicts {rule}" in issue for issue in issues)

    def test_violation_reported_for_hostile_target(self):
        # A floor the inequality does not satisfy must be flagged, not hidden.
        cert = proof_replay(INEQ1, 14, low_slope_floor=99)
        report = verify_certificate(cert)
        assert not report.ok
        assert any("violation" in issue for issue in report.issues)
