"""Certificate building, serialization, and independent verification."""

import contextlib
import gc
import hashlib
import io
import json
import multiprocessing
import os
import pickle
import re
import tempfile
import tracemalloc
from fractions import Fraction
from itertools import chain, groupby
from math import gcd

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from basket3 import baskets, certificates
from basket3.baskets import delta_row
from basket3.certificates import (
    Certificate,
    CertificateNode,
    proof_replay,
    verify_certificate,
)
from basket3.cli import main
from basket3.functionals import (
    INEQ1,
    INEQ2,
    INEQUALITIES,
    Functional,
    lemma_offsets,
    point_target,
    split_offsets,
    xi_bar_num,
    xi_bar_pair,
    xi_delta_pair,
    xi_lin_num,
)
from basket3.rationals import slopes, split_slope
from oracles import (
    delta_by_definition,
    mbar_by_definition,
    slopes_in_interval,
    verify_both_ways,
    with_nodes,
)

# Equality set of the first inequality for r <= 12, computed by direct
# evaluation of xi_bar: exactly the points whose repeated mediant splits
# bottom out in atoms 1/2, 1/3, 1/4 only.
INEQ1_EQUALITY_R12 = {
    (1, 2), (1, 3), (1, 4), (2, 5), (2, 7), (3, 7), (3, 8), (4, 9),
    (3, 10), (3, 11), (4, 11), (5, 11), (5, 12),
}


def by_point(cert):
    return {(n.b, n.r): n for n in cert.nodes}


def slack(node):
    return Fraction(node.xi_num - 2 * node.r * node.target_int, 2 * node.r)


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
        node = by_point(cert)[2, 5]
        assert (node.b_hi, node.r_hi, node.b_lo, node.r_lo) == (1, 2, 1, 3)
        assert node.xi_delta == -4
        assert node.net_offset == 0

    def test_ineq2_sporadic_offsets(self):
        cert = proof_replay(INEQ2, 12, low_slope_floor=14)
        nonzero = {
            (n.b, n.r): n.net_offset
            for n in cert.nodes
            if n.b_hi is not None and n.net_offset
        }
        assert nonzero == {(3, 10): 1, (5, 12): 1}

    def test_ineq1_equality_set(self):
        cert = proof_replay(INEQ1, 12)
        least, points = cert.least_slack
        assert least == 0
        attained = set(points)
        assert attained == INEQ1_EQUALITY_R12
        assert {(1, 2), (1, 3), (1, 4), (2, 5)} <= attained

    def test_slack_summary_is_min_and_attaining_points(self):
        for func in (INEQ1, INEQ2):
            cert = proof_replay(func, 30)
            least = min(slack(n) for n in cert.nodes)
            attaining = tuple((n.b, n.r) for n in cert.nodes if slack(n) == least)
            assert cert.least_slack == (least, attaining)

    def test_node_counts_cover_all_slopes(self):
        cert = proof_replay(INEQ1, 30)
        assert len(cert.nodes) == expected_count(30)

    def test_rejects_tiny_range(self):
        with pytest.raises(ValueError):
            proof_replay(INEQ1, 1)

    @pytest.mark.parametrize(
        ("r_max", "kwargs", "name"),
        [
            (13, {"low_slope_floor": True}, "low_slope_floor"),
            (13, {"low_slope_floor": 14.5}, "low_slope_floor"),
            # No slope is low at r_max 10, so no target would read the floor.
            (10, {"low_slope_floor": 14.5}, "low_slope_floor"),
            (13, {"jobs": 0}, "jobs"),
            (13, {"jobs": -1}, "jobs"),
            (13, {"jobs": True}, "jobs"),
            (2.0, {}, "r_max"),
        ],
    )
    def test_refuses_what_a_certificate_cannot_hold(self, monkeypatch, r_max, kwargs, name):
        # Only exact ints, and at least one job, are taken; anything else is
        # refused before any task runs, naming the argument.
        def no_task(args):
            raise AssertionError("a task ran")

        monkeypatch.setattr(certificates, "_build_range", no_task)
        with pytest.raises(ValueError, match=f"^{name} must"):
            proof_replay(INEQ2, r_max, **kwargs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_parents_are_earlier_nodes(self, jobs):
        cert = proof_replay(INEQ2, 40, low_slope_floor=14, jobs=jobs)
        position = {(n.b, n.r): i for i, n in enumerate(cert.nodes)}
        for i, n in enumerate(cert.nodes):
            if n.b_hi is None:
                assert n.b == 1
                continue
            assert position[n.b_hi, n.r_hi] < i
            assert position[n.b_lo, n.r_lo] < i


class _NoClasses(pickle.Unpickler):
    """An unpickler that refuses every class, so only plain data loads."""

    def find_class(self, module, name):
        raise pickle.UnpicklingError(f"{module}.{name} crossed the pool")


def least_of(nodes):
    """(least slack, attaining (b, r) in order) of nodes or records, by Fraction."""
    slacks = [Fraction(n[10] - 2 * n[1] * n[11], 2 * n[1]) for n in nodes]
    least = min(slacks)
    return least, tuple(n[:2] for n, s in zip(nodes, slacks) if s == least)


def rows_of(records):
    """(r, b of its first record, its records' lines in ASCII) of each row, by r."""
    rows = [list(row) for _, row in groupby(records, lambda record: record[1])]
    return [
        (row[0][1], row[0][0], "".join(map(certificates._node_line, row)).encode("ascii"))
        for row in rows
    ]


def canonical(records):
    """Records, or nodes, in canonical (r, b) order."""
    return sorted(records, key=lambda record: record[1::-1])


@pytest.mark.parametrize(("func", "floor"), [(INEQ1, 0), (INEQ2, 14)])
def test_worker_results_are_plain_data(func, floor):
    # A worker's task is one Farey interval of slopes.  Its records, merged
    # in (r, b) order, are the serial nodes; its result is plain data: the
    # lines of each row's records and the least slack of their fields.
    intervals = certificates._intervals(40, 4)
    assert len(intervals) == 4
    nodes = proof_replay(func, 40, low_slope_floor=floor).nodes
    columns = []
    for lo, hi in intervals:
        records = list(certificates._records(func, floor, 40, (lo, hi)))
        columns.append(records)
        part = certificates._build_range((func.coeffs, floor, 40, lo, hi))
        assert _NoClasses(io.BytesIO(pickle.dumps(part))).load() == part
        rows, (num, den, points) = part
        assert rows == rows_of(records)
        assert (Fraction(num, den), tuple(points)) == least_of(records)
    assert tuple(canonical(chain.from_iterable(columns))) == nodes


# sha256 of the INEQ2 certificate at r_max 400, as pinned for the benchmark
# (bench/expected.json, full.certify.cert_sha256).
FULL_SIZE_SHA256 = "f60dda8830296c8708e4fbdeab6ef060f574eeacbc948d2c1ea12fdcebe212e1"


def _inside(point, lo, hi):
    """Whether lo <= point <= hi, as slopes, by cross-multiplication."""
    (b, r), (b_lo, r_lo), (b_hi, r_hi) = point, lo, hi
    return b_lo * r <= b * r_lo and b * r_hi <= b_hi * r


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 300), st.integers(1, 64))
def test_intervals_own_their_parents(r_max, count):
    intervals = certificates._intervals(r_max, count)
    assert 1 <= len(intervals) <= min(count, r_max - 1)
    widths = [lo[1] * hi[1] for lo, hi in intervals]
    assert widths == sorted(widths)  # widest first
    walked = []
    for lo, hi in intervals:
        assert hi[0] * lo[1] - lo[0] * hi[1] == 1  # Farey neighbours
        for b, r in slopes_in_interval(r_max, lo, hi):
            walked.append((b, r))
            if b == 1 or (b, r) == hi:
                continue
            parent_hi, parent_lo, _ = split_slope(b, r)
            assert _inside(parent_hi, lo, hi) and _inside(parent_lo, lo, hi)
    assert sorted(walked, key=lambda point: point[::-1]) == list(slopes(2, r_max))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 300), st.integers(1, 64))
def test_tasks_walk_their_interval_by_rows(r_max, count):
    # Each task lists exactly the slopes of its interval, in (r, b) order,
    # and gives every split the parents and cfdet of split_slope.  Its rows,
    # one per r from its right end's index up to r_max that has a slope of
    # the interval, are each keyed by their first (r, b) and hold the lines
    # of that row's records, and its summary is its records' least slack
    # with the points attaining it.
    for lo, hi in certificates._intervals(r_max, count):
        records = list(certificates._records(INEQ2, 14, r_max, (lo, hi)))
        rows, (num, den, points) = certificates._build_range(
            (INEQ2.coeffs, 14, r_max, lo, hi)
        )
        assert (Fraction(num, den), tuple(points)) == least_of(records)
        assert [record[:2] for record in records] == slopes_in_interval(r_max, lo, hi)
        for b, r, b_hi, r_hi, b_lo, r_lo, cf_det, *_ in records:
            if b > 1:
                assert ((b_hi, r_hi), (b_lo, r_lo), cf_det) == split_slope(b, r)
        assert rows == rows_of(records)
        assert all(hi[1] <= r <= r_max for r, _, _ in rows)


def test_interval_tasks_compute_no_parent_twice(pool_log, monkeypatch):
    # Every --jobs builds through the same interval tasks: one worker runs
    # them in this process, with no pool.  A task computes the vector of
    # each of its own slopes and, besides them, at most those of its left
    # end and of its right end's parents.  At r_max 400 that is at most two
    # per task on the whole, for the 8 tasks of --jobs 1 and the 16 of
    # --jobs 2.
    calls = builds = 0
    delta_vector, build_range = certificates.delta_vector, certificates._build_range

    def counting(*args):
        nonlocal calls
        calls += 1
        return delta_vector(*args)

    def counting_build(args):
        nonlocal builds
        builds += 1
        return build_range(args)

    monkeypatch.setattr(certificates, "delta_vector", counting)
    monkeypatch.setattr(certificates, "_build_range", counting_build)
    monkeypatch.setattr(certificates.os, "cpu_count", lambda: 2)
    for jobs, sizes in ((1, []), (2, [2])):
        calls = builds = 0
        cert = proof_replay(INEQ2, 400, low_slope_floor=14, jobs=jobs)
        tasks = len(certificates._intervals(400, 8 * jobs))
        assert tasks == 8 * jobs and builds == tasks
        assert pool_log["sizes"] == sizes
        assert len(pool_log["tasks"]) == (tasks if sizes else 0)
        # One map call takes every task, widest first.
        cuts = certificates._intervals(400, tasks)
        every = [(INEQ2.coeffs, 14, 400, lo, hi) for lo, hi in cuts]
        assert pool_log["maps"] == ([every] if sizes else [])
        assert calls <= len(cert.nodes) + 2 * tasks
        assert hashlib.sha256(cert.to_text().encode()).hexdigest() == FULL_SIZE_SHA256


def test_tasks_are_sized_from_the_workers(pool_log, monkeypatch):
    # On 2 CPUs --jobs 64 runs 2 workers, so it cuts the same tasks as
    # --jobs 2, not 64 * 8 of them.
    monkeypatch.setattr(certificates.os, "cpu_count", lambda: 2)
    texts = []
    for jobs in (2, 64):
        texts.append(proof_replay(INEQ2, 400, low_slope_floor=14, jobs=jobs).to_text())
    tasks = pool_log["tasks"]
    assert pool_log["sizes"] == [2, 2] and len(tasks) == 32
    assert tasks[:16] == tasks[16:]
    assert texts[0] == texts[1]


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 60), st.sampled_from(sorted(INEQUALITIES)))
def test_nodes_match_definitions_and_round_trip(r_max, which):
    ineq = INEQUALITIES[which]
    cert = proof_replay(ineq.functional, r_max, low_slope_floor=ineq.floor)
    for node in cert.nodes:
        b, r = node.b, node.r
        assert Fraction(node.xi_num, 2 * r) == xi_bar_pair(ineq.functional, b, r)
        assert node.target_int == point_target(ineq.floor, b, r)
    assert Certificate.from_text(cert.to_text()) == cert


# Functionals of up to 16 coefficients, most of them unbalanced.
FUNCTIONALS = st.lists(st.integers(-20, 20), min_size=1, max_size=16).filter(any).map(
    lambda coeffs: Functional(tuple(coeffs))
)


@st.composite
def basket_points(draw, r_max):
    r = draw(st.integers(2, r_max))
    b = draw(st.integers(1, r // 2))
    assume(gcd(b, r) == 1)
    return b, r


@settings(max_examples=300, deadline=None)
@given(FUNCTIONALS, basket_points(10**6))
def test_node_walk_matches_the_definitions(func, point):
    # The verifier's walk against the builder's kernels and the Fraction
    # definitions, with the split's parents' rows (zero rows at an atom).
    b, r = point
    support = func.support
    if b == 1:
        d_hi = d_lo = (0,) * len(support)
    else:
        hi, lo, _ = split_slope(b, r)
        d_hi, d_lo = delta_row(*hi, support), delta_row(*lo, support)
    d, xi, xd, offs = certificates._node_walk(support, func.weights, b, r, d_hi, d_lo)
    assert d == delta_row(b, r, support)
    assert list(d) == [delta_by_definition(j, b, r) for j in support]
    assert xi == xi_bar_num(func, b, r)
    assert xd == xi_delta_pair(func, b, r)
    assert xi == 2 * r * xd + xi_lin_num(func, b, r)
    assert offs == split_offsets(d, d_hi, d_lo)


@settings(max_examples=40, deadline=None)
@given(FUNCTIONALS, st.integers(2, 40))
def test_fresh_certificates_of_any_functional_verify(func, r_max):
    # With floor 0 every target is 0, so the only issues of a fresh
    # certificate are the points where xi_bar, by its definition, is negative.
    report = verify_certificate(proof_replay(func, r_max))
    violations = []
    for b, r in slopes(2, r_max):
        xi_bar = sum(c * mbar_by_definition(j, b, r) for j, c in enumerate(func.coeffs, 1))
        if xi_bar < 0:
            violations.append(f"{b}/{r}: violation, xibar {xi_bar} < target 0")
    assert list(report.issues) == violations


@settings(max_examples=30, deadline=None)
@given(FUNCTIONALS, st.integers(-3, 20), st.integers(2, 150), st.integers(1, 3))
def test_replay_text_is_the_text_of_its_nodes(func, floor, r_max, jobs):
    # A replay keeps the text its tasks wrote, which is the text of the
    # nodes it reads as; write writes its bytes, and the reader takes it
    # back to the same certificate.
    cert = proof_replay(func, r_max, low_slope_floor=floor, jobs=jobs)
    text = cert.to_text()
    assert cert.text.decode("ascii") == "".join(map(certificates._node_line, cert.nodes))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cert.txt")
        cert.write(path)
        with open(path, "rb") as fh:
            assert fh.read() == text.encode("ascii")
    assert Certificate.from_text(text) == cert


@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    func=FUNCTIONALS, floor=st.integers(-3, 20), r_max=st.integers(2, 150),
    jobs=st.integers(1, 3),
)
def test_merged_summary_is_the_least_slack_of_the_nodes(
    pool_log, monkeypatch, tmp_path, func, floor, r_max, jobs
):
    # The summary that the merge takes from the tasks' summaries is the
    # least recorded slack over the nodes, negative where a floor is not
    # met, with every point attaining it in (r, b) order; and the verifier,
    # which recomputes each slack, finds the same on the written file.
    monkeypatch.setattr(certificates.os, "cpu_count", lambda: 2)
    cert = proof_replay(func, r_max, low_slope_floor=floor, jobs=jobs)
    least = min(slack(n) for n in cert.nodes)
    attaining = tuple((n.b, n.r) for n in cert.nodes if slack(n) == least)
    assert cert.least_slack == (least, attaining)
    path = tmp_path / "cert.txt"
    cert.write(path)
    report = verify_certificate(path)
    assert (report.min_slack, report.min_slack_points) == (least, attaining)


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(st.sampled_from([INEQ1, INEQ2]), FUNCTIONALS), st.integers(-3, 20),
    st.integers(2, 150), st.integers(1, 64), st.randoms(use_true_random=False),
)
def test_merge_takes_the_task_results_in_any_order(func, floor, r_max, count, rng):
    # The merge keys every row and attaining point by its (r, b), so the
    # order in which the tasks' results come changes nothing: the text is
    # the lines of all the tasks' records in (r, b) order, and the summary
    # their least slack.  The paper's functionals attain their least slack
    # in many tasks at once.
    intervals = certificates._intervals(r_max, count)
    parts = [
        certificates._build_range((func.coeffs, floor, r_max, lo, hi)) for lo, hi in intervals
    ]
    nodes = canonical(
        chain.from_iterable(
            certificates._records(func, floor, r_max, interval) for interval in intervals
        )
    )
    want = "".join(map(certificates._node_line, nodes)).encode("ascii"), least_of(nodes)
    assert certificates._merge(parts) == want
    rng.shuffle(parts)
    assert certificates._merge(iter(parts)) == want


@pytest.mark.parametrize("jobs", [1, 2])
def test_replay_makes_no_node(jobs, pool_log, monkeypatch, tmp_path, capsys):
    # A replay's file, summary and printed report come from its tasks' text
    # and summaries; its nodes are read from its text on first access only,
    # and then kept.
    new_node, made = certificates._new_node, 0

    def no_node(fields):
        raise AssertionError("a node was made")

    def counting(fields):
        nonlocal made
        made += 1
        return new_node(fields)

    monkeypatch.setattr(certificates.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(certificates, "_new_node", no_node)
    cert = proof_replay(INEQ2, 60, low_slope_floor=14, jobs=jobs)
    cert.write(tmp_path / "cert.txt")
    least, attained = cert.least_slack
    args = ["replay", "--which", "2", "--r-max", "60", "--jobs", str(jobs)]
    assert main([*args, "--out", str(tmp_path / "cli.txt")]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert pool_log["sizes"] == ([] if jobs == 1 else [2, 2])
    monkeypatch.setattr(certificates, "_new_node", counting)
    nodes = cert.nodes
    assert made == len(nodes) == printed["nodes"] == expected_count(60)
    assert cert.nodes is nodes and made == len(nodes)
    assert printed["attained_count"] == len(attained)
    assert (tmp_path / "cli.txt").read_bytes() == (tmp_path / "cert.txt").read_bytes()


def set_collector(on):
    if on:
        gc.enable()
    else:
        gc.disable()


@contextlib.contextmanager
def collector(enabled):
    """Run the block with the cyclic collector on or off, then restore it."""
    was = gc.isenabled()
    set_collector(enabled)
    try:
        yield
    finally:
        set_collector(was)


class TestCollectorPause:
    # Bulk node builds pause the cyclic collector, and every one leaves it
    # as the caller had it: on stays on, off stays off, a raise included.
    TEXT = proof_replay(INEQ2, 30, low_slope_floor=14).to_text()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("call", ["replay-1", "replay-2", "from_text", "verify"])
    def test_state_is_kept(self, enabled, call):
        cert = Certificate.from_text(self.TEXT)
        run = {
            "replay-1": lambda: proof_replay(INEQ2, 30, low_slope_floor=14),
            "replay-2": lambda: proof_replay(INEQ2, 30, low_slope_floor=14, jobs=2),
            "from_text": lambda: Certificate.from_text(self.TEXT),
            "verify": lambda: verify_certificate(cert),
        }[call]
        with collector(enabled):
            run()
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_kept_through_a_raise(self, enabled, monkeypatch):
        def broken(*args):
            raise ArithmeticError("broken")

        bad_text = self.TEXT.replace("2/5 split", "2/5 splat", 1)
        cert = Certificate.from_text(self.TEXT)
        with collector(enabled):
            with pytest.raises(ValueError, match="unknown node kind 'splat'"):
                Certificate.from_text(bad_text)
            assert gc.isenabled() is enabled
            monkeypatch.setattr(certificates, "_records", broken)
            with pytest.raises(ArithmeticError, match="broken"):
                proof_replay(INEQ2, 30, low_slope_floor=14)
            assert gc.isenabled() is enabled
            monkeypatch.setattr(certificates, "_node_walk", broken)
            with pytest.raises(ArithmeticError, match="broken"):
                verify_certificate(cert)
            assert gc.isenabled() is enabled


class TestSerialization:
    def test_round_trip(self):
        cert = proof_replay(INEQ2, 15, low_slope_floor=14)
        assert Certificate.from_text(cert.to_text()) == cert

    @pytest.mark.parametrize(
        ("r_max", "floor", "name"),
        [
            (True, 14, "r_max"),
            (5.0, 14, "r_max"),
            ("5", 14, "r_max"),
            (1, 14, "r_max"),
            (5, True, "low_slope_floor"),
            (5, 14.0, "low_slope_floor"),
            (5, None, "low_slope_floor"),
        ],
    )
    def test_refuses_header_values_it_cannot_write_back(self, r_max, floor, name):
        # The header is written with str, and the reader takes only an int
        # (an r-max of at least 2), so anything else is refused when made.
        cert = proof_replay(INEQ2, 5, low_slope_floor=14)
        with pytest.raises(ValueError, match=f"^{name} must"):
            Certificate(INEQ2, r_max, floor, cert.text, cert.least_slack)

    def test_a_hand_made_certificate_reads_back_equal(self, tmp_path):
        # Made from values, not by a replay: no nodes, a negative floor.
        cert = Certificate(Functional((3, -1, 2)), 7, -2, b"", (None, ()))
        assert Certificate.from_text(cert.to_text()) == cert
        cert.write(tmp_path / "cert.txt")
        assert Certificate.read(tmp_path / "cert.txt") == cert

    @pytest.mark.parametrize(
        ("func", "floor"),
        # The last functional is unbalanced, so its xibar values are proper
        # fractions over 2r and exercise the gcd reduction both ways.
        [(INEQ1, 0), (INEQ2, 14), (Functional((-4, 1, 0, 2)), 3)],
    )
    def test_text_is_canonical(self, func, floor):
        text = proof_replay(func, 60, low_slope_floor=floor).to_text()
        assert Certificate.from_text(text).to_text() == text

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_full_size_bytes_are_pinned(self, jobs):
        cert = proof_replay(INEQ2, 400, low_slope_floor=14, jobs=jobs)
        assert hashlib.sha256(cert.to_text().encode()).hexdigest() == FULL_SIZE_SHA256

    def test_deterministic_bytes(self):
        one = proof_replay(INEQ1, 25).to_text()
        two = proof_replay(INEQ1, 25).to_text()
        assert one == two

    def test_jobs_do_not_change_bytes(self):
        # At r_max 5 the split stops at its cap of r_max - 1 = 4 tasks.
        for func, floor in ((INEQ1, 0), (INEQ2, 14)):
            for r_max in (40, 5):
                seq = proof_replay(func, r_max, low_slope_floor=floor).to_text()
                for jobs in (2, 3):
                    par = proof_replay(func, r_max, low_slope_floor=floor, jobs=jobs)
                    assert par.to_text() == seq, (func.coeffs, r_max, jobs)

    @pytest.mark.parametrize(("cpus", "workers"), [(64, 11), (2, 2), (None, 1)])
    def test_worker_count_is_bounded(self, cpus, workers, tmp_path, monkeypatch, pool_log):
        # At r_max 12 the replay has at most 11 tasks, so --jobs 10000 may
        # start no more workers than that, nor more than the CPUs; one
        # worker is this process, with no pool.
        monkeypatch.setattr(certificates.os, "cpu_count", lambda: cpus)
        path = tmp_path / "cert.txt"
        args = ["replay", "--which", "2", "--r-max", "12", "--jobs", "10000"]
        assert main([*args, "--out", str(path)]) == 0
        if workers == 1:
            assert pool_log["sizes"] == pool_log["tasks"] == []
        else:
            assert pool_log["sizes"] == [workers]
            assert len(pool_log["tasks"]) == 11
        assert path.read_text() == proof_replay(INEQ2, 12, low_slope_floor=14).to_text()

    # The patched rule reaches the workers only when they are forked.
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers do not inherit a patched module",
    )
    def test_worker_lemma_contradiction_surfaces(self, monkeypatch):
        monkeypatch.setattr(
            certificates, "lemma_offsets", lambda r1, r2, ns: (0,) * len(ns)
        )
        # The widest task, (2/5, 1/2], is sent first and fails at its first split.
        with pytest.raises(ArithmeticError, match="for split 3/7 -> 1/2, 2/5$"):
            proof_replay(INEQ2, 12, low_slope_floor=14, jobs=2)
        # The pool is shut down before the error leaves the replay.
        assert not multiprocessing.active_children()

    # A certificate that the reader takes must be the bytes that it writes.
    # Random edits with the characters a certificate is made of: most are
    # refused, and the ones that are taken must round-trip exactly.
    SMALL = proof_replay(INEQ2, 8, low_slope_floor=14).to_text()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_accepted_edits_round_trip(self, data):
        text = self.SMALL
        for _ in range(data.draw(st.integers(1, 3))):
            op = data.draw(st.sampled_from(["insert", "delete", "replace"]))
            i = data.draw(st.integers(0, len(text) - 1))
            char = data.draw(st.sampled_from(" \t\n\r0123456789,:/-"))
            if op == "insert":
                text = text[:i] + char + text[i:]
            elif op == "delete":
                text = text[:i] + text[i + 1:]
            else:
                text = text[:i] + char + text[i + 1:]
        try:
            cert = Certificate.from_text(text)
        except ValueError:
            return
        assert cert.to_text() == text

    def test_file_round_trip(self, tmp_path):
        cert = proof_replay(INEQ1, 10)
        path = tmp_path / "cert.txt"
        cert.write(path)
        assert Certificate.read(path) == cert

    def test_non_ascii_byte_names_its_line(self, tmp_path):
        # The reader decodes each line on its own, so it names the line of a
        # byte that is not ASCII, and its place in that line.
        path = tmp_path / "cert.txt"
        proof_replay(INEQ1, 10).write(path)
        lines = path.read_bytes().split(b"\n")
        lines[9] = lines[9].replace(b"leaf", b"l\xe9af")
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError) as exc:
            Certificate.read(path)
        assert str(exc.value) == (
            "certificate line 10: 'ascii' codec can't decode byte 0xe9"
            " in position 5: ordinal not in range(128)"
        )

    def test_non_ascii_character_in_text_names_its_line(self):
        # from_text reads the text as its UTF-8 bytes, so a character that
        # is not ASCII is named with its line, as in a file.
        lines = proof_replay(INEQ1, 10).to_text().split("\n")
        lines[9] = lines[9].replace("leaf", "l\u00e9af")
        with pytest.raises(ValueError) as exc:
            Certificate.from_text("\n".join(lines))
        assert str(exc.value) == (
            "certificate line 10: 'ascii' codec can't decode byte 0xc3"
            " in position 5: ordinal not in range(128)"
        )


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
            xi_bar = Fraction(node.xi_num, 2 * node.r)
            assert xi_bar == xi_bar_pair(INEQ1, node.b, node.r)

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

    # The header's r-max moved away from the 23 nodes of the INEQ2 r_max 12
    # certificate.  Raised, the report names the first slopes above 12 and
    # reads only about nodes + 5 of them, not all slopes up to r-max;
    # lowered, it names the recorded points above r-max in (r, b) order.
    @pytest.mark.parametrize(
        ("r_max", "missing", "extra"),
        [
            (100000, ["1/13", "2/13", "3/13", "4/13", "5/13"], []),
            (10, [], ["1/11", "2/11", "3/11", "4/11", "5/11"]),
        ],
        ids=["raised", "lowered"],
    )
    def test_coverage_report_is_bounded_by_the_nodes(
        self, r_max, missing, extra, tmp_path, capsys, monkeypatch
    ):
        walk, read = certificates.slopes, 0

        def bounded_slopes(*args):
            nonlocal read
            for slope in walk(*args):
                read += 1
                if read > 1000:
                    raise AssertionError(f"coverage check read {read} slopes")
                yield slope

        monkeypatch.setattr(certificates, "slopes", bounded_slopes)
        text = proof_replay(INEQ2, 12, low_slope_floor=14).to_text()
        path = tmp_path / "cert.txt"
        path.write_text(text.replace("r-max: 12\n", f"r-max: {r_max}\n", 1))
        code = main(["verify", str(path)])
        verify_both_ways(path)
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["issues"] == [
            f"coverage mismatch: missing {missing}, extra {extra}"
        ]

    def test_builder_xi_bar_is_checked_by_definition(
        self, tmp_path, capsys, monkeypatch
    ):
        # The builder takes xi_bar from xi_delta + xi_lin; with an xi_lin
        # that is off by one, every node it writes is wrong, and the
        # verifier, which evaluates xi_bar from its definition, says so.
        xi_lin_num = certificates.xi_lin_num
        monkeypatch.setattr(
            certificates, "xi_lin_num", lambda func, b, r: xi_lin_num(func, b, r) + 1
        )
        cert = proof_replay(INEQ2, 12, low_slope_floor=14)
        monkeypatch.undo()
        path = tmp_path / "cert.txt"
        cert.write(path)
        code = main(["verify", str(path)])
        verify_both_ways(path)
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["issues"][0] == "1/2: recorded xibar 1/4 != 0"

    def test_missing_parent_names_the_split(self, tmp_path, capsys):
        # Without the atom 1/3, both the coverage and the first split that
        # names it as a parent are reported.
        text = proof_replay(INEQ2, 12, low_slope_floor=14).to_text()
        doctored = text.replace("nodes: 23\n", "nodes: 22\n", 1).replace(
            "1/3 leaf xidelta=-14 xibar=0 target=0\n", "", 1
        )
        path = tmp_path / "cert.txt"
        path.write_text(doctored)
        code = main(["verify", str(path)])
        verify_both_ways(path)
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["issues"][:2] == [
            "coverage mismatch: missing ['1/3'], extra []",
            "2/5: parents missing from the certificate before it",
        ]

    # A certificate is its text, and the reader refuses these points, so no
    # certificate holds them: written as the first node line, each is named
    # with its line and token.  (xibar is 1/2r, since 0/0 has no spelling.)
    @pytest.mark.parametrize(
        ("r", "error"),
        [(1, "'1/1' is not a basket point: "),
         (0, "malformed value '1/0' in node field '1/0'; want '{point}'")],
        ids=["1", "0"],
    )
    def test_non_point_made_in_code_is_extra(self, r, error):
        cert = proof_replay(INEQ2, 12, low_slope_floor=14)
        atom = CertificateNode(1, r, None, None, None, None, None, (), 0, 0, 1, 0)
        with pytest.raises(ValueError, match=f"^certificate line 8: {re.escape(error)}"):
            with_nodes(cert, (atom, *cert.nodes))

    def test_unsorted_nodes_detected(self):
        cert = proof_replay(INEQ1, 8)
        report = verify_certificate(with_nodes(cert, tuple(reversed(cert.nodes))))
        assert any("order" in issue for issue in report.issues)

    def test_verifier_shares_no_delta_kernel_with_the_builder(self, monkeypatch):
        # The verifier evaluates delta^j, xi_bar and the offsets from their
        # definitions, so with the builder's delta and offset kernels made to
        # raise it returns the same reports, a doctored one's issues too.
        certs = [
            proof_replay(func, 60, low_slope_floor=floor)
            for func, floor in ((INEQ1, 0), (INEQ2, 14))
        ]
        node = by_point(certs[1])[2, 5]
        doctored = node._replace(xi_delta=node.xi_delta + 1, offsets=())
        certs.append(with_nodes(
            certs[1], tuple(doctored if n is node else n for n in certs[1].nodes)
        ))
        reports = [verify_certificate(cert) for cert in certs]
        assert [report.ok for report in reports] == [True, True, False]

        def kernel(*args):
            raise AssertionError("the verifier called a builder kernel")

        monkeypatch.setattr(certificates, "delta_vector", kernel)
        monkeypatch.setattr(certificates, "split_offsets", kernel)
        monkeypatch.setattr(baskets, "delta_row", kernel)
        assert [verify_certificate(cert) for cert in certs] == reports

    def test_target_is_checked_by_its_own_rule(self, monkeypatch):
        # The builder takes each target from point_target; with a floor one
        # too low there, every target at or below the cut is wrong, and the
        # verifier, which reads the floor from the header and writes the cut
        # itself, names the first one.
        monkeypatch.setattr(
            certificates, "point_target", lambda floor, b, r: point_target(floor - 1, b, r)
        )
        cert = proof_replay(INEQ2, 60, low_slope_floor=14)
        issues = verify_certificate(cert).issues
        assert issues[0] == "1/12: recorded target 13 != 14"

    def test_wrong_lemma_rule_is_caught(self, monkeypatch):
        # A split lemma that disagrees with the recomputed offsets must stop
        # the builder and be reported by the verifier, in both of its forms,
        # also when the vector is wrong only at the largest j of the support.
        cert = proof_replay(INEQ2, 12, low_slope_floor=14)
        top = INEQ2.support[-1]

        def wrong_at_top(r1, r2, ns):
            *rest, last = lemma_offsets(r1, r2, ns)
            return (*rest, last + 1)

        for wrong, rule in (
            (lambda r1, r2, ns: (0,) * len(ns), "contradicts additivity"),
            (lambda r1, r2, ns: (7,) * len(ns), "contradicts the offset lemma"),
            (wrong_at_top, f"j={top} contradicts"),
        ):
            monkeypatch.setattr(certificates, "lemma_offsets", wrong)
            with pytest.raises(ArithmeticError, match="contradicts lemma value"):
                proof_replay(INEQ2, 12, low_slope_floor=14)
            issues = verify_certificate(cert).issues
            assert any(rule in issue for issue in issues)
        lemma_issues = [issue for issue in issues if "contradicts" in issue]
        assert lemma_issues and all(f"j={top} " in issue for issue in lemma_issues)

    def test_parents_are_recomputed_not_read(self):
        # Doctor the split 2/5 (xidelta, xibar, its offset at j = 19 and its
        # net) and give its child 3/7 the offset and net that agree with the
        # doctored vector.  Every replay identity among the recorded values
        # still holds, and no lemma applies to j = 19 at the split of 3/7, so
        # only a verifier that recomputes the parent's vector sees the child.
        func = Functional((0,) * 18 + (1,))
        cert = proof_replay(func, 8)
        index = by_point(cert)
        p25, p37 = (2, 5), (3, 7)
        n37 = index[p37]
        assert (n37.b_hi, n37.r_hi, n37.b_lo, n37.r_lo) == (1, 2, *p25)
        assert lemma_offsets(2, 5, (19,)) == (None,)

        def bump(node, k):
            offsets = dict(node.offsets)
            offsets[19] = offsets.get(19, 0) + k
            return node._replace(
                offsets=tuple((j, v) for j, v in sorted(offsets.items()) if v),
                net_offset=node.net_offset + k,
            )

        parent = bump(index[p25], 1)
        parent = parent._replace(xi_delta=parent.xi_delta + 1, xi_num=parent.xi_num + 10)
        doctored = {p25: parent, p37: bump(n37, -1)}
        nodes = tuple(doctored.get((n.b, n.r), n) for n in cert.nodes)
        issues = verify_certificate(with_nodes(cert, nodes)).issues
        assert any(issue.startswith("2/5: recorded xidelta") for issue in issues)
        assert any(issue.startswith("3/7: ") for issue in issues)

    # One doctored line of the INEQ2 r_max 12 certificate per verifier
    # issue that a freshly built certificate never raises.
    @pytest.mark.parametrize(
        ("old", "new", "issue"),
        [
            ("1/12 leaf xidelta=0 xibar=14 target=14",
             "1/12 leaf xidelta=0 xibar=14 target=13",
             "1/12: recorded target 13 != 14"),
            ("2/5 split 1/2,1/3 cfdet=1 offsets=5:-1,7:-1,10:-2,12:-2 net=0 xidelta",
             "2/5 leaf xidelta",
             "2/5: non-atom recorded as leaf"),
            ("3/7 split 1/2,2/5 ", "3/7 split 2/5,1/2 ",
             "3/7: parents are not unimodular"),
            # Indices 3 and 6 share a factor, so no lemma applies to them.
            ("2/9 split 1/4,1/5 ", "2/9 split 1/3,1/6 ",
             "2/9: parents are not unimodular"),
            ("offsets=5:-1,7:-1,10:-2,12:-2 ", "offsets=5:-1,7:-1,10:-2,12:-2,13:1 ",
             "2/5: offsets outside the support: [13]"),
            ("2/5 split 1/2,1/3 ", "2/5 split 1/2,1/4 ",
             "2/5: parents 1/2, 1/4 do not sum to the point"),
        ],
        ids=["target", "leaf", "unimodular", "non-coprime-indices", "support", "sum"],
    )
    def test_doctored_line_names_the_issue(self, old, new, issue):
        text = proof_replay(INEQ2, 12, low_slope_floor=14).to_text()
        doctored = text.replace(old, new, 1)
        assert doctored != text
        issues = verify_certificate(Certificate.from_text(doctored)).issues
        assert any(found.startswith(issue) for found in issues), issues

    @pytest.mark.parametrize(
        ("edit", "error"),
        [
            (lambda offs: offs[::-1],
             "offsets '12:-2,10:-2,7:-1,5:-1' are not in strictly ascending j"),
            (lambda offs: offs + offs[-1:],
             "offsets '5:-1,7:-1,10:-2,12:-2,12:-2' are not in strictly ascending j"),
            (lambda offs: ((1, 0),) + offs,
             "malformed value '1:0' in node field 'offsets=1:0,5:-1,7:-1,10:-2,12:-2'"),
        ],
        ids=["reordered", "repeated", "zero"],
    )
    def test_non_canonical_offsets_object_is_an_issue(self, edit, error):
        # A certificate is its text, and the reader refuses these spellings,
        # so no certificate carries them: written as the node line of 2/5,
        # each is named with its line and token.
        cert = proof_replay(INEQ2, 12, low_slope_floor=14)
        node = by_point(cert)[2, 5]
        doctored = node._replace(offsets=edit(node.offsets))
        nodes = tuple(doctored if n is node else n for n in cert.nodes)
        line = 8 + nodes.index(doctored)
        with pytest.raises(ValueError, match=f"^certificate line {line}: {re.escape(error)}"):
            with_nodes(cert, nodes)

    # Single-token edits of a certificate file: a token is what lies between
    # spaces, ",", ":", "/", "=" and newlines, and it is replaced by a number,
    # a spelling the reader refuses, a non-ASCII letter or another token.
    # Checked as it is read or after reading it, the file gives the same
    # report or the same error.
    CERT20 = proof_replay(INEQ2, 20, low_slope_floor=14).to_text()
    TOKENS = re.split(r"([ ,:/=\n])", CERT20)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, len(TOKENS) // 2),
        st.one_of(
            st.integers(-30, 30).map(str),
            st.sampled_from(["", "-0", "07", "1_0", "x", "\u00e9", "leaf", "split"]),
            st.sampled_from(TOKENS[::2]),
        ),
    )
    def test_streamed_and_read_reports_agree(self, index, token):
        tokens = list(self.TOKENS)
        tokens[2 * index] = token
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cert.txt")
            with open(path, "wb") as fh:
                fh.write("".join(tokens).encode("utf-8"))
            verify_both_ways(path)

    def test_streamed_check_holds_less_than_the_read_certificate(self, tmp_path):
        # Checked as it is read, a file costs the parent-row table and little
        # else; read first, it costs the text and the attaining points as
        # well.  Each traced call follows an untraced one, so the free lists
        # are filled alike.
        path = tmp_path / "cert.txt"
        proof_replay(INEQ2, 300, low_slope_floor=14).write(path)
        peaks = []
        for verify in (
            lambda: verify_certificate(path),
            lambda: verify_certificate(Certificate.read(path)),
        ):
            assert verify().ok
            gc.collect()
            tracemalloc.start()
            try:
                assert verify().ok
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 0.85 * peaks[1], peaks

    def test_violation_reported_for_hostile_target(self):
        # A floor the inequality does not satisfy must be flagged, not hidden.
        cert = proof_replay(INEQ1, 14, low_slope_floor=99)
        report = verify_certificate(cert)
        assert not report.ok
        assert any("violation" in issue for issue in report.issues)
