#!/usr/bin/env python3
"""Benchmark harness for basket3.

Run from the repository root:

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

One process runs one workload.  It sets up (imports ``basket3`` from
``src/`` and makes the inputs), runs operations in a closed loop (one
client, the next operation starts when the previous one ends) for
``--seconds``, checks every output against the results pinned in
``bench/expected.json``, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer metrics,
taken from spans that this file records around the library calls (see
``bench/README.md``).  The line before the result is a JSON report with
the environment and the metrics under the names the workload docs use.
The exit code is 0 only when every operation was correct.

``certify``, ``certify-par`` and ``sweep`` are deterministic; the seed
drives only the ``query`` document stream.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import pickle
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = BENCH / "expected.json"

WORKLOADS = ("certify", "certify-par", "sweep", "query")

# "full" is what the benchmark measures; "tiny" is for the self-test.
SIZES = {
    "full": {"r_max": 400, "sigma_max": 3, "query_pool": 2000, "query_ref": 100},
    "tiny": {"r_max": 40, "sigma_max": 1, "query_pool": 200, "query_ref": 10},
}
SETUP_REPEATS = 7
CHI_RANGE = (-8, 8)
SWEEP_M_MAX = 30
QUERY_M = range(2, 31)
REFERENCE_SEED = 0
CALIBRATION_SEED = 1000003
CALIBRATION_DOCS = 40
REFERENCE_BURST_S = 0.025
BATCH_S = 0.25
SAMPLE_PERIOD_S = 0.5

# Per-layer metrics reported by the traced run, with their units.  A
# workload whose operations never reach a layer reports 0 for it.
LAYER_METRICS = {
    "certificates.proof_replay_s": "s",
    "certificates.write_s": "s",
    "certificates.read_s": "s",
    "certificates.verify_certificate_s": "s",
    "certificates.cert_bytes": "bytes",
    "certificates.nodes": "count",
    "certificates.ipc_bytes": "bytes",
    "certificates.ipc_roundtrip_s": "s",
    "certificates.children_cpu_s": "s",
    "certificates.parallel_efficiency": "ratio",
    "functionals.xi_bar_pair_us": "us",
    "functionals.xi_delta_pair_us": "us",
    "functionals.verify_plurigenus_form_us": "us",
    "functionals.xi_bar_us": "us",
    "rationals.mediant_parents_us": "us",
    "rationals.parse_fraction_us": "us",
    "baskets.delta_pair_us": "us",
    "baskets.l_table_us": "us",
    "baskets.l_correction_us": "us",
    "riemann_roch.plurigenus_us": "us",
    "enumeration.enumerate_baskets_s": "s",
    "enumeration.baskets": "count",
    "enumeration.attach_invariants_s": "s",
    "enumeration.candidates": "count",
    "enumeration.candidate_yield": "ratio",
    "geography.check_chi_bound_us": "us",
    "geography.check_pm_bound_us": "us",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
}
E2E_UNITS = {
    "rate_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Lib:
    """The basket3 modules, imported from this checkout's ``src``."""

    def __init__(self) -> None:
        if not (SRC / "basket3" / "__init__.py").is_file():
            raise SystemExit(f"basket3 sources not found under {SRC}")
        sys.path.insert(0, str(SRC))
        import basket3
        from basket3 import (
            baskets,
            certificates,
            cli,
            enumeration,
            functionals,
            geography,
            rationals,
            riemann_roch,
        )

        if Path(basket3.__file__).resolve().parent != SRC / "basket3":
            raise SystemExit(f"imported basket3 from {basket3.__file__}, not {SRC}")
        self.baskets = baskets
        self.certificates = certificates
        self.cli = cli
        self.enumeration = enumeration
        self.functionals = functionals
        self.geography = geography
        self.rationals = rationals
        self.riemann_roch = riemann_roch


# --------------------------------------------------------------------------
# Statistics and small helpers


def quartiles(values):
    """(q1, median, q3) with the 'exclusive' method; degenerate for n < 2."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def p99(values):
    values = list(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def summary(values, unit):
    q1, med, q3 = quartiles(values)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def rate_summary(outcomes):
    """Items per reference second over the run, with per-op quartiles.

    ``wall_value`` is the same rate in uncalibrated wall-clock seconds.
    """
    q1, _, q3 = quartiles([o.items / o.ref_s for o in outcomes])
    items = sum(o.items for o in outcomes)
    return {"value": items / sum(o.ref_s for o in outcomes), "unit": "1/s",
            "q1": q1, "q3": q3, "n": len(outcomes),
            "wall_value": items / sum(o.seconds for o in outcomes)}


def sha256_file(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seed_drives_inputs": args.workload == "query",
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
    }


def import_s() -> float:
    """CPU time to import basket3 in a fresh interpreter.

    The child times its own import, so interpreter start-up is excluded and
    every import-time cost of the package (including the standard library
    modules it pulls in) is counted.  CPU time (user + system) leaves out
    the odd wait for the disk or for a CPU, which made wall time spiky.
    """
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.process_time(); import basket3.cli; "
        "print(time.process_time() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


# --------------------------------------------------------------------------
# Tracing: spans recorded in memory around calls into the library.


class Tracer:
    """Spans as [name, start, end, parent index, operation index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def call(self, name, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def wrap_gen(self, name, fn):
        """Trace a generator function: one span per resumed step."""
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item
        return traced

    def per_op(self, name: str) -> list[float]:
        """Total time under ``name`` in each traced operation."""
        totals: dict[int, float] = {}
        ops = {s[4] for s in self.spans}
        for s in self.spans:
            if s[0] == name:
                totals[s[4]] = totals.get(s[4], 0.0) + (s[2] - s[1])
        return [totals.get(op, 0.0) for op in sorted(ops)]

    def per_call_us(self, name: str) -> float:
        durs = [s[2] - s[1] for s in self.spans if s[0] == name]
        return 1e6 * sum(durs) / len(durs) if durs else 0.0

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def table(self) -> list[dict]:
        """Per span name: calls, busy seconds and self seconds."""
        own = self.self_times()
        rows: dict[str, dict] = {}
        for s, self_s in zip(self.spans, own):
            row = rows.setdefault(s[0], {"name": s[0], "calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += s[2] - s[1]
            row["self_s"] += self_s
        return sorted(rows.values(), key=lambda r: -r["self_s"])

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")


@contextlib.contextmanager
def patched(lib: Lib, tracer: Tracer, captured: dict):
    """Route ``cli.main`` and the public names it calls through the tracer.

    The last certificate that ``proof_replay`` returns is kept in
    ``captured["cert"]``.  ``captured["ipc"]`` receives what the worker
    pool of ``certificates`` carries in this operation: one (task, result)
    pair per task it ran in a worker process.
    """
    cert_cls = lib.certificates.Certificate
    replay = lib.cli.proof_replay
    pool_cls = lib.certificates.ProcessPoolExecutor
    captured["ipc"] = []

    def keep(*args, **kwargs):
        captured["cert"] = replay(*args, **kwargs)
        return captured["cert"]

    class RecordingPool(pool_cls):
        def map(self, fn, *iterables, **kwargs):
            tasks = list(zip(*iterables))
            results = list(super().map(fn, *zip(*tasks), **kwargs))
            captured["ipc"] += zip(tasks, results)
            return iter(results)

    plain = [
        (lib.cli, "main", "cli.main", lib.cli.main),
        (lib.cli, "proof_replay", "certificates.proof_replay", keep),
        (lib.cli, "verify_certificate", "certificates.verify_certificate", lib.cli.verify_certificate),
        (lib.cli, "verify_plurigenus_form", "functionals.verify_plurigenus_form",
         lib.cli.verify_plurigenus_form),
    ]
    gens = [
        (lib.cli, "enumerate_candidates", "enumeration.enumerate_candidates"),
        (lib.enumeration, "enumerate_baskets", "enumeration.enumerate_baskets"),
        (lib.enumeration, "attach_invariants", "enumeration.attach_invariants"),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, *_ in plain + gens]
    saved += [(cert_cls, attr, cert_cls.__dict__[attr]) for attr in ("write", "read")]
    saved.append((lib.certificates, "ProcessPoolExecutor", pool_cls))
    try:
        lib.certificates.ProcessPoolExecutor = RecordingPool
        for mod, attr, name, fn in plain:
            setattr(mod, attr, tracer.wrap(name, fn))
        for mod, attr, name in gens:
            setattr(mod, attr, tracer.wrap_gen(name, getattr(mod, attr)))
        cert_cls.write = tracer.wrap("certificates.Certificate.write", cert_cls.__dict__["write"])
        cert_cls.read = classmethod(
            tracer.wrap("certificates.Certificate.read", cert_cls.__dict__["read"].__func__))
        yield
    finally:
        for obj, attr, value in saved:
            setattr(obj, attr, value)


def time_kernel(fn, inputs) -> float:
    """Mean microseconds per call of ``fn(*args)`` over ``inputs``."""
    inputs = list(inputs)
    if not inputs:
        return 0.0
    start = time.perf_counter()
    for args in inputs:
        fn(*args)
    return 1e6 * (time.perf_counter() - start) / len(inputs)


# --------------------------------------------------------------------------
# Workloads.  Each operation returns an Outcome; ``ok`` is False on a
# non-zero exit, an exception or a mismatch against the pinned output.


class Outcome:
    """One timed operation: its kind, wall seconds, correctness and size.

    ``ref_s`` is the wall time in reference seconds (see ``Calibration``);
    ``samples`` are calibration bursts taken during the operation, whose
    time is already left out of ``seconds``.
    """

    def __init__(self, kind, seconds, ok, items, samples=()):
        self.kind = kind
        self.seconds = seconds
        self.ref_s = seconds
        self.ok = ok
        self.items = items
        self.samples = samples


class Workload:
    """Inputs, pinned results and checks shared by every workload.

    ``expected`` holds the pinned results (None while pinning); ``observed``
    collects the values compared with them.
    """

    with_children = False

    def __init__(self, lib, cfg, expected, seed, work, cal):
        self.lib = lib
        self.cal = cal
        self.cfg = cfg
        self.expected = expected
        self.seed = seed
        self.work = work
        self.observed: dict = {}
        self.serial_s: list[float] = []

    def check(self, key, value) -> bool:
        self.observed[key] = value
        return self.expected is None or self.expected.get(key) == value

    def make_inputs(self):
        """Generate the inputs; timed as part of set-up."""

    def between_traced_ops(self):
        """Work a traced run does after each traced operation, untimed."""

    def finish(self):
        """Checks after the timed loop: (attempted, failed) to add."""
        return 0, 0

    def pinned_counts(self) -> dict:
        """Per-layer counts of a traced run and the pinned values they must equal."""
        return {}

    def e2e(self, outcomes) -> dict:
        """End-to-end metrics when one operation is one command or query."""
        return {
            "rate_per_s": rate_summary(outcomes)["value"],
            "op_p50_ms": 1e3 * statistics.median(o.ref_s for o in outcomes),
        }


class CliWorkload(Workload):
    """A workload whose operations are ``basket3.cli.main`` commands."""

    def run_cli(self, argv, out_path):
        """(exit code or error, wall seconds less calibration, bursts taken)."""
        with open(out_path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            with self.cal.sampling(not self.with_children) as samples:
                start = time.perf_counter()
                try:
                    rc = self.lib.cli.main(argv)
                except Exception as exc:  # a crash is a failed operation, not a benchmark error
                    rc = f"{type(exc).__name__}: {exc}"
                except SystemExit as exc:  # e.g. argparse rejecting the argv
                    rc = exc.code
                seconds = time.perf_counter() - start
        return rc, seconds - sum(samples), samples


class Certify(CliWorkload):
    jobs = 1

    def replay(self):
        cert = self.work / "cert.txt"
        out = self.work / "replay.out"
        argv = ["replay", "--which", "2", "--r-max", str(self.cfg["r_max"]),
                "--out", str(cert), "--jobs", str(self.jobs)]
        rc, seconds, samples = self.run_cli(argv, out)
        text = out.read_text()
        self.cert_ok = self.check("cert_sha256", sha256_file(cert) if cert.exists() else None)
        ok = rc == 0 and self.check("replay_stdout", text) and self.cert_ok
        self.stdout_bytes = len(text.encode())
        return Outcome("replay", seconds, ok, self.nodes(text), samples)

    def verify(self):
        out = self.work / "verify.out"
        rc, seconds, samples = self.run_cli(["verify", str(self.work / "cert.txt")], out)
        text = out.read_text()
        self.stdout_bytes += len(text.encode())
        # The pinned verify output belongs to the pinned certificate only.
        ok = rc == 0 and self.check("verify_stdout", text) and self.cert_ok
        return Outcome("verify", seconds, ok, self.nodes(text), samples)

    def nodes(self, stdout):
        """Node count for the rates: pinned, or read from the first output."""
        if self.expected is None:
            self.observed["nodes"] = json.loads(stdout)["nodes"]
            return self.observed["nodes"]
        return self.expected["nodes"]

    def op(self):
        return [self.replay(), self.verify()]

    def pinned_counts(self):
        return {"certificates.nodes": self.expected["nodes"]}

    def named(self, outcomes):
        rep = [o for o in outcomes if o.kind == "replay"]
        ver = [o for o in outcomes if o.kind == "verify"]
        return {
            "replay_nodes_per_s": rate_summary(rep),
            "verify_nodes_per_s": rate_summary(ver),
        }

    def e2e(self, outcomes):
        """One operation is a replay followed by a verify of its output."""
        rep = [o for o in outcomes if o.kind == "replay"]
        ver = [o for o in outcomes if o.kind == "verify"]
        cycles = [r.ref_s + v.ref_s for r, v in zip(rep, ver)]
        return {
            "rate_per_s": sum(r.items for r in rep) / sum(cycles),
            "op_p50_ms": 1e3 * statistics.median(cycles),
        }

    def kernel_inputs(self):
        r_max = self.cfg["r_max"]
        return [(b, r) for r in range(2, r_max + 1)
                for b in range(1, r // 2 + 1) if _gcd(b, r) == 1]

    def layers(self, tracer, lib_spans):
        L = self.lib
        cert = lib_spans["cert"]
        points = self.kernel_inputs()
        func = L.functionals.INEQ2
        m = {
            "certificates.proof_replay_s": _median0(tracer.per_op("certificates.proof_replay")),
            "certificates.write_s": _median0(tracer.per_op("certificates.Certificate.write")),
            "certificates.read_s": _median0(tracer.per_op("certificates.Certificate.read")),
            "certificates.verify_certificate_s": _median0(tracer.per_op("certificates.verify_certificate")),
            "certificates.cert_bytes": (self.work / "cert.txt").stat().st_size,
            "certificates.nodes": len(cert.nodes),
        }
        m["functionals.xi_bar_pair_us"] = time_kernel(
            L.functionals.xi_bar_pair, [(func, b, r) for b, r in points])
        m["functionals.xi_delta_pair_us"] = time_kernel(
            L.functionals.xi_delta_pair, [(func, b, r) for b, r in points])
        m["baskets.delta_pair_us"] = time_kernel(
            L.baskets.delta_pair, [(j, b, r) for b, r in points for j in func.support])
        m["rationals.mediant_parents_us"] = time_kernel(
            L.rationals.mediant_parents, [(b, r) for b, r in points if b > 1])
        if self.jobs == 1:
            fractions = []
            for line in (self.work / "cert.txt").read_text().splitlines():
                fractions += [(tok.split("=", 1)[1],) for tok in line.split()
                              if tok.startswith(("xibar=", "target="))]
            m["rationals.parse_fraction_us"] = time_kernel(L.rationals.parse_fraction, fractions)
        m.update(cli_layer(tracer))
        return m


class CertifyPar(Certify):
    jobs = 2
    with_children = True

    def op(self):
        return [self.replay()]

    def named(self, outcomes):
        return {"replay_nodes_per_s": rate_summary(outcomes)}

    e2e = Workload.e2e  # one operation is one replay

    def between_traced_ops(self):
        """Time the same replay at jobs=1, alternating with the traced ops."""
        start = time.perf_counter()
        self.lib.certificates.proof_replay(
            self.lib.functionals.INEQ2, self.cfg["r_max"], low_slope_floor=14, jobs=1)
        self.serial_s.append(time.perf_counter() - start)

    def layers(self, tracer, lib_spans):
        m = super().layers(tracer, lib_spans)
        m["certificates.children_cpu_s"] = _median0(lib_spans["children_cpu"])
        m["certificates.parallel_efficiency"] = (
            statistics.median(self.serial_s) / (2 * m["certificates.proof_replay_s"]))
        # What the pool carried in the last traced replay: every task sent
        # to a worker and every result sent back, pickled as the pool does.
        transfers = [obj for pair in lib_spans["ipc"] for obj in pair]
        m["certificates.ipc_bytes"] = sum(len(pickle.dumps(obj)) for obj in transfers)
        m["certificates.ipc_roundtrip_s"] = _median0(_roundtrip_s(transfers) for _ in range(3))
        return m


def _roundtrip_s(objs) -> float:
    """Seconds to pickle and unpickle each of ``objs``."""
    start = time.perf_counter()
    for obj in objs:
        pickle.loads(pickle.dumps(obj))
    return time.perf_counter() - start


class Sweep(CliWorkload):
    def constraints(self):
        return {
            "chi_min": CHI_RANGE[0], "chi_max": CHI_RANGE[1],
            "sigma_max": self.cfg["sigma_max"], "m_max": SWEEP_M_MAX,
            "require_sigma12_zero": True, "require_nonneg_pm": True,
            "k3": {"search": {}},
        }

    def make_inputs(self):
        (self.work / "constraints.json").write_text(json.dumps(self.constraints()))

    def op(self):
        out = self.work / "sweep.out"
        rc, seconds, samples = self.run_cli(["enumerate", str(self.work / "constraints.json")], out)
        data = out.read_bytes()
        lines = data.count(b"\n")
        self.stdout_bytes = len(data)
        ok = rc == 0
        ok &= self.check("stream_sha256", hashlib.sha256(data).hexdigest())
        ok &= self.check("stream_lines", lines)
        ok &= self.check("baskets", len(self.baskets()))
        return [Outcome("enumerate", seconds, ok, lines, samples)]

    def baskets(self):
        """The sweep's baskets, from the library, enumerated once."""
        if not hasattr(self, "_baskets"):
            c = self.constraints()
            cons = self.lib.enumeration.EnumConstraints(
                chi_min=c["chi_min"], chi_max=c["chi_max"], sigma_max=c["sigma_max"],
                m_max=c["m_max"])
            self._baskets = list(self.lib.enumeration.enumerate_baskets(cons))
        return self._baskets

    def pinned_counts(self):
        return {"enumeration.baskets": self.expected["baskets"],
                "enumeration.candidates": self.expected["stream_lines"]}

    def named(self, outcomes):
        return {"candidates_per_s": rate_summary(outcomes)}

    def layers(self, tracer, lib_spans):
        L = self.lib
        baskets = self.baskets()
        points = sorted({(p.b, p.r) for bk in baskets for p, _ in bk.items})
        chis = CHI_RANGE[1] - CHI_RANGE[0] + 1
        candidates = (self.work / "sweep.out").read_text().count("\n")
        funcs = (L.functionals.INEQ1, L.functionals.INEQ2)
        m = {
            "enumeration.enumerate_baskets_s": _median0(tracer.per_op("enumeration.enumerate_baskets")),
            "enumeration.attach_invariants_s": _median0(tracer.per_op("enumeration.attach_invariants")),
            "enumeration.baskets": len(baskets),
            "enumeration.candidates": candidates,
            "enumeration.candidate_yield": candidates / (len(baskets) * chis),
            "functionals.verify_plurigenus_form_us": tracer.per_call_us("functionals.verify_plurigenus_form"),
            "baskets.l_table_us": time_kernel(L.baskets.l_table, [(bk, SWEEP_M_MAX) for bk in baskets]),
            "functionals.xi_bar_us": time_kernel(L.functionals.xi_bar, [(f, bk) for bk in baskets for f in funcs]),
            "functionals.xi_bar_pair_us": time_kernel(
                L.functionals.xi_bar_pair, [(f, b, r) for b, r in points for f in funcs]),
        }
        m.update(cli_layer(tracer))
        return m


def cli_layer(tracer) -> dict:
    """Median self time of the ``cli.main`` spans per operation."""
    own = tracer.self_times()
    per_op: dict[int, float] = {}
    for s, self_s in zip(tracer.spans, own):
        if s[0] == "cli.main":
            per_op[s[4]] = per_op.get(s[4], 0.0) + self_s
    return {"cli.self_s": _median0(per_op.values())}


def _direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class DocStream:
    """Seeded invariants documents for the query workload.

    Each document is a basket of 0-4 points with r log-uniform in [2, 256]
    (a uniform octave 2^e..2^(e+1), e = 1..7, then r uniform in it), an
    exact K^3 and a chi in [-8, 8].  Point counts and octaves are drawn
    from shuffled bags, so every run holds the same mix of small and large
    indices and a run's figures depend little on its seed.
    """

    def __init__(self, lib, seed):
        self.lib = lib
        self.rng = random.Random(seed)
        self.sizes: list[int] = []
        self.octaves: list[int] = []

    def draw(self, bag, values):
        if not bag:
            bag.extend(values)
            self.rng.shuffle(bag)
        return bag.pop()

    def next(self):
        rng = self.rng
        pairs = []
        for _ in range(self.draw(self.sizes, range(5))):
            e = self.draw(self.octaves, range(1, 8))
            r = rng.randint(2 ** e, 2 ** (e + 1))
            while True:
                b = rng.randint(1, r // 2)
                if _gcd(b, r) == 1:
                    break
            pairs.append((b, r))
        k3 = Fraction(rng.randint(1, 10 ** 4), rng.randint(1, 10 ** 3))
        chi = rng.randint(*CHI_RANGE)
        L = self.lib
        return L.riemann_roch.ThreefoldInvariants(k3, chi, L.baskets.Basket.from_pairs(pairs))


class Query(Workload):
    """Library-API queries on a seeded stream of invariants documents."""

    def __init__(self, *args):
        super().__init__(*args)
        self.chain = self.lib.geography.derive_constants(120)
        self.docs: list = []
        self.cursor = 0
        self.stream = None

    def make_inputs(self):
        self.stream = DocStream(self.lib, self.seed)
        self.docs = [self.stream.next() for _ in range(self.cfg["query_pool"])]

    def query(self, inv, call):
        L = self.lib
        f = L.functionals
        g = L.geography
        row = [call("riemann_roch.plurigenus", L.riemann_roch.plurigenus, inv, m) for m in QUERY_M]
        forms = [call("functionals.verify_plurigenus_form", f.verify_plurigenus_form, inv, w, strict=False)
                 for w in (1, 2)]
        xis = [call("functionals.xi_bar", f.xi_bar, func, inv.basket) for func in (f.INEQ1, f.INEQ2)]
        chi_b = call("geography.check_chi_bound", g.check_chi_bound, inv, self.chain)
        pm_b = call("geography.check_pm_bound", g.check_pm_bound, inv, self.chain, self.chain.m1)
        return row, forms, xis, chi_b, pm_b

    def op(self, call=_direct):
        """One query, timed; its result is then checked against the oracle."""
        if self.cursor == len(self.docs):
            self.docs.append(self.stream.next())
        inv = self.docs[self.cursor]
        self.cursor += 1
        start = time.perf_counter()
        try:
            res = call("client.query", self.query, inv, call)
        except Exception:  # counted as a failed query
            res = None
        seconds = time.perf_counter() - start
        ok = res is not None and canonical(res) == oracle(plain_doc(inv), plain_chain(self.chain))
        return [Outcome("query", seconds, ok, 1)]

    def finish(self):
        """Check the pinned digest of the reference stream (one operation)."""
        stream = DocStream(self.lib, REFERENCE_SEED)
        ref = [canonical(self.query(stream.next(), _direct))
               for _ in range(self.cfg["query_ref"])]
        digest = hashlib.sha256(json.dumps(ref).encode()).hexdigest()
        return 1, 0 if self.check("reference_sha256", digest) else 1

    def named(self, outcomes):
        secs = [o.ref_s for o in outcomes]
        tail = p99(secs)
        return {
            "queries_per_s": rate_summary(outcomes),
            "query_p50_ms": summary([1e3 * s for s in secs], "ms"),
            "query_p99_ms": {"value": 1e3 * tail, "unit": "ms", "n": len(secs),
                             "beyond": sum(s > tail for s in secs)},
        }

    def layers(self, tracer, lib_spans):
        L = self.lib
        docs = self.docs[:tracer.op + 1]
        funcs = (L.functionals.INEQ1, L.functionals.INEQ2)
        points = [(p.b, p.r) for inv in docs for p, _ in inv.basket.items]
        return {
            "riemann_roch.plurigenus_us": tracer.per_call_us("riemann_roch.plurigenus"),
            "functionals.verify_plurigenus_form_us": tracer.per_call_us("functionals.verify_plurigenus_form"),
            "functionals.xi_bar_us": tracer.per_call_us("functionals.xi_bar"),
            "geography.check_chi_bound_us": tracer.per_call_us("geography.check_chi_bound"),
            "geography.check_pm_bound_us": tracer.per_call_us("geography.check_pm_bound"),
            "baskets.l_correction_us": time_kernel(
                L.baskets.l_correction, [(inv.basket, m) for inv in docs for m in QUERY_M]),
            # verify_plurigenus_form builds l(0..13) once per call.
            "baskets.l_table_us": time_kernel(L.baskets.l_table, [(inv.basket, 13) for inv in docs]),
            "functionals.xi_bar_pair_us": time_kernel(
                L.functionals.xi_bar_pair, [(f, b, r) for b, r in points for f in funcs]),
        }


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _median0(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def canonical(res):
    row, forms, xis, chi_b, pm_b = res
    return [
        [str(rep.chi_mk) for rep in row],
        [[str(f.p_form), str(f.target), f.integral, f.ok] for f in forms],
        [str(x) for x in xis],
        [str(chi_b.bound), chi_b.ok],
        [str(pm_b.value), str(pm_b.general_bound), str(pm_b.strong_bound), pm_b.ok],
    ]


_FORM_P = {  # LHS - RHS of the two plurigenus inequalities, on P_m
    1: {4: 1, 5: 1, 6: 1, 2: -3, 3: -1, 7: -1},
    2: {5: 2, 6: 3, 8: 1, 10: 1, 12: 1, 2: -10, 3: -4, 7: -1, 11: -1, 13: -1},
}


def plain_doc(inv):
    """(K^3, chi, ((b, r, multiplicity), ...)) of an invariants document."""
    return inv.k3, inv.chi, tuple((p.b, p.r, mult) for p, mult in inv.basket.items)


def plain_chain(chain):
    return chain.c, chain.c_prime, chain.m1


def oracle(doc, chain):
    """Independent evaluation of one query, straight from the definitions.

    chi(mK) = m(m-1)(2m-1)/12 K^3 - (2m-1) chi + sum_{j<m} s_j(r - s_j)/2r
    with s_j = jb mod r; each form's xi_bar equals its P-form value because
    the K^3 and chi terms cancel.  ``doc`` and ``chain`` are plain data
    (``plain_doc``, ``plain_chain``), so this runs no basket3 code.
    """
    k3, chi, pts = doc
    c, c_prime, m1 = chain
    prefix = {}
    for b, r, _ in pts:
        acc = [0]
        for j in range(1, r + 1):
            s = (j * b) % r
            acc.append(acc[-1] + s * (r - s))
        prefix[(b, r)] = acc

    def chi_mk(m):
        ell = Fraction(0)
        for b, r, mult in pts:
            full, rem = divmod(m - 1, r)
            acc = prefix[(b, r)]
            ell += mult * Fraction(full * acc[r] + acc[rem], 2 * r)
        return Fraction(m * (m - 1) * (2 * m - 1), 12) * k3 - (2 * m - 1) * chi + ell

    row = {m: chi_mk(m) for m in range(2, 31)}
    sigma12 = sum(b * mult for b, r, mult in pts if 12 * b <= r)
    forms, xis = [], []
    for which in (1, 2):
        value = sum(a * row[m] for m, a in _FORM_P[which].items()) - (chi if which == 2 else 0)
        target = Fraction(14 * sigma12 if which == 2 else 0)
        integral = all(row[m].denominator == 1 for m in _FORM_P[which])
        forms.append([str(value), str(target), integral, value >= target])
        xis.append(str(value))
    bound = -c * k3
    general = c_prime * m1 ** 3 * k3
    strong = Fraction(m1 ** 3, 16) * k3 if chi <= 0 else None
    value = chi_mk(m1)
    pm_ok = value >= general and (strong is None or value >= strong)
    return [
        [str(row[m]) for m in range(2, 31)],
        forms,
        xis,
        [str(bound), -chi >= bound],
        [str(value), str(general), str(strong), pm_ok],
    ]


CLASSES = {"certify": Certify, "certify-par": CertifyPar, "sweep": Sweep, "query": Query}


# --------------------------------------------------------------------------
# Runs


def setup(args, lib, cal, work):
    """Import and input generation, repeated; returns (workload, setup_s).

    Each repeat is calibrated on its own; ``setup_s`` is their median in
    reference seconds.
    """
    exp = load_expected(args.expected)[args.size][args.workload]
    wl = CLASSES[args.workload](lib, SIZES[args.size], exp, args.seed, work, cal)
    values = []
    before = cal.burst()
    for _ in range(SETUP_REPEATS):
        seconds = import_s()
        start = time.perf_counter()
        wl.make_inputs()
        seconds += time.perf_counter() - start
        after = cal.burst()
        values.append(seconds * cal.scale(before, after))
        before = after
    return wl, statistics.median(values)


def load_expected(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _timed_burst(docs, chain) -> float:
    start = time.perf_counter()
    for doc in docs:
        oracle(doc, chain)
    return time.perf_counter() - start


def calibration_helper() -> None:
    """Helper process: one timed burst per line read from stdin, until EOF.

    stdin first carries the byte length of the pickled (docs, chain) on
    one line, then the pickle.  Each burst time goes to stdout on a line.
    """
    stdin = sys.stdin.buffer
    docs, chain = pickle.loads(stdin.read(int(stdin.readline())))
    _timed_burst(docs, chain)  # warm-up
    print("ready", flush=True)
    while stdin.readline():
        print(repr(_timed_burst(docs, chain)), flush=True)


HELPER_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import run; run.calibration_helper()"


class Calibration:
    """Machine-speed reference: a fixed burst of benchmark-only arithmetic.

    The speed of a shared box drifts by tens of percent within seconds, and
    a run's figures drift with it.  The burst is the query oracle of this
    file over fixed documents; it runs no basket3 code, so no change to the
    program moves it.  It is timed between batches of operations, and each
    operation's wall time is scaled by REFERENCE_BURST_S over the mean of
    the bursts before and after its batch.  The result is in reference
    seconds: the time the operation would take on a machine where the
    burst takes REFERENCE_BURST_S.

    With ``parallel`` (the workload whose workers use both CPUs) a helper
    process runs the same burst at the same time, and the mean of the two
    times is used, so the burst meets the contention the workers meet.
    Call ``close`` to stop the helper.
    """

    def __init__(self, lib, parallel=False, sample=False):
        self.sample = sample
        stream = DocStream(lib, CALIBRATION_SEED)
        self.docs = [plain_doc(stream.next()) for _ in range(CALIBRATION_DOCS)]
        self.chain = plain_chain(lib.geography.derive_constants(120))
        self.bursts: list[float] = []
        _timed_burst(self.docs, self.chain)  # warm-up: the first burst runs cold
        self.helper = None
        if parallel:
            # A plain child with pipes, not multiprocessing: its "spawn"
            # start method leaves a resource-tracker process running after
            # the benchmark exits.
            self.helper = subprocess.Popen(
                [sys.executable, "-B", "-c", HELPER_CODE, str(BENCH)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            try:
                blob = pickle.dumps((self.docs, self.chain))
                self.helper.stdin.write(b"%d\n" % len(blob) + blob)
                self.helper.stdin.flush()
                if self.helper.stdout.readline() != b"ready\n":
                    raise RuntimeError("calibration helper did not start")
            except BaseException:
                self.close()
                raise

    def burst(self) -> float:
        if self.helper is not None:
            self.helper.stdin.write(b"\n")
            self.helper.stdin.flush()
        elapsed = _timed_burst(self.docs, self.chain)
        if self.helper is not None:
            elapsed = (elapsed + float(self.helper.stdout.readline())) / 2
        self.bursts.append(elapsed)
        return elapsed

    def close(self) -> None:
        if self.helper is not None:
            with contextlib.suppress(OSError):
                self.helper.stdin.close()  # EOF: the helper exits
            try:
                self.helper.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.helper.kill()
                self.helper.wait()
            self.helper.stdout.close()
            self.helper = None

    def scale(self, *bursts: float) -> float:
        return REFERENCE_BURST_S / statistics.mean(bursts)

    @contextlib.contextmanager
    def sampling(self, enabled=True):
        """Take a burst every SAMPLE_PERIOD_S while the block runs.

        A single-process operation can last seconds, longer than the box
        keeps one speed, so bursts are also taken inside it, from a SIGALRM
        handler.  Yields the list that receives their durations.  Traced
        runs and operations with worker processes take none.
        """
        samples: list[float] = []
        if not (enabled and self.sample):
            yield samples
            return
        busy = False

        def handler(signum, frame):
            nonlocal busy
            if not busy:
                busy = True
                samples.append(_timed_burst(self.docs, self.chain))
                self.bursts.append(samples[-1])
                busy = False

        old = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def summary(self) -> dict:
        q1, med, q3 = quartiles(self.bursts)
        return {"reference_burst_s": REFERENCE_BURST_S, "bursts": len(self.bursts),
                "burst_median_s": med, "burst_q1_s": q1, "burst_q3_s": q3}


def loop(wl, cal, seconds=None, count=None, op=None):
    """Closed loop: operations back to back, calibrated between batches.

    Runs until ``count`` outcomes exist, or for about ``seconds``: a batch
    starts only if half its expected length still fits, so the run ends
    near ``seconds`` even when one command takes several.  A batch holds
    the operations of at least BATCH_S seconds.
    """
    op = op or wl.op
    outcomes = []
    batch_walls = []
    start = time.perf_counter()
    before = cal.burst()

    def more():
        if not outcomes:
            return True
        if count is not None:
            return len(outcomes) < count
        return time.perf_counter() - start + statistics.mean(batch_walls) / 2 < seconds

    while more():
        batch = []
        batch_start = time.perf_counter()
        while not batch or time.perf_counter() - batch_start < BATCH_S:
            batch += op()
            if count is not None and len(outcomes) + len(batch) >= count:
                break
        after = cal.burst()
        for o in batch:
            o.ref_s = o.seconds * cal.scale(before, after, *o.samples)
        outcomes += batch
        batch_walls.append(time.perf_counter() - batch_start)
        before = after
    return outcomes


def run_plain(wl, args, setup_s):
    outcomes = loop(wl, wl.cal, seconds=args.seconds)
    extra_attempted, extra_failed = wl.finish()
    metrics = wl.e2e(outcomes)
    metrics["peak_rss_mb"] = peak_rss_mb(wl.with_children)
    metrics["setup_s"] = setup_s
    named = wl.named(outcomes)
    named["peak_rss_mb"] = {"value": metrics["peak_rss_mb"], "unit": "MB"}
    named["setup_s"] = {"value": setup_s, "unit": "s"}
    result_metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
    return outcomes, extra_attempted, extra_failed, result_metrics, named, {}


def run_traced(wl, args, setup_s):
    """Untraced operations for half the time, then the same inputs traced.

    The traced pass repeats the untraced pass operation for operation, so
    the ratio of their total times is the tracing overhead.
    """
    half = args.seconds / 2
    plain = loop(wl, wl.cal, seconds=half)
    tracer = Tracer()
    lib_spans = {"children_cpu": []}

    def one():
        tracer.op += 1
        if isinstance(wl, Query):
            return wl.op(tracer.call)
        before = children_cpu_s()
        with patched(wl.lib, tracer, lib_spans):
            out = wl.op()
        lib_spans["children_cpu"].append(children_cpu_s() - before)
        wl.between_traced_ops()
        return out

    if isinstance(wl, Query):
        wl.cursor = 0
    traced = loop(wl, wl.cal, count=len(plain), op=one)
    extra_attempted, extra_failed = wl.finish()
    layer = {name: 0 for name in LAYER_METRICS}
    layer.update(wl.layers(tracer, lib_spans))
    # Times in reference seconds, at the run's median calibration.
    scale = REFERENCE_BURST_S / statistics.median(wl.cal.bursts)
    for name, unit in LAYER_METRICS.items():
        if unit in ("s", "us"):
            layer[name] *= scale
    if hasattr(wl, "stdout_bytes"):
        layer["cli.stdout_bytes"] = wl.stdout_bytes
    for name, value in wl.pinned_counts().items():
        extra_attempted += 1
        extra_failed += layer[name] != value
    overhead = {}
    for kind in sorted({o.kind for o in plain}):
        a = sum(o.ref_s for o in plain if o.kind == kind)
        b = sum(o.ref_s for o in traced if o.kind == kind)
        overhead[kind] = {"untraced_s": a, "traced_s": b, "overhead_ratio": b / a - 1}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    tracer.write(OUT / f"spans-{stem}.jsonl")
    table = tracer.table()
    layer_self: dict[str, float] = {}
    for row in table:
        prefix = row["name"].split(".", 1)[0]
        layer_self[prefix] = layer_self.get(prefix, 0.0) + row["self_s"]
    with open(OUT / f"layers-{stem}.txt", "w", encoding="utf-8") as fh:
        fh.write(format_table(table, layer_self, overhead, len(traced)))
    result_metrics = {k: {"value": v, "unit": LAYER_METRICS[k]} for k, v in layer.items()}
    extra = {"span_table": table, "layer_self_s": layer_self,
             "tracing_overhead": overhead, "traced_ops": len(traced)}
    return plain + traced, extra_attempted, extra_failed, result_metrics, {}, extra


def format_table(table, layer_self, overhead, ops):
    lines = [f"traced operations: {ops}", "",
             f"{'span':44} {'calls':>9} {'busy_s':>11} {'self_s':>11}"]
    for row in table:
        lines.append(f"{row['name']:44} {row['calls']:9d} {row['busy_s']:11.4f} {row['self_s']:11.4f}")
    lines += ["", f"{'layer':44} {'self_s':>11}"]
    for name, value in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        lines.append(f"{name:44} {value:11.4f}")
    lines += ["", "tracing overhead (same operations, total traced vs untraced time):"]
    for kind, row in overhead.items():
        lines.append(f"  {kind}: {row['untraced_s']:.6f} s -> {row['traced_s']:.6f} s"
                     f" ({100 * row['overhead_ratio']:+.1f}%)")
    return "\n".join(lines) + "\n"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(SIZES), default="full")
    p.add_argument("--expected", default=str(EXPECTED),
                   help="pinned results (JSON)")
    return p.parse_args(argv)


class Terminated(BaseException):
    """SIGTERM: not a failed operation, so no operation's handler stops it."""


def _terminate(signum, frame):
    # Unwinds through the ``finally`` in ``main``, which stops the helper.
    raise Terminated(signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    lib = Lib()
    cal = Calibration(lib, parallel=CLASSES[args.workload].with_children,
                      sample=not args.trace)
    try:
        wl, setup_s = setup(args, lib, cal, work)
        runner = run_traced if args.trace else run_plain
        outcomes, extra_att, extra_fail, metrics, named, extra = runner(wl, args, setup_s)
    finally:
        cal.close()
        shutil.rmtree(work, ignore_errors=True)
    attempted = len(outcomes) + extra_att
    failed = sum(not o.ok for o in outcomes) + extra_fail
    named["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
    report = {"environment": environment(args), "named": named,
              "calibration": wl.cal.summary(), "observed": wl.observed, **extra,
              "op_seconds": {kind: [o.seconds for o in outcomes if o.kind == kind]
                             for kind in sorted({o.kind for o in outcomes})}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1, default=str))
    print(json.dumps({"environment": report["environment"], "named": named,
                      "calibration": report["calibration"],
                      "tracing_overhead": extra.get("tracing_overhead")}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated as exc:
        sys.exit(128 + exc.args[0])
