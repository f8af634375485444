#!/usr/bin/env python3
"""Self-test of the benchmark harness, at the tiny sizes.

    python3 bench/selftest.py

Checks that
  1. every workload runs untraced and traced, exits 0 with error_rate 0,
     and the traced run writes its spans and per-layer table;
  2. a deliberately wrong pinned digest makes every operation of the
     digest-checked workloads fail (error_rate 1) and the exit code
     non-zero, and a wrong reference digest fails the query workload;
  3. the counts certificates.nodes, enumeration.baskets and
     enumeration.candidates repeat exactly between two traced runs and
     equal the pinned counts.
Prints one PASS/FAIL line per check and exits 1 if any failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

SEED = 7
failures = 0


def bench(workload, trace, expected=None):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    if expected:
        cmd += ["--expected", str(expected)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} trace={trace}: no result (exit {proc.returncode})\n{proc.stderr}")
    result = json.loads(lines[-1])
    return proc.returncode, result


def check(name, ok, detail=""):
    global failures
    failures += not ok
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f"  ({detail})" if detail and not ok else ""))


def main() -> int:
    pinned = json.loads(run.EXPECTED.read_text())["tiny"]
    counts = {}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            rc, res = bench(workload, trace)
            check(f"{workload} trace={trace} runs clean",
                  rc == 0 and res["correct"] and res["failed"] == 0, f"exit {rc}, {res}")
            wanted = run.LAYER_METRICS if trace else run.E2E_UNITS
            check(f"{workload} trace={trace} reports every metric",
                  set(res["metrics"]) == set(wanted), sorted(res["metrics"]))
        stem = f"{workload}-seed{SEED}"
        check(f"{workload} traced run wrote spans and the layer table",
              (run.OUT / f"spans-{stem}.jsonl").stat().st_size > 0
              and "self_s" in (run.OUT / f"layers-{stem}.txt").read_text())
        counts[workload] = res["metrics"]

    wrong = json.loads(run.EXPECTED.read_text())
    for name in ("certify", "certify-par"):
        wrong["tiny"][name]["cert_sha256"] = "0" * 64
    wrong["tiny"]["sweep"]["stream_sha256"] = "0" * 64
    wrong["tiny"]["query"]["reference_sha256"] = "0" * 64
    run.OUT.mkdir(exist_ok=True)
    wrong_path = run.OUT / "selftest-wrong-expected.json"
    wrong_path.write_text(json.dumps(wrong))
    for workload in run.WORKLOADS:
        rc, res = bench(workload, 0, wrong_path)
        if workload == "query":
            ok = rc != 0 and not res["correct"] and res["failed"] >= 1
        else:
            ok = rc != 0 and not res["correct"] and res["failed"] == res["attempted"]
        check(f"{workload} wrong pinned digest fails (error_rate "
              f"{res['failed'] / res['attempted']:.3f}, exit {rc})", ok, str(res))

    for workload, keys in (("certify", ["certificates.nodes"]),
                           ("sweep", ["enumeration.baskets", "enumeration.candidates"])):
        _, again = bench(workload, 1)
        for key in keys:
            first = counts[workload][key]["value"]
            second = again["metrics"][key]["value"]
            check(f"{key} repeats exactly ({first} == {second})", first == second)
    check("certificates.nodes equals the pinned count",
          counts["certify"]["certificates.nodes"]["value"] == pinned["certify"]["nodes"])
    check("enumeration.candidates equals the pinned line count",
          counts["sweep"]["enumeration.candidates"]["value"] == pinned["sweep"]["stream_lines"])
    check("enumeration.baskets equals the pinned count",
          counts["sweep"]["enumeration.baskets"]["value"] == pinned["sweep"]["baskets"])
    print(f"{failures} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
