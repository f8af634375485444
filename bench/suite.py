#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/suite.py --seeds 1-10
    python3 bench/suite.py --seeds 1 --workloads query --trace 1

Every (workload, seed) pair runs in a fresh ``bench/run.py`` process, one
at a time.  For each workload and metric it prints the median, the first
and third quartiles over the runs and their spread (q3 - q1) / median.
For the end-to-end metrics it also says whether that spread is within a
third of the bound in ``BENCHMARK.json``.  ``--json PATH`` writes the
summary and every run's report and result line.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: no result (exit {proc.returncode})\n{proc.stderr}")
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def spread_stats(values):
    q1, med, q3 = run.quartiles(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def summarize(runs):
    """Per metric over the runs of one workload: median, quartiles, spread."""
    results = [r["result"] for r in runs]
    out = {"runs": len(runs), "seeds": [r["seed"] for r in runs],
           "attempted": sum(r["attempted"] for r in results),
           "failed": sum(r["failed"] for r in results), "metrics": {}, "named": {}}
    for metric, first in results[0]["metrics"].items():
        out["metrics"][metric] = {"unit": first["unit"], **spread_stats(
            [r["metrics"][metric]["value"] for r in results])}
    named = [r["report"]["named"] for r in runs]
    for metric, first in named[0].items():
        out["named"][metric] = {"unit": first["unit"], **spread_stats(
            [n[metric]["value"] for n in named])}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p.add_argument("--seeds", default="1")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--json", help="write the summary and every run here")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, summary = [], {}
    status = 0
    for workload in args.workloads.split(","):
        mine = []
        for seed in parse_seeds(args.seeds):
            rc, report, result = run_one(workload, seed, args.seconds, args.trace)
            mine.append({"workload": workload, "seed": seed, "exit": rc,
                         "report": report, "result": result})
            status |= rc
            print(f"{workload} seed {seed}: exit {rc}, attempted {result['attempted']},"
                  f" failed {result['failed']}", file=sys.stderr)
        runs += mine
        s = summary[workload] = summarize(mine)
        env = mine[-1]["report"]["environment"]
        print(f"\n{workload}  (python {env['python']}, nproc {env['nproc']},"
              f" git {env['git_sha']}, {s['runs']} runs of {args.seconds} s,"
              f" error_rate {s['failed']}/{s['attempted']})")
        print(f"  {'metric':40} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  unit")
        for group in ("metrics", "named"):
            for metric, m in s[group].items():
                flag = ""
                if group == "metrics" and metric in bounds and metric != "setup_s":
                    ok = m["spread"] < bounds[metric] / 3
                    flag = "ok" if ok else f"WIDE (bound {bounds[metric]})"
                name = metric if group == "metrics" else f"named {metric}"
                print(f"  {name:40} {m['median']:14.6g} {m['q1']:14.6g} {m['q3']:14.6g}"
                      f" {m['spread']:8.4f}  {m['unit']} {flag}")
    if args.json:
        env = runs[-1]["report"]["environment"]
        Path(args.json).write_text(json.dumps(
            {"environment": {k: env[k] for k in ("python", "implementation", "platform",
                                                 "nproc", "git_sha")},
             "seconds": args.seconds, "trace": args.trace,
             "summary": summary, "runs": runs}, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
