#!/usr/bin/env python3
"""Record the results that every benchmark run checks against.

    python3 bench/pin.py

Runs one operation of each workload at each size against the sources in
``src/`` and writes ``bench/expected.json``.  The pinned values are the
products themselves (certificate digest, replay and verify output, the
enumerate stream digest and line count, and the digest of the reference
query stream), so re-pin only when an output change is intended.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def main() -> int:
    lib = run.Lib()
    cal = run.Calibration(lib)
    pinned = {"source_commit": run.git_sha()}
    for size, cfg in run.SIZES.items():
        pinned[size] = {}
        for name in run.WORKLOADS:
            work = run.OUT / f"pin-{size}-{name}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                wl = run.CLASSES[name](lib, cfg, None, run.REFERENCE_SEED, work, cal)
                wl.make_inputs()
                outcomes = wl.op()
                _, failed = wl.finish()
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if failed or not all(o.ok for o in outcomes):
                raise SystemExit(f"{size}/{name}: an operation failed; nothing pinned")
            pinned[size][name] = wl.observed
        par, serial = pinned[size]["certify-par"], pinned[size]["certify"]
        if par["cert_sha256"] != serial["cert_sha256"]:
            raise SystemExit(f"{size}: certificate bytes differ between --jobs 1 and 2")
    run.EXPECTED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
