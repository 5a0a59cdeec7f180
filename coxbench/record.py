"""Record the gate's expected records and digests into expected.json.

    python3 coxbench/record.py [--workload NAME ...]

For each workload: one cold cache build, then one verify per verify seed
0 .. N_VERIFY_SEEDS-1.  Every report must already meet the status rule of
gate.py, and the record list must be the same for every seed; otherwise
nothing is written.  Run this only on a commit whose reports are known to
be right, and only when a workload's definition changes.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys

from gate import EXPECTED_PATH, check_report, digest
from run import HERE, Runner
from workloads import N_VERIFY_SEEDS, WORKLOADS, setup_args, verify_args


def record(runner, w):
    cache = runner.work / f"cache-{w.name}"
    got = runner.coxcov(setup_args(w, cache))
    if got.rc != 0:
        raise SystemExit(f"{w.name}: cache build exited with {got.rc}")
    print(f"{w.name}: cache build {got.wall:.1f} s", file=sys.stderr)
    records, digests = None, {}
    for seed in range(N_VERIFY_SEEDS):
        run = runner.coxcov(verify_args(w, seed, cache))
        if run.rc != 0:
            raise SystemExit(f"{w.name} seed {seed}: verify exited with "
                             f"{run.rc}")
        doc = json.loads(run.out)
        got = [[r["check"], r["group"]] for r in doc["results"]]
        if records is None:
            records = got
        elif got != records:
            raise SystemExit(f"{w.name} seed {seed}: record list differs")
        bad, reasons = check_report(run.out, records, digest(doc))
        if bad or reasons:
            raise SystemExit(f"{w.name} seed {seed}: {reasons}")
        digests[str(seed)] = digest(doc)
        print(f"{w.name} seed {seed}: verify {run.wall:.1f} s "
              f"{digests[str(seed)][:12]}", file=sys.stderr)
    return {"records": records, "digests": digests}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    expected = (json.loads(EXPECTED_PATH.read_text())
                if EXPECTED_PATH.exists() else {})
    work = HERE.parent / ".coxbench" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(HERE.parent, work, math.inf)
    try:
        for name in args.workload or sorted(WORKLOADS):
            expected[name] = record(runner, WORKLOADS[name])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True)
                             + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
