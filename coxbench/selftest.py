"""Self-test of the correctness gate on tiny inputs (A1 and B2).

    python3 coxbench/selftest.py

Runs two cold builds and two verifies into different cache directories and
shows that the gate passes the correct report, and fails a planted wrong
digest, a missing record, a changed status and an unreadable report.
Exits 0 when every case behaves as expected.
"""

from __future__ import annotations

import json
import math
import shutil
import sys

from gate import check_report, digest
from run import HERE, Runner
from workloads import Workload, setup_args, verify_args

TINY = Workload("tiny", ("A1", "B2"), None, "gate self-test")


def main() -> int:
    work = HERE.parent / ".coxbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(HERE.parent, work, math.inf)
    try:
        outs = []
        for k in range(2):
            cache = work / f"cache{k}"
            for args in (setup_args(TINY, cache), verify_args(TINY, 0, cache)):
                got = runner.coxcov(args)
                if got.rc != 0:
                    print(f"coxcov {args[0]} exited with {got.rc}")
                    return 1
            outs.append(got.out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first = json.loads(outs[0])
    records = [[r["check"], r["group"]] for r in first["results"]]
    good = digest(first)

    missing = json.loads(outs[1])
    del missing["results"][len(records) // 2]
    wrong_status = json.loads(outs[1])
    wrong_status["results"][0]["status"] = "fail"

    cases = [
        ("correct report from another cache directory passes",
         check_report(outs[1], records, good), True),
        ("planted wrong digest fails",
         check_report(outs[1], records, "0" * 64), False),
        ("missing record fails even with a matching digest",
         check_report(json.dumps(missing), records, digest(missing)), False),
        ("changed status fails even with a matching digest",
         check_report(json.dumps(wrong_status), records,
                      digest(wrong_status)), False),
        ("unreadable report fails",
         check_report("not json", records, good), False),
    ]
    ok = True
    for label, (bad, reasons), should_pass in cases:
        passed = bad == 0 and not reasons
        verdict = "ok" if passed == should_pass else "WRONG"
        ok &= passed == should_pass
        print(f"{verdict:5s} {label}: {bad} bad record(s) {reasons[:2]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
