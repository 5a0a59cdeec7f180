"""Correctness gate for one `coxcov verify --emit json` report.

A report passes when

* its records are exactly the recorded (check, group) list of the
  workload, in order, each with the expected status: ``finding`` for the
  ``phi-injectivity`` records (conjecture reports), ``pass`` for all
  others; and
* the sha256 of its ``results`` and ``summary`` equals the digest recorded
  for the workload and verify seed.  ``config`` is left out of the digest
  because it embeds the cache directory.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def expected_status(check: str) -> str:
    return "finding" if check.startswith("phi-injectivity") else "pass"


def digest(doc: dict) -> str:
    body = {"results": doc["results"], "summary": doc["summary"]}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected(path=EXPECTED_PATH) -> dict:
    return json.loads(Path(path).read_text())


def check_report(text: str, records: list, want_digest: str | None):
    """Number of expected records the report gets wrong, and the reasons.

    ``records`` is the recorded list of [check, group]; each one that is
    missing, has another status, or is out of place counts once.  An
    unreadable report or a digest mismatch fails every record.
    """
    try:
        doc = json.loads(text)
        got = [(r["check"], r["group"], r["status"]) for r in doc["results"]]
        doc["summary"]
    except (ValueError, KeyError, TypeError) as exc:
        return len(records), [f"unreadable report: {exc}"]
    reasons = []
    bad = 0
    for i, (check, group) in enumerate(records):
        want = (check, group, expected_status(check))
        if i >= len(got):
            bad += 1
            reasons.append(f"missing record {check} {group}")
        elif got[i] != want:
            bad += 1
            reasons.append(f"record {i}: got {got[i]}, want {want}")
    if len(got) > len(records):
        reasons.append(f"{len(got) - len(records)} unexpected extra records")
        bad = max(bad, 1)
    if want_digest is None:
        return len(records), reasons + ["no recorded digest"]
    if digest(doc) != want_digest:
        return len(records), reasons + ["digest mismatch"]
    return bad, reasons
