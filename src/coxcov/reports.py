"""Structured verification reports with deterministic JSON emission."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .fields import AlgNum

PASS = "pass"
FAIL = "fail"
FINDING = "finding"

SCHEMA = "coxcov-report/1"


class CertificationError(ValueError):
    """An exact identity failed; the message is the witness."""


def certify(cond, msg: str) -> None:
    """Raise CertificationError(msg) unless cond holds; unlike ``assert``,
    this check stays under ``python -O``."""
    if not cond:
        raise CertificationError(msg)


def scalar_str(x):
    """Exact fraction string; extension scalars as coordinate lists."""
    if isinstance(x, AlgNum):
        return [str(c) for c in x.field.coords(x)]
    return str(Fraction(x))


def jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, AlgNum):
        return scalar_str(obj)
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    return str(obj)


@dataclass(slots=True)
class CheckRecord:
    name: str
    group: str
    status: str
    details: dict = field(default_factory=dict)
    elapsed: float | None = None

    def as_dict(self):
        return {
            "check": self.name,
            "group": self.group,
            "status": self.status,
            "details": jsonable(self.details),
        }


def verdict(name: str, group: str, failures: list,
            details: dict) -> CheckRecord:
    """PASS record, or FAIL with the failures as its witness.  Its
    ``elapsed`` is left unset: the CLI stamps it (``cli._run_job``)."""
    if failures:
        details["witness"] = list(failures)
    return CheckRecord(name, group, FAIL if failures else PASS, details)


@dataclass
class Report:
    config: dict
    records: list

    def counts(self):
        c = {PASS: 0, FAIL: 0, FINDING: 0}
        for r in self.records:
            c[r.status] = c.get(r.status, 0) + 1
        return c

    def exit_code(self) -> int:
        return 1 if self.counts()[FAIL] else 0

    def to_json(self) -> str:
        # timings are excluded: identical config and seed must give
        # byte-identical output
        doc = {
            "schema": SCHEMA,
            "config": jsonable(self.config),
            "results": [r.as_dict() for r in self.records],
            "summary": self.counts(),
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = []
        for r in self.records:
            t = f" [{r.elapsed:.2f}s]" if r.elapsed is not None else ""
            lines.append(f"{r.status.upper():8s} {r.group:8s} {r.name}{t}")
            for k, v in sorted(r.details.items()):
                if k in ("witness", "note", "series", "pattern", "orientation",
                         "free_subalgebra", "equal", "rank", "constants"):
                    lines.append(f"         {k}: {jsonable(v)}")
        c = self.counts()
        lines.append(f"summary: {c[PASS]} pass, {c[FAIL]} fail, "
                     f"{c[FINDING]} finding")
        return "\n".join(lines) + "\n"
