"""coxcov benchmark: cold cache build and warm verify through the public CLI.

    python3 coxbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; coxcov is imported from ./src.
One client, one process at a time, no threads: a closed loop.

--trace 0 (end-to-end metrics)
    Builds the workload's cache cold SETUP_REPS times, each into an
    empty private directory (``setup_s`` is the median wall time): three
    builds before the verifies and two after them, so that they sample
    the host at different moments.  In between it runs
    ``coxcov verify --checks all --emit json`` in a fresh child against
    the first cache, again and again until S seconds have passed, but
    not into a run that would end past 1.2 S (``verify_s`` and
    ``peak_rss_mb`` are medians over these runs).
--trace 1 (per-layer metrics)
    One traced cold build, one untraced and one traced warm verify, then
    the layer kernels the workload owns (see kernels.py).  Per-layer
    values add up the traced build and the traced verify;
    ``trace.overhead_s`` is traced minus untraced verify wall time.  The
    spans of the last traced run stay in .coxbench/spans/.

Every verify report goes through the correctness gate (gate.py).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted``
counts expected check records over all verify runs, ``failed`` those that
failed the gate.  ``COXCOV_CACHE_DIR`` is cleared and ``--cache-dir`` is
always passed, so no cache outside the run's own directory is read.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gate import check_report, load_expected  # noqa: E402
from tracer import summarize  # noqa: E402
from workloads import (WORKLOADS, setup_args, verify_args,  # noqa: E402
                       verify_seed)

SETUP_REPS = 5              # one cold build alone swings by about 20%
DEADLINE_S = 170.0          # a run must end well within the 180 s limit

# Layer kernels timed in the traced run of the workload that owns them;
# other workloads report them as 0.
KERNELS = {"small": ["poly.mul_q_ms", "poly.mul_int_ms", "f4"],
           "h3": ["fields.algnum_mul_us"]}
KERNEL_METRICS = {"poly.mul_q_ms": "ms", "poly.mul_int_ms": "ms",
                  "fields.algnum_mul_us": "us",
                  "coinvariants.nf_poly_f4_d12_ms": "ms",
                  "groups.act_poly_f4_d12_ms": "ms"}

# per-layer metric -> (unit, kind, span or counter names, the end-to-end
# metric and workload it should move); kind is "total" (span time, counted
# once per name when spans nest), "self", "calls" or "count" (a counter)
LAYERS = {
    "cli.run_suite_s": ("s", "total", ["cli.run_suite"],
                        "verify_s, all workloads"),
    "cache.load_stack_s": ("s", "total", ["cache.load_stack"],
                           "setup_s (write), verify_s (read), most on small"),
    "cache.load_stack_calls": ("count", "calls", ["cache.load_stack"],
                               "setup_s and verify_s, most on small"),
    "cache.save_group_s": ("s", "total", ["cache.save_group"],
                           "setup_s, most on small"),
    "groups.build_group_s": ("s", "total", ["groups.build_group"],
                             "verify_s on small; setup_s everywhere"),
    "groups.build_group_calls": ("count", "calls", ["groups.build_group"],
                                 "verify_s on small (1 per group in set-up, "
                                 "2 in verify)"),
    "groups.basic_invariants_s": ("s", "total", ["groups.basic_invariants"],
                                  "setup_s and verify_s on small"),
    "groups.conjugacy_classes_s": ("s", "total",
                                   ["groups.conjugacy_classes"],
                                   "setup_s and verify_s on small"),
    "groups.act_poly_calls": ("count", "calls", ["groups.act_poly"],
                              "verify_s and peak_rss_mb on small, less on h3"),
    "groups.act_poly_self_s": ("s", "self", ["groups.act_poly"],
                               "verify_s, peak_rss_mb on small, less on h3"),
    "groups.act_weil_calls": ("count", "calls", ["groups.act_weil"],
                              "verify_s on small, less on h3"),
    "groups.reynolds_calls": ("count", "calls", ["groups.reynolds"],
                              "verify_s on small, less on h3"),
    "groups.reynolds_s": ("s", "total", ["groups.reynolds"],
                          "verify_s on small, less on h3"),
    "groups.mul_calls": ("count", "count", ["groups.mul"],
                         "verify_s on small, less on h3"),
    "coinvariants.build_s": ("s", "total", ["coinvariants.build"],
                             "setup_s and verify_s on small"),
    "coinvariants.nf_poly_calls": ("count", "calls", ["coinvariants.nf_poly"],
                                   "setup_s and verify_s on small"),
    "coinvariants.nf_poly_self_s": ("s", "self", ["coinvariants.nf_poly"],
                                    "setup_s and verify_s on small"),
    "coinvariants.act_b_calls": ("count", "calls", ["coinvariants.act_b"],
                                 "verify_s on small"),
    "coinvariants.act_b_s": ("s", "total", ["coinvariants.act_b"],
                             "verify_s on small"),
    "linalg.modp_pivots_s": ("s", "total", ["linalg.modp_pivots"],
                             "setup_s on small"),
    "linalg.bareiss_s": ("s", "total", ["linalg.bareiss"],
                         "setup_s and verify_s on small"),
    "linalg.sparse_add_calls": ("count", "calls", ["linalg.sparse_add"],
                                "verify_s on small"),
    "linalg.sparse_s": ("s", "total", ["linalg.sparse_add",
                                       "linalg.sparse_reduce",
                                       "linalg.sparse_solve"],
                        "verify_s on small"),
    "poly.mul_calls": ("count", "count", ["poly.mul"],
                       "verify_s, all workloads"),
    "poly.add_calls": ("count", "count", ["poly.add"],
                       "verify_s, all workloads"),
    "weil.wedge_mul_calls": ("count", "count", ["weil.wedge_mul"],
                             "verify_s, all workloads"),
    "fields.algnum_mul_calls": ("count", "count", ["fields.algnum_mul"],
                                "verify_s on h3, and on small through I2(5) "
                                "and I2(8)"),
    "differentials.suite_s": ("s", "total", ["differentials.suite"],
                              "verify_s on h3"),
    "differentials.dunkl_calls": ("count", "count", ["differentials.dunkl"],
                                  "verify_s on h3"),
    "covariants.solomon_s": ("s", "total", ["covariants.solomon"],
                             "verify_s, most on small (B4)"),
    "covariants.constants_s": ("s", "total", ["covariants.constants"],
                               "verify_s, most on h3 and small (A4)"),
    "covariants.freeness_s": ("s", "total", ["covariants.freeness"],
                              "verify_s, all workloads"),
    "covariants.structure_s": ("s", "total", ["covariants.structure"],
                               "verify_s, all workloads"),
    "covariants.j2_s": ("s", "total", ["covariants.j2"],
                        "verify_s, all workloads"),
    "little_adjoint.suite_s": ("s", "total", ["little_adjoint.suite"],
                               "verify_s on small"),
    "molien.series_s": ("s", "total", ["molien.series"],
                        "verify_s, most on small (B4)"),
    "lie_bridge.build_lie_s": ("s", "total", ["lie_bridge.build_lie"],
                               "verify_s on small only"),
    "lie_bridge.checks_s": ("s", "total", ["lie_bridge.checks"],
                            "verify_s on small only"),
    "reports.to_json_s": ("s", "total", ["reports.to_json"],
                          "control: should not move"),
}


class RunFailed(Exception):
    pass


class Child(NamedTuple):
    wall: float         # seconds from start to exit
    rss_mib: float      # peak resident set size
    rc: int
    out: str


class Runner:
    """Runs coxcov children one at a time from the checkout root."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline        # on the perf_counter clock
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("COXCOV_CACHE_DIR", None)
        self._n = 0

    def left(self) -> float:
        return self.deadline - time.perf_counter()

    def child(self, argv) -> Child:
        """Run one Python child to completion and measure it."""
        self._n += 1
        out_path = self.work / f"child{self._n}.out"
        err_path = self.work / f"child{self._n}.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=self.root,
                                    env=self.env, stdout=out, stderr=err)
            try:
                while True:
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if self.left() < 0:
                        raise RunFailed(f"deadline passed in {argv[:4]}")
                    time.sleep(0.002)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            wall = time.perf_counter() - t0
        rc = os.waitstatus_to_exitcode(status)
        if rc != 0:
            tail = err_path.read_text().strip().splitlines()[-5:]
            print("\n".join(tail), file=sys.stderr)
        return Child(wall, usage.ru_maxrss / 1024, rc, out_path.read_text())

    def coxcov(self, args):
        return self.child(["-m", "coxcov.cli"] + args)

    def traced(self, args, spans_path, run_id):
        return self.child([str(HERE / "traced.py"), "--out", str(spans_path),
                           "--run-id", run_id, "--"] + args)


class Tally:
    """Records attempted and failed against the gate."""

    def __init__(self, expected: dict, seed: int):
        self.records = expected["records"]
        self.digest = expected["digests"].get(str(verify_seed(seed)))
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def verify(self, rc, text):
        self.attempted += len(self.records)
        bad, reasons = check_report(text, self.records, self.digest)
        if rc != 0:
            bad = len(self.records)
            reasons.append(f"verify exited with {rc}")
        self.failed += bad
        self.reasons += reasons


def _setup(runner, w, cache_dir) -> Child:
    got = runner.coxcov(setup_args(w, cache_dir))
    if got.rc != 0:
        raise RunFailed(f"cache build exited with {got.rc}")
    return got


def end_to_end(runner, w, seed, seconds, tally):
    before = (SETUP_REPS + 1) // 2
    setups = [_setup(runner, w, runner.work / f"cache{k}")
              for k in range(before)]
    verifies = []
    t0 = time.perf_counter()
    while True:
        got = runner.coxcov(verify_args(w, seed, runner.work / "cache0"))
        tally.verify(got.rc, got.out)
        verifies.append(got)
        spent = time.perf_counter() - t0
        longest = max(v.wall for v in verifies)
        # stop at S seconds, and do not start a run that would end far
        # beyond S or near the deadline
        if spent >= seconds or spent + longest > 1.2 * seconds or \
                runner.left() < 1.5 * longest:
            break
    setups += [_setup(runner, w, runner.work / f"cache{k}")
               for k in range(before, SETUP_REPS)]
    return {"setup_s": (statistics.median(c.wall for c in setups), "s"),
            "verify_s": (statistics.median(v.wall for v in verifies), "s"),
            "peak_rss_mb": (statistics.median(v.rss_mib for v in verifies),
                            "MiB")}


def per_layer(runner, w, seed, tally):
    cache = runner.work / "cache"
    run_id = f"{w.name}-{seed}"
    spans_dir = runner.root / ".coxbench" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    phases = []
    for phase, args in (("setup", setup_args(w, cache)),
                        ("verify", verify_args(w, seed, cache))):
        spans_path = spans_dir / f"{run_id}-{phase}.json"
        if phase == "verify":
            plain = runner.coxcov(args)
            tally.verify(plain.rc, plain.out)
        traced = runner.traced(args, spans_path, run_id)
        if phase == "verify":
            tally.verify(traced.rc, traced.out)
            overhead = traced.wall - plain.wall
        elif traced.rc != 0:
            raise RunFailed(f"traced cache build exited with {traced.rc}")
        phases.append(json.loads(spans_path.read_text()))
    aggs: dict[str, dict] = {}
    counts: dict[str, int] = {}
    for doc in phases:
        for name, agg in summarize(doc["spans"]).items():
            acc = aggs.setdefault(name, {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0})
            for k in acc:
                acc[k] += agg[k]
        for name, n in doc["counts"].items():
            counts[name] = counts.get(name, 0) + n
    metrics = {}
    for metric, (unit, kind, names, _) in LAYERS.items():
        if kind == "count":
            value = sum(counts.get(n, 0) for n in names)
        else:
            key = {"total": "total_s", "self": "self_s",
                   "calls": "calls"}[kind]
            value = sum(aggs.get(n, {}).get(key, 0) for n in names)
        metrics[metric] = (value, unit)
    metrics["trace.overhead_s"] = (overhead, "s")
    kernel_values = dict.fromkeys(KERNEL_METRICS, 0.0)
    kern = runner.child([str(HERE / "kernels.py"), "--seed", str(seed)]
                        + KERNELS[w.name])
    rc = kern.rc
    try:
        doc = json.loads(kern.out.strip().splitlines()[-1])
        kernel_values.update(doc["metrics"])
        tally.reasons += doc["errors"]
    except (ValueError, IndexError, KeyError) as exc:
        tally.reasons.append(f"kernel output unreadable: {exc}")
        rc = rc or 1
    if rc != 0:
        tally.reasons.append(f"kernels exited with {rc}")
    for name, unit in KERNEL_METRICS.items():
        metrics[name] = (kernel_values[name], unit)
    return metrics


def main() -> int:
    start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = HERE.parent
    if not (root / "src" / "coxcov" / "cli.py").is_file():
        print(f"error: no coxcov sources under {root / 'src'}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    tally = Tally(load_expected()[w.name], args.seed)
    work = root / ".coxbench" / f"{w.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, work, start + DEADLINE_S)
    try:
        if args.trace:
            metrics = per_layer(runner, w, args.seed, tally)
        else:
            metrics = end_to_end(runner, w, args.seed, args.seconds, tally)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for reason in tally.reasons:
        print(f"gate: {reason}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0 and not tally.reasons,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
