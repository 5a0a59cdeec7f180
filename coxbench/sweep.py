"""Interleaved benchmark runs and their spread.

    python3 coxbench/sweep.py --seeds 0-9 [--workload NAME ...] [--trace]
                              [--out FILE] [--note TEXT]

For each seed, runs every workload once (the order rotates from seed to
seed) through run.py with the run_seconds of BENCHMARK.json, then prints
for each workload and end-to-end metric the median, the quartiles and the
spread (q3 - q1) / median.  It exits with 1 if a run is not correct or a
spread is above its metric's bound.  With --trace, one traced run per
workload follows, on the first seed.  --out writes everything as JSON in
the layout of baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from run import HERE, LAYERS
from workloads import WORKLOADS

ROOT = HERE.parent


def parse_seeds(spec: str):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(name, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "exit": proc.returncode,
                "stderr": proc.stderr[-2000:]}
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--note", default="", help="free text kept in --out")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    runs = {n: [] for n in names}
    for i, seed in enumerate(seeds):
        for name in names[i % len(names):] + names[:i % len(names)]:
            res = one_run(name, seed, bench["run_seconds"], False)
            runs[name].append(res)
            vals = {k: round(v["value"], 3)
                    for k, v in res.get("metrics", {}).items()}
            print(f"seed {seed} {name}: correct={res['correct']} {vals}",
                  flush=True)
    summary = {}
    ok = True
    for name in names:
        good = [r for r in runs[name] if r.get("correct")]
        ok &= len(good) == len(runs[name])
        summary[name] = {}
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in good]
            if len(vals) < 2:
                continue
            s = spread(vals)
            s.update(unit=m["unit"], bound=m["bound"])
            summary[name][m["name"]] = s
            if s["spread"] > m["bound"]:
                ok = False
                flag = "  (ABOVE BOUND)"
            elif s["spread"] > m["bound"] / 3:
                flag = "  (above bound/3)"
            else:
                flag = ""
            print(f"{name:6s} {m['name']:12s} median {s['median']:9.3f} "
                  f"{m['unit']:4s} spread {s['spread']:.3f} of bound "
                  f"{m['bound']} over {s['n']} runs{flag}")
    traced = {}
    if args.trace:
        for name in names:
            traced[name] = one_run(name, seeds[0], bench["run_seconds"], True)
            ok &= bool(traced[name].get("correct"))
            print(f"traced {name}: correct={traced[name]['correct']}",
                  flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            host = {"python": platform.python_version(),
                    "machine": platform.machine(), "cpus": os.cpu_count()}
            workloads = {n: {"groups": list(WORKLOADS[n].groups),
                             "samples": WORKLOADS[n].samples,
                             "why": WORKLOADS[n].why} for n in names}
            per_layer = {n: r.get("metrics", {}) for n, r in traced.items()}
            json.dump({"note": args.note, "host": host,
                       "run_seconds": bench["run_seconds"], "seeds": seeds,
                       "workloads": workloads, "end_to_end": summary,
                       "per_layer": per_layer,
                       "layer_map": {k: v[3] for k, v in LAYERS.items()},
                       "runs": runs},
                      fh, indent=1, sort_keys=True)
    print(f"all runs correct and all spreads within bounds: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
