"""The benchmark's workloads and the coxcov command lines that run them.

Every workload runs the whole check list (``--checks all``).  Together the
two workloads cover eleven of the twelve groups of the default suite.  F4
is left out of the timed runs: one cold build plus one warm verify of F4
takes about a minute even with few checks, more than a run may cost.  It
appears in the layer kernels of the ``small`` traced run instead.

``h3`` runs verify with the CLI's default of 50 differential samples, so
the differential identities take about half of its verify time.
``small`` passes ``--samples 10``: at the default, its verify takes about
52 s on a 2-vCPU x86-64 host, nearly half of it in the differential
identities, and the runs would not fit the benchmark's time budget; with
10 samples it takes about 33 s and the per-group costs it is meant to
show (closure, cache read, Lie set-up) carry a larger share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Workload:
    name: str
    groups: tuple
    samples: Optional[int]    # --samples for verify; None keeps the default
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("h3", ("H3",), None,
             "H3 over Q(sqrt5): every scalar is an AlgNum and the "
             "differential identities run at the default 50 samples, so the "
             "field kernel shows; no little-adjoint check"),
    Workload("small", ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "I2(5)",
                       "G2", "I2(8)"), 10,
             "ten groups, mostly over Q, with the Lie-side checks on A1 and "
             "A2: per-group closure, cache write and read, Lie set-up, and "
             "the group action of B4 and A4"),
)}

# Recorded verify seeds: 0, and 1 as a hold-out.  Benchmark seed n runs
# coxcov with seed n % N_VERIFY_SEEDS, so that every run is checked against
# a recorded digest.  The seed picks the random class functions and Weil
# elements of the differential identities, and verify time depends on it:
# back to back, H3 takes about 27% longer with seed 2 than with seed 7.
# Over ten seeds that spread alone would come near the bound on verify_s,
# so the benchmark keeps to two.
N_VERIFY_SEEDS = 2


def verify_seed(seed: int) -> int:
    return seed % N_VERIFY_SEEDS


def setup_args(w: Workload, cache_dir) -> list:
    """`coxcov cache build` into an empty cache directory."""
    args = ["cache", "build", "--cache-dir", str(cache_dir)]
    for g in w.groups:
        args += ["--group", g]
    return args


def verify_args(w: Workload, seed: int, cache_dir) -> list:
    """`coxcov verify` of every check, emitting the JSON report."""
    args = ["verify", "--checks", "all", "--seed", str(verify_seed(seed)),
            "--emit", "json", "--cache-dir", str(cache_dir)]
    if w.samples is not None:
        args += ["--samples", str(w.samples)]
    for g in w.groups:
        args += ["--group", g]
    return args
