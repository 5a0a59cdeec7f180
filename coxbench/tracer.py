"""Spans and counters around the public functions of the coxcov modules.

The package itself is not changed: ``Tracer.install`` replaces each listed
function or method by a recording wrapper in every loaded coxcov module
that refers to it, and ``Tracer.uninstall`` puts the originals back.

A span is ``(id, name, start, end, parent id)``; all spans of one process
share the tracer's run id.  Spans are kept in memory and written once by
``Tracer.write``.  Hot leaves get call counters only, with no clock reads.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import time

MODULES = ("fields", "poly", "weil", "linalg", "groups", "coinvariants",
           "cache", "differentials", "covariants", "molien", "little_adjoint",
           "lie_bridge", "reports", "cli")

# (module, attribute or Class.method, span name)
SPANS = (
    ("cli", "run_suite", "cli.run_suite"),
    ("cache", "load_stack", "cache.load_stack"),
    ("cache", "save_group", "cache.save_group"),
    ("groups", "build_group", "groups.build_group"),
    ("groups", "ReflectionGroup.basic_invariants", "groups.basic_invariants"),
    ("groups", "ReflectionGroup.conjugacy_classes",
     "groups.conjugacy_classes"),
    ("groups", "ReflectionGroup.act_poly", "groups.act_poly"),
    ("groups", "ReflectionGroup.act_weil", "groups.act_weil"),
    ("groups", "ReflectionGroup.reynolds", "groups.reynolds"),
    ("coinvariants", "CoinvariantBasis.__init__", "coinvariants.build"),
    ("coinvariants", "CoinvariantBasis.nf_poly", "coinvariants.nf_poly"),
    ("coinvariants", "CoinvariantBasis.act_b", "coinvariants.act_b"),
    ("linalg", "modp_greedy_pivots", "linalg.modp_pivots"),
    ("linalg", "bareiss_jordan_inverse", "linalg.bareiss"),
    ("linalg", "SparseSolver.add", "linalg.sparse_add"),
    ("linalg", "SparseSolver.reduce_only", "linalg.sparse_reduce"),
    ("linalg", "SparseSolver.solve", "linalg.sparse_solve"),
    ("differentials", "differential_identity_suite", "differentials.suite"),
    ("covariants", "solomon_check", "covariants.solomon"),
    ("covariants", "constants_table", "covariants.constants"),
    ("covariants", "freeness_check", "covariants.freeness"),
    ("covariants", "pr_structure_check", "covariants.structure"),
    ("covariants", "j2_invariance_check", "covariants.j2"),
    ("little_adjoint", "little_adjoint_suite", "little_adjoint.suite"),
    ("molien", "graded_multiplicity_series", "molien.series"),
    ("lie_bridge", "build_lie", "lie_bridge.build_lie"),
    ("lie_bridge", "reeder_record", "lie_bridge.checks"),
    ("lie_bridge", "weyl_denominator_check", "lie_bridge.checks"),
    ("lie_bridge", "tau_harmonic_injectivity", "lie_bridge.checks"),
    ("lie_bridge", "phi_injectivity_test", "lie_bridge.checks"),
    ("reports", "Report.to_json", "reports.to_json"),
)

# (module, attribute or Class.method, counter name)
COUNTERS = (
    ("poly", "Poly.__mul__", "poly.mul"),
    ("poly", "Poly.__add__", "poly.add"),
    ("fields", "AlgNum.__mul__", "fields.algnum_mul"),
    ("weil", "wedge_mul", "weil.wedge_mul"),
    ("groups", "ReflectionGroup.mul", "groups.mul"),
    ("differentials", "dunkl", "differentials.dunkl"),
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counts: dict[str, list] = {name: [0] for _, _, name in COUNTERS}
        self._patches: list[tuple] = []
        # one id sequence and one stack, shared by every span wrapper
        self._ids = itertools.count()
        self._stack: list[int] = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name):
        spans = self.spans
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent))
        return wrapper

    def _counter_wrapper(self, fn, name):
        cell = self.counts[name]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self):
        """Wrap every listed function (coxcov must be importable)."""
        mods = [importlib.import_module("coxcov." + m) for m in MODULES]
        for table, make in ((SPANS, self._span_wrapper),
                            (COUNTERS, self._counter_wrapper)):
            for mod_name, path, name in table:
                mod = sys.modules["coxcov." + mod_name]
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(mod, cls_name)
                    orig = owner.__dict__[attr]
                    targets = [owner]
                else:
                    orig = getattr(mod, path)
                    targets = mods
                wrapped = make(orig, name)
                for target in targets:
                    for key, val in list(vars(target).items()):
                        if val is orig:
                            self._patches.append((target, key, orig))
                            setattr(target, key, wrapped)

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- output -----------------------------------------------------------

    def write(self, path):
        """Write the run id, every span and every counter as one JSON file."""
        doc = {"run_id": self.run_id,
               "spans": self.spans,
               "counts": {k: v[0] for k, v in self.counts.items()}}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def summarize(spans):
    """Per span name: calls, total time and self time.

    Total time counts only spans with no ancestor of the same name, so a
    recursive layer is not counted twice.  Self time is a span's duration
    minus the durations of its direct children.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = {}
    for sid, _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: dict[str, dict] = {}
    for sid, name, start, end, parent in spans:
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                    "self_s": 0.0})
        dur = end - start
        agg["calls"] += 1
        agg["self_s"] += dur - child_time.get(sid, 0.0)
        p = parent
        while p >= 0 and by_id[p][1] != name:
            p = by_id[p][4]
        if p < 0:
            agg["total_s"] += dur
    return out
