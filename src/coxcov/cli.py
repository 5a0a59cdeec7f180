"""Command-line front end.

Verbs:
  verify     run verification suites per group, emit a report
  series     graded multiplicity series of a character in B
  constants  the k_{ij} table of a group
  cache      build / inspect / purge the on-disk group cache

Exit codes: 0 all pass (findings allowed), 1 at least one fail,
2 usage error, 3 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from functools import cache, partial
from time import perf_counter

from . import cache as cache_mod
from .covariants import (CovariantStack, constants_table, freeness_check,
                         j2_invariance_check, pr_structure_check,
                         solomon_check)
from .differentials import differential_identity_suite
from .groups import (CatalogueError, build_group, canonical_code,
                     catalogue_entry)
from .little_adjoint import little_adjoint_suite
from .molien import (covariant_series_product_formula,
                     graded_multiplicity_series, invariants_series)
from .reports import CertificationError, Report, verdict

DEFAULT_GROUPS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                  "I2(5)", "G2", "I2(8)", "F4", "H3"]

ALL_CHECKS = ["differentials", "solomon", "constants", "freeness",
              "structure", "j2-invariance", "little-adjoint", "molien",
              "reeder", "lie-bridge"]

LIE_CODES = {"A1", "A2", "B2"}


class UsageError(ValueError):
    pass


def _c_values_for(group, c_long, c_short):
    if c_long is None and c_short is None:
        return None
    vals = []
    for ci in range(len(group.reflection_classes)):
        if ci == group.class_ell and c_long is not None:
            vals.append(Fraction(c_long))
        elif ci != group.class_ell and c_short is not None:
            vals.append(Fraction(c_short))
        else:
            vals.append(Fraction(1))
    return vals


def _molien_check(stack):
    t0 = perf_counter()
    g = stack.group
    failures = []
    triv = graded_multiplicity_series(g, g.character("trivial"))
    if triv != invariants_series(g):
        failures.append("trivial-character series != product formula")
    refl = graded_multiplicity_series(g, g.character("reflection"))
    if refl != covariant_series_product_formula(g):
        failures.append("reflection-character series != product formula")
    return verdict("molien", g.code, failures, {"series": refl.as_list()},
                   t0)


def _differentials_check(stack, seed, n_samples):
    t0 = perf_counter()
    details = differential_identity_suite(stack.group, stack.cb, seed=seed,
                                          n_samples=n_samples)
    return verdict("differentials", stack.group.code, [], details, t0)


def _lie_jobs(code, lie_checks):
    """(record name, thunk) for each Lie-side record of the group.  The
    model is built by the first thunk that runs, so a failed model
    certificate fails every Lie record with its message."""
    from .lie_bridge import (build_lie, phi_injectivity_test, reeder_record,
                             tau_harmonic_injectivity, weyl_denominator_check)
    model = cache(partial(build_lie, code))
    modules = ["adjoint"] if code != "A2" else ["adjoint", "s3c3"]

    def job(name, check, *args):
        return name, lambda: check(model(), *args)

    jobs = []
    for check in lie_checks:
        if check == "reeder":
            jobs += [job(f"reeder[{mod}]", reeder_record, mod)
                     for mod in modules]
        elif check == "lie-bridge":
            jobs.append(job("weyl-denominator", weyl_denominator_check))
            jobs.append(job("tau-injectivity", tau_harmonic_injectivity))
            if code != "B2":
                jobs += [job(f"phi-injectivity[{mod}]", phi_injectivity_test,
                             mod) for mod in modules]
    return jobs


def _cpu_count() -> int:
    """The CPUs in the affinity mask; 1 on a platform without
    ``os.sched_getaffinity`` (there is one wherever there is ``fork``)."""
    return (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else 1)


def _map_groups(fn, items):
    """``[fn(item) for item in items]``.  With two or more items and CPUs
    in the affinity mask, the items run side by side in workers forked from
    this process, one per CPU, handed out one at a time in the order given:
    no worker imports anything again, and each inherits what this process
    holds.  The results come back in the order of ``items``.  Otherwise
    they run here and ``multiprocessing`` is never imported."""
    workers = min(len(items), _cpu_count())
    if workers < 2:
        return [fn(item) for item in items]
    import multiprocessing
    pool = multiprocessing.get_context("fork").Pool(workers)
    try:
        return pool.map(fn, items, chunksize=1)
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.close()
        pool.join()


# one task: all three read the stack's lazily built u_i, f_i and constants()
STACK_TASK = ("constants", "freeness", "structure")
LIE_CHECKS = ("reeder", "lie-bridge")   # one task too: one build_lie model


def _group_jobs(config: dict, code: str) -> list:
    """(check, record name, thunk) for each record of one group, in the
    order of the config's checks, the Lie-side records last with
    ``LIE_CHECKS`` as their check.  The group's stack is loaded here, so
    the thunks share it."""
    checks = config["checks"]
    seed = config.get("seed", 0)
    cache_dir = config.get("cache_dir") or cache_mod.default_cache_dir()
    allow_long = config.get("allow_long", False)
    # looked up per call, so that a wrapped check function is the one run
    stack_checks = {"solomon": solomon_check, "constants": constants_table,
                    "freeness": freeness_check,
                    "structure": pr_structure_check, "molien": _molien_check}
    lie_checks = [c for c in checks if c in LIE_CHECKS]
    group_checks = [c for c in checks if c not in LIE_CHECKS]
    jobs = []
    if group_checks:
        group, cb, _ = cache_mod.load_stack(cache_dir, code,
                                            allow_long=allow_long)
        c_values = _c_values_for(group, config.get("c_long"),
                                 config.get("c_short"))
        stack = CovariantStack(group, c_values=c_values, cb=cb)
    for check in group_checks:
        if check == "differentials":
            jobs.append((check, check, partial(
                _differentials_check, stack, seed,
                config.get("n_samples", 50))))
        elif check == "j2-invariance":
            jobs.append((check, check, partial(j2_invariance_check, stack,
                                               seed=seed)))
        elif check == "little-adjoint":
            if len(stack.group.reflection_classes) != 2:
                continue
            jobs.append((check, check, partial(little_adjoint_suite, stack)))
            if stack.group.code in ("B2", "G2", "I2(4)", "I2(8)"):
                jobs.append((check, "little-adjoint-swapped", partial(
                    little_adjoint_suite, stack,
                    use_class=1 - stack.group.class_ell,
                    label="little-adjoint-swapped")))
        else:
            jobs.append((check, check, partial(stack_checks[check], stack)))
    if lie_checks and code in LIE_CODES and (code != "B2" or allow_long):
        jobs += [(LIE_CHECKS, name, run)
                 for name, run in _lie_jobs(code, lie_checks)]
    return jobs


def _run_job(code: str, name: str, run):
    """One record, with a failed certificate as its FAIL record."""
    t0 = perf_counter()
    try:
        return run()
    except CertificationError as exc:
        return verdict(name, code, [str(exc)], {}, t0)


def _group_records(config: dict, code: str) -> list:
    """The check records of one group, in the order of the config's
    checks, with a failed certificate as its FAIL record.  They depend on
    the group, the config and the seed alone: every seeded check makes its
    own generator from the seed."""
    return [_run_job(code, name, run)
            for _, name, run in _group_jobs(config, code)]


_JOBS: list = []    # (code, name, thunk) of a split run, inherited by fork


def _run_task(task: tuple) -> list:
    """The records of the jobs ``task`` indexes in ``_JOBS``."""
    return [_run_job(*_JOBS[i]) for i in task]


def _split_records(config: dict, code: str) -> list:
    """The records of a lone group whose checks are split into tasks.
    This process loads the group's stack once; the workers inherit it
    through fork, and only job indices and records cross the pipe.  A task
    is one check, or the checks of ``STACK_TASK`` or of ``LIE_CHECKS``
    together; those tasks go out first, the rest in check order.  No stack
    outlives the call."""
    tasks: dict = {}
    try:
        for check, name, run in _group_jobs(config, code):
            key = STACK_TASK if check in STACK_TASK else check
            tasks.setdefault(key, []).append(len(_JOBS))
            _JOBS.append((code, name, run))
        order = [tuple(tasks[key]) for key in
                 sorted(tasks, key=lambda key: isinstance(key, str))]
        records = [None] * len(_JOBS)
        for task, got in zip(order, _map_groups(_run_task, order)):
            for i, record in zip(task, got):
                records[i] = record
        return records
    finally:
        _JOBS.clear()


def run_suite(config: dict) -> Report:
    """Every check of every group of the config, in one report.  Each
    group is one unit of parallel work (``_group_records``), except a lone
    group on two or more CPUs, whose checks are split into tasks
    (``_split_records``) so that it uses every CPU.  The records come out
    in the same order either way."""
    codes = [canonical_code(code) for code in config["groups"]]
    for code in codes:          # an unknown code fails before any work
        catalogue_entry(code, config.get("allow_long", False))
    if len(codes) == 1 < _cpu_count():
        records = _split_records(config, codes[0])
    else:
        records = [r for group in _map_groups(
            partial(_group_records, config), codes) for r in group]
    return Report(config=_config_doc(config), records=records)


def _config_doc(config):
    doc = {k: v for k, v in config.items() if v is not None}
    doc["cache_dir"] = str(doc.get("cache_dir") or
                           cache_mod.default_cache_dir())
    return doc


def _parse_checks(spec: str):
    if spec == "all":
        return list(ALL_CHECKS)
    out = []
    for c in spec.split(","):
        c = c.strip()
        if c not in ALL_CHECKS:
            raise UsageError(f"unknown check {c!r}; valid: {ALL_CHECKS}")
        out.append(c)
    return out


def _add_common(p):
    p.add_argument("--group", action="append", dest="groups", default=None,
                   help="group code (repeatable); default: the full suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit", choices=["json", "text"], default="text")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--allow-long", action="store_true")
    p.add_argument("--c-long", default=None,
                   help="rational multiplicity on the long reflection class")
    p.add_argument("--c-short", default=None,
                   help="rational multiplicity on the short reflection class")


def make_parser():
    ap = argparse.ArgumentParser(prog="coxcov")
    sub = ap.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("verify", help="run verification checks")
    _add_common(v)
    v.add_argument("--checks", default=None,
                   help="comma list from " + ",".join(ALL_CHECKS))
    v.add_argument("--samples", type=int, default=None,
                   help="random elements per differential identity")
    v.add_argument("--config", default=None,
                   help="JSON config file; explicit flags win on conflict")
    v.set_defaults(seed=None)   # so that an explicit --seed 0 wins too

    s = sub.add_parser("series", help="graded multiplicity series")
    _add_common(s)
    s.add_argument("--char", default="reflection",
                   choices=["trivial", "sign", "reflection", "little-adjoint"])

    c = sub.add_parser("constants", help="the k_ij table")
    _add_common(c)

    k = sub.add_parser("cache", help="manage the on-disk cache")
    k.add_argument("action", choices=["build", "inspect", "purge"])
    _add_common(k)
    return ap


def cmd_verify(args) -> int:
    import json as _json
    file_cfg = {}
    if args.config:
        try:
            file_cfg = _json.loads(open(args.config).read())
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read config file: {exc}")

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        return file_cfg.get(key, default)

    groups = pick(args.groups, "groups", list(DEFAULT_GROUPS))
    allow_long = args.allow_long or file_cfg.get("allow_long", False)
    for g in groups:
        if canonical_code(g) == "H4" and not allow_long:
            print("H4 is an opt-in long run: exact linear algebra at degree "
                  "~58; rerun with --allow-long.", file=sys.stderr)
            return 2
    checks = pick(args.checks, "checks", "all")
    if isinstance(checks, str):
        checks = _parse_checks(checks)
    else:
        checks = _parse_checks(",".join(checks))
    config = {
        "groups": [canonical_code(g) for g in groups],
        "checks": checks,
        "seed": pick(args.seed, "seed", 0),
        "c_long": pick(args.c_long, "c_long", None),
        "c_short": pick(args.c_short, "c_short", None),
        "cache_dir": pick(args.cache_dir, "cache_dir", None),
        "allow_long": allow_long,
        "n_samples": pick(args.samples, "samples", 50),
        "emit": args.emit,
    }
    report = run_suite(config)
    sys.stdout.write(report.to_json() if args.emit == "json"
                     else report.to_text())
    return report.exit_code()


def cmd_series(args) -> int:
    import json as _json
    groups = args.groups or ["A2"]
    out = {}
    cache_dir = args.cache_dir or cache_mod.default_cache_dir()
    for code in groups:
        code = canonical_code(code)
        if args.char == "little-adjoint":
            group, cb, _ = cache_mod.load_stack(cache_dir, code,
                                                allow_long=args.allow_long)
            if len(group.reflection_classes) != 2:
                raise UsageError(f"{code} has a single reflection class")
            stack = CovariantStack(group, cb=cb)
            from .little_adjoint import (split_group, subgroup_invariants,
                                         u_target_space, ubar_decomposition)
            split = split_group(stack.group)
            dec = ubar_decomposition(split, subgroup_invariants(split))
            chi = u_target_space(stack, dec).character(stack.group)
        else:
            group = build_group(code, allow_long=args.allow_long)
            chi = group.character(args.char)
        series = graded_multiplicity_series(group, chi)
        out[code] = series.as_list()
    if args.emit == "json":
        sys.stdout.write(_json.dumps(out, sort_keys=True, indent=2) + "\n")
    else:
        for code, coeffs in out.items():
            sys.stdout.write(f"{code} {args.char}: {coeffs}\n")
    return 0


def cmd_constants(args) -> int:
    groups = args.groups or ["B2"]
    cache_dir = args.cache_dir or cache_mod.default_cache_dir()
    records = []
    for code in groups:
        code = canonical_code(code)
        group, cb, _ = cache_mod.load_stack(cache_dir, code,
                                            allow_long=args.allow_long)
        c_values = _c_values_for(group, args.c_long, args.c_short)
        stack = CovariantStack(group, c_values=c_values, cb=cb)
        records.append(constants_table(stack))
    report = Report(config={"groups": [canonical_code(g) for g in groups],
                            "checks": ["constants"], "seed": args.seed,
                            "cache_dir": str(cache_dir)},
                    records=records)
    sys.stdout.write(report.to_json() if args.emit == "json"
                     else report.to_text())
    return report.exit_code()


def cmd_cache(args) -> int:
    import json as _json
    cache_dir = args.cache_dir or cache_mod.default_cache_dir()
    if args.action == "inspect":
        sys.stdout.write(_json.dumps(cache_mod.inspect_cache(cache_dir),
                                     indent=2) + "\n")
        return 0
    if args.action == "purge":
        n = 0
        if args.groups:
            for g in args.groups:
                n += cache_mod.purge_cache(cache_dir, canonical_code(g))
        else:
            n = cache_mod.purge_cache(cache_dir)
        sys.stdout.write(f"purged {n} cache file(s)\n")
        return 0
    codes = []
    for g in args.groups or DEFAULT_GROUPS:
        code = canonical_code(g)
        if code == "H4" and not args.allow_long:
            print("skipping H4 (needs --allow-long)", file=sys.stderr)
            continue
        catalogue_entry(code, args.allow_long)
        codes.append(code)
    # a repeated group is loaded once; its later lines read that file
    distinct = list(dict.fromkeys(codes))
    loaded = dict(zip(distinct, _map_groups(
        partial(_cache_line, cache_dir, args.allow_long), distinct)))
    for i, code in enumerate(codes):
        head, from_cache = loaded[code]
        src = "cache" if from_cache or code in codes[:i] else "rebuilt"
        sys.stdout.write(f"{head} ({src})\n")
    return 0


def _cache_line(cache_dir, allow_long, code) -> tuple[str, bool]:
    """Load (or rebuild and save) one group's cache file: its line of
    ``cache build`` output without the source, and whether it came from
    the cache."""
    group, cb, from_cache = cache_mod.load_stack(cache_dir, code,
                                                 allow_long=allow_long)
    return (f"{code}: {group.order} elements, "
            f"{len(group.positive_roots)} roots", from_cache)


def main(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.cmd == "verify":
            return cmd_verify(args)
        if args.cmd == "series":
            return cmd_series(args)
        if args.cmd == "constants":
            return cmd_constants(args)
        if args.cmd == "cache":
            return cmd_cache(args)
        raise UsageError("no command")
    except (UsageError, CatalogueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:          # internal error contract: exit 3
        import traceback
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
