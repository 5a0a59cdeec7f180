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
import json
import os
import sys
import textwrap
from fractions import Fraction
from functools import cache, partial
from itertools import chain
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


def _load(cache_dir, code, allow_long, c_long=None, c_short=None):
    """The group's ``CovariantStack`` on its cached tables, with Dunkl
    multiplicity ``c_long`` on the long reflection class and ``c_short`` on
    the other; an absent value is 1, and with neither given c ≡ 1.  A
    multiplicity with |T|_c = 0 is a ``UsageError``."""
    group, cb, _ = cache_mod.load_stack(cache_dir, code,
                                        allow_long=allow_long)
    c_values = None
    if c_long is not None or c_short is not None:
        c_values = [Fraction(1 if c is None else c) for c in
                    (c_long if ci == group.class_ell else c_short
                     for ci in range(len(group.reflection_classes)))]
    try:
        return CovariantStack(group, c_values=c_values, cb=cb)
    except ValueError as exc:       # the degenerate multiplicity
        raise UsageError(f"{code}: {exc}") from None


def _molien_check(stack):
    g = stack.group
    failures = []
    triv = graded_multiplicity_series(g, g.character("trivial"))
    if triv != invariants_series(g):
        failures.append("trivial-character series != product formula")
    refl = graded_multiplicity_series(g, g.character("reflection"))
    if refl != covariant_series_product_formula(g):
        failures.append("reflection-character series != product formula")
    return verdict("molien", g.code, failures, {"series": refl.as_list()})


def _differentials_check(stack, seed, n_samples):
    details = differential_identity_suite(stack.group, stack.cb, seed=seed,
                                          n_samples=n_samples)
    return verdict("differentials", stack.group.code, [], details)


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


def _parallel(thunks: list) -> list:
    """``[run() for run in thunks]``.  With two or more thunks and CPUs in
    the affinity mask, they run side by side in workers forked from this
    process, one per CPU, handed out one at a time in the order given.  The
    workers inherit the thunks through fork, with all this process holds,
    so only indices and results cross the pipe.  The results are taken in
    the order given, so the first thunk in that order that raises is the
    one whose error is raised, as in one process; any error terminates the
    pool.  Otherwise the thunks run here and ``multiprocessing`` is never
    imported."""
    workers = min(len(thunks), _cpu_count())
    if workers < 2:
        return [run() for run in thunks]
    import multiprocessing
    # with fork, the initializer's arguments reach each worker unpickled
    pool = multiprocessing.get_context("fork").Pool(workers, _inherit,
                                                    (thunks,))
    try:
        return list(pool.imap(_call, range(len(thunks))))
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.close()
        pool.join()


def _inherit(thunks):          # in each worker: the thunks for _call
    global _thunks
    _thunks = thunks


def _call(i):
    return _thunks[i]()


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
    cache_dir = config["cache_dir"]
    allow_long = config.get("allow_long", False)
    # looked up per call, so that a wrapped check function is the one run
    stack_checks = {"solomon": solomon_check, "constants": constants_table,
                    "freeness": freeness_check,
                    "structure": pr_structure_check, "molien": _molien_check}
    lie_checks = [c for c in checks if c in LIE_CHECKS]
    group_checks = [c for c in checks if c not in LIE_CHECKS]
    jobs = []
    if group_checks:
        stack = _load(cache_dir, code, allow_long, config.get("c_long"),
                      config.get("c_short"))
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
    """One record, with a failed certificate as its FAIL record.  This is
    where every record's ``elapsed`` is stamped: the time of ``run``,
    including any shared set-up its check is the first to need."""
    t0 = perf_counter()
    try:
        record = run()
    except CertificationError as exc:
        record = verdict(name, code, [str(exc)], {})
    record.elapsed = perf_counter() - t0
    return record


def _records(config: dict, code: str, jobs=None) -> list:
    """The records of ``jobs``, some of the group's ``_group_jobs``, in
    their order; by default the group's stack is loaded here and every
    check of the config runs.  They depend on the group, the config and
    the seed alone: every seeded check makes its own generator from the
    seed."""
    if jobs is None:
        jobs = _group_jobs(config, code)
    return [_run_job(code, name, run) for _, name, run in jobs]


def run_suite(config: dict) -> Report:
    """Every check of every group of the config, in one report, with the
    groups run by ``_parallel``, one thunk per group.  A lone group on two
    or more CPUs is split instead: this process loads its stack once, and
    its jobs run by ``_parallel`` as tasks on that stack.  A task is one
    check, or the checks of ``STACK_TASK`` or of ``LIE_CHECKS`` together;
    those tasks go out first, the rest in check order.  The records come
    out in the one-process order either way."""
    codes = config["groups"]
    if len(codes) == 1 < _cpu_count():
        jobs = _group_jobs(config, codes[0])
        tasks: dict = {}
        for i, (check, _, _) in enumerate(jobs):
            key = STACK_TASK if check in STACK_TASK else check
            tasks.setdefault(key, []).append(i)
        order = [tasks[key] for key in
                 sorted(tasks, key=lambda key: isinstance(key, str))]
        got = _parallel([partial(_records, config, codes[0],
                                 [jobs[i] for i in task]) for task in order])
        ran = dict(zip(chain.from_iterable(order), chain.from_iterable(got)))
        records = [ran[i] for i in range(len(jobs))]
    else:
        records = list(chain.from_iterable(_parallel(
            [partial(_records, config, code) for code in codes])))
    return Report(config={k: v for k, v in config.items() if v is not None},
                  records=records)


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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _is_rational(value) -> bool:
    """An int, a string that ``Fraction`` parses, or None (not given)."""
    try:
        return value is None or _is_int(value) or (
            isinstance(value, str) and Fraction(value) is not None)
    except (ValueError, ZeroDivisionError):
        return False


# what a given value of each config key must be
VALID = {"groups": ("a list of group codes", _is_strings),
         "checks": ("a comma list or a list of check names",
                    lambda v: isinstance(v, str) or _is_strings(v)),
         "seed": ("an integer", _is_int),
         "samples": ("an integer >= 1", lambda v: _is_int(v) and v >= 1),
         "c_long": ("an integer or a fraction string", _is_rational),
         "c_short": ("an integer or a fraction string", _is_rational),
         "cache_dir": ("a string", lambda v: v is None or isinstance(v, str)),
         "allow_long": ("true or false", lambda v: isinstance(v, bool))}
# the groups a verb (a cache action) runs without --group
VERB_GROUPS = {"verify": DEFAULT_GROUPS, "build": DEFAULT_GROUPS,
               "series": ["A2"], "constants": ["B2"]}


def _config_file(path) -> dict:
    """The keys of a JSON config file."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config file: {exc}")
    if not isinstance(doc, dict):
        raise UsageError("a config file must hold a JSON object")
    unknown = sorted(set(doc) - set(VALID))
    if unknown:
        raise UsageError(f"unknown config keys {unknown}; valid: "
                         f"{', '.join(VALID)}")
    return doc


def make_config(args) -> dict:
    """The one validated config of a verb: its flags over, for
    ``verify``, its ``--config`` file, over the defaults, with only the
    keys the verb reads, and values as given.  A bad value, in a flag or
    in the file, raises ``UsageError``.  Every group code comes out
    canonical and looked up in the catalogue, which refuses H4 without
    ``allow_long`` except in a purge (a purge builds no group).  A
    ``c_short`` is refused unless a group of the run has a second
    reflection class (B, F4 and the I2(m) with m even)."""
    flags = vars(args)
    file_keys = _config_file(args.config) if flags.get("config") else {}
    given = {k: v for k, v in flags.items() if k in VALID and v is not None}
    for key, value in chain(file_keys.items(), given.items()):
        what, ok = VALID[key]
        if not ok(value):
            raise UsageError(f"{key} must be {what}, not {value!r}")
    given = {**file_keys, **given}
    action = flags.get("action")
    if action == "inspect" and "groups" in given:
        raise UsageError("cache inspect lists every file; it takes no --group")
    config = {"groups": VERB_GROUPS.get(action or args.cmd), "checks": "all",
              "seed": 0, "samples": 50, "allow_long": False,
              "c_long": None, "c_short": None, **given,
              "emit": flags.get("emit")}
    checks = config["checks"]
    config["checks"] = _parse_checks(
        checks if isinstance(checks, str) else ",".join(checks))
    config["cache_dir"] = (config.get("cache_dir") or
                           str(cache_mod.default_cache_dir()))
    if config["groups"] is not None:
        config["groups"] = [canonical_code(g) for g in config["groups"]]
        strategies = [catalogue_entry(code, config["allow_long"] or
                                      action == "purge")[5]
                      for code in config["groups"]]
        if config["c_short"] is not None and not any(
                kind in ("B", "F4") or kind == "I2" and m % 2 == 0
                for kind, m in strategies):
            raise UsageError("c_short is read only on a group with two "
                             "reflection classes, and no group of the run "
                             "has them")
    config = {k: v for k, v in config.items() if k in flags}
    if "samples" in config:     # the name a report gives it
        config["n_samples"] = config.pop("samples")
    return config


class _Parser(argparse.ArgumentParser):
    def error(self, message):       # one line on stderr, exit 2
        self.exit(2, f"error: {message}\n")


class _Formatter(argparse.HelpFormatter):
    def _split_lines(self, text, width):    # keeps a check name whole
        return textwrap.wrap(text, width, break_on_hyphens=False)


def make_parser():
    ap = _Parser(prog="coxcov")
    sub = ap.add_subparsers(dest="cmd", required=True)
    v = sub.add_parser("verify", help="run verification checks",
                       formatter_class=_Formatter)
    s = sub.add_parser("series", help="graded multiplicity series")
    c = sub.add_parser("constants", help="the k_ij table")
    k = sub.add_parser("cache", help="manage the on-disk cache")
    k.add_argument("action", choices=["build", "inspect", "purge"])
    # each verb takes the options it reads; an option not given is None
    for p in (v, s, c, k):
        p.add_argument("--group", action="append", dest="groups",
                       help="group code (repeatable)")
        p.add_argument("--cache-dir")
        p.add_argument("--allow-long", action="store_true", default=None)
    for p in (v, s, c):
        p.add_argument("--emit", choices=["json", "text"], default="text")
    for p in (v, c):
        p.add_argument("--seed", type=int)
        for side in ("long", "short"):
            p.add_argument(f"--c-{side}", help="rational multiplicity on the "
                           f"{side} reflection class")
    v.add_argument("--checks", help="comma list from " + ", ".join(ALL_CHECKS))
    v.add_argument("--samples", type=int,
                   help="random elements per differential identity")
    v.add_argument("--config",
                   help="JSON config file; explicit flags win on conflict")
    s.add_argument("--char", default="reflection",
                   choices=["trivial", "sign", "reflection", "little-adjoint"])
    return ap


def cmd_verify(args, config) -> int:
    report = run_suite(config)
    sys.stdout.write(report.to_json() if config["emit"] == "json"
                     else report.to_text())
    return report.exit_code()


def cmd_series(args, config) -> int:
    out = {}
    for code in config["groups"]:
        if args.char == "little-adjoint":
            stack = _load(config["cache_dir"], code, config["allow_long"])
            group = stack.group
            if len(group.reflection_classes) != 2:
                raise UsageError(f"{code} has a single reflection class")
            from .little_adjoint import (split_group, subgroup_invariants,
                                         u_target_space, ubar_decomposition)
            split = split_group(group)
            dec = ubar_decomposition(split, subgroup_invariants(split))
            chi = u_target_space(stack, dec).character(group)
        else:
            group = build_group(code, allow_long=config["allow_long"])
            chi = group.character(args.char)
        series = graded_multiplicity_series(group, chi)
        out[code] = series.as_list()
    if config["emit"] == "json":
        sys.stdout.write(json.dumps(out, sort_keys=True, indent=2) + "\n")
    else:
        for code, coeffs in out.items():
            sys.stdout.write(f"{code} {args.char}: {coeffs}\n")
    return 0


def cmd_constants(args, config) -> int:
    records = []
    for code in config["groups"]:
        stack = _load(config["cache_dir"], code, config["allow_long"],
                      config["c_long"], config["c_short"])
        records.append(_run_job(code, "constants",
                                partial(constants_table, stack)))
    report = Report(config={"groups": config["groups"],
                            "checks": ["constants"], "seed": config["seed"],
                            "cache_dir": config["cache_dir"]},
                    records=records)
    sys.stdout.write(report.to_json() if config["emit"] == "json"
                     else report.to_text())
    return report.exit_code()


def cmd_cache(args, config) -> int:
    cache_dir, codes = config["cache_dir"], config["groups"]
    if args.action == "inspect":
        sys.stdout.write(json.dumps(cache_mod.inspect_cache(cache_dir),
                                    indent=2) + "\n")
        return 0
    if args.action == "purge":
        n = (sum(cache_mod.purge_cache(cache_dir, code) for code in codes)
             if codes else cache_mod.purge_cache(cache_dir))
        sys.stdout.write(f"purged {n} cache file(s)\n")
        return 0
    # a repeated group is loaded once; its later lines read that file
    distinct = list(dict.fromkeys(codes))
    loaded = dict(zip(distinct, _parallel(
        [partial(_cache_line, cache_dir, config["allow_long"], code)
         for code in distinct])))
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
    verbs = {"verify": cmd_verify, "series": cmd_series,
             "constants": cmd_constants, "cache": cmd_cache}
    try:
        return verbs[args.cmd](args, make_config(args))
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
