"""Guards on the invariants of the north star: no floating point and no
clock on a verification path, report bytes that depend on the config and
the seed alone, and no function in ``src/`` that only tests call."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coxcov.cli import main

SRC = Path(__file__).resolve().parent.parent / "src" / "coxcov"
MATH_NAMES = {"gcd", "lcm", "prod", "factorial"}    # exact on ints
TIMING_SITE = ("cli.py", "_run_job")    # the one clock read: elapsed
# called from outside src/ alone: the two that coxbench's tracer wraps by
# name, and the argparse overrides that argparse calls
UNCALLED_ALLOWED = {"linalg.modp_greedy_pivots", "linalg.reduce_only",
                    "cli.error", "cli._split_lines"}


def breaches(text: str, name: str) -> list:
    """Each float literal, ``float(`` call, ``math`` import other than of
    ``MATH_NAMES``, and ``perf_counter`` outside the timing site in the
    source ``text`` of module ``name``, as "name:line what"."""
    tree = ast.parse(text, filename=name)
    timed = {id(node) for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef)
             and (name, fn.name) == TIMING_SITE for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            what = f"float literal {node.value!r}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            what = "float( call"
        elif isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "math" for alias in node.names):
            what = "import math"
        elif isinstance(node, ast.ImportFrom) and node.module == "math" and \
                {alias.name for alias in node.names} - MATH_NAMES:
            what = f"from math import {[a.name for a in node.names]}"
        elif (getattr(node, "id", None) == "perf_counter" or
              getattr(node, "attr", None) == "perf_counter") and \
                id(node) not in timed:
            what = "perf_counter outside cli._run_job"
        else:
            continue
        found.append(f"{name}:{node.lineno} {what}")
    return found


def test_src_has_no_float_and_one_clock():
    found = [b for path in sorted(SRC.glob("*.py"))
             for b in breaches(path.read_text(), path.name)]
    assert found == []


@pytest.mark.parametrize("text", [
    "x = 0.5\n",
    "x = 1e3\n",
    "def f(p):\n    return float(p)\n",
    "import math\n",
    "import math as m\n",
    "from math import gcd, sqrt\n",
    "import time\nt = time.perf_counter()\n",
    "from time import perf_counter\n\ndef f():\n    return perf_counter()\n",
])
def test_guard_sees_a_planted_breach(text):
    assert breaches(text, "planted.py")


def test_guard_allows_the_timing_site():
    text = ("from time import perf_counter\n\n"
            "def _run_job():\n    return perf_counter()\n")
    assert breaches(text, "cli.py") == []
    assert breaches(text, "reports.py")


def uncalled(sources: dict) -> list:
    """Each function or method defined in the sources {module: text}
    whose name is read nowhere in them outside its own body, as
    "module.name"; dunder methods, which Python calls, are left out."""
    trees = {mod: ast.parse(text, filename=mod)
             for mod, text in sources.items()}
    reads: dict = {}        # name: [(module, node id)] of each Name/Attribute
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            name = getattr(node, "id", getattr(node, "attr", None))
            reads.setdefault(name, []).append((mod, id(node)))
    found = []
    for mod, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or \
                    fn.name.startswith("__") and fn.name.endswith("__"):
                continue
            body = {id(node) for node in ast.walk(fn)}
            if all(m == mod and i in body for m, i in reads.get(fn.name, ())):
                found.append(f"{mod}.{fn.name}")
    return found


def test_every_src_function_has_a_src_caller():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert sorted(set(uncalled(sources)) - UNCALLED_ALLOWED) == []


def test_uncalled_guard_sees_a_planted_helper():
    text = ("def used():\n    return 1\n\n"
            "def helper(n):\n    return helper(n - 1) if n else used()\n\n"
            "class K:\n    def __init__(self):\n        self.f = used\n"
            "    def method(self):\n        return 2\n")
    assert uncalled({"planted": text}) == ["planted.helper", "planted.method"]
    assert uncalled({"planted": text,
                     "other": "from planted import K, helper\n"
                              "K().method() + helper(2)\n"}) == []


def test_report_bytes_ignore_hash_seed_and_optimize(tmp_path, capsys):
    # one warm run under two hash seeds and under python -O, byte for byte
    cache = str(tmp_path)
    assert main(["cache", "build", "--group", "A1", "--group", "A2",
                 "--group", "B2", "--cache-dir", cache]) == 0
    capsys.readouterr()
    argv = ["-m", "coxcov.cli", "verify", "--group", "A1", "--group", "A2",
            "--group", "B2", "--allow-long", "--checks", "all", "--samples",
            "3", "--emit", "json", "--cache-dir", cache]
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    outs = []
    for flags, seed in (([], "0"), ([], "1"), (["-O"], "2")):
        got = subprocess.run([sys.executable, *flags, *argv],
                             env=dict(env, PYTHONHASHSEED=seed),
                             capture_output=True)
        assert got.returncode == 0, got.stderr
        outs.append(got.stdout)
    assert outs[0] == outs[1] == outs[2]
    assert b'"fail": 0' in outs[0]
