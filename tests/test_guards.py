"""Guards on the invariants of the north star: no floating point and no
clock on a verification path, and report bytes that depend on the config
and the seed alone."""

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
