"""Every function the benchmark's tracer wraps (coxbench/tracer.py) still
exists in coxcov, so that a refactor cannot silently break ``--trace 1``."""

import importlib
import importlib.util
from pathlib import Path

from conftest import _cpus

TRACER = Path(__file__).resolve().parents[1] / "coxbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("coxbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve():
    tracer = _load_tracer()
    for name in tracer.MODULES:
        importlib.import_module("coxcov." + name)
    for mod_name, path, _ in tracer.SPANS + tracer.COUNTERS:
        owner = importlib.import_module("coxcov." + mod_name)
        *cls, attr = path.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        assert attr in vars(owner), f"coxcov.{mod_name}.{path}"


def test_tracer_sees_every_check(tmp_path, monkeypatch):
    """A traced run records a span for each check it runs: the checks must
    be looked up where the tracer patches them, not captured at import.
    The tracer records in this process only, so the run is kept on one
    CPU: on two, the lone group's checks would run in workers."""
    from coxcov import cli
    _cpus(monkeypatch, 1)
    tracer = _load_tracer()
    t = tracer.Tracer("test")
    t.install()
    try:
        cli.run_suite({"groups": ["A1"], "checks": list(cli.ALL_CHECKS),
                       "cache_dir": str(tmp_path), "n_samples": 3})
    finally:
        t.uninstall()
    seen = {span[1] for span in t.spans}
    wanted = {name for _, _, name in tracer.SPANS
              if name.startswith("covariants.")}
    assert len(wanted) == 5
    assert wanted | {"lie_bridge.build_lie", "cli.run_suite"} <= seen
