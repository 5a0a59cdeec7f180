import json
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest

from conftest import _cpus
from coxcov.cli import main
from coxcov.reports import (FAIL, PASS, CertificationError, CheckRecord,
                            Report)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_b2(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "verify", "--group", "B2",
                           "--checks", "solomon,constants,molien",
                           "--cache-dir", str(tmp_path), "--seed", "3")
    assert code == 0
    assert "PASS" in out and "fail" in out


def test_verify_json_determinism(tmp_path, capsys):
    args = ["verify", "--group", "A2", "--checks",
            "solomon,constants,freeness,structure,j2-invariance,molien",
            "--cache-dir", str(tmp_path), "--seed", "7", "--emit", "json"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema"].startswith("coxcov-report/")
    assert doc["summary"]["fail"] == 0
    for rec in doc["results"]:
        assert "elapsed_s" not in rec


def test_verify_differentials_seeded(tmp_path, capsys):
    args = ["verify", "--group", "A1", "--checks", "differentials",
            "--cache-dir", str(tmp_path), "--seed", "5", "--samples", "6",
            "--emit", "json"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["details"]["samples"] == 6


def test_h4_refused(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", "--group", "H4",
                           "--checks", "solomon",
                           "--cache-dir", str(tmp_path))
    assert code == 2
    assert "allow-long" in err


def test_unknown_check_usage_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", "--group", "A1",
                           "--checks", "nonsense",
                           "--cache-dir", str(tmp_path))
    assert code == 2
    assert "unknown check" in err


def test_unknown_group_usage_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", "--group", "E8",
                           "--checks", "solomon",
                           "--cache-dir", str(tmp_path))
    assert code == 2


def test_series_json(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "series", "--group", "A2",
                           "--char", "reflection", "--emit", "json",
                           "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["A2"] == [0, 1, 1, 1, 2, 1, 1, 1]


def test_series_little_adjoint(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "series", "--group", "B2",
                           "--char", "little-adjoint", "--emit", "json",
                           "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert sum(doc["B2"]) == 4


def test_constants_command(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "constants", "--group", "B2",
                           "--emit", "json", "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    consts = doc["results"][0]["details"]["constants"]
    assert consts["1,1"] == "2"


def test_constants_verb_fails_a_certificate_like_verify(tmp_path, capsys,
                                                         monkeypatch):
    # a failed certificate is a FAIL record with its witness, exit 1, from
    # the constants verb as from verify
    from coxcov import covariants

    def planted(stack, *args):
        raise CertificationError("planted: B2 constants")

    monkeypatch.setattr(covariants, "pairing_constants", planted)
    results = []
    for verb in (("constants",), ("verify", "--checks", "constants")):
        code, out, err = run_cli(capsys, *verb, "--group", "B2", "--emit",
                                 "json", "--cache-dir", str(tmp_path))
        assert code == 1 and "Traceback" not in err
        results.append(json.loads(out)["results"])
    assert results[0] == results[1] == [
        {"check": "constants", "group": "B2", "status": "fail",
         "details": {"witness": ["planted: B2 constants"]}}]


def test_constants_verb_times_its_record(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "constants", "--group", "A2",
                           "--cache-dir", str(tmp_path))
    assert code == 0
    assert re.search(r"^PASS     A2       constants \[\d+\.\d\ds\]$", out,
                     flags=re.M)
    code, out, _ = run_cli(capsys, "constants", "--group", "A2", "--emit",
                           "json", "--cache-dir", str(tmp_path))
    assert code == 0 and "elapsed" not in out


def test_cache_lifecycle(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "cache", "build", "--group", "A2",
                           "--cache-dir", str(tmp_path))
    assert code == 0 and "rebuilt" in out
    code, out, _ = run_cli(capsys, "cache", "build", "--group", "A2",
                           "--cache-dir", str(tmp_path))
    assert code == 0 and "cache" in out
    code, out, _ = run_cli(capsys, "cache", "inspect",
                           "--cache-dir", str(tmp_path))
    doc = json.loads(out)
    assert doc and doc[0]["code"] == "A2"
    assert doc[0]["order"] == 6
    code, out, _ = run_cli(capsys, "cache", "purge",
                           "--cache-dir", str(tmp_path))
    assert code == 0 and "purged 1" in out
    # a purge builds no group, so H4 needs no --allow-long
    code, out, _ = run_cli(capsys, "cache", "purge", "--group", "H4",
                           "--cache-dir", str(tmp_path))
    assert code == 0 and "purged 0" in out
    # purge then verify: transparent rebuild
    code, out, _ = run_cli(capsys, "verify", "--group", "A2",
                           "--checks", "solomon",
                           "--cache-dir", str(tmp_path))
    assert code == 0


def test_cache_inspect_lists_a_non_object_file(tmp_path, capsys):
    # valid JSON that is not an object is listed like a non-JSON file
    from coxcov.cache import cache_path
    code, _, _ = run_cli(capsys, "cache", "build", "--group", "A1",
                         "--cache-dir", str(tmp_path))
    assert code == 0
    cache_path(tmp_path, "A2").write_text("[1, 2]")
    code, out, _ = run_cli(capsys, "cache", "inspect",
                           "--cache-dir", str(tmp_path))
    assert code == 0
    by_file = {e["file"]: e for e in json.loads(out)}
    assert by_file["group_A2.json"] == {"file": "group_A2.json",
                                        "code": None, "version": None,
                                        "order": None, "bytes": 6}
    assert by_file["group_A1.json"]["code"] == "A1"


def test_corrupted_cache_layout_regenerates(tmp_path, capsys):
    from coxcov.cache import cache_path
    code, out, _ = run_cli(capsys, "cache", "build", "--group", "A2",
                           "--cache-dir", str(tmp_path))
    assert code == 0 and "rebuilt" in out
    path = cache_path(tmp_path, "A2")
    good = json.loads(path.read_text())
    bad = json.loads(path.read_text())
    monos = bad["tables"]["1"]["monomials"]
    monos[1] = monos[0]             # a singular pairing matrix
    path.write_text(json.dumps(bad))
    code, out, _ = run_cli(capsys, "cache", "build", "--group", "A2",
                           "--cache-dir", str(tmp_path))
    assert code == 0 and "rebuilt" in out
    assert json.loads(path.read_text()) == good
    code, out, _ = run_cli(capsys, "verify", "--group", "A2",
                           "--checks", "solomon,freeness",
                           "--cache-dir", str(tmp_path))
    assert code == 0


def test_singular_layout_rejected_optimized(tmp_path, capsys):
    """Under python -O, a layout whose pairing matrix is singular still
    sends the load down the fresh build, which rewrites the file."""
    from coxcov.cache import cache_path
    code, out, _ = run_cli(capsys, "cache", "build", "--group", "A2",
                           "--cache-dir", str(tmp_path))
    assert code == 0 and "rebuilt" in out
    path = cache_path(tmp_path, "A2")
    good = path.read_bytes()
    doc = json.loads(good)
    monos = doc["tables"]["1"]["monomials"]
    monos[1] = monos[0]             # a singular pairing matrix
    path.write_text(json.dumps(doc, sort_keys=True))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    child = ("import sys\n"
             "from coxcov.cache import load_stack\n"
             "if not sys.flags.optimize:\n"
             "    raise SystemExit(5)\n"
             f"_, _, from_cache = load_stack({str(tmp_path)!r}, 'A2')\n"
             "raise SystemExit(4 if from_cache else 3)\n")
    got = subprocess.run([sys.executable, "-O", "-c", child], env=env)
    assert got.returncode == 3
    assert path.read_bytes() == good


def test_fresh_file_keeps_layout_alone(tmp_path, capsys):
    """A table of a fresh file is its layout and nothing else: every load
    inverts the pairing from it."""
    from coxcov.cache import CACHE_VERSION, cache_path
    code, out, _ = run_cli(capsys, "cache", "build", "--group", "A2",
                           "--group", "I2(5)", "--cache-dir", str(tmp_path))
    assert code == 0 and out.count("rebuilt") == 2
    for group in ("A2", "I2(5)"):
        doc = json.loads(cache_path(tmp_path, group).read_text())
        assert doc["version"] == CACHE_VERSION
        assert doc["tables"]
        for table in doc["tables"].values():
            assert sorted(table) == ["indices", "monomials"]


@pytest.mark.parametrize("version", [2, 3, 4])
def test_old_version_file_is_regenerated(tmp_path, capsys, version):
    """A file of an earlier format is rebuilt into the current one, and
    the report on it is the same bytes as on a fresh cache.  Version 2
    held the layout alone, version 3 added each table's pairing inverse
    (M, den) as hex text, not always in lowest terms, and version 4 kept
    it in lowest terms."""
    from coxcov.cache import CACHE_VERSION, cache_path, load_stack
    assert CACHE_VERSION == 5
    args = ["verify", "--group", "B2", "--checks", "all", "--samples", "3",
            "--emit", "json", "--cache-dir", str(tmp_path)]
    code, want, _ = run_cli(capsys, *args)
    assert code == 0
    path = cache_path(tmp_path, "B2")
    good = path.read_bytes()
    doc = json.loads(good)
    doc["version"] = version
    if version > 2:             # B2 is over Q: M and den are integers
        scale = 2 if version == 3 else 1        # still P M = den I
        _, cb, from_cache = load_stack(tmp_path, "B2")
        assert from_cache
        for d, t in cb.tables.items():
            doc["tables"][str(d)].update(
                inverse=[[format(scale * x, "x") for x in row]
                         for row in t.inv],
                den=format(scale * t.den, "x"))
    path.write_text(json.dumps(doc, sort_keys=True))
    code, got, _ = run_cli(capsys, *args)
    assert code == 0 and got == want
    assert path.read_bytes() == good


def test_interrupted_cache_write_keeps_previous_file(tmp_path, capsys,
                                                    monkeypatch):
    import coxcov.cache as cache_mod
    code, out, _ = run_cli(capsys, "cache", "build", "--group", "A2",
                           "--cache-dir", str(tmp_path))
    assert code == 0 and "rebuilt" in out
    path = cache_mod.cache_path(tmp_path, "A2")
    before = path.read_bytes()
    group, cb, from_cache = cache_mod.load_stack(tmp_path, "A2")
    assert from_cache

    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(cache_mod.os, "replace", interrupted)
    no_tables = SimpleNamespace(tables={})
    try:
        cache_mod.save_group(tmp_path, group, no_tables)   # another document
    except KeyboardInterrupt:
        pass
    else:
        raise AssertionError("the interrupted write did not raise")
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
    assert cache_mod.load_stack(tmp_path, "A2")[2]


def test_warm_verify_does_not_load_numpy(tmp_path, capsys):
    # coxcov uses numpy nowhere, so no verify may import it; this one
    # loads every table from the cache, and the Lie side builds its Weyl
    # group's tables by the column pass
    code, out, _ = run_cli(capsys, "cache", "build", "--group", "B2",
                           "--group", "A1", "--group", "A2",
                           "--cache-dir", str(tmp_path))
    assert code == 0 and out.count("rebuilt") == 3
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def warm_verify(*argv):
        # the finder refuses numpy here and in every forked worker, which
        # inherits it; the sys.modules check alone sees only this process
        child = (
            "import sys\n"
            "class RefuseNumpy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'numpy':\n"
            "            raise ImportError(f'{name} refused')\n"
            "sys.meta_path.insert(0, RefuseNumpy())\n"
            "from coxcov.cli import main\n"
            f"code = main(['verify', *{list(argv)!r}, '--emit', 'json',"
            f" '--cache-dir', {str(tmp_path)!r}])\n"
            "assert code == 0, code\n"
            "assert 'numpy' not in sys.modules\n")
        got = subprocess.run([sys.executable, "-c", child], env=env,
                             capture_output=True, text=True)
        assert got.returncode == 0, got.stderr
        doc = json.loads(got.stdout)
        assert doc["summary"]["fail"] == 0
        return {(r["group"], r["check"]) for r in doc["results"]}

    warm_verify("--group", "B2", "--checks", "all", "--samples", "3")
    # the Lie side beside the loaded tables
    ran = warm_verify("--group", "A1", "--group", "A2", "--checks", "all",
                      "--samples", "3")
    assert {("A1", "reeder[adjoint]"), ("A2", "reeder[s3c3]"),
            ("A2", "weyl-denominator")} <= ran
    # Lie checks only: no cache file is read or written
    ran = warm_verify("--group", "B2", "--allow-long",
                      "--checks", "reeder,lie-bridge")
    assert {("B2", "reeder[adjoint]"), ("B2", "tau-injectivity")} <= ran
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files


def test_reeder_and_lie_bridge_checks(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "verify", "--group", "A1",
                           "--checks", "reeder,lie-bridge",
                           "--cache-dir", str(tmp_path), "--emit", "json")
    assert code == 0
    doc = json.loads(out)
    names = {r["check"] for r in doc["results"]}
    assert "reeder[adjoint]" in names
    assert "weyl-denominator" in names
    assert "tau-injectivity" in names
    assert "phi-injectivity[adjoint]" in names
    assert doc["summary"]["fail"] == 0


def test_exit_code_on_fail():
    rep = Report(config={}, records=[
        CheckRecord("x", "A1", PASS), CheckRecord("y", "A1", FAIL)])
    assert rep.exit_code() == 1
    rep2 = Report(config={}, records=[CheckRecord("x", "A1", PASS)])
    assert rep2.exit_code() == 0


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"groups": ["A1"], "checks": "solomon,molien", '
                   '"cache_dir": "%s"}' % tmp_path)
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 0
    assert "solomon" in out and "molien" in out
    # explicit flags win over the file
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg),
                           "--checks", "solomon")
    assert code == 0
    assert "molien" not in out
    # an explicit --seed 0 wins over the file's seed, too
    cfg.write_text('{"groups": ["A1"], "checks": "solomon", "seed": 3, '
                   '"cache_dir": "%s"}' % tmp_path)
    for flags, seed in (((), 3), (("--seed", "0"), 0), (("--seed", "2"), 2)):
        code, out, _ = run_cli(capsys, "verify", "--config", str(cfg),
                               "--emit", "json", *flags)
        assert code == 0
        assert json.loads(out)["config"]["seed"] == seed, flags


def test_h4_allowed_by_config_file(tmp_path, capsys, monkeypatch):
    # the H4 guard reads allow_long from the config file; the suite is a
    # stub, so no H4 is built
    from coxcov import cli
    seen = []

    def stub(config):
        seen.append(config)
        return Report(config=config, records=[])

    monkeypatch.setattr(cli, "run_suite", stub)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"groups": ["H4"], "allow_long": true}')
    code, _, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 0
    assert seen[0]["groups"] == ["H4"] and seen[0]["allow_long"] is True
    cfg.write_text('{"groups": ["H4"]}')
    code, _, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2 and "allow-long" in err
    assert len(seen) == 1


def test_c_values_flow(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "verify", "--group", "B2",
                           "--checks", "solomon", "--c-long", "2",
                           "--c-short", "1/3", "--cache-dir", str(tmp_path),
                           "--emit", "json")
    assert code == 0


def test_config_values_echo_as_given(tmp_path, capsys):
    # a file's int stays an int and a flag's value a string; a fraction
    # string is read exactly, so "0.1" is the c of --c-long 1/10
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "groups": ["B2"], "checks": ["solomon"], "c_long": 2,
        "c_short": "0.1", "seed": 4, "samples": 3, "allow_long": True,
        "cache_dir": str(tmp_path)}))
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg), "--emit",
                           "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"] == {
        "groups": ["B2"], "checks": ["solomon"], "c_long": 2,
        "c_short": "0.1", "seed": 4, "n_samples": 3, "allow_long": True,
        "cache_dir": str(tmp_path), "emit": "json"}
    code, flagged, _ = run_cli(capsys, "verify", "--config", str(cfg),
                               "--emit", "json", "--c-long", "2",
                               "--c-short", "1/10")
    assert code == 0
    flagged = json.loads(flagged)
    assert flagged["config"]["c_long"] == "2"
    assert flagged["results"] == doc["results"]


# Each case exits 2 with one line on stderr that names the fault, and no
# traceback.  A case is the argv, for ``verify`` the keys of a config file
# it runs with (None: no file), and a word of the line.  Without a file the
# run is the groups of the argv alone.
BAD_INPUT = {
    "c-long-banana": (["verify", "--group", "A1", "--c-long", "banana"],
                      None, "c_long"),
    "c-long-over-zero": (["verify", "--group", "A1", "--c-long", "1/0"],
                         None, "c_long"),
    "c-zero-on-B2": (["verify", "--group", "B2", "--c-long", "0",
                      "--c-short", "0"], None, "degenerate"),
    "c-sum-zero-on-B2": (["verify", "--group", "B2", "--c-long", "1",
                          "--c-short", "-1"], None, "degenerate"),
    "samples-0": (["verify", "--group", "A1", "--samples", "0"], None,
                  "samples"),
    "samples-negative": (["verify", "--group", "A1", "--samples", "-3"],
                         None, "samples"),
    "series-c-long": (["series", "--group", "B2", "--char", "sign",
                       "--c-long", "banana"], None, "--c-long"),
    "series-seed": (["series", "--group", "A2", "--seed", "1"], None,
                    "--seed"),
    "cache-emit": (["cache", "build", "--group", "A1", "--emit", "json"],
                   None, "--emit"),
    "cache-seed": (["cache", "build", "--group", "A1", "--seed", "1"], None,
                   "--seed"),
    "cache-H4": (["cache", "build", "--group", "H4"], None, "allow-long"),
    "purge-unknown": (["cache", "purge", "--group", "Z9"], None, "Z9"),
    "c-short-one-class": (["verify", "--group", "A2", "--c-short", "5"],
                          None, "c_short"),
    "constants-c-short-one-class": (["constants", "--group", "A2",
                                     "--c-short", "5"], None, "c_short"),
    "file-c-short-one-class": (["verify"], {"c_short": "1/2"}, "c_short"),
    "cache-inspect-group": (["cache", "inspect", "--group", "A2"], None,
                            "--group"),
    "file-samples-string": (["verify"], {"samples": "ten"}, "samples"),
    "file-samples-float": (["verify"], {"samples": 2.5}, "samples"),
    "file-samples-0": (["verify"], {"samples": 0}, "samples"),
    "file-list": (["verify"], ["A1"], "JSON object"),
    "file-unknown-key": (["verify"], {"n_samples": 3}, "n_samples"),
    "file-seed-string": (["verify"], {"seed": "x"}, "seed"),
    "file-seed-bool": (["verify"], {"seed": True}, "seed"),
    "file-seed-float": (["verify"], {"seed": 1.5}, "seed"),
    "file-groups-string": (["verify"], {"groups": "A2"}, "groups"),
    "file-checks-int": (["verify"], {"checks": 5}, "checks"),
    "file-c-long-float": (["verify"], {"c_long": 0.1}, "c_long"),
    "file-c-short-bool": (["verify"], {"c_short": True}, "c_short"),
    "file-allow-long-string": (["verify"], {"allow_long": "no"},
                               "allow_long"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_exits_2(tmp_path, capsys, case):
    argv, file_keys, word = BAD_INPUT[case]
    argv = [*argv, "--cache-dir", str(tmp_path / "cache")]
    if argv[0] == "verify":
        argv += ["--checks", "solomon"]
    if file_keys is not None:
        cfg = tmp_path / "cfg.json"
        if isinstance(file_keys, dict):
            file_keys = {"groups": ["A1"], **file_keys}
        cfg.write_text(json.dumps(file_keys))
        argv += ["--config", str(cfg)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2, (code, err)
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1, err
    assert word in err and "Traceback" not in err


@pytest.mark.parametrize("columns", ["60", "80", "120"])
def test_verify_help_keeps_check_names_whole(capsys, monkeypatch, columns):
    from coxcov.cli import ALL_CHECKS
    monkeypatch.setenv("COLUMNS", columns)
    code, out, _ = run_cli(capsys, "verify", "--help")
    assert code == 0
    lines = out.splitlines()
    for name in ALL_CHECKS:
        assert any(re.search(rf"(^|[ ,]){name}(,|$)", line)
                   for line in lines), name


# -- the groups of a run in forked workers, against the in-process path ------

def _plant_freeness_failure(monkeypatch, cli, pids):
    """B2's freeness check raises a CertificationError; every freeness
    call writes the id of the process it ran in to ``pids``."""
    real = cli.freeness_check

    def planted(stack):
        with open(pids, "a") as f:
            f.write(f"{os.getpid()}\n")
        if stack.group.code == "B2":
            raise CertificationError("planted: B2 freeness at x_0^2")
        return real(stack)

    monkeypatch.setattr(cli, "freeness_check", planted)


def _ran_in(pids):
    got = {int(line) for line in pids.read_text().split()}
    pids.unlink()
    return got


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_workers_match_in_process_run(tmp_path, capsys, monkeypatch):
    import multiprocessing

    from coxcov import cli
    pids = tmp_path / "pids"
    _plant_freeness_failure(monkeypatch, cli, pids)
    groups = ["--group", "A1", "--group", "A2", "--group", "B2",
              "--group", "I2(5)"]
    runs = {}
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        cache = tmp_path / f"cache{cpus}"
        code, out, _ = run_cli(capsys, "cache", "build", *groups,
                               "--cache-dir", str(cache))
        assert code == 0 and out.count("rebuilt") == 4
        files = {p.name: p.read_bytes() for p in cache.iterdir()}
        outs = [out, files]
        for seed, emit in (("0", "json"), ("1", "json"), ("0", "text")):
            code, out, _ = run_cli(capsys, "verify", *groups, "--seed", seed,
                                   "--samples", "3", "--emit", emit,
                                   "--cache-dir", str(cache))
            assert code == 1
            if emit == "json":
                out = out.replace(str(cache), "CACHE")
            else:                   # the timings [1.23s] left out
                out = re.sub(r" \[\d+\.\d\ds\]$", "", out, flags=re.M)
            outs.append(out)
        assert not multiprocessing.active_children()
        assert (_ran_in(pids) == {os.getpid()}) == (cpus == 1)
        runs[cpus] = outs
    assert runs[2] == runs[1]
    doc = json.loads(runs[2][2])
    failed = [r for r in doc["results"] if r["status"] == "fail"]
    assert [(r["group"], r["check"], r["details"]) for r in failed] == [
        ("B2", "freeness", {"witness": ["planted: B2 freeness at x_0^2"]})]
    assert "FAIL     B2       freeness" in runs[2][4]
    assert "witness: ['planted: B2 freeness at x_0^2']" in runs[2][4]


def _log_jobs(monkeypatch, cli, pids):
    """Every check record of a run writes the id of the process it ran in
    to ``pids``."""
    real = cli._run_job

    def logged(code, name, run):
        with open(pids, "a") as f:
            f.write(f"{os.getpid()}\n")
        return real(code, name, run)

    monkeypatch.setattr(cli, "_run_job", logged)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.parametrize("argv", [
    ("--group", "H3"),
    ("--group", "A2"),                              # the Lie-side records
    ("--group", "B2", "--allow-long"),              # swapped and Lie records
    # little-adjoint fails off c = 1, in a worker as in one process
    ("--group", "B2", "--c-long", "2", "--c-short", "1/3")])
def test_lone_group_split_matches_one_cpu(tmp_path, capsys, monkeypatch,
                                          argv):
    # a lone group's checks run as tasks in workers on two CPUs; the
    # report is byte for byte the one of a one-CPU run
    import multiprocessing

    from coxcov import cli
    pids = tmp_path / "pids"
    _log_jobs(monkeypatch, cli, pids)
    outs = {}
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        code, out, _ = run_cli(capsys, "verify", *argv, "--checks", "all",
                               "--samples", "3", "--emit", "json",
                               "--cache-dir", str(tmp_path))
        outs[cpus] = code, out
        assert not multiprocessing.active_children()
        assert (os.getpid() in _ran_in(pids)) == (cpus == 1)
    assert outs[2] == outs[1]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.parametrize("groups", [("H3", "A2", "B2"), ("B2", "B2")])
def test_several_groups_run_one_task_each(tmp_path, capsys, monkeypatch,
                                          groups):
    # only a lone group is split: several groups, even fewer than the CPUs
    # and even one code named twice, run one worker per group, and the
    # report is byte for byte the one of a one-CPU run
    import multiprocessing

    from coxcov import cli
    ran = tmp_path / "ran"
    real = cli._run_job

    def logged(code, name, run):
        with open(ran, "a") as f:
            f.write(f"{code} {os.getpid()}\n")
        return real(code, name, run)

    monkeypatch.setattr(cli, "_run_job", logged)
    argv = [arg for code in groups for arg in ("--group", code)]
    outs = {}
    for cpus in (4, 1):
        _cpus(monkeypatch, cpus)
        code, out, _ = run_cli(capsys, "verify", *argv, "--allow-long",
                               "--checks", "all", "--samples", "3",
                               "--emit", "json",
                               "--cache-dir", str(tmp_path / "cache"))
        outs[cpus] = code, out.replace(str(tmp_path), "TMP")
        assert not multiprocessing.active_children()
        pids: dict = {}
        for line in ran.read_text().splitlines():
            code, pid = line.split()
            pids.setdefault(code, set()).add(int(pid))
        ran.unlink()
        assert sorted(pids) == sorted(set(groups))
        for code, got in pids.items():
            if cpus == 1:
                assert got == {os.getpid()}
            else:
                assert os.getpid() not in got
                assert len(got) <= groups.count(code)
    assert outs[4] == outs[1]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_lone_group_certificate_failure_in_a_worker(tmp_path, capsys,
                                                    monkeypatch):
    from coxcov import cli
    pids = tmp_path / "pids"
    _plant_freeness_failure(monkeypatch, cli, pids)
    outs = {}
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        code, outs[cpus], _ = run_cli(capsys, "verify", "--group", "B2",
                                      "--emit", "json", "--samples", "3",
                                      "--cache-dir", str(tmp_path))
        assert code == 1
        assert (os.getpid() in _ran_in(pids)) == (cpus == 1)
    assert outs[2] == outs[1]
    failed = [r for r in json.loads(outs[2])["results"]
              if r["status"] == "fail"]
    assert [(r["group"], r["check"], r["details"]) for r in failed] == [
        ("B2", "freeness", {"witness": ["planted: B2 freeness at x_0^2"]})]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_lone_group_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    import multiprocessing

    from coxcov import cli
    _cpus(monkeypatch, 2)

    def planted(stack):
        raise RuntimeError("planted: molien on B2")

    monkeypatch.setattr(cli, "_molien_check", planted)
    code, out, err = run_cli(capsys, "verify", "--group", "B2", "--checks",
                             "solomon,molien", "--cache-dir", str(tmp_path))
    assert code == 3 and out == ""
    assert "RuntimeError: planted: molien on B2" in err
    assert not multiprocessing.active_children()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_lone_group_cold_cache_written_once(tmp_path, capsys, monkeypatch):
    # the stack is loaded before the pool forks, so a cold run writes the
    # group's one cache file from this process
    from coxcov import cache as cache_mod
    written = tmp_path / "written"
    real = cache_mod.save_group

    def recording(*args, **kwargs):
        with open(written, "a") as f:
            f.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(cache_mod, "save_group", recording)
    files = {}
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        cache = tmp_path / f"cache{cpus}"
        code, _, _ = run_cli(capsys, "verify", "--group", "H3", "--checks",
                             "solomon,molien", "--cache-dir", str(cache))
        assert code == 0
        assert _ran_in(written) == {os.getpid()}
        files[cpus] = {p.name: p.read_bytes() for p in cache.iterdir()}
    assert len(files[2]) == 1 and files[2] == files[1]


def test_cache_build_repeated_group(tmp_path, capsys, monkeypatch):
    # a group named twice is built once: its later line reads the file its
    # first line wrote, with two workers as in one process
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        code, out, _ = run_cli(capsys, "cache", "build", "--group", "A2",
                               "--group", "A2", "--group", "B2",
                               "--cache-dir", str(tmp_path / str(cpus)))
        assert code == 0
        assert out.splitlines() == ["A2: 6 elements, 3 roots (rebuilt)",
                                    "A2: 6 elements, 3 roots (cache)",
                                    "B2: 8 elements, 4 roots (rebuilt)"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_worker_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    import multiprocessing

    from coxcov import cli
    _cpus(monkeypatch, 2)
    real = cli.solomon_check

    def planted(stack):
        if stack.group.code == "A2":
            raise RuntimeError("planted: solomon on A2")
        return real(stack)

    monkeypatch.setattr(cli, "solomon_check", planted)
    code, out, err = run_cli(capsys, "verify", "--group", "A1", "--group",
                             "A2", "--group", "B2", "--checks", "solomon",
                             "--cache-dir", str(tmp_path))
    assert code == 3 and out == ""
    assert "Traceback" in err and "RuntimeError: planted: solomon on A2" in err
    assert not multiprocessing.active_children()
    code, out, err = run_cli(capsys, "verify", "--group", "A2", "--group",
                             "Z9", "--checks", "solomon",
                             "--cache-dir", str(tmp_path))
    assert code == 2 and "Z9" in err
    assert not multiprocessing.active_children()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.parametrize("cpus", [1, 2])
def test_first_failing_group_in_order_raises(tmp_path, capsys, monkeypatch,
                                             cpus):
    # B2's error comes first in time, but A2 comes first in the order
    # given, so A2's error is raised, on two CPUs as in one process
    import multiprocessing
    import time

    from coxcov import cli
    from coxcov.groups import CatalogueError
    _cpus(monkeypatch, cpus)
    real = cli.solomon_check

    def planted(stack):
        if stack.group.code == "A2":
            time.sleep(0.5)
            raise RuntimeError("planted: A2")
        if stack.group.code == "B2":
            raise CatalogueError("planted: B2")
        return real(stack)

    monkeypatch.setattr(cli, "solomon_check", planted)
    code, out, err = run_cli(capsys, "verify", "--group", "A1", "--group",
                             "A2", "--group", "B2", "--checks", "solomon",
                             "--cache-dir", str(tmp_path))
    assert code == 3 and out == ""
    assert "RuntimeError: planted: A2" in err and "planted: B2" not in err
    assert not multiprocessing.active_children()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.parametrize("cpus, groups, checks", [
    (1, ("A2", "B2"), "all"),
    # a lone group split into tasks, the Lie-side records among them
    (2, ("A2",), "molien,reeder,lie-bridge"),
    (4, ("A1", "A2", "B2"), "all")])
def test_every_record_is_timed(tmp_path, monkeypatch, cpus, groups, checks):
    from coxcov import cli
    _cpus(monkeypatch, cpus)
    report = cli.run_suite({"groups": list(groups),
                            "checks": cli._parse_checks(checks),
                            "seed": 0, "n_samples": 3,
                            "cache_dir": str(tmp_path)})
    names = {r.name for r in report.records}
    assert {"molien", "reeder[adjoint]", "weyl-denominator"} <= names
    assert all(r.elapsed is not None for r in report.records)
    assert "elapsed" not in report.to_json()


@pytest.mark.parametrize("cpus", [1, 2])
def test_unknown_code_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                              cpus):
    # every code is looked up in the catalogue before a group is built, in
    # this process or in a worker, and before a cache file is written
    from coxcov import groups
    _cpus(monkeypatch, cpus)
    built = tmp_path / "built"
    real = groups.ReflectionGroup.__init__

    def recording(self, code, *args, **kwargs):
        with open(built, "a") as f:
            f.write(f"{code}\n")
        real(self, code, *args, **kwargs)

    monkeypatch.setattr(groups.ReflectionGroup, "__init__", recording)
    cache = tmp_path / "cache"
    for verb in (("verify", "--checks", "all"), ("cache", "build")):
        code, out, err = run_cli(capsys, *verb, "--group", "A2", "--group",
                                 "Z9", "--cache-dir", str(cache))
        assert code == 2 and out == "" and "Z9" in err
    assert not built.exists() and not cache.exists()


def test_single_group_does_not_load_multiprocessing(tmp_path):
    # one CPU, or one group with one check (one task) on two: the run stays
    # in this process, and the pool's module stays unloaded
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for cpus, checks in (("{0}", "all"), ("{0, 1}", "solomon")):
        child = ("import os, sys\n"
                 f"os.sched_getaffinity = lambda pid: {cpus}\n"
                 "from coxcov.cli import main\n"
                 f"code = main(['verify', '--group', 'A1', '--checks', "
                 f"{checks!r}, '--cache-dir', {str(tmp_path)!r}])\n"
                 "assert code == 0, code\n"
                 "assert 'multiprocessing' not in sys.modules\n")
        got = subprocess.run([sys.executable, "-c", child], env=env,
                             capture_output=True, text=True)
        assert got.returncode == 0, (cpus, checks, got.stderr)
