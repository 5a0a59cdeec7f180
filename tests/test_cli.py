import json
import os
import subprocess
import sys

from coxcov.cli import main
from coxcov.reports import FAIL, PASS, CheckRecord, Report


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
    # purge then verify: transparent rebuild
    code, out, _ = run_cli(capsys, "verify", "--group", "A2",
                           "--checks", "solomon",
                           "--cache-dir", str(tmp_path))
    assert code == 0


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
    try:
        cache_mod.save_group(tmp_path, group)       # a different document
    except KeyboardInterrupt:
        pass
    else:
        raise AssertionError("the interrupted write did not raise")
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
    assert cache_mod.load_stack(tmp_path, "A2")[2]


def test_warm_verify_does_not_load_numpy(tmp_path, capsys):
    # numpy serves the mod-p pivot search of a table build only; a verify
    # that loads every table from the cache never imports it
    code, out, _ = run_cli(capsys, "cache", "build", "--group", "B2",
                           "--cache-dir", str(tmp_path))
    assert code == 0 and "rebuilt" in out
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    child = (
        "import sys\n"
        "from coxcov.cli import main\n"
        f"code = main(['verify', '--group', 'B2', '--checks', 'all',"
        f" '--samples', '3', '--emit', 'json',"
        f" '--cache-dir', {str(tmp_path)!r}])\n"
        "assert code == 0, code\n"
        "assert 'numpy' not in sys.modules\n")
    got = subprocess.run([sys.executable, "-c", child], env=env,
                         capture_output=True, text=True)
    assert got.returncode == 0, got.stderr
    assert json.loads(got.stdout)["summary"]["fail"] == 0


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


def test_c_values_flow(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "verify", "--group", "B2",
                           "--checks", "solomon", "--c-long", "2",
                           "--c-short", "1/3", "--cache-dir", str(tmp_path),
                           "--emit", "json")
    assert code == 0
