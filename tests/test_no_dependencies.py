"""coxcov runs on the standard library alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_imports_only_stdlib():
    outside = set()
    for path in sorted((SRC / "coxcov").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "coxcov" and top not in sys.stdlib_module_names:
                    outside.add((path.name, name))
    assert not outside


def test_cold_build_with_numpy_unimportable(tmp_path):
    child = ("import sys\n"
             "sys.modules['numpy'] = None\n"
             "from coxcov.cli import main\n"
             "raise SystemExit(main(['cache', 'build', '--group', 'H3',"
             " '--group', 'I2(8)', '--cache-dir', sys.argv[1]]))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    got = subprocess.run([sys.executable, "-c", child, str(tmp_path)],
                         env=env, capture_output=True, text=True)
    assert got.returncode == 0, got.stderr
    assert got.stdout.count("rebuilt") == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "group_H3.json", "group_I2_8.json"]
