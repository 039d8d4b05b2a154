"""Smoke tests for the narrative demos and the README quickstart: each
runs to completion against the current API."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["demos/curve_regression_table.py"],
        ["demos/spiral_capacity.py"],
        ["demos/variance_depth.py", "20"],
    ],
    ids=lambda argv: Path(argv[0]).stem,
)
def test_demo_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_readme_quickstart_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quickstart = readme.split("## Quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", quickstart, re.S).group(1)
    exec(compile(code, "README.md quickstart", "exec"), {})
    assert capsys.readouterr().out
