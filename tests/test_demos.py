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


# A user script that calls cv_search at module top level, with no
# `if __name__ == "__main__"` guard. The core count is forced to 2 so the
# worker path runs also on a one-core machine.
_UNGUARDED_SCRIPT = """
from pinvnet import parallel
from pinvnet.activations import ActivationKind
from pinvnet.datasets import CvPlan, cv_search, gen_spiral
from pinvnet.training import InitScheme, TrainConfig

parallel._usable_cores = lambda: 2
ds, _ = gen_spiral(3, 20, noise=0.2, seed=1)
result = cv_search(ds, ["h-q"], [2, 4], CvPlan(3, 1, 0),
                   TrainConfig(InitScheme.random(0, 0.5)),
                   ActivationKind.softplus08())
print("selected", result.h)
"""


def test_script_without_main_guard_runs_cv_search(tmp_path):
    script = tmp_path / "unguarded.py"
    script.write_text(_UNGUARDED_SCRIPT, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("selected") == 1
