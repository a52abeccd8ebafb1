"""Every demo script, and README's Quick start, runs to completion against
the current library."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args: list, tmp_path) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    # TMPDIR keeps the files a script writes inside the test's own directory
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(demo, tmp_path):
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_exits_0(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    proc = run_python(["-c", re.search(r"```python\n(.*?)```", readme, re.DOTALL)[1]], tmp_path)
    assert proc.returncode == 0, proc.stderr
