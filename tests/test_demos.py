"""Every demo script runs to completion against the package in ``src``.

Each demo but the timing one must also print exactly the stdout pinned in
``tests/golden/demos/<name>.txt``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = ROOT / "tests" / "golden" / "demos"
UNPINNED = {"03_benchmark"}  # prints wall-clock timings


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    if demo.stem not in UNPINNED:
        assert proc.stdout == (PINNED / f"{demo.stem}.txt").read_text()
