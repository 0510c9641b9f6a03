"""Every demo script runs to completion against the package source."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mcn

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_all_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(script, tmp_path):
    src = str(Path(mcn.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
