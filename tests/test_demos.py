"""Every demo script runs to completion against the package source."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_all_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(script, tmp_path, mcn_env):
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, capture_output=True, text=True,
        env=mcn_env,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
