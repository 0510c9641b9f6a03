"""Every demo script runs to completion against the package source, and README's examples hold."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
README = Path(__file__).parents[1] / "README.md"
MODULES = sorted((Path(__file__).parents[1] / "src" / "mcn").glob("*.py"))


def test_all_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(script, tmp_path, mcn_env):
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, capture_output=True, text=True,
        env=mcn_env,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_readme_quickstart_prints_what_its_comments_say(tmp_path, mcn_env):
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    proc = subprocess.run(
        [sys.executable, "-c", block], cwd=tmp_path, capture_output=True, text=True,
        env=mcn_env,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "3 (4, 5, 6)\n23\n", "")


def test_readme_counts_the_package_lines():
    (claim,) = re.findall(r"^`src/mcn/` holds (\d+) lines in (\d+) modules\.$", README.read_text(encoding="utf-8"), re.M)
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in MODULES)
    assert tuple(map(int, claim)) == (lines, len(MODULES))
