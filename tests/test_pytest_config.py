"""The suite's pytest settings still report a failing property test in full."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_runs_after_the_failure():
    pass
'''


def test_failing_hypothesis_test_prints_its_example_and_the_run_goes_on(tmp_path):
    # With every warning an error, a warning raised while Hypothesis writes its
    # report would abort the session (exit 3) before the example is printed.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
