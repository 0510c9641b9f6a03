import os
from pathlib import Path

import pytest

import mcn


@pytest.fixture
def mcn_env():
    """Environment in which a Python subprocess imports the package under test."""
    return {**os.environ, "PYTHONPATH": str(Path(mcn.__file__).parents[1])}
