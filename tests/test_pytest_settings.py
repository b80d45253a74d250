"""The repository's pytest settings, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

FAILING_PROPERTY_AND_PASSING_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_failing_property_does_not_end_the_session(tmp_path):
    # warnings are errors, so a warning raised while reporting a failure must
    # not become an INTERNALERROR that skips every later test
    (tmp_path / "test_two.py").write_text(FAILING_PROPERTY_AND_PASSING_TEST)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
