"""The suite's own pytest settings: a failing test is reported, not turned into a crash."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_GIVEN_TEST = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0
'''


def test_a_failing_hypothesis_test_is_reported_under_the_suite_settings(tmp_path):
    # on a failure hypothesis imports libcst and mypy_extensions, whose DeprecationWarning
    # filterwarnings = ["error"] would turn into an INTERNALERROR that hides every result
    (tmp_path / "test_fails.py").write_text(FAILING_GIVEN_TEST, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "1 failed" in output
    assert "INTERNALERROR" not in output
