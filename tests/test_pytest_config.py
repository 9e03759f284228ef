"""The suite's pytest configuration reports every result.

Warnings are errors (`filterwarnings` in pyproject.toml), with one
third-party deprecation ignored: on a failing property test, hypothesis's
pytest plugin imports libcst, which builds a `mypy_extensions.TypedDict`.
As an error, that deprecation is raised inside a pytest hook, and the run
stops with an INTERNALERROR that hides every later result.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""

_WARNING = """
import warnings


def test_warns():
    warnings.warn("deprecated in test code", DeprecationWarning)
"""


def _pytest(tmp_path, source):
    path = tmp_path / "test_case.py"
    path.write_text(source)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )


def test_failing_property_test_reports_the_rest(tmp_path):
    proc = _pytest(tmp_path, _FAILING_PROPERTY)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr


def test_deprecation_warning_of_test_code_still_fails(tmp_path):
    proc = _pytest(tmp_path, _WARNING)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed" in proc.stdout
