"""The suite's warning filters, run on small test files in a subprocess.

pyproject.toml turns DeprecationWarning into an error, except libcst's use
of mypy_extensions.TypedDict, which hypothesis imports while it reports a
failing property, and fails a test that leaves a file open. Each test
copies the project's pytest configuration next to a small test file and
reads the outcome of a fresh pytest run.
"""

from __future__ import annotations

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st

@settings(database=None)
@given(st.integers())
def test_property_fails(x):
    assert x < 0
"""


def _run(pytester, source):
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    pytester.makepyfile(test_sample=source)
    return pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_sample.py")


def test_failing_property_does_not_stop_the_run(pytester):
    result = _run(pytester, FAILING_PROPERTY + """
def test_after_it_passes():
    pass
""")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1, passed=1)


def test_own_deprecation_warning_still_fails(pytester):
    result = _run(pytester, FAILING_PROPERTY + """
import warnings

def test_deprecated_call():
    warnings.warn("this call is deprecated", DeprecationWarning)
""")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=2)
    result.stdout.fnmatch_lines(["*test_deprecated_call*DeprecationWarning*"])


def test_leaked_file_fails(pytester):
    result = _run(pytester, """
def test_leaves_a_file_open(tmp_path):
    path = tmp_path / "sample.txt"
    path.write_text("x")
    assert path.open().read() == "x"

def test_closes_its_file(tmp_path):
    path = tmp_path / "sample.txt"
    path.write_text("x")
    with path.open() as handle:
        assert handle.read() == "x"
""")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.fnmatch_lines(["*test_leaves_a_file_open*"])
