"""The suite's pytest settings in pyproject.toml, run in a child pytest."""

import subprocess
import sys
import textwrap
from pathlib import Path

REPO_DIR = Path(__file__).resolve().parent.parent

FAILING = textwrap.dedent(
    """
    import warnings

    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_property_fails(x):
        assert x < 0


    def test_same_warning_from_elsewhere_is_an_error():
        warnings.warn("mypy_extensions.TypedDict is deprecated", DeprecationWarning)
    """
)


def test_failing_property_is_reported_and_other_warnings_stay_errors(tmp_path):
    # Hypothesis's failure report imports libcst where it is installed, and
    # libcst's import raises a DeprecationWarning: under "error" alone that
    # ended the session with INTERNALERROR. Only that warning is ignored.
    (tmp_path / "test_failing.py").write_text(FAILING)
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(REPO_DIR / "pyproject.toml"), "--rootdir", str(tmp_path), "test_failing.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output
    assert "2 failed" in output, output
