"""The suite's own pytest settings: every warning is an error, yet a failing
hypothesis test is one failure and the run goes on past it; every test
module is collected; and an unregistered mark is an error."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_is_one_failure_and_the_run_goes_on(tmp_path):
    # on a failure the hypothesis plugin imports libcst, which reads the
    # deprecated mypy_extensions.TypedDict; with every warning an error and
    # no exception for that one, the run ended there in an INTERNALERROR
    (tmp_path / "test_probe.py").write_text(PROBE)
    argv = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, *argv, "test_probe.py"], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr


def test_every_test_module_is_collected():
    # the suite runs with --continue-on-collection-errors, so a test module
    # that failed to import would drop out of the count without a failure
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"],
        cwd=PYPROJECT.parent,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "error" not in proc.stdout.splitlines()[-1]
    assert "tests/test_census.py::" in proc.stdout


MISSPELLED = """
import pytest


@pytest.mark.slwo
def test_passes():
    pass
"""


def test_a_misspelled_marker_fails_the_run(tmp_path):
    # a misspelled `slow` would run a long case in every default run; with
    # strict markers the typo is a collection error, also with the warnings
    # plugin off, so it is not only the every-warning-is-an-error filter
    (tmp_path / "test_probe.py").write_text(MISSPELLED)
    argv = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
    for extra in ([], ["-p", "no:warnings"]):
        proc = subprocess.run(
            [sys.executable, *argv, *extra, "test_probe.py"], cwd=tmp_path, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "'slwo' not found in `markers` configuration option" in proc.stdout
