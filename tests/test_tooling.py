"""The pytest settings in pyproject.toml, run on a probe suite in a
subprocess, and the README's code examples, run as written."""

import re
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.parent / "README.md"

PROBE = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_hypothesis_failure(x):
    assert x < 0


def test_runs_after_it():
    pass


def test_deprecation_still_fails():
    warnings.warn("old", DeprecationWarning)
'''


def test_failing_hypothesis_test_is_reported_not_fatal(tmp_path):
    # Hypothesis's failure report imports libcst, which warns
    # "mypy_extensions.TypedDict is deprecated": as an error that would end
    # the session with INTERNALERROR before the next test runs
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert "2 failed, 1 passed" in proc.stdout
    assert "FAILED test_probe.py::test_deprecation_still_fails" in proc.stdout


def test_readme_python_examples_run(capsys):
    # a public name the README still shows cannot be removed unnoticed
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert "cells exceeded" in capsys.readouterr().out
