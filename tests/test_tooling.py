"""The pytest settings in pyproject.toml, run on a probe suite in a
subprocess, the README's code examples, run as written, and the support
findings of ``check`` against the errors of ``solve`` on the fixture models."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import formpipe as fp
from formpipe.cli import main

from conftest import bar_model, collinear_trusses, floating_chains, line_pinned_lattice

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


# the fixture models, and whether their supports leave a rigid motion free
SUPPORT_CASES = {
    "cantilever": (fp.gen_cantilever, False),
    **{f"leonardo-{v}": (lambda v=v: fp.gen_leonardo(fp.LeonardoSpec(variant=v)), False)
       for v in ("closed", "open", "closed_mobile")},
    "lattice-3x3x3": (lambda: fp.gen_sphere_lattice(fp.LatticeSpec(nx=3, ny=3, nz=3)), False),
    "truss-bar": (bar_model, False),
    "collinear-trusses": (collinear_trusses, False),
    "line-pinned-lattice": (lambda: line_pinned_lattice()[0], True),
    "floating-chains": (floating_chains, True),
}


@pytest.mark.parametrize("case", SUPPORT_CASES)
def test_check_and_solve_agree_on_supports(case, tmp_path, capsys):
    """``check`` prints an unsupported-component line exactly when ``solve``
    exits 2 with that same line."""
    build, unsupported = SUPPORT_CASES[case]
    path = tmp_path / "model.vtp"
    path.write_text(fp.write_model(build()))
    main(["check", str(path)])
    prefix = "defect [unsupported-component]: "
    support = [line[len(prefix):] for line in capsys.readouterr().out.splitlines()
               if line.startswith(prefix)]
    code = main(["solve", str(path), str(tmp_path / "results.vtk")])
    err = capsys.readouterr().err
    assert bool(support) == unsupported
    if support:
        assert (code, err) == (2, f"error: {support[0]}\n")
    else:
        assert "rigid motion" not in err
