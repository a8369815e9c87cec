"""The pytest settings in pyproject.toml, run on a probe suite in a
subprocess, the README's code examples, run as written, and the defects of
``check`` against the errors of ``solve`` on the fixture models."""

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


def edited_cantilever(edit=lambda model: None, old="", new=""):
    """A builder of the default cantilever that ``edit`` changes in place and
    whose file text then has ``old`` replaced by ``new``."""
    def build():
        model = fp.gen_cantilever()
        edit(model)
        text = fp.write_model(model)
        assert old in text
        return text.replace(old, new)
    return build


def aimed_section(model):
    model.cross_sections[2] = fp.CrossSection(id=2, shape=fp.Rectangle(20.0, 30.0, "z", -3))


def infinite_section(model):
    model.cross_sections[2] = fp.CrossSection(id=2, shape=fp.Circle(diameter=float("inf")))


def supported_slave(model):
    model.points.append(fp.Point(id=2, coords=(1000.0, 50.0, 0.0)))
    model.rigid_links.append(fp.RigidLink(master=1, slave=2))
    model.points[2].constraint_mask[0] = True


# files that check refuses for a defect of validate's
REFUSED_CASES = {
    **{f"nu{nu}": edited_cantilever(old=" nu 0.2 ", new=f" nu {nu} ")
       for nu in ("-1.0", "-1.5", "0.6")},
    **{f"refNode{ref}": edited_cantilever(aimed_section, "refNode z -3", f"refNode z {ref}")
       for ref in ("500", "-4")},
    "infinite-section": edited_cantilever(infinite_section),
    "supported-slave": edited_cantilever(supported_slave),
    "modulus-overflow": edited_cantilever(old=" E 210000.0 ", new=" E 1e308 "),
    "load-overflow": edited_cantilever(old=" -264.777 ", new=" 1e308 "),
    "density-overflow": edited_cantilever(old=" density 7.85e-06 ", new=" density 1e305 "),
    "circle-overflow": edited_cantilever(old=" Circle width 20.0 ", new=" Circle width 1.2e77 "),
    "rectangle-overflow": edited_cantilever(old=" Circle width 20.0 ",
                                            new=" Rectangle width 1.0 height 5.7e102 "),
    "nan-load": edited_cantilever(old=" -264.777 ", new=" nan "),
}


@pytest.mark.parametrize("case", list(SUPPORT_CASES) + list(REFUSED_CASES))
def test_solve_refuses_with_checks_first_defect(case, tmp_path, capsys):
    """Wherever ``check`` exits 2, ``solve`` exits 2 under both solvers with
    ``error: M``, where ``defect [kind]: M`` is the first defect line of
    ``check``."""
    path = tmp_path / "model.vtp"
    if case in SUPPORT_CASES:
        path.write_text(fp.write_model(SUPPORT_CASES[case][0]()))
    else:
        path.write_text(REFUSED_CASES[case]())
    code = main(["check", str(path)])
    defects = [line.partition("]: ")[2] for line in capsys.readouterr().out.splitlines()
               if line.startswith("defect [")]
    assert (code == 2) == bool(defects)
    assert code == 2 or case in SUPPORT_CASES
    if code != 2:
        return
    for solver in ("direct", "pcg"):
        code = main(["solve", str(path), str(tmp_path / "results.vtk"), "--solver", solver])
        assert (code, capsys.readouterr().err) == (2, f"error: {defects[0]}\n")
