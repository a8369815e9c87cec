"""Smoke tests: the paper's three case-study scripts run end to end as their
own processes, with ``src`` on PYTHONPATH."""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=300)


def test_cantilever_reports_the_closed_form_ratio():
    proc = run_script("run_cantilever.py")
    assert proc.returncode == 0, proc.stderr
    assert re.search(r"^max u_el\s*: 1\.175\d*\s+\(closed form 1\.175", proc.stdout, re.M)


@pytest.mark.parametrize("name, args, line", [
    ("run_leonardo.py", (), r"^closed_mobile\s"),
    ("run_lattice_study.py", ("--nx", "20", "--ny", "3", "--nz", "10"),
     r"^PCG iterations: \d+ -> \d+"),
])
def test_script_runs(name, args, line):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert re.search(line, proc.stdout, re.M)
