"""Readers for what the CLI writes, independent of formpipe's own code."""

from __future__ import annotations

import re

import numpy as np

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*")


def _is_plain(value: str) -> bool:
    if _TOKEN.fullmatch(value):
        return True
    try:
        float(value)
    except ValueError:
        return False
    return True


def unparsable_values(report: str) -> int:
    """Count ``--format structured`` records whose value is not an int, a
    float or a bare token, such as ``np.float64(1e-11)``.  A line that is not
    one ``key value`` pair counts too."""
    count = 0
    for line in report.splitlines():
        parts = line.split(" ")
        if len(parts) != 2 or not _is_plain(parts[1]):
            count += 1
    return count


def _block(lines, header, rows, width):
    start = lines.index(header) + 1
    if lines[start].startswith("LOOKUP_TABLE"):
        start += 1
    values = np.array(" ".join(lines[start:start + rows]).split(), dtype=float)
    if values.size != rows * width:
        raise ValueError(f"{header}: expected {rows * width} values, got {values.size}")
    return values.reshape(rows, width)


def read_results_vtk(text: str):
    """(resistance_ratio per cell, displacement (n, 3) per point) from the
    legacy ASCII VTK results file."""
    lines = text.splitlines()
    n = int(next(line for line in lines if line.startswith("POINT_DATA")).split()[1])
    m = int(next(line for line in lines if line.startswith("CELL_DATA")).split()[1])
    disp = _block(lines, "VECTORS displacement float", n, 3)
    ratio = _block(lines, "SCALARS resistance_ratio float 1", m, 1)[:, 0]
    return ratio, disp


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))
