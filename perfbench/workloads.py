"""Benchmark workloads and the inputs they are built from.

Every input is made from the benchmark seed: the ``formpipe gen lattice``
subprocess takes it as ``--seed``, and the line-soup explosion draws its
jitter and shuffle from a generator seeded with it.  The program under test
only ever sees the generated files.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

import numpy as np

# Endpoints of the line soup are jittered by at most SOUP_JITTER mm per axis,
# so two copies of one node lie at most 2*sqrt(3)*SOUP_JITTER ~ 0.0035 mm
# apart, well inside the merge tolerance, while distinct lattice nodes sit
# one ball diameter (47 mm) apart.
SOUP_MERGE_TOL = 0.01  # mm
SOUP_JITTER = 0.001  # mm
SOUP_DUPLICATES = 100  # reversed copies of existing cells
SOUP_ZERO_LENGTH = 100  # cells whose two endpoints both sit on one node


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    nx: int
    ny: int
    nz: int
    arch_thickness: float | None  # None: full block
    soup: bool = False
    solver: str | None = None  # "direct" | "pcg" | None: no solve

    def gen_argv(self, output: str, seed: int) -> list:
        argv = ["gen", "lattice", output, "--nx", str(self.nx), "--ny", str(self.ny),
                "--nz", str(self.nz), "--splash-fraction", "0.01", "--seed", str(seed)]
        if self.arch_thickness is not None:
            argv += ["--shape", "arch", "--thickness", repr(self.arch_thickness)]
        return argv

    def commands(self, model_in: str, cleaned: str, results: str) -> list:
        """(name, argv, expected exit code, output file) for one iteration."""
        out = []
        if self.soup:
            # every segment of a soup floats on its own, so check must report
            # unsupported components (exit 2)
            out.append(("check", ["check", model_in], 2, None))
        clean = ["clean", model_in, cleaned, "--format", "structured"]
        if self.soup:
            clean += ["--merge-tol", repr(SOUP_MERGE_TOL)]
        out.append(("clean", clean, 0, cleaned))
        if self.solver is not None:
            solve = ["solve", cleaned, results, "--format", "structured"]
            if self.solver == "pcg":
                solve += ["--solver", "pcg"]
            out.append(("solve", solve, 0, results))
        return out

    @property
    def merge_tol(self) -> float:
        return SOUP_MERGE_TOL if self.soup else 1e-6

    def block_counts(self) -> tuple:
        """Points and cells of the full lattice block: what cleaning the soup
        must recover, since the generator's splash is removed exactly."""
        nx, ny, nz = self.nx, self.ny, self.nz
        return nx * ny * nz, 3 * nx * ny * nz - (ny * nz + nx * nz + nx * ny)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="arch_direct",
            why="80x8x40 arch lattice (19,488 eq) through clean and direct solve; "
                "per-element Python loops in solver dominate, topology does almost nothing",
            nx=80, ny=8, nz=40, arch_thickness=3.5, solver="direct",
        ),
        Workload(
            name="arch_pcg",
            why="50x5x24 arch lattice (6,840 eq) through clean and solve --solver pcg; "
                "IC(0) and paired triangular solves dominate, a direct-solver change leaves it flat",
            nx=50, ny=5, nz=24, arch_thickness=3.5, solver="pcg",
        ),
        Workload(
            name="soup_clean",
            why="20x20x20 lattice exploded into a jittered, shuffled line soup (46k points) "
                "through check and clean; exchange and topology do the work, solver none",
            nx=20, ny=20, nz=20, arch_thickness=None, soup=True,
        ),
    )
}


def explode_to_soup(fp, model, seed: int):
    """Give every cell its own two endpoints, the shape of a CAD line export.

    Endpoints are jittered inside the merge tolerance and cells shuffled;
    SOUP_DUPLICATES reversed copies of existing cells and SOUP_ZERO_LENGTH
    cells between two copies of one node are mixed in.  Endpoint copies keep
    their node's support mask and load id.
    """
    rng = np.random.default_rng(seed)
    points = model.points
    index = model.point_index()
    segments = [(index[c.connectivity[0]], index[c.connectivity[1]], c) for c in model.cells]
    pick = rng.choice(len(segments), size=SOUP_DUPLICATES, replace=False)
    segments += [(segments[i][1], segments[i][0], segments[i][2]) for i in pick]
    nodes = rng.choice(len(points), size=SOUP_ZERO_LENGTH, replace=False)
    segments += [(int(i), int(i), model.cells[0]) for i in nodes]
    order = rng.permutation(len(segments))
    jitter = rng.uniform(-SOUP_JITTER, SOUP_JITTER, size=(len(segments), 2, 3))

    soup = fp.StructuralModel(
        comment="line soup of " + model.comment,
        cross_sections=model.cross_sections,
        materials=model.materials,
        bcs=model.bcs,
    )
    for cid, k in enumerate(order):
        a, b, cell = segments[k]
        ends = []
        for end, pi in enumerate((a, b)):
            src = points[pi]
            pid = len(soup.points)
            soup.points.append(fp.Point(
                id=pid,
                coords=src.coords + jitter[cid, end],
                constraint_mask=src.constraint_mask,
                bc_id=src.bc_id,
            ))
            ends.append(pid)
        soup.cells.append(fp.Cell(id=cid, connectivity=tuple(ends), cs_id=cell.cs_id,
                                  mat_id=cell.mat_id, kind=cell.kind))
    return soup


_PIECE = re.compile(rb'<Piece NumberOfPoints="(\d+)" NumberOfLines="(\d+)"')


def piece_counts(data: bytes) -> tuple:
    """(points, cells) from the Piece header of an exchange document."""
    match = _PIECE.search(data)
    if match is None:
        raise ValueError("no Piece header in exchange document")
    return int(match.group(1)), int(match.group(2))


def provenance(data: bytes, seed: int) -> dict:
    """What identifies a generated input, so two commits compare like with like."""
    points, cells = piece_counts(data)
    return {
        "seed": seed,
        "sha256": hashlib.sha256(data).hexdigest(),
        "points": points,
        "cells": cells,
        "bytes": len(data),
    }
