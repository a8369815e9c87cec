"""Parametric model generators for the benchmark cases: a steel cantilever,
a self-supporting interleaved-beam timber arch, and a sphere-packing lattice
homogenized into a beam grid.

All generators emit models that validate without defects, the cantilever
and the arch also without ``solvability_findings``, or raise ValueError
naming the first; each is deterministic for its spec, the lattice's seed too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    BoundaryConditionEntry,
    Cell,
    CellTable,
    Circle,
    CrossSection,
    GenericSection,
    Material,
    Point,
    PointTable,
    Rectangle,
    StructuralModel,
    raise_first,
    validate,
)
from .topology import _component_labels, _peel, solvability_findings

STEEL = dict(E=210.0e3, nu=0.2, tAlpha=1.2e-5, density=7850.0e-9, Ry=300.0)
TIMBER = dict(E=11.0e3, nu=0.3, tAlpha=5.0e-6, density=500.0e-9, Ry=24.0)


def _require_finite(*values):
    if not all(math.isfinite(v) for v in values):
        raise ValueError("spec values must be finite")


@dataclass(frozen=True)
class CantileverSpec:
    """Straight cantilever along +x, fully fixed at the origin, loaded
    vertically downward at the free tip."""

    length: float = 1000.0  # mm
    diameter: float = 20.0  # mm
    tip_force: float = 264.777  # N, applied as -z
    n_elements: int = 1

    def __post_init__(self):
        _require_finite(self.length, self.diameter, self.tip_force)
        if self.length <= 0 or self.diameter <= 0 or self.n_elements < 1:
            raise ValueError("cantilever spec values must be positive")


def gen_cantilever(spec: CantileverSpec = CantileverSpec()) -> StructuralModel:
    model = StructuralModel(comment="generated - cantilever")
    n = spec.n_elements
    for i in range(n + 1):
        model.points.append(Point(id=i, coords=(spec.length * i / n, 0.0, 0.0)))
    model.points[0].constraint_mask[:] = True
    for i in range(n):
        model.cells.append(Cell(id=i, connectivity=(i, i + 1), cs_id=2, mat_id=1))
    model.cross_sections[2] = CrossSection(id=2, shape=Circle(diameter=spec.diameter))
    model.materials[1] = Material(id=1, **STEEL)
    if spec.tip_force != 0.0:
        model.bcs[1] = BoundaryConditionEntry(
            id=1, components=(0.0, 0.0, -spec.tip_force, 0.0, 0.0, 0.0)
        )
        model.points[n].bc_id = 1
    raise_first(validate(model).defects or solvability_findings(model), ValueError)
    return model


@dataclass(frozen=True)
class LeonardoSpec:
    """Planar self-supporting arch of interleaved straight beams.

    Stations sit on a parabolic arc; odd stations drop by ``row_offset`` so
    that the straight longitudinal members (station j to j+2) of the two rows
    cross each other, tied at the stations by short bearer members.
    ``n_segments`` counts the longitudinal members; odd values give a
    mirror-symmetric arch.  The closed variant carries the two bottom chords
    that close the end panels; the open variant omits them; closed_mobile
    additionally frees the horizontal DOF of the second support.
    """

    span: float = 35000.0  # mm
    height: float = 13000.0  # mm
    n_segments: int = 7
    beam_width: float = 200.0  # mm
    beam_height: float = 300.0  # mm
    variant: str = "closed"
    roof_dead_load: float = 5000.0  # N per loaded node, downward
    snow_load: float = 3000.0  # N per loaded node, downward
    row_offset: float | None = None  # default: one beam height

    def __post_init__(self):
        if self.n_segments < 3:
            raise ValueError("the arch needs at least 3 segments")
        if self.variant not in ("open", "closed", "closed_mobile"):
            raise ValueError(f"unknown variant {self.variant!r}")
        _require_finite(self.span, self.height, self.beam_width, self.beam_height,
                        self.roof_dead_load, self.snow_load,
                        0.0 if self.row_offset is None else self.row_offset)
        if min(self.span, self.height, self.beam_width, self.beam_height) <= 0:
            raise ValueError("arch dimensions must be positive")


def gen_leonardo(spec: LeonardoSpec = LeonardoSpec()) -> StructuralModel:
    m = spec.n_segments
    n_sta = m + 2
    drop = spec.row_offset if spec.row_offset is not None else spec.beam_height
    model = StructuralModel(comment=f"generated - leonardo arch ({spec.variant})")

    # build coordinates mirror-symmetrically so symmetric specs stay exact
    half = (n_sta - 1) / 2.0
    for j in range(n_sta):
        x = spec.span * j / (n_sta - 1)
        if j > half:
            x = spec.span - spec.span * (n_sta - 1 - j) / (n_sta - 1)
        t = x / spec.span
        z = 4.0 * spec.height * t * (1.0 - t)
        if j % 2 == 1:
            z -= drop
        model.points.append(Point(id=j, coords=(x, 0.0, z)))

    closing = {(0, 2), (m - 1, m + 1)}
    cid = 0
    for j in range(m):  # longitudinal members
        if spec.variant == "open" and (j, j + 2) in closing:
            continue
        model.cells.append(Cell(id=cid, connectivity=(j, j + 2), cs_id=1, mat_id=1))
        cid += 1
    for j in range(n_sta - 1):  # bearers tying the two rows
        model.cells.append(Cell(id=cid, connectivity=(j, j + 1), cs_id=1, mat_id=1))
        cid += 1

    model.cross_sections[1] = CrossSection(
        id=1, shape=Rectangle(width=spec.beam_width, height=spec.beam_height)
    )
    model.materials[1] = Material(id=1, **TIMBER)

    model.points[0].constraint_mask[:] = True
    model.points[n_sta - 1].constraint_mask[:] = True
    if spec.variant == "closed_mobile":
        model.points[n_sta - 1].constraint_mask[0] = False  # mobile support: ux free

    load = spec.roof_dead_load + spec.snow_load
    if load != 0.0:
        model.bcs[1] = BoundaryConditionEntry(id=1, components=(0.0, 0.0, -load, 0.0, 0.0, 0.0))
        for j in range(2, n_sta - 2, 2):  # top-chord stations, supports excluded
            model.points[j].bc_id = 1
    raise_first(validate(model).defects or solvability_findings(model), ValueError)
    return model


def full_block_occupancy(nx: int, ny: int, nz: int) -> np.ndarray:
    return np.ones((nx, ny, nz), dtype=bool)


def arch_occupancy(nx: int, ny: int, nz: int, thickness: float = 3.0) -> np.ndarray:
    """Arch-shaped vault: an annular segment in the x-z plane swept along y."""
    cx = (nx - 1) / 2.0
    outer = min(cx, float(nz - 1))
    r = np.array([[math.hypot(i - cx, k) for k in range(nz)] for i in range(nx)]).reshape(nx, 1, nz)
    return np.broadcast_to((outer - thickness <= r) & (r <= outer), (nx, ny, nz)).copy()


@dataclass(frozen=True)
class LatticeSpec:
    """Regular grid of touching spheres homogenized into prismatic beams.

    One node per occupied voxel at the sphere centre, beams between
    face-adjacent voxels, base-plane nodes fully fixed.  Stiffness and
    strength of the homogenized member (A, I, J, E, Ry) are user-supplied;
    the defaults approximate a pair of glued hollow balls.  A nonzero
    ``splash_fraction`` injects detached splash clusters and pendant thin
    arms totalling that fraction of all elements, placed with ``seed`` so
    repair runs recover them exactly.
    """

    occupancy: np.ndarray | None = None  # 3-D bool voxel grid; None: an nx*ny*nz block
    nx: int = 5
    ny: int = 5
    nz: int = 5
    ball_diameter: float = 47.0  # mm
    E: float = 1500.0  # MPa, homogenized
    nu: float = 0.35
    A: float = 144.51  # mm^2
    I: float = 38234.0  # mm^4
    J: float = 76468.0  # mm^4
    Ry: float = 30.0  # MPa
    density: float = 1.03e-6  # kg/mm^3, shell mass smeared over the beam
    splash_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _require_finite(self.ball_diameter, self.E, self.nu, self.A, self.I, self.J,
                        self.Ry, self.density)
        if not (0.0 <= self.splash_fraction <= 0.1):
            raise ValueError("splash_fraction must lie in [0, 0.1]")
        if self.ball_diameter <= 0:
            raise ValueError("ball diameter must be positive")
        if min(self.nx, self.ny, self.nz) < 1:
            raise ValueError("lattice nx, ny and nz must be at least 1")
        if self.seed < 0:
            raise ValueError("lattice seed must be non-negative")


_FACE_DIRS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


def _resolve_occupancy(spec: LatticeSpec) -> np.ndarray:
    """(n, 3) int64 indices of the occupied voxels, sorted lexicographically."""
    if spec.occupancy is None:
        occ = full_block_occupancy(spec.nx, spec.ny, spec.nz)
    else:
        occ = np.asarray(spec.occupancy, dtype=bool)
    if occ.ndim != 3:
        raise ValueError(f"occupancy must be a 3-D boolean array, got {occ.ndim} dimension(s)")
    return np.argwhere(occ)


def _neighbors(voxel):
    i, j, k = voxel
    for di, dj, dk in _FACE_DIRS:
        yield (i + di, j + dj, k + dk)


def _face_pairs(order: np.ndarray) -> np.ndarray:
    """(k, 2) rows of face-adjacent voxels in the sorted (n, 3) voxel array
    ``order``: each voxel with its +x, +y and +z neighbours, in that order."""
    # linear keys in a box one voxel larger than the set, so that no face
    # step wraps onto another row and key order is the sorted voxel order
    dims = order.max(axis=0) - order.min(axis=0) + 2
    keys = np.ravel_multi_index((order - order.min(axis=0)).T, dims)
    target = keys[:, None] + [dims[1] * dims[2], dims[2], 1]
    nb = np.searchsorted(keys, target)
    row, step = np.nonzero(keys[np.minimum(nb, len(keys) - 1)] == target)
    return np.stack([row, nb[row, step]], axis=1)


def _kept(order: np.ndarray, pairs: np.ndarray, keep: np.ndarray):
    """The rows ``keep`` of the sorted voxel array ``order`` and, renumbered,
    its face ``pairs`` among them: the ``_face_pairs`` of those rows."""
    return order[keep], (np.cumsum(keep) - 1)[pairs[keep[pairs].all(axis=1)]]


def _largest_component(order: np.ndarray, pairs: np.ndarray):
    """``_kept`` of the sorted (n, 3) voxels ``order`` and their face pairs:
    the face-connected component with the most voxels, ties going to the one
    holding the smallest voxel."""
    if not len(order):
        return order, pairs
    count, labels = _component_labels(len(order), pairs)
    return _kept(order, pairs, labels == np.argmax(np.bincount(labels, minlength=count)))


def _peel_stable_body(order: np.ndarray, pairs: np.ndarray, k_base: int):
    """``_kept`` of the sorted (n, 3) voxels ``order`` and their face pairs:
    the voxels the dead-arm peel keeps, so injected arms are the only
    pendant material.  Base-plane voxels are protected like supports."""
    alive, _ = _peel(len(order), pairs, order[:, 2] == k_base, 2)
    return _kept(order, pairs, alive)  # a pair survives with both its voxels


def _inject_defects(body: np.ndarray, body_cells: int, spec: LatticeSpec, rng) -> np.ndarray:
    """The sorted (n, 3) voxels ``body``, of ``body_cells`` face pairs, with
    pendant arm chains grown off it and detached splash chains, as one sorted
    array, once the junk reaches splash_fraction of all elements.  Every junk
    voxel touches only its chain predecessor, so removal recovers exactly."""
    body_list = list(map(tuple, body.tolist()))  # tuples: ``admissible`` compares them
    occupied = set(body_list)
    junk = []
    junk_cells = 0
    k_min = int(body[:, 2].min())
    lo = body.min(axis=0) - 5
    hi = body.max(axis=0) + 5
    target = spec.splash_fraction

    def admissible(candidate, predecessor):
        if candidate in occupied or candidate[2] <= k_min:
            return False
        return all(nb not in occupied or nb == predecessor for nb in _neighbors(candidate))

    def grow_chain(start, length):
        chain = []
        cur = start
        for _ in range(length):
            dirs = list(_FACE_DIRS)
            rng.shuffle(dirs)
            for d in dirs:
                nxt = (cur[0] + d[0], cur[1] + d[1], cur[2] + d[2])
                if admissible(nxt, cur):
                    occupied.add(nxt)
                    chain.append(nxt)
                    cur = nxt
                    break
            else:
                break
        return chain

    if target * body_cells < 0.5:  # too small to round to a single element
        return body
    make_arm = True
    attempts = 0
    while junk_cells < target * (body_cells + junk_cells) and attempts < 20000:
        attempts += 1
        if make_arm:
            # elongated pendant chains, one ball thick
            anchor = body_list[int(rng.integers(len(body_list)))]
            chain = grow_chain(anchor, int(rng.integers(2, 6)))
            if chain:
                junk += chain
                junk_cells += len(chain)  # anchor link plus chain-internal links
                make_arm = False
        else:
            start = tuple(int(rng.integers(lo[d], hi[d])) for d in range(3))
            if not admissible(start, None):
                continue
            occupied.add(start)
            chain = grow_chain(start, int(rng.integers(1, 4)))
            if not chain:  # lone voxel would carry no cells; drop it
                occupied.discard(start)
                continue
            junk += [start] + chain
            junk_cells += len(chain)
            make_arm = True
    voxels = np.concatenate([body, np.array(junk, dtype=np.int64).reshape(-1, 3)])
    return voxels[np.lexsort(voxels.T[::-1])]


def gen_sphere_lattice(spec: LatticeSpec = LatticeSpec()) -> StructuralModel:
    order = _resolve_occupancy(spec)
    if not len(order):
        raise ValueError("lattice occupancy is empty")
    if spec.splash_fraction > 0.0:
        body, pairs = _largest_component(order, _face_pairs(order))
        body, pairs = _largest_component(*_peel_stable_body(body, pairs, body[:, 2].min()))
        order = _inject_defects(body, len(pairs), spec, np.random.default_rng(spec.seed))
    k_base = order[:, 2].min()  # junk lies above the body's lowest plane

    ends = _face_pairs(order)
    d = spec.ball_diameter
    base = np.repeat(order[:, 2:] == k_base, 6, axis=1)
    model = StructuralModel(
        comment="generated - sphere lattice",
        points=PointTable(np.arange(len(order)), order * d, base),
        cells=CellTable(np.arange(len(ends)), ends, np.ones(len(ends)), np.ones(len(ends))),
    )

    radius = d / 2.0
    model.cross_sections[1] = CrossSection(
        id=1,
        shape=GenericSection(
            A=spec.A,
            Iy=spec.I,
            Iz=spec.I,
            J=spec.J,
            Wy=spec.I / radius,
            Wz=spec.I / radius,
            Wt=spec.J / radius,
        ),
    )
    model.materials[1] = Material(id=1, E=spec.E, nu=spec.nu, density=spec.density, Ry=spec.Ry)
    raise_first(validate(model).defects, ValueError)  # finite specs can still overflow
    return model
