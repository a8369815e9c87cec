"""Topological connectivity and the repair suite: duplicate-node merging,
degenerate/duplicate cell removal, detached-component elimination, dead-arm
pruning, support reachability and rigid-link registration.

Repair operations mutate the model in place and return ``(model, report)``;
they keep original entity ids so the reports stay traceable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .model import (DEFAULT_MERGE_TOL, PointTable, RigidLink, StructuralModel, aim_points,
                    cell_lengths, link_ends, orientation_points, point_aims,
                    rigid_link_findings)

# peel points with at most two incident cells: the dead arms of lattice-like models
DEFAULT_PRUNE_DEGREE = 2


class TopologyError(ValueError):
    """Raised when a repair operation cannot be applied."""


@dataclass
class RepairReport:
    """Per-operation record of what a repair removed or merged."""

    merged_point_pairs: list = field(default_factory=list)  # (survivor, removed)
    removed_degenerate_cells: list = field(default_factory=list)
    removed_duplicate_cells: list = field(default_factory=list)
    removed_components: list = field(default_factory=list)  # (cell count, representative point)
    pruned_arm_points: list = field(default_factory=list)
    element_removal_fraction: float = 0.0


@dataclass
class UnsupportedComponent:
    point_ids: list
    fixed_dof_count: int


# Sweep axis: one fixed unit vector normal to no lattice plane, so grid-like
# models do not project many points onto one value.
_SWEEP_AXIS = np.array([1.0, math.sqrt(2.0), math.sqrt(3.0)]) / math.sqrt(6.0)


def _close_pairs(coords: np.ndarray, tol: float) -> np.ndarray:
    """(m, 2) index pairs within ``tol`` of each other, enough to join every
    cluster of such points into one connected component.

    Exact duplicate coordinates are collapsed first: each copy pairs with
    the first point at its position only, so m grows linearly with the
    number of copies.  The distinct positions go through the sweep.
    """
    if len(coords) < 2:
        return np.zeros((0, 2), dtype=np.intp)
    copies = _exact_copies(coords)
    distinct = np.ones(len(coords), dtype=bool)
    distinct[copies[:, 1]] = False
    distinct = np.flatnonzero(distinct)
    return np.concatenate([copies, distinct[_swept_pairs(coords[distinct], tol)]])


def _exact_copies(coords: np.ndarray) -> np.ndarray:
    """(k, 2) pairs (first, copy) from one lexsort: every point whose finite
    coordinates equal those of an earlier point in sorted order, paired with
    the first point at that position.  NaN and inf rows never repeat."""
    n = len(coords)
    order = np.lexsort(coords.T[::-1])
    ranked = coords[order]
    copy = np.zeros(n, dtype=bool)
    copy[1:] = (ranked[1:] == ranked[:-1]).all(axis=1) & np.isfinite(ranked[1:]).all(axis=1)
    first = order[np.maximum.accumulate(np.where(copy, 0, np.arange(n)))]
    return np.stack([first[copy], order[copy]], axis=1)


def _swept_pairs(coords: np.ndarray, tol: float) -> np.ndarray:
    """(m, 2) index pairs i != j with squared distance <= tol**2.

    Sort-and-sweep along ``_SWEEP_AXIS``: since |d . axis| <= |d|, every close
    pair lies within ``tol`` in projection.  The window is widened by a few
    ulps of the largest coordinate so that rounding in the projections never
    drops a pair; the distance test then decides exactly.
    """
    n = len(coords)
    if n < 2:
        return np.zeros((0, 2), dtype=np.intp)
    proj = coords @ _SWEEP_AXIS
    order = np.argsort(proj, kind="stable")
    swept = proj[order]
    # non-finite coordinates sort to the ends and must not widen every window
    scale = np.max(np.abs(coords), where=np.isfinite(coords), initial=0.0)
    reach = tol + 32.0 * np.spacing(scale)
    width = np.searchsorted(swept, swept + reach, side="right") - np.arange(1, n + 1)
    first = np.repeat(np.arange(n), width)
    # offset of each candidate inside its point's window, 1-based
    step = np.arange(1, len(first) + 1) - np.repeat(np.cumsum(width) - width, width)
    i, j = order[first], order[first + step]
    d = coords[i]
    d -= coords[j]
    close = np.einsum("ij,ij->i", d, d) <= tol * tol
    return np.stack([i[close], j[close]], axis=1)


def _component_labels(n: int, edges: np.ndarray):
    """(count, labels) of the connected components of ``n`` points joined by
    an (m, 2) edge array of point indices.  Labels number the components in
    the order of their lowest point index: min-label hooking with full pointer
    jumping (Shiloach & Vishkin 1982) makes each root its tree's lowest index."""
    parent = np.arange(n)
    a, b = edges.T
    while (joins := parent[a] != parent[b]).any():
        ra, rb = parent[a[joins]], parent[b[joins]]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(jumped := parent[parent], parent):
            parent = jumped
    roots, labels = np.unique(parent, return_inverse=True)
    return len(roots), labels


def _lowest(labels: np.ndarray, count: int, values: np.ndarray) -> np.ndarray:
    """Smallest value per component."""
    low = np.full(count, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(low, labels, values)
    return low


def _raise_broken_links(links, points: PointTable):
    """Raise TopologyError with the first break of the rigid-link rule."""
    findings = rigid_link_findings(links, points)
    if findings:
        raise TopologyError(findings[0].message)


def _end_rows(model: StructuralModel) -> np.ndarray:
    """(m, 2) point rows of the cell ends; raises TopologyError for an end
    that names no point."""
    rows = model.points.positions(model.cells.ends)
    if np.any(rows < 0):
        raise TopologyError("cells reference points that are not in the model")
    return rows


def merge_duplicate_nodes(model: StructuralModel, tol: float = DEFAULT_MERGE_TOL):
    """Merge points lying within ``tol`` of each other (transitive closure).

    The lowest id in each cluster survives and keeps its coordinates; cell
    connectivity, rigid links and a Rectangle's point-id ``refNode`` are
    rewired, constraint masks OR-combine.  Raises TopologyError when merged
    points carry distinct nonzero load ids, or when the rewired links and
    masks break the rigid-link rule.
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"merge tolerance must be finite and non-negative, got {tol:g}")
    points = model.points
    ids = points.ids
    count, labels = _component_labels(len(ids), _close_pairs(points.coords, tol))
    report = RepairReport()
    if count == len(ids):
        return model, report

    survivor = _lowest(labels, count, ids)[labels]
    moved = survivor != ids
    report.merged_point_pairs = sorted(zip(survivor[moved].tolist(), ids[moved].tolist()))

    loads = points.bc_ids
    loaded = loads != 0
    cluster_load = np.zeros(count, dtype=np.int64)
    cluster_load[labels[loaded]] = loads[loaded]
    clash = loaded & (cluster_load[labels] != loads)
    if clash.any():
        members = labels == labels[clash].min()
        raise TopologyError(
            f"cannot merge points {np.sort(ids[members]).tolist()}: conflicting "
            f"load ids {np.unique(loads[members & loaded]).tolist()}"
        )
    ends = link_ends(model.rigid_links)
    rows = points.positions(ends)
    ends = np.where(rows >= 0, survivor[rows], ends).tolist()
    # a link whose ends merged into one point constrains nothing
    links = [RigidLink(master=m, slave=s, offset=l.offset)
             for l, (m, s) in zip(model.rigid_links, ends) if m != s]
    masks = np.zeros((count, 6), dtype=bool)
    np.logical_or.at(masks, labels, points.masks)
    kept = labels[~moved]
    merged = PointTable(ids[~moved], points.coords[~moved], masks[kept], cluster_load[kept])
    _raise_broken_links(links, merged)

    model.cells.ends[:] = survivor[_end_rows(model)]
    for cs in point_aims(model):
        row = points.positions([cs.shape.ref_code])[0]
        if row >= 0:
            cs.shape = replace(cs.shape, ref_code=int(survivor[row]))
    model.points = merged
    model.rigid_links = links
    return model, report


def _keep(model: StructuralModel, report: RepairReport, points: np.ndarray, cells: np.ndarray):
    """Keep the points and cells under the two masks, and the rigid links
    with no end among the points that leave; records the fraction of cells
    removed in ``report``."""
    n_before = len(model.cells)
    gone = np.isin(link_ends(model.rigid_links), model.points.ids[~points]).any(axis=1)
    model.rigid_links = [l for l, g in zip(model.rigid_links, gone) if not g]
    model.points = model.points.take(points)
    model.cells = model.cells.take(cells)
    report.element_removal_fraction = (n_before - len(model.cells)) / n_before if n_before else 0.0
    return model, report


def remove_degenerate_cells(model: StructuralModel, tol: float = DEFAULT_MERGE_TOL):
    """Drop cells shorter than ``tol`` and collapse duplicate connectivity.

    Of several cells joining the same unordered point pair the one with the
    lowest id survives.
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"degenerate-cell tolerance must be finite and non-negative, got {tol:g}")
    report = RepairReport()
    ids = model.cells.ids
    ends = np.sort(model.cells.ends, axis=1)
    degenerate = (ends[:, 0] == ends[:, 1]) | (cell_lengths(model) <= tol)
    report.removed_degenerate_cells = ids[degenerate].tolist()

    # the other cells by ascending id, then by end pair: a stable sort keeps
    # the lowest id first among equal pairs
    by_id = np.flatnonzero(~degenerate)
    by_id = by_id[np.argsort(ids[by_id], kind="stable")]
    pairs = ends[by_id]
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    repeat = np.zeros(len(order), dtype=bool)
    repeat[1:] = (pairs[order[1:]] == pairs[order[:-1]]).all(axis=1)
    duplicate = by_id[np.sort(order[repeat])]
    report.removed_duplicate_cells = ids[duplicate].tolist()

    degenerate[duplicate] = True  # now every cell that goes
    return _keep(model, report, np.ones(len(model.points), dtype=bool), ~degenerate)


def _components(model: StructuralModel):
    """Component count and label per point, the first-end point row of every
    cell, and the mask of the components that are structure.  Rigid links
    count as connections, isolated points form their own component, and an
    ``orientation_points`` one is not structure."""
    ends = _end_rows(model)
    links = model.points.positions(link_ends(model.rigid_links))
    edges = np.concatenate([ends, links[(links >= 0).all(axis=1)]])
    count, labels = _component_labels(len(model.points), edges)
    structure = np.ones(count, dtype=bool)
    structure[labels[orientation_points(model)]] = False
    return count, labels, ends[:, 0], structure


def remove_detached_components(model: StructuralModel):
    """Keep only the connected component with the most cells, and the
    ``orientation_points``, which are neither removed nor reported.  A
    point of a removed component that a Rectangle's ``refNode`` names stays
    as a bare orientation point: without its cells, links and load.

    Ties break towards the component containing the lowest point id.  The
    report lists removed components as (cell count, representative point).
    """
    if not len(model.points):
        raise TopologyError("cannot locate the main body of an empty model")
    count, labels, first_ends, structure = _components(model)
    report = RepairReport()
    if np.count_nonzero(structure) <= 1:
        return model, report

    ids = model.points.ids
    cells_in = np.bincount(labels[first_ends], minlength=count)
    lowest_id = _lowest(labels, count, ids)
    main = np.lexsort((lowest_id, -cells_in, ~structure))[0]
    report.removed_components = [(int(cells_in[k]), int(lowest_id[k]))
                                 for k in np.argsort(lowest_id) if k != main and structure[k]]
    keep = (labels == main) | ~structure[labels]
    aims = aim_points(model) & ~keep
    model.points.bc_ids[aims] = 0
    # links leave with their component, even where both ends are kept aims
    gone = np.isin(link_ends(model.rigid_links), ids[~keep]).any(axis=1)
    model.rigid_links = [l for l, g in zip(model.rigid_links, gone) if not g]
    return _keep(model, report, keep | aims, keep[first_ends])


def protected_points(model: StructuralModel) -> np.ndarray:
    """Mask of the points that pruning must never remove: supported or
    loaded ones, rigid-link ends and the ``aim_points``."""
    points = model.points
    return ((points.bc_ids != 0) | points.masks.any(axis=1)
            | np.isin(points.ids, link_ends(model.rigid_links)) | aim_points(model))


def _peel(n: int, ends: np.ndarray, protected: np.ndarray, max_degree: int):
    """Surviving points and cells after peeling: rounds that delete every
    unprotected point with at most ``max_degree`` live incident cells, with
    those cells, each round looking only at the points the last one
    touched.  A cell joining a point to itself counts once."""
    m = len(ends)
    a, b = ends.T
    loop = a == b
    # the incident cells of each point as one run of ``incident``
    at = np.concatenate([a, b[~loop]])
    incident = np.concatenate([np.arange(m), np.flatnonzero(~loop)])[np.argsort(at, kind="stable")]
    run = np.bincount(at, minlength=n)
    start = np.cumsum(run) - run
    degree = run.copy()
    point_alive = np.ones(n, dtype=bool)
    cell_alive = np.ones(m, dtype=bool)
    frontier = np.arange(n)
    while True:
        peel = frontier[point_alive[frontier] & ~protected[frontier]
                        & (degree[frontier] <= max_degree)]
        if not peel.size:
            return point_alive, cell_alive
        point_alive[peel] = False
        lengths = run[peel]
        offsets = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        cells = np.unique(incident[np.repeat(start[peel], lengths) + offsets])
        cells = cells[cell_alive[cells]]
        cell_alive[cells] = False
        other = ends[cells].ravel()
        other = other[point_alive[other]]
        np.subtract.at(degree, other, 1)
        frontier = np.unique(other)


def prune_dead_arms(model: StructuralModel, max_degree: int = DEFAULT_PRUNE_DEGREE):
    """Peel away thin arms: repeatedly delete points with at most
    ``max_degree`` incident cells, together with those cells, to a fixpoint.
    The ``protected_points`` stay; one whose cells all go stays on its own.

    The fixpoint is order-independent (degrees only drop as points go), so
    peeling in rounds gives the same survivors as one point at a time.
    Raises TopologyError if peeling would empty the model.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    ids = model.points.ids
    protected = protected_points(model)
    point_alive, cell_alive = _peel(len(ids), _end_rows(model), protected, max_degree)

    report = RepairReport()
    if point_alive.all():
        return model, report
    if not point_alive.any():
        raise TopologyError("pruning would empty the model")
    report.pruned_arm_points = np.sort(ids[~point_alive]).tolist()
    return _keep(model, report, point_alive, cell_alive)


def check_support_reachability(model: StructuralModel):
    """Flag connected components whose fixed-DOF total cannot restrain a rigid
    body (fewer than 6 fixed DOFs, which covers fully unsupported ones).

    Genuine local mechanisms beyond this count survive until factorization,
    which reports the offending DOF.  ``orientation_points`` are exempt.
    """
    count, labels, _, structure = _components(model)
    ids = model.points.ids
    fixed = np.bincount(labels, weights=model.points.masks.sum(axis=1), minlength=count)
    # members of each component as one run of ascending ids
    members = ids[np.lexsort((ids, labels))]
    sizes = np.bincount(labels, minlength=count)
    starts = np.cumsum(sizes) - sizes
    findings = [
        UnsupportedComponent(
            point_ids=members[starts[k] : starts[k] + sizes[k]].tolist(),
            fixed_dof_count=int(fixed[k]),
        )
        for k in np.flatnonzero((fixed < 6) & structure)
    ]
    findings.sort(key=lambda f: f.point_ids[0])
    return findings


def make_rigid_link(model: StructuralModel, master: int, slave: int, offset=None):
    """Register a rigid arm tying the slave's DOFs to the master's.

    Links are single-level: a master may own several slaves, but a slave may
    not act as master (and vice versa), which rules out constraint cycles.
    Raises TopologyError when the links with the new one would break the
    rigid-link rule (``rigid_link_findings``).
    """
    link = RigidLink(master=master, slave=slave, offset=offset)
    _raise_broken_links(model.rigid_links + [link], model.points)
    model.rigid_links.append(link)
    return model
