"""Topological connectivity and the repair suite: duplicate-node merging,
degenerate/duplicate cell removal, detached-component elimination, dead-arm
pruning, support reachability and rigid-link registration.

Repair operations mutate the model in place and return ``(model, report)``;
they keep original entity ids so the reports stay traceable.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .model import DEFAULT_MERGE_TOL, RigidLink, StructuralModel, cell_lengths


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

    def is_empty(self) -> bool:
        return not (
            self.merged_point_pairs
            or self.removed_degenerate_cells
            or self.removed_duplicate_cells
            or self.removed_components
            or self.pruned_arm_points
        )


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


def merge_duplicate_nodes(model: StructuralModel, tol: float = DEFAULT_MERGE_TOL):
    """Merge points lying within ``tol`` of each other (transitive closure).

    The lowest id in each cluster survives and keeps its coordinates; cell
    connectivity and rigid links are rewired, constraint masks OR-combine.
    Raises TopologyError when merged points carry distinct nonzero load ids.
    """
    if tol < 0:
        raise ValueError("merge tolerance must be non-negative")
    ids = np.array([p.id for p in model.points], dtype=np.int64)
    count, labels = _component_labels(len(ids), _close_pairs(model.coords_array(), tol))
    report = RepairReport()
    if count == len(ids):
        return model, report

    survivor = _lowest(labels, count, ids)[labels]
    moved = survivor != ids
    report.merged_point_pairs = sorted(zip(survivor[moved].tolist(), ids[moved].tolist()))

    loads = np.array([p.bc_id for p in model.points], dtype=np.int64)
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
    masks = np.zeros((count, 6), dtype=bool)
    np.logical_or.at(masks, labels, np.array([p.constraint_mask for p in model.points]))

    model.points = [p for p, gone in zip(model.points, moved) if not gone]
    for p, label in zip(model.points, labels[~moved].tolist()):
        p.constraint_mask |= masks[label]
        p.bc_id = int(cluster_load[label])
    remap = dict(zip(ids.tolist(), survivor.tolist()))
    for c in model.cells:
        c.connectivity = (remap[c.connectivity[0]], remap[c.connectivity[1]])

    kept_links = []
    seen_slaves = set()
    for link in model.rigid_links:
        master = remap.get(link.master, link.master)
        slave = remap.get(link.slave, link.slave)
        if master == slave:
            continue  # collapsed by the merge, constraint became trivial
        if slave in seen_slaves:
            raise TopologyError(f"merge leaves point {slave} slave of two rigid links")
        seen_slaves.add(slave)
        kept_links.append(RigidLink(master=master, slave=slave, offset=link.offset))
    model.rigid_links = kept_links
    return model, report


def remove_degenerate_cells(model: StructuralModel, tol: float = DEFAULT_MERGE_TOL):
    """Drop cells shorter than ``tol`` and collapse duplicate connectivity.

    Of several cells joining the same unordered point pair the one with the
    lowest id survives.
    """
    if tol < 0:
        raise ValueError("tolerance must be non-negative")
    report = RepairReport()
    n_before = len(model.cells)
    ids = np.array([c.id for c in model.cells], dtype=np.int64)
    ends = np.sort(np.array([c.connectivity for c in model.cells], dtype=np.int64)
                   .reshape(-1, 2), axis=1)
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

    gone = degenerate.copy()
    gone[duplicate] = True
    model.cells = [c for c, g in zip(model.cells, gone.tolist()) if not g]
    removed = n_before - len(model.cells)
    report.element_removal_fraction = removed / n_before if n_before else 0.0
    return model, report


def _components(model: StructuralModel):
    """Point ids, component count and label per point, and the first-end
    point index of every cell.  Rigid links count as connections, isolated
    points form their own component."""
    ids = np.array([p.id for p in model.points], dtype=np.int64)
    index = model.point_index()
    pairs = [c.connectivity for c in model.cells] + [
        (l.master, l.slave) for l in model.rigid_links if l.master in index and l.slave in index
    ]
    edges = np.array([(index[a], index[b]) for a, b in pairs], dtype=np.intp).reshape(-1, 2)
    count, labels = _component_labels(len(ids), edges)
    return ids, count, labels, edges[: len(model.cells), 0]


def remove_detached_components(model: StructuralModel):
    """Keep only the connected component with the most cells.

    Ties break towards the component containing the lowest point id.  The
    report lists removed components as (cell count, representative point).
    """
    if not model.points:
        raise TopologyError("cannot locate the main body of an empty model")
    ids, count, labels, first_ends = _components(model)
    report = RepairReport()
    if count == 1:
        return model, report

    n_before = len(model.cells)
    cells_in = np.bincount(labels[first_ends], minlength=count)
    lowest_id = _lowest(labels, count, ids)
    main = np.lexsort((lowest_id, -cells_in))[0]
    report.removed_components = [
        (int(cells_in[k]), int(lowest_id[k])) for k in np.argsort(lowest_id) if k != main
    ]
    keep = labels == main
    kept_ids = set(ids[keep].tolist())
    model.points = [p for p, k in zip(model.points, keep) if k]
    model.cells = [c for c, k in zip(model.cells, keep[first_ends]) if k]
    model.rigid_links = [
        l for l in model.rigid_links if l.master in kept_ids and l.slave in kept_ids
    ]
    removed = n_before - len(model.cells)
    report.element_removal_fraction = removed / n_before if n_before else 0.0
    return model, report


def protected_points(model: StructuralModel) -> set:
    """Points that pruning must never remove: supported or loaded ones."""
    return {
        p.id
        for p in model.points
        if p.bc_id != 0 or bool(np.any(p.constraint_mask))
    }


def prune_dead_arms(
    model: StructuralModel,
    max_degree: int = 2,
    protected: set | None = None,
):
    """Peel away thin arms: repeatedly delete unprotected points with at most
    ``max_degree`` incident cells, together with those cells, to a fixpoint.

    The fixpoint is order-independent (degrees only drop as points go), so a
    one-at-a-time recomputation gives the same survivors.  Raises
    TopologyError if peeling would empty the model.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    if protected is None:
        protected = protected_points(model)

    incident = {p.id: set() for p in model.points}
    for c in model.cells:
        a, b = c.connectivity
        incident[a].add(c.id)
        if b != a:
            incident[b].add(c.id)
    cell_by_id = {c.id: c for c in model.cells}

    removed_points = set()
    removed_cells = set()
    queue = deque(
        pid
        for pid, cells in incident.items()
        if pid not in protected and len(cells) <= max_degree
    )
    while queue:
        pid = queue.popleft()
        if pid in removed_points or pid in protected:
            continue
        if len(incident[pid]) > max_degree:
            continue
        removed_points.add(pid)
        for cid in list(incident[pid]):
            if cid in removed_cells:
                continue
            removed_cells.add(cid)
            for other in cell_by_id[cid].connectivity:
                if other == pid or other in removed_points:
                    continue
                incident[other].discard(cid)
                if other not in protected and len(incident[other]) <= max_degree:
                    queue.append(other)
        incident[pid] = set()

    if removed_points and len(removed_points) == len(model.points):
        raise TopologyError("pruning would empty the model")

    report = RepairReport()
    if not removed_points:
        return model, report
    n_before = len(model.cells)
    report.pruned_arm_points = sorted(removed_points)
    model.points = [p for p in model.points if p.id not in removed_points]
    model.cells = [c for c in model.cells if c.id not in removed_cells]
    model.rigid_links = [
        l
        for l in model.rigid_links
        if l.master not in removed_points and l.slave not in removed_points
    ]
    report.element_removal_fraction = (
        len(removed_cells) / n_before if n_before else 0.0
    )
    return model, report


def check_support_reachability(model: StructuralModel):
    """Flag connected components whose fixed-DOF total cannot restrain a rigid
    body (fewer than 6 fixed DOFs, which covers fully unsupported ones).

    Genuine local mechanisms beyond this count survive until factorization,
    which reports the offending DOF.
    """
    ids, count, labels, _ = _components(model)
    masks = np.array([p.constraint_mask for p in model.points], dtype=bool).reshape(-1, 6)
    fixed = np.bincount(labels, weights=masks.sum(axis=1), minlength=count)
    # members of each component as one run of ascending ids
    members = ids[np.lexsort((ids, labels))]
    sizes = np.bincount(labels, minlength=count)
    starts = np.cumsum(sizes) - sizes
    findings = [
        UnsupportedComponent(
            point_ids=members[starts[k] : starts[k] + sizes[k]].tolist(),
            fixed_dof_count=int(fixed[k]),
        )
        for k in np.flatnonzero(fixed < 6)
    ]
    findings.sort(key=lambda f: f.point_ids[0])
    return findings


def make_rigid_link(
    model: StructuralModel,
    master: int,
    slave: int,
    offset=None,
) -> StructuralModel:
    """Register a rigid arm tying the slave's DOFs to the master's.

    Links are single-level: a master may own several slaves, but a slave may
    not act as master (and vice versa), which rules out constraint cycles.
    """
    by_id = model.point_by_id()
    if master not in by_id or slave not in by_id:
        raise TopologyError(f"rigid link references missing point ({master}, {slave})")
    if master == slave:
        raise TopologyError("rigid link master and slave must differ")
    for link in model.rigid_links:
        if link.slave == slave:
            raise TopologyError(f"point {slave} is already slave of a rigid link")
        if link.master == slave or link.slave == master:
            raise TopologyError("rigid links may not chain (slave used as master)")
    if offset is not None:
        offset = np.asarray(offset, dtype=float)
        if offset.shape != (3,) or not np.all(np.isfinite(offset)):
            raise TopologyError("rigid link offset must be a finite 3-vector")
    model.rigid_links.append(RigidLink(master=master, slave=slave, offset=offset))
    return model


def resolve_link_offset(model: StructuralModel, link: RigidLink) -> np.ndarray:
    """Arm vector r for a link; falls back to the point positions."""
    if link.offset is not None:
        return np.asarray(link.offset, dtype=float)
    by_id = model.point_by_id()
    return by_id[link.slave].coords - by_id[link.master].coords
