"""Topological connectivity and the repair suite: duplicate-node merging,
degenerate/duplicate cell removal, detached-component elimination, dead-arm
pruning, rigid-link registration and the solvability findings, whose support
rule flags a component with a rigid motion (about its centroid, the arms in
RMS radii) that moves a slot that stiffness reaches and no restrained slot.

Repair operations mutate the model in place and return ``(model, report)``;
they keep original entity ids so the reports stay traceable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .model import (DEFAULT_MERGE_TOL, DOF_NAMES, Finding, PointTable, RigidLink,
                    StructuralModel, _entries, aim_points, cell_lengths, distinct, frame_findings,
                    isin, link_ends, orientation_points, per_id, point_aims,
                    raise_first, rigid_link_findings, unreached_slots)

# peel points with at most two incident cells: the dead arms of lattice-like models
DEFAULT_PRUNE_DEGREE = 2

# unsupported components listed before the rest are counted: a soup floats every segment
_LISTED_COMPONENTS = 20


class TopologyError(ValueError):
    """Raised when a repair operation cannot be applied."""


@dataclass
class RepairReport:
    """Per-operation record of what a repair removed or merged."""

    # (k, 2) int64 rows (survivor, removed)
    merged_point_pairs: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), np.int64))
    removed_degenerate_cells: list = field(default_factory=list)
    removed_duplicate_cells: list = field(default_factory=list)
    removed_components: list = field(default_factory=list)  # (cell count, representative point)
    pruned_arm_points: list = field(default_factory=list)
    element_removal_fraction: float = 0.0

    def __eq__(self, other):
        """Field by field, the merged pairs by value."""
        if not isinstance(other, RepairReport):
            return NotImplemented
        mine, theirs = (dict(vars(report), merged_point_pairs=None) for report in (self, other))
        return mine == theirs and np.array_equal(self.merged_point_pairs, other.merged_point_pairs)


# Sweep axis: one fixed unit vector normal to no lattice plane, so grid-like
# models do not project many points onto one value.
_SWEEP_AXIS = np.array([1.0, math.sqrt(2.0), math.sqrt(3.0)]) / math.sqrt(6.0)
# sweep candidates tested at a time: each takes about 100 bytes of
# temporaries, so a chunk takes about 0.4 MB
_CHUNK = 1 << 12


def _clusters(coords: np.ndarray, tol: float) -> np.ndarray:
    """The parent array of the clusters of ``coords``: each point names the
    lowest index of its cluster, the points linked by chains of pairs within
    ``tol`` of each other (squared distance <= tol**2).

    Sort-and-sweep along ``_SWEEP_AXIS``: since |d . axis| <= |d|, every close
    pair lies within ``tol`` in projection.  Exact copies, found among the
    points of equal projection, join the first point at their position
    (``_exact_copies``) and stay out of the sweep, so the candidates grow
    linearly with the number of copies.  The window of the other points is
    widened by a few ulps of the largest coordinate so that rounding in the
    projections never drops a pair; the distance test then decides exactly.
    The windows are tested in chunks of about ``_CHUNK`` candidates, cut
    between points, and each chunk's close pairs are hooked into the parent
    array (``_hook``) before the next chunk is tested.
    """
    n = len(coords)
    parent = np.arange(n)
    if n < 2:
        return parent
    # the same rounding for every point, so equal coordinates project equal
    proj = coords[:, 0] * _SWEEP_AXIS[0]
    proj += coords[:, 1] * _SWEEP_AXIS[1]
    proj += coords[:, 2] * _SWEEP_AXIS[2]
    order = np.argsort(proj, kind="stable")
    swept = proj[order]
    del proj
    copies = _exact_copies(coords, order, swept)
    parent[order[copies]] = order[copies - 1]  # a chain from the first at each position
    parent = _jump(parent)
    order = np.delete(order, copies)
    swept = np.delete(swept, copies)
    m = len(order)
    # non-finite coordinates sort to the ends and must not widen every
    # window; the largest finite |x|, with no (n, 3) temporary of them
    finite = np.isfinite(coords)
    scale = max(np.max(coords, where=finite, initial=0.0),
                -np.min(coords, where=finite, initial=0.0))
    del finite
    reach = tol + 32.0 * np.spacing(scale)
    width = np.searchsorted(swept, swept + reach, side="right")
    del swept
    width -= np.arange(1, m + 1)
    total = np.cumsum(width)
    # point boundaries about _CHUNK candidates apart
    cuts = distinct(np.concatenate([[0], np.searchsorted(
        total, np.arange(_CHUNK, total[-1], _CHUNK), side="right"), [m]]))
    del total
    for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        parent = _hook(parent, *_window_pairs(coords, order, width, lo, hi, tol))
    return _jump(parent)


def _exact_copies(coords: np.ndarray, order: np.ndarray, swept: np.ndarray) -> np.ndarray:
    """Sort the points of each run of equal projection ``swept`` in
    ``order``, in place, by their coordinates, the lowest index first among
    equal ones, and return the positions in ``order`` of the points whose
    finite coordinates equal those of the point before them.  NaN and inf
    rows never repeat; points of distinct projections never compare."""
    tied = np.flatnonzero(swept[1:] == swept[:-1])
    if not tied.size:
        return tied
    at = distinct(np.concatenate([tied, tied + 1]))
    points = order[at]
    # by projection first, so each run keeps its positions; stable, so the
    # lowest index leads among equal points
    points = points[np.lexsort((*coords[points].T[::-1], swept[at]))]
    order[at] = points
    ranked = coords[points]
    copy = (ranked[1:] == ranked[:-1]).all(axis=1) & np.isfinite(ranked[1:]).all(axis=1)
    return at[1:][copy]


def _window_pairs(coords, order, width, lo, hi, tol):
    """The close pairs (i, j) among the candidates of the sorted points
    lo..hi-1: each with the ``width`` points after it in ``order``."""
    run = width[lo:hi]
    first = np.repeat(np.arange(lo, hi), run)
    # offset of each candidate inside its point's window, 1-based
    step = np.arange(1, len(first) + 1) - np.repeat(np.cumsum(run) - run, run)
    i, j = order[first], order[first + step]
    d = coords[i]
    d -= coords[j]
    close = np.einsum("ij,ij->i", d, d) <= tol * tol
    return i[close], j[close]


def _hook(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``parent``, in place, with the points a[k] and b[k] joined, for every
    k: min-label hooking of their roots (Shiloach & Vishkin 1982).  Given a
    ``parent`` in which every point names a lower point of its tree or, at
    the root, itself, as ``np.arange`` does, the result is one too, so each
    root is its tree's lowest point.  Only the points of ``a`` and ``b`` and
    their roots are looked up and rewritten, and those points name their
    roots on return, so a call costs by its pairs, not by all the points;
    ``_jump`` makes every point name its root."""
    while True:
        ra, rb = _roots(parent, a), _roots(parent, b)
        parent[a], parent[b] = ra, rb
        joins = ra != rb
        if not joins.any():
            return parent
        ra, rb = ra[joins], rb[joins]
        high = np.maximum(ra, rb)
        np.minimum.at(parent, high, np.minimum(ra, rb))
        del ra, rb
        # the hooked roots name lower roots, hooked or not: pointer jumping
        # over them reaches the new roots in a few rounds, however long the chain
        while not np.array_equal(up := parent[parent[high]], parent[high]):
            parent[high] = up


def _roots(parent: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The root of each of ``points``, followed one step at a time."""
    roots = parent[points]
    while not np.array_equal(up := parent[roots], roots):
        roots = up
    return roots


def _jump(parent: np.ndarray) -> np.ndarray:
    """``parent`` with every point naming the root of its tree."""
    while not np.array_equal(jumped := parent[parent], parent):
        parent = jumped
    return parent


def _labels(parent: np.ndarray):
    """(count, labels) of the trees of a ``parent`` array in which every
    point names its tree's lowest index, as ``_jump`` leaves it.  A running
    count of the roots numbers the trees in the order of their lowest
    index, as ``np.unique(parent)`` would, with no sort."""
    rank = np.cumsum(parent == np.arange(len(parent)))
    rank -= 1
    return (int(rank[-1]) + 1 if len(rank) else 0), rank[parent]


def _lowest(labels: np.ndarray, count: int, values: np.ndarray) -> np.ndarray:
    """Smallest value per component."""
    low = np.full(count, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(low, labels, values)
    return low


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
    count, labels = _labels(_clusters(points.coords, tol))
    report = RepairReport()
    if count == len(ids):
        return model, report

    survivor = _lowest(labels, count, ids)[labels]
    moved = survivor != ids
    pairs = np.stack([survivor[moved], ids[moved]], axis=1)
    report.merged_point_pairs = pairs[np.lexsort(pairs.T[::-1])]  # by survivor, then removed
    del pairs

    loads = points.bc_ids
    loaded = loads != 0
    cluster_load = np.zeros(count, dtype=np.int64)
    cluster_load[labels[loaded]] = loads[loaded]
    clash = loaded & (cluster_load[labels] != loads)
    if clash.any():
        members = labels == labels[clash].min()
        raise TopologyError(
            f"cannot merge points {np.sort(ids[members]).tolist()}: conflicting "
            f"load ids {distinct(loads[members & loaded]).tolist()}"
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
    del labels
    merged = PointTable(ids[~moved], points.coords[~moved], masks[kept], cluster_load[kept])
    raise_first(rigid_link_findings(links, merged), TopologyError)

    model.cells.ends[:] = survivor[_end_rows(model)]
    for cs in point_aims(model).values():
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
    gone = isin(link_ends(model.rigid_links), model.points.ids[~points]).any(axis=1)
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
    """Component count and label per point, and the mask of the components
    that are structure.  Rigid links count as connections, isolated points
    form their own component, and an ``orientation_points`` one is not
    structure."""
    links = model.points.positions(link_ends(model.rigid_links))
    parent = _hook(np.arange(len(model.points)), *_end_rows(model).T)
    count, labels = _labels(_jump(_hook(parent, *links[(links >= 0).all(axis=1)].T)))
    structure = np.ones(count, dtype=bool)
    structure[labels[orientation_points(model)]] = False
    return count, labels, structure


def remove_detached_components(model: StructuralModel):
    """Keep only the connected component with the most cells, and the
    ``orientation_points``, which are neither removed nor reported.  A
    point of a removed component that a Rectangle's ``refNode`` names stays
    as a bare orientation point: without its cells, links and load.

    Ties break towards the component containing the lowest point id.  The
    report lists removed components as (cell count, representative point).
    """
    count, labels, structure = _components(model)
    report = RepairReport()
    if np.count_nonzero(structure) <= 1:
        return model, report

    ids = model.points.ids
    first_ends = model.points.positions(model.cells.ends[:, 0])
    cells_in = np.bincount(labels[first_ends], minlength=count)
    lowest_id = _lowest(labels, count, ids)
    main = np.lexsort((lowest_id, -cells_in, ~structure))[0]
    report.removed_components = [(int(cells_in[k]), int(lowest_id[k]))
                                 for k in np.argsort(lowest_id) if k != main and structure[k]]
    keep = (labels == main) | ~structure[labels]
    aims = aim_points(model) & ~keep
    model.points.bc_ids[aims] = 0
    # links leave with their component, even where both ends are kept aims
    gone = isin(link_ends(model.rigid_links), ids[~keep]).any(axis=1)
    model.rigid_links = [l for l, g in zip(model.rigid_links, gone) if not g]
    return _keep(model, report, keep | aims, keep[first_ends])


def _peel(n: int, ends: np.ndarray, protected: np.ndarray, max_degree: int):
    """Surviving points and cells after peeling: rounds that delete every
    unprotected point with at most ``max_degree`` live incident cells, with
    those cells, each round looking only at the points the last one
    touched.  A cell joining a point to itself counts once."""
    m = len(ends)
    a, b = ends.T
    loop = a == b
    # the incident cells of each point as one CSR row of ``incident``
    at = np.concatenate([a, b[~loop]])
    incident = np.concatenate([np.arange(m), np.flatnonzero(~loop)])[np.argsort(at, kind="stable")]
    degree = np.bincount(at, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(degree)])
    point_alive = np.ones(n, dtype=bool)
    cell_alive = np.ones(m, dtype=bool)
    frontier = np.arange(n)
    while True:
        peel = frontier[point_alive[frontier] & ~protected[frontier]
                        & (degree[frontier] <= max_degree)]
        if not peel.size:
            return point_alive, cell_alive
        point_alive[peel] = False
        cells = distinct(incident[_entries(indptr, peel)[0]])
        cells = cells[cell_alive[cells]]
        cell_alive[cells] = False
        other = ends[cells].ravel()
        other = other[point_alive[other]]
        np.subtract.at(degree, other, 1)
        frontier = distinct(other)


def prune_dead_arms(model: StructuralModel, max_degree: int = DEFAULT_PRUNE_DEGREE):
    """Peel away thin arms: repeatedly delete points with at most
    ``max_degree`` incident cells, together with those cells, to a fixpoint.
    Supported or loaded points, rigid-link ends and the ``aim_points``
    stay; one whose cells all go stays on its own.

    The fixpoint is order-independent (degrees only drop as points go), so
    peeling in rounds gives the same survivors as one point at a time.
    Raises TopologyError if peeling would empty the model.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    points = model.points
    ids = points.ids
    protected = ((points.bc_ids != 0) | points.masks.any(axis=1)
                 | isin(ids, link_ends(model.rigid_links)) | aim_points(model))
    point_alive, cell_alive = _peel(len(ids), _end_rows(model), protected, max_degree)

    report = RepairReport()
    if point_alive.all():
        return model, report
    if not point_alive.any():
        raise TopologyError("pruning would empty the model")
    report.pruned_arm_points = np.sort(ids[~point_alive]).tolist()
    return _keep(model, report, point_alive, cell_alive)


class Unsupported(NamedTuple):
    """Connected components that their supports do not hold, by lowest member
    id: component k has the ids ``members[starts[k]:starts[k] + sizes[k]]``,
    ascending, and in its free motion ``point_ids[k]`` moves most, along ``dofs[k]``."""

    starts: np.ndarray
    sizes: np.ndarray
    members: np.ndarray
    point_ids: np.ndarray
    dofs: np.ndarray


def _gram(lever: np.ndarray, slots: np.ndarray, first: np.ndarray) -> np.ndarray:
    """(k, 6, 6) Gram matrices of the moves of the ``slots`` (n, 6) of the runs
    of points from ``first`` under a rigid motion: (t + lever theta, theta)."""
    moved = lever * slots[:, :3, None]
    gram = np.zeros((len(first), 6, 6))
    gram[:, range(6), range(6)] = np.add.reduceat(slots, first, dtype=float)
    gram[:, :3, 3:] = np.add.reduceat(moved, first)
    gram[:, 3:, :3] = gram[:, :3, 3:].transpose(0, 2, 1)
    gram[:, 3:, 3:] += np.add.reduceat(lever.transpose(0, 2, 1) @ moved, first)
    return gram


def _free_motions(coords, reached, held, sizes):
    """The components, runs of ``sizes`` points, whose ``held`` slots hold fewer rigid
    motions than their ``reached`` ones make (ranks count ``_gram`` eigenvalues above 1e-10
    of the reached largest), and the row and slot of each that move most in a free motion."""
    first, group = np.cumsum(sizes) - sizes, np.repeat(np.arange(len(sizes)), sizes)
    arms = coords - (np.add.reduceat(coords, first) / sizes[:, None])[group]
    radius = np.sqrt(np.add.reduceat(np.einsum("ij,ij->i", arms, arms), first) / sizes)
    radius[radius == 0.0] = 1.0
    # column j of lever is e_j x r, so that lever theta = theta x r
    lever = np.cross(np.eye(3), (arms / radius[group, None])[:, None]).transpose(0, 2, 1)
    reach = np.linalg.eigvalsh(_gram(lever, reached, first))
    tol = 1e-10 * reach[:, -1:]
    lam, vec = np.linalg.eigh(_gram(lever, held, first))
    free = np.flatnonzero((lam > tol).sum(axis=1) < (reach > tol).sum(axis=1))
    # each reached slot's largest move in a unit motion that no held slot
    # makes (one that no reached slot makes moves none), rotations in radians
    # as in K's null vector; the first within rounding of the largest is named
    t, theta = np.split(vec * (lam <= tol)[:, None], 2, axis=1)
    moved = np.concatenate([t[group] + lever @ theta[group],
                            theta[group] / radius[group, None, None]], axis=1)
    moved = reached * np.linalg.norm(moved, axis=2)
    near = moved >= (1.0 - 1e-9) * np.maximum.reduceat(moved.max(axis=1), first)[group, None]
    hit = np.lexsort((~near.ravel(), np.repeat(group, 6)))[6 * first[free]]
    return free, hit // 6, hit % 6


def unsupported_components(model: StructuralModel) -> Unsupported:
    """The components, as arrays, with a rigid motion that moves a slot that stiffness reaches
    and no restrained one (``_free_motions``), except ``orientation_points``; one with no
    restrained slot is named at its lowest point, along ux, without an eigenvalue."""
    count, labels, structure = _components(model)
    points = model.points
    unreached = unreached_slots(model)
    held = points.masks & ~unreached
    restrained = np.bincount(labels, held.any(axis=1), minlength=count) > 0
    # a point that holds its six slots holds every motion: no eigenvalue needed
    ranked = restrained & (np.bincount(labels, held.all(axis=1), minlength=count) == 0)
    sizes = np.bincount(labels, minlength=count)
    # every component as one run of ascending ids, by label
    order = np.lexsort((points.ids, labels))
    rows = order[ranked[labels][order]]
    del labels
    members = points.ids[order]
    del order
    k = np.flatnonzero(ranked)
    free, row, slot = _free_motions(points.coords[rows], ~unreached[rows], held[rows], sizes[k])
    del held, unreached
    flagged = distinct(np.concatenate([np.flatnonzero(structure & ~restrained), k[free]]))
    starts = (np.cumsum(sizes) - sizes)[flagged]
    # by lowest member id; the stable sort keeps label order among equal ids
    by_id = np.argsort(members[starts], kind="stable")
    flagged, starts = flagged[by_id], starts[by_id]
    del by_id
    # a component with no restrained slot is named at its lowest point, along
    # ux; a ranked one, flagged only when free, where it moves most
    point_ids, dofs = members[starts], np.zeros(len(flagged), dtype=np.int64)
    at = np.flatnonzero(ranked[flagged])
    named = np.searchsorted(k[free], flagged[at])
    point_ids[at], dofs[at] = points.ids[rows[row[named]]], slot[named]
    return Unsupported(starts, sizes[flagged], members, point_ids, dofs)


def check_support_reachability(model: StructuralModel) -> list:
    """The support findings of ``solvability_findings``: the first 20
    ``unsupported_components``, then a count of the rest."""
    starts, sizes, members, point_ids, dofs = unsupported_components(model)
    listed = (v[:_LISTED_COMPONENTS].tolist() for v in (starts, sizes, point_ids, dofs))
    findings = [Finding("unsupported-component",
                        f"points {members[a : a + k][:8].tolist()} have a free rigid motion, "
                        f"largest at point {pid} dof {DOF_NAMES[dof]}")
                for a, k, pid, dof in zip(*listed)]
    more = len(starts) - _LISTED_COMPONENTS
    return findings + [Finding("unsupported-component",
                               f"{more} more component(s) have a free rigid motion")] * (more > 0)


def solvability_findings(model: StructuralModel) -> list:
    """What keeps a model that ``validate`` passes from being solved, decided
    here alone, in the order assembly meets it: the support findings
    (``check_support_reachability``), the ``frame_findings`` and nonzero
    loads on the unsupported ``unreached_slots``."""
    findings = check_support_reachability(model) + frame_findings(model)
    points = model.points
    loaded = np.flatnonzero(points.bc_ids != 0)
    if not loaded.size:  # no moment finding, and no second ``unreached_slots``
        return findings
    loads = per_id(points.bc_ids[loaded], lambda i: model.bcs[i].components, 6)
    rows, dofs = np.nonzero((loads != 0.0) & (unreached_slots(model) & ~points.masks)[loaded])
    return findings + [Finding("rotation-free-moment",
                               f"moment load on rotation-free point {pid} ({DOF_NAMES[dof]})")
                       for pid, dof in zip(points.ids[loaded[rows]].tolist(), dofs.tolist())]


def make_rigid_link(model: StructuralModel, master: int, slave: int, offset=None):
    """Register a rigid arm tying the slave's DOFs to the master's.

    Links are single-level: a master may own several slaves, but a slave may
    not act as master (and vice versa), which rules out constraint cycles.
    Raises TopologyError when the links with the new one would break the
    rigid-link rule (``rigid_link_findings``).
    """
    link = RigidLink(master=master, slave=slave, offset=offset)
    raise_first(rigid_link_findings(model.rigid_links + [link], model.points), TopologyError)
    model.rigid_links.append(link)
    return model
