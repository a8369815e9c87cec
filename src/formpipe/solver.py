"""Linear static analysis of 3D beam/truss line models.

Elements are 2-node Euler-Bernoulli space beams (cubic bending, linear axial
and torsion interpolation, no shear deformation) and axial-only trusses.
Nodal DOFs are ordered (ux, uy, uz, rx, ry, rz); element vectors stack end A
then end B.

One array kernel computes every element quantity for all cells at once: end
point indices, local triads (m, 3, 3), local stiffness (m, 12, 12),
self-weight fixed-end loads and the section and material values, each
catalog entry evaluated once.  Assembly, force recovery and the resistance
ratio read these arrays; rotations act as batched 3x3 block products.

Local axes: x runs along the element.  By default local z is the global Z
projected perpendicular to the element axis; members within 1e-6 of vertical
fall back to global X as reference.  Rectangle sections may override the rule
through their reference direction, which then pins the named local axis.

Self-weight enters as a uniform line load rho*g*A with consistent equivalent
nodal forces; the fixed-end actions are subtracted again during force
recovery.

Supports, the rotations of points reached only by trusses, and rigid links
(u_s = u_m + theta_m x r) form one sparse transformation T from the 6n nodal
slots onto [free; fixed] DOFs.  T^T K_6n T holds the reduced stiffness and
the reaction rows, and T^T F_6n the two load vectors.  This is master-slave
elimination (Felippa, Introduction to FEM, MultiFreedom Constraints; Cook et
al., Concepts and Applications of FEA, section 9); it keeps K symmetric
positive definite, and K stores no exact zeros.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .model import (
    DOF_NAMES,
    GRAVITY,
    KG_MM_S2_TO_N,
    Rectangle,
    StructuralModel,
    per_id,
    cell_properties,
    link_ends,
    orientation_points,
    rigid_link_findings,
    validate,
)
from .topology import check_support_reachability

_VERTICAL_TOL = 1e-6
# Direct solves refine towards the residual target and are accepted on the
# backward error, 3e-18 to 8e-18 on arches of 6.8k to 37.7k equations.
_REFINE_RESIDUAL = 1e-10
_DIRECT_BACKWARD_TOL = 1e-13
_MAX_REFINEMENTS = 5
_DIRECT_ORDERING = "BFS_LEVELS"
_SGS_ORDERING = "NATURAL"  # tril(K) is already triangular

_FIXED = -1
_SLAVE = -2
_INACTIVE = -3


class SolverError(RuntimeError):
    """Raised when a model cannot be assembled or solved."""


class MechanismError(SolverError):
    """Singular stiffness: an under-constrained DOF admits rigid motion."""

    def __init__(self, message, point_id=None, dof=None):
        super().__init__(message)
        self.point_id = point_id
        self.dof = dof


class ConvergenceError(SolverError):
    """Iterative solver failed to reach the requested residual."""


@dataclass
class SolveStats:
    """What a solve did.  ``relative_residual`` is the solver's own stopping
    measure (the true residual for direct, the preconditioned one for PCG);
    ``true_residual`` is ||K u - f|| / ||f|| for both, ``backward_error``
    the normwise ||K u - f||_inf / (||K||_inf ||u||_inf + ||f||_inf).  The factor entries
    describe the factor a solve runs on: for direct, the level-set block
    Cholesky factor of K (``_LevelCholesky``); for PCG, the SuperLU factor
    of tril(K)."""

    method: str
    iterations: int
    relative_residual: float
    wall_time: float
    true_residual: float = 0.0
    backward_error: float = 0.0
    ordering: str = "none"  # BFS_LEVELS for direct, SuperLU's NATURAL for PCG
    # stored entries: for direct, the dense blocks L_i^-1 and C_i of every
    # level; for PCG, what SuperLU stores for L and U, the zeros inside its
    # supernodes included (lu.L.nnz + lu.U.nnz would copy the factor out)
    factor_nnz: int = 0
    factor_time: float = 0.0


@dataclass
class DofMap:
    """Equation numbering of the 6n nodal slots and the constraint
    transformation it defines.  ``state`` marks each slot free (its
    equation index), fixed, slave or inactive; equations run over the free
    slots in point order, then DOF order."""

    point_ids: np.ndarray  # (n,) point id of each row
    state: np.ndarray  # (n, 6) int: >=0 equation index, else _FIXED/_SLAVE/_INACTIVE
    fixed_slot: np.ndarray  # (n, 6) int: >=0 reaction row, -1 otherwise
    n_eq: int
    n_fixed: int
    # T, (6n, n_eq + n_fixed), u_6n = T [u_free; u_fixed]
    transformation: sp.csr_matrix


@dataclass
class LinearSystem:
    """Reduced symmetric system plus the bookkeeping for reactions.

    ``reaction_matrix`` holds the fixed-slot rows of the full stiffness
    against the free columns, so reactions follow as K_cf u - f_c once the
    free displacements are known.  ``applied_loads`` keeps the physical
    per-point load resultants (nodal loads plus self-weight equivalents)
    before any rigid-link remapping.
    """

    K: sp.csr_matrix
    f: np.ndarray
    reaction_matrix: sp.csr_matrix
    reaction_rhs: np.ndarray
    dofmap: DofMap
    applied_loads: np.ndarray  # (n_points, 6)


def _axis_from_code(code: int) -> np.ndarray:
    axis = abs(code) - 1
    if axis not in (0, 1, 2):
        raise SolverError(f"bad global axis code {code} in section orientation")
    e = np.zeros(3)
    e[axis] = 1.0 if code > 0 else -1.0
    return e


def _section_references(model, cs_ids, xa):
    """Per-cell reference directions pinned by rectangle orientation specs.

    Returns (ref (m, 3), pinned (m,), pins_y (m,)); unpinned cells follow
    the default axis rule.
    """
    m = len(cs_ids)
    ref = np.zeros((m, 3))
    pinned = np.zeros(m, dtype=bool)
    pins_y = np.zeros(m, dtype=bool)
    for cs_id in np.unique(cs_ids).tolist():
        shape = model.cross_sections[cs_id].shape
        if not isinstance(shape, Rectangle) or shape.ref_axis is None:
            continue
        sel = cs_ids == cs_id
        code = shape.ref_code
        if code < 0:
            ref[sel] = _axis_from_code(code)
        elif (row := model.points.positions([code])[0]) >= 0:
            ref[sel] = model.points.coords[row] - xa[sel]
        else:
            raise SolverError(f"section reference point {code} does not exist")
        pinned[sel] = True
        pins_y[sel] = shape.ref_axis == "y"
    return ref, pinned, pins_y


def _triads(dx, ref, pinned, pins_y):
    """Local triads (m, 3, 3), rows [ex, ey, ez], and lengths of elements dx.

    Unpinned elements follow the default axis rule; pinned ones project
    ``ref`` onto local y where ``pins_y`` is set, else onto local z.
    """
    L = np.linalg.norm(dx, axis=1)
    if np.any(L == 0.0):
        raise SolverError("zero-length cell")
    ex = dx / L[:, None]
    vertical = np.linalg.norm(np.cross(ex, [0.0, 0.0, 1.0]), axis=1) < _VERTICAL_TOL
    default = np.where(vertical[:, None], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    norm = np.linalg.norm(ref, axis=1)
    if np.any(pinned & (norm == 0.0)):
        raise SolverError("zero reference direction for element orientation")
    ref = np.where(pinned[:, None], ref / np.where(pinned, norm, 1.0)[:, None], default)
    proj = ref - np.einsum("ij,ij->i", ref, ex)[:, None] * ex
    norm = np.linalg.norm(proj, axis=1)
    if np.any(norm < 1e-12):
        raise SolverError("reference direction is parallel to the element axis")
    axis = proj / norm[:, None]
    ey = np.where(pins_y[:, None], axis, np.cross(axis, ex))
    ez = np.where(pins_y[:, None], np.cross(ex, axis), axis)
    return np.stack([ex, ey, ez], axis=1), L


def _local_stiffness(E, G, A, Iy, Iz, J, L):
    """Local 12x12 stiffness of each element; trusses pass Iy = Iz = J = 0."""
    k = np.zeros(np.shape(L) + (12, 12))
    ea = E * A / L
    gj = G * J / L
    k[..., 0, 0] = k[..., 6, 6] = ea
    k[..., 0, 6] = k[..., 6, 0] = -ea
    k[..., 3, 3] = k[..., 9, 9] = gj
    k[..., 3, 9] = k[..., 9, 3] = -gj
    # bending in the x-y plane (v along local y, rotation rz)
    a = 12.0 * E * Iz / L**3
    b = 6.0 * E * Iz / L**2
    c = 4.0 * E * Iz / L
    d = 2.0 * E * Iz / L
    k[..., 1, 1] = k[..., 7, 7] = a
    k[..., 1, 7] = k[..., 7, 1] = -a
    k[..., 1, 5] = k[..., 5, 1] = k[..., 1, 11] = k[..., 11, 1] = b
    k[..., 5, 7] = k[..., 7, 5] = k[..., 7, 11] = k[..., 11, 7] = -b
    k[..., 5, 5] = k[..., 11, 11] = c
    k[..., 5, 11] = k[..., 11, 5] = d
    # bending in the x-z plane (w along local z, rotation ry = -w')
    a = 12.0 * E * Iy / L**3
    b = 6.0 * E * Iy / L**2
    c = 4.0 * E * Iy / L
    d = 2.0 * E * Iy / L
    k[..., 2, 2] = k[..., 8, 8] = a
    k[..., 2, 8] = k[..., 8, 2] = -a
    k[..., 2, 4] = k[..., 4, 2] = k[..., 2, 10] = k[..., 10, 2] = -b
    k[..., 4, 8] = k[..., 8, 4] = k[..., 8, 10] = k[..., 10, 8] = b
    k[..., 4, 4] = k[..., 10, 10] = c
    k[..., 4, 10] = k[..., 10, 4] = d
    return k


@dataclass
class _Elements:
    """Element arrays over m cells, in cell order."""

    ends: np.ndarray  # (m, 2) int32 point indices
    R: np.ndarray  # (m, 3, 3) local triads, rows ex, ey, ez
    k: np.ndarray  # (m, 12, 12) local stiffness
    f: np.ndarray  # (m, 12) self-weight equivalent nodal loads, local axes


def _elements(model: StructuralModel) -> _Elements:
    """Element arrays of every cell in one pass."""
    cells, coords = model.cells, model.points.coords
    ends = model.points.positions(cells.ends).astype(np.int32)
    if np.any(ends < 0):
        raise SolverError("cells reference points that are not in the model")
    beam = ~cells.truss
    props = cell_properties(model)
    xa = coords[ends[:, 0]]
    R, L = _triads(coords[ends[:, 1]] - xa, *_section_references(model, cells.cs_ids, xa))
    bending = np.where(beam, 1.0, 0.0)
    k = _local_stiffness(props.E, props.G, props.A, props.Iy * bending,
                         props.Iz * bending, props.J * bending, L)

    f = np.zeros((len(cells), 12))
    if model.self_weight_enabled:
        w = np.where(props.density > 0.0, props.density * props.A, 0.0)
        q_global = w[:, None] * GRAVITY * KG_MM_S2_TO_N  # N/mm
        qx, qy, qz = (R @ q_global[:, :, None])[:, :, 0].T
        half = L / 2.0
        f[:, 0] = f[:, 6] = qx * half
        f[:, 1] = f[:, 7] = qy * half
        f[:, 2] = f[:, 8] = qz * half
        moment = np.where(beam, L**2 / 12.0, 0.0)
        f[:, 4] = -qz * moment
        f[:, 10] = qz * moment
        f[:, 5] = qy * moment
        f[:, 11] = -qy * moment
    return _Elements(ends=ends, R=R, k=k, f=f)


def _global_stiffness(el: _Elements) -> np.ndarray:
    """R^T k R for each element, (m, 12, 12), as batched 3x3 block products
    over slices of 1024 elements, so the intermediate k R stays small."""
    out = np.empty_like(el.k)
    for s in range(0, len(out), 1024):
        R = el.R[s : s + 1024]
        n = len(R)
        kR = el.k[s : s + n].reshape(n, 12, 4, 3) @ R[:, None]
        np.matmul(R.transpose(0, 2, 1)[:, None], kR.reshape(n, 4, 3, 12),
                  out=out[s : s + n].reshape(n, 4, 3, 12))
    return out


def element_stiffness(model: StructuralModel) -> np.ndarray:
    """Global 12x12 stiffness of every cell, (m, 12, 12) in cell order; the
    rotational rows and columns of a truss are zero."""
    return _global_stiffness(_elements(model))


def build_dof_map(model: StructuralModel) -> DofMap:
    """Number the slots and build T.

    Free and fixed slots map onto their own column of T; slave slots onto
    their master's through u_s = u_m + theta_m x r, theta_s = theta_m, with
    r the link's offset or else the slave's position less the master's;
    inactive slots, those of ``orientation_points`` included, are empty
    rows.  Raises SolverError for links that break the rigid-link rule.
    """
    points, links = model.points, model.rigid_links
    findings = rigid_link_findings(links, points)
    if findings:
        raise SolverError(findings[0].message)
    n = len(points)
    # (k, 2) point rows of each link's master and slave, and its arm r
    linked = points.positions(link_ends(links))
    arms = points.coords[linked[:, 1]] - points.coords[linked[:, 0]]
    given = np.array([l.offset is not None for l in links], dtype=bool)
    arms[given] = np.reshape([l.offset for l in links if l.offset is not None], (-1, 3))

    # rotations are active at beam ends and at rigid-link ends
    rotates = np.isin(points.ids, model.cells.ends[~model.cells.truss])
    rotates[linked.ravel()] = True
    slave = np.zeros(n, dtype=bool)
    slave[linked[:, 1]] = True
    active = np.ones((n, 6), dtype=bool)
    active[:, 3:] = rotates[:, None]
    active[orientation_points(model)] = False
    fixed = points.masks  # the rule leaves slaves without supports
    free = active & ~fixed & ~slave[:, None]
    n_eq = int(free.sum())
    n_fixed = int(fixed.sum())

    state = np.full((n, 6), _INACTIVE, dtype=np.int64)
    state[slave] = _SLAVE
    state[fixed] = _FIXED
    state[free] = np.arange(n_eq)
    fixed_slot = np.full((n, 6), -1, dtype=np.int64)
    fixed_slot[fixed] = np.arange(n_fixed)

    column = np.where(free, state, np.where(fixed, n_eq + fixed_slot, -1)).ravel()
    own = np.flatnonzero(column >= 0)
    coupling = np.tile(np.eye(6), (len(links), 1, 1))
    # column j of the translation-rotation block is e_j x r
    coupling[:, :3, 3:] = np.cross(np.eye(3), arms[:, None]).transpose(0, 2, 1)
    link, s_comp, m_comp = np.nonzero(coupling)
    T = sp.csr_matrix(
        (np.concatenate([np.ones(len(own)), coupling[link, s_comp, m_comp]]),
         (np.concatenate([own, 6 * linked[link, 1] + s_comp]),
          np.concatenate([column[own], column[6 * linked[link, 0] + m_comp]]))),
        shape=(6 * n, n_eq + n_fixed),
    )
    return DofMap(points.ids.copy(), state, fixed_slot, n_eq, n_fixed, T)


@np.errstate(over="ignore", invalid="ignore")  # overflow is refused below, by name
def assemble(model: StructuralModel, *, check_supports: bool = True):
    """Assemble the reduced stiffness and load vector.

    Requires a model that validates cleanly; with ``check_supports`` every
    connected component must also carry at least six fixed DOFs.  Finite
    inputs can still overflow: a stiffness or load vector whose norm is not
    finite raises SolverError.  Returns ``(LinearSystem, DofMap)``.
    """
    report = validate(model)
    if not report.ok:
        first = report.defects[0].message
        raise SolverError(f"model does not validate ({len(report.defects)} defects; first: {first})")
    unsupported = check_support_reachability(model) if check_supports else []
    if unsupported:
        worst = unsupported[0]
        raise SolverError(f"{len(unsupported)} component(s) lack supports; e.g. points "
                          f"{worst.point_ids[:5]} with {worst.fixed_dof_count} fixed DOFs")

    dm = build_dof_map(model)
    T = dm.transformation
    n_slots = 6 * len(model.points)

    el = _elements(model)
    m = len(el.ends)
    dofs = (6 * el.ends[:, :, None] + np.arange(6, dtype=np.int32)).reshape(m, 12)
    f_global = (el.f.reshape(m, 4, 3) @ el.R).reshape(m, 12)
    k_global = _global_stiffness(el)
    del el  # drop each (m, 12, 12) array once used: they dominate assembly memory
    nonzero = k_global != 0.0
    rows = np.broadcast_to(dofs[:, :, None], k_global.shape)[nonzero]
    cols = np.broadcast_to(dofs[:, None, :], k_global.shape)[nonzero]
    K_slots = sp.csr_matrix((k_global[nonzero], (rows, cols)), shape=(n_slots, n_slots))
    del k_global, nonzero, rows, cols

    loads = np.zeros((len(model.points), 6))
    loaded = model.points.bc_ids != 0
    loads[loaded] = per_id(model.points.bc_ids[loaded], lambda i: model.bcs[i].components, 6)
    bad = np.argwhere((loads != 0.0) & (dm.state == _INACTIVE))
    if len(bad):
        i, comp = bad[0]
        raise SolverError(f"moment load on rotation-free point {dm.point_ids[i]} "
                          f"({DOF_NAMES[comp]})")
    applied = np.bincount(dofs.ravel(), weights=f_global.ravel(), minlength=n_slots)
    applied = applied.reshape(-1, 6) + loads

    # prescribed values are zero, so only the free columns of T enter
    reduced = (T.T @ (K_slots @ T[:, : dm.n_eq])).tocsr()
    rhs = T.T @ applied.ravel()
    if not np.isfinite(_inf_norm(reduced)):
        raise SolverError("stiffness matrix overflows double precision")
    if not np.isfinite(np.linalg.norm(rhs)):
        raise SolverError("load vector overflows double precision")
    n_eq = dm.n_eq
    return LinearSystem(reduced[:n_eq], rhs[:n_eq], reduced[n_eq:], rhs[n_eq:], dm, applied), dm


def _bfs_levels(indptr, indices, start, seen, stamp):
    """Breadth-first level sets of the graph (indptr, indices) from
    ``start``, each an ascending index array.  ``seen`` marks the visited
    vertices with ``stamp``, so each search needs no fresh array."""
    seen[start] = stamp
    front = np.array([start])
    levels = []
    while front.size:
        levels.append(front)
        begin = indptr[front]
        count = indptr[front + 1] - begin
        ends = np.cumsum(count)
        nbrs = indices[np.arange(ends[-1]) + np.repeat(begin - ends + count, count)]
        front = np.unique(nbrs[seen[nbrs] != stamp])
        seen[front] = stamp
    return levels


def _level_sets(K: sp.csr_matrix):
    """Breadth-first level sets of K's graph, one component after another.

    Each component is searched from a pseudo-peripheral vertex (Gibbs,
    Poole & Stockmeyer 1976): from its lowest vertex, restart at a vertex of
    least degree in the last level while that adds levels.  Every level then
    couples only to its neighbours, so K is block tridiagonal in the
    returned order.  Returns the list of levels in elimination order.
    """
    n = K.shape[0]
    indptr, indices = K.indptr, K.indices
    degree = np.diff(indptr)
    seen = np.full(n, -1)
    unplaced = np.ones(n, dtype=bool)
    order = []
    stamp = start = 0
    while unplaced[start]:
        levels = _bfs_levels(indptr, indices, start, seen, stamp)
        while True:
            stamp += 1
            last = levels[-1]
            trial = _bfs_levels(indptr, indices, int(last[np.argmin(degree[last])]), seen, stamp)
            if len(trial) <= len(levels):
                break
            levels = trial
        order += levels
        unplaced[np.concatenate(levels)] = False
        stamp += 1
        start += int(np.argmax(unplaced[start:]))
    return order


def _tril_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of the lower triangular L by halves, inv([[A, 0], [B, C]]) =
    [[A^-1, 0], [-C^-1 B A^-1, C^-1]]: its flops run in matrix products,
    about a quarter of those np.linalg.inv spends on a general LU solve."""
    n = len(L)
    if n <= 32:
        return np.linalg.inv(L)
    h = n // 2
    out = np.zeros_like(L)
    out[:h, :h] = _tril_inverse(L[:h, :h])
    out[h:, h:] = _tril_inverse(L[h:, h:])
    out[h:, :h] = -(out[h:, h:] @ (L[h:, :h] @ out[:h, :h]))
    return out


class _LevelCholesky:
    """Block Cholesky factor K = L L^T over breadth-first level sets.

    In level order K is block tridiagonal with diagonal blocks A_i and
    coupling blocks B_i (level i+1 against level i); L is block lower
    bidiagonal (George & Liu, Computer Solution of Large Sparse Positive
    Definite Systems, ch. 4 and 6).  Level by level, L_i is the Cholesky
    factor of A_i - C_{i-1} C_{i-1}^T and C_i = B_i L_i^-T.  Each level
    keeps L_i^-1, so both triangular solves are dense matrix-vector
    products; every flop runs in numpy's LAPACK and BLAS.  Levels of
    separate components meet in a zero coupling block.  Raises
    np.linalg.LinAlgError unless K is positive definite to working
    precision.  ``nnz`` counts the stored entries: the dense square
    L_i^-1 and C_i of every level.
    """

    def __init__(self, K: sp.csr_matrix):
        levels = _level_sets(K)
        self.perm = np.concatenate(levels)
        width = np.array([len(lv) for lv in levels])
        n, count = len(self.perm), len(levels)
        level = np.empty(n, dtype=np.int64)
        level[self.perm] = np.repeat(np.arange(count), width)
        local = np.empty(n, dtype=np.int64)
        local[self.perm] = np.arange(n) - np.repeat(np.cumsum(width) - width, width)
        # one flat buffer each for the diagonal and the coupling blocks,
        # scattered by bincount, which also sums any duplicate entries
        diag_at = np.concatenate([[0], np.cumsum(width**2)])
        coupling_at = np.concatenate([[0], np.cumsum(width[1:] * width[:-1])])
        rows = np.repeat(np.arange(n), np.diff(K.indptr))
        lr, lc = level[rows], level[K.indices]
        at = lr == lc
        diag = np.bincount(diag_at[lr[at]] + local[rows[at]] * width[lr[at]]
                           + local[K.indices[at]], K.data[at], diag_at[-1])
        at = lr == lc + 1
        coupling = np.bincount(coupling_at[lc[at]] + local[rows[at]] * width[lc[at]]
                               + local[K.indices[at]], K.data[at], coupling_at[-1])
        self.inv = [diag[diag_at[i] : diag_at[i + 1]].reshape(w, w) for i, w in enumerate(width)]
        self.coupling = [coupling[coupling_at[i] : coupling_at[i + 1]].reshape(width[i + 1], w)
                         for i, w in enumerate(width[:-1])]
        self.nnz = len(diag) + len(coupling)
        for i, A in enumerate(self.inv):
            if i:
                C = self.coupling[i - 1]
                A -= C @ C.T
            A[...] = _tril_inverse(np.linalg.cholesky(A))
            if i < count - 1:
                self.coupling[i][...] = self.coupling[i] @ A.T

    def solve(self, b: np.ndarray) -> np.ndarray:
        """K^-1 b: forward through the levels, then back."""
        y = np.split(b[self.perm], np.cumsum([len(A) for A in self.inv])[:-1])
        for i, Linv in enumerate(self.inv):
            if i:
                y[i] = y[i] - self.coupling[i - 1] @ y[i - 1]
            y[i] = Linv @ y[i]
        for i in range(len(y) - 1, -1, -1):
            if i < len(y) - 1:
                y[i] = y[i] - self.coupling[i].T @ y[i + 1]
            y[i] = self.inv[i].T @ y[i]
        u = np.empty_like(b)
        u[self.perm] = np.concatenate(y)
        return u


@np.errstate(over="ignore", invalid="ignore")
def _fail(system: LinearSystem, message: str):
    """The one exit of a failed solve.  Raises MechanismError naming the
    point and DOF of a mechanism, whatever the model size, else
    SolverError(message).  Four steps of inverse iteration run from a vector
    of ones on the level-set block Cholesky factor of K + sigma I,
    sigma = 1e-10 max diag K; a Rayleigh quotient x'Kx of at most
    1e-12 max diag K shows a null vector, and the DOF that moves most in it
    is named.  A K with non-finite entries, or one whose shifted factor
    fails, has no such diagnosis and ends in SolverError(message)."""
    K = system.K
    if not np.isfinite(K.data).all():
        raise SolverError(message)
    scale = float(np.max(np.abs(K.diagonal()))) or 1.0
    try:
        factor = _LevelCholesky(K + 1e-10 * scale * sp.identity(K.shape[0], format="csr"))
    except np.linalg.LinAlgError:
        raise SolverError(message)
    x = np.ones(K.shape[0])
    for _ in range(4):
        x = factor.solve(x)
        x /= np.linalg.norm(x)
    if not float(x @ (K @ x)) <= 1e-12 * scale:
        raise SolverError(message)
    dm = system.dofmap
    point, comp = np.nonzero(dm.state >= 0)  # per equation, in equation order
    eq = int(np.argmax(np.abs(x)))
    pid, dof = int(dm.point_ids[point[eq]]), DOF_NAMES[comp[eq]]
    raise MechanismError(f"singular stiffness matrix, null vector largest at point {pid} dof "
                         f"{dof}: kinematic mechanism", point_id=pid, dof=dof)


def _residuals(system: LinearSystem, u: np.ndarray, fnorm: float, knorm: float):
    """(relative residual ||Ku - f|| / ||f||, normwise backward error
    ||Ku - f||_inf / (||K||_inf ||u||_inf + ||f||_inf)) of a solution u."""
    r = system.K @ u - system.f
    scale = knorm * np.linalg.norm(u, np.inf) + np.linalg.norm(system.f, np.inf)
    return float(np.linalg.norm(r)) / fnorm, float(np.linalg.norm(r, np.inf) / scale)


def _inf_norm(K: sp.spmatrix) -> float:
    return float(abs(K).sum(axis=1).max()) if K.shape[0] else 0.0


@np.errstate(over="ignore", invalid="ignore")  # inf and nan fail the acceptance test
def solve_direct(system: LinearSystem):
    """Sparse direct solve, accepted on its normwise backward error.

    K is factored by ``_LevelCholesky``, a block Cholesky over the
    breadth-first level sets of its graph.  While the relative residual is
    above 1e-10, rounds of iterative refinement run as long as each lowers
    the backward error, which, unlike that residual, has no rounding floor
    that grows with size.  The solve is accepted at a backward error of at
    most 1e-13 (Higham, Accuracy and Stability of Numerical Algorithms,
    section 7.1) unless u shows K singular to working precision; a failed
    factor, a rejected or a singular solve triggers a diagnosis naming the
    offending point and DOF.
    """
    t0 = time.perf_counter()
    n = system.K.shape[0]
    ordering = _DIRECT_ORDERING
    if n == 0:
        return np.zeros(0), SolveStats("direct", 0, 0.0, time.perf_counter() - t0,
                                       ordering=ordering)
    fnorm = float(np.linalg.norm(system.f))
    try:
        chol = _LevelCholesky(system.K)
    except np.linalg.LinAlgError as exc:
        _fail(system, f"direct factorization failed: {exc}")
    factor_time = time.perf_counter() - t0
    u = chol.solve(system.f)
    factor = dict(ordering=ordering, factor_nnz=chol.nnz, factor_time=factor_time)
    if fnorm == 0.0:
        return np.zeros(n), SolveStats("direct", 0, 0.0, time.perf_counter() - t0, **factor)
    if not np.all(np.isfinite(u)):
        _fail(system, "direct solve gave non-finite displacements")
    knorm = _inf_norm(system.K)
    res, eta = _residuals(system, u, fnorm, knorm)
    for _ in range(_MAX_REFINEMENTS):
        if res <= _REFINE_RESIDUAL:
            break
        refined = u + chol.solve(system.f - system.K @ u)
        refined_res, refined_eta = _residuals(system, refined, fnorm, knorm)
        if not refined_eta < eta:
            break
        u, res, eta = refined, refined_res, refined_eta
    # ||K|| ||u|| / ||f|| bounds cond(K) from below: at 1/eps K is singular to
    # working precision, and a small backward error then proves nothing
    cond = knorm * np.linalg.norm(u, np.inf) / np.linalg.norm(system.f, np.inf)
    if not (eta <= _DIRECT_BACKWARD_TOL and cond < 1.0 / np.finfo(float).eps):
        _fail(system, f"direct solve rejected: backward error {eta:.3e} (at most "
              f"{_DIRECT_BACKWARD_TOL:g}), condition at least {cond:.1e}")
    return u, SolveStats("direct", 0, res, time.perf_counter() - t0, true_residual=res,
                         backward_error=eta, **factor)


def _sgs_preconditioner(K: sp.spmatrix):
    """The apply r -> M^-1 r of symmetric Gauss-Seidel, and the SuperLU
    factor of tril(K) it runs on: symmetric mode, diagonal pivots, natural
    order, so SuperLU keeps the triangle as it is.  SuperLU raises
    RuntimeError at a zero or missing diagonal entry.  Only PCG uses
    SuperLU, so only PCG imports scipy.sparse.linalg."""
    import scipy.sparse.linalg as spla

    lu = spla.splu(sp.tril(K, format="csc"), permc_spec=_SGS_ORDERING, diag_pivot_thresh=0,
                   options={"SymmetricMode": True})
    d = K.diagonal()
    return (lambda r: lu.solve(d * lu.solve(r), trans="T")), lu


def solve_pcg_ichol(system: LinearSystem, tol: float = 1e-10, max_iter: int | None = None):
    """Conjugate gradients preconditioned by symmetric Gauss-Seidel.

    M = (D + L) D^-1 (D + L)^T, with D + L = tril(K) and D = diag(K), is
    SSOR at omega = 1 (Saad, Iterative Methods for Sparse Linear Systems,
    section 10.2).  It needs no factorization: tril(K) is handed to SuperLU
    once, in its natural order, so each application of
    M^-1 = (D + L)^-T D (D + L)^-1 is two compiled triangular solves.  For
    SPD K, D > 0 and M is SPD, so it cannot break down; a zero or missing
    diagonal entry makes SuperLU refuse tril(K), and the solve fails as a
    direct one does.  Converges on the relative preconditioned residual
    sqrt(r' M^-1 r) measured against the initial one; raises
    ConvergenceError if max_iter (default 10 * n_eq) is exhausted.  The
    name is kept from the incomplete Cholesky preconditioner this replaced:
    the acceptance tests, ``perfbench/spans.py`` and the benchmark metric
    ``solver.solve_pcg_ichol_s`` call the function by it.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"PCG tolerance must lie in (0, 1), got {tol:g}")
    if max_iter is not None and max_iter < 1:
        raise ValueError(f"PCG iteration limit must be at least 1, got {max_iter}")
    t0 = time.perf_counter()
    n = system.K.shape[0]
    ordering = _SGS_ORDERING
    if max_iter is None:
        max_iter = max(10 * n, 20)
    b = system.f
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:  # an empty system included
        return np.zeros(n), SolveStats("pcg-sgs", 0, 0.0, time.perf_counter() - t0,
                                       ordering=ordering)

    K = system.K
    try:
        precondition, lu = _sgs_preconditioner(K)
    except (RuntimeError, ValueError) as exc:
        _fail(system, f"symmetric Gauss-Seidel preconditioner failed: {exc}")
    factor = dict(ordering=ordering, factor_nnz=lu.nnz, factor_time=time.perf_counter() - t0)

    x = np.zeros(n)
    r = b.copy()
    z = precondition(r)
    p = z.copy()
    rz = float(r @ z)
    denom = np.sqrt(abs(rz)) or 1.0
    relres = 1.0
    iterations = 0
    for k in range(1, max_iter + 1):
        Ap = K @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0 or not np.isfinite(pAp):
            _fail(system, "PCG breakdown: matrix is not positive definite")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = precondition(r)
        rz_new = float(r @ z)
        relres = float(np.sqrt(max(rz_new, 0.0)) / denom)
        iterations = k
        if relres <= tol:
            break
        p = z + (rz_new / rz) * p
        rz = rz_new
    else:
        raise ConvergenceError(
            f"PCG did not reach tol={tol:g} within {max_iter} iterations "
            f"(residual {relres:.3e})"
        )
    res, eta = _residuals(system, x, bnorm, _inf_norm(K))
    return x, SolveStats("pcg-sgs", iterations, relres, time.perf_counter() - t0,
                         true_residual=res, backward_error=eta, **factor)


def expand_displacements(dm: DofMap, u: np.ndarray) -> np.ndarray:
    """Per-point 6-DOF displacements T [u; 0] from the reduced solution."""
    full = np.concatenate([np.asarray(u, dtype=float), np.zeros(dm.n_fixed)])
    return (dm.transformation @ full).reshape(len(dm.point_ids), 6)


def reaction_forces(system: LinearSystem, u: np.ndarray) -> np.ndarray:
    """Per-point reaction resultants at fixed slots, zero elsewhere."""
    dm = system.dofmap
    r = system.reaction_matrix @ u - system.reaction_rhs
    out = np.zeros((len(dm.point_ids), 6))
    fixed = dm.fixed_slot >= 0
    out[fixed] = r[dm.fixed_slot[fixed]]
    return out


def recover_end_forces(model: StructuralModel, displacements: np.ndarray) -> np.ndarray:
    """Element end forces in local axes, (n_cells, 2, 6) as (N, Vy, Vz, T, My, Mz).

    Computed as k_local u_local minus the self-weight fixed-end actions, so
    each element's end forces balance the load applied along it.
    """
    el = _elements(model)
    m = len(el.ends)
    disp = np.asarray(displacements, dtype=float)
    u_local = disp[el.ends].reshape(m, 4, 3) @ el.R.transpose(0, 2, 1)
    p = (el.k @ u_local.reshape(m, 12, 1))[:, :, 0] - el.f
    return p.reshape(m, 2, 6)
