"""Linear static analysis of 3D beam/truss line models.

Elements are 2-node Euler-Bernoulli space beams (cubic bending, linear axial
and torsion interpolation, no shear deformation) and axial-only trusses.
Nodal DOFs are ordered (ux, uy, uz, rx, ry, rz); element vectors stack end A
then end B.

One array kernel computes every element quantity for all cells at once: end
point indices, local triads (m, 3, 3), the inputs of the local stiffness,
self-weight fixed-end loads and the section and material values, each
catalog entry evaluated once.  Assembly, force recovery and the resistance
ratio read these arrays; the 12x12 stiffness matrices are built from them
in slices of ``_SLICE`` cells, and rotations act as batched 3x3 block
products.

Local axes, the cell lengths, the self-weight levers and the rotations that
get equations follow the rules of ``model``: ``cell_frames``,
``self_weight_levers`` and ``unreached_slots``.

Self-weight enters as a uniform line load rho*g*A with consistent equivalent
nodal forces; the fixed-end actions are subtracted again during force
recovery.

Supports, the rotations of points reached only by trusses, and rigid links
(u_s = u_m + theta_m x r) define one transformation T from the 6n nodal
slots onto [free; fixed] DOFs, u_6n = T [u_free; u_fixed].  T is held as
arrays, never as a matrix: every slot that is not a slave maps onto at most
one column of its own, and each link's 6x6 coupling ties its slave's slots
to its master's.  Assembly substitutes the links element by element,
k_e <- C_e^T k_e C_e with the slave end renumbered to its master, so that
every element slot maps onto at most one column.  It then adds each cell's
four 6x6 point-pair blocks into one array of the distinct blocks, in cell
order, and sorts the entries of those blocks into the reduced stiffness and
the reaction rows; the load vectors are T^T of the per-point loads.  This
is master-slave elimination (Felippa, Introduction to FEM, MultiFreedom
Constraints; Cook et al., Concepts and Applications of FEA, section 9); it
keeps K symmetric positive definite, and K stores no exact zeros.

Both solvers run in numpy alone: the direct one on a block Cholesky factor
that keeps only the inverse of each level's triangular block, as dense row
stripes of its lower triangle, PCG on the inverse diagonal of K.  Only
``LinearSystem.K`` and ``CsrArrays.as_scipy``, scipy views of the
stiffness, import scipy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (
    DEFAULT_PCG_TOL,
    DOF_NAMES,
    GRAVITY,
    KG_MM_S2_TO_N,
    StructuralModel,
    per_id,
    cell_frames,
    cell_properties,
    distinct,
    link_ends,
    raise_first,
    rigid_link_findings,
    self_weight_levers,
    stiffness_terms,
    unreached_slots,
    validate,
)
from .topology import solvability_findings

# Direct solves refine towards the residual target and are accepted on the
# backward error, 3e-18 to 8e-18 on arches of 6.8k to 37.7k equations.
_REFINE_RESIDUAL = 1e-10
_DIRECT_BACKWARD_TOL = 1e-13
_MAX_REFINEMENTS = 5
_DIRECT_ORDERING = "BFS_LEVELS"
_PCG_ORDERING = "NATURAL"  # a diagonal preconditioner permutes nothing


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
    Cholesky factor of K (``_LevelCholesky``); for PCG, the inverse
    diagonal of K."""

    method: str
    iterations: int
    relative_residual: float
    wall_time: float
    true_residual: float = 0.0
    backward_error: float = 0.0
    ordering: str = "none"  # BFS_LEVELS for direct, NATURAL for PCG
    # stored entries: for direct, the row stripes of every level's L_i^-1;
    # for PCG, the n_eq entries of the inverse diagonal
    factor_nnz: int = 0
    factor_time: float = 0.0


@dataclass
class DofMap:
    """Equation numbering of the 6n nodal slots and the constraint
    transformation T it defines, u_6n = T [u_free; u_fixed], as arrays.
    ``column`` is the column of T each slot maps onto by itself: a free slot
    holds its equation, 0 to n_eq - 1 in point order, then DOF order; a
    fixed slot holds n_eq plus its reaction row, in the same order; slave
    and inactive slots hold -1.  Link i ties the slots of point row
    ``links[i, 1]`` (the slave) to those of ``links[i, 0]`` (the master):
    u_s = coupling[i] u_m."""

    point_ids: np.ndarray  # (n,) point id of each row
    column: np.ndarray  # (n, 6) int64: equation, n_eq + reaction row, or -1
    n_eq: int
    n_fixed: int
    links: np.ndarray  # (k, 2) point rows of each link's master and slave
    coupling: np.ndarray  # (k, 6, 6): identity, with column j of [:3, 3:] e_j x r


@dataclass
class CsrArrays:
    """A sparse matrix as the arrays of compressed sparse rows: row i holds
    ``data[indptr[i]:indptr[i + 1]]`` at the ascending columns
    ``indices[indptr[i]:indptr[i + 1]]``, and no stored entry is an exact
    zero.  The index arrays are int32, so ``as_scipy`` wraps them as they
    are.  The arrays are not changed after construction."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

    @cached_property
    def rows(self) -> np.ndarray:
        """The row of each stored entry, int32 as ``indices``; built once."""
        return np.repeat(np.arange(self.shape[0], dtype=np.int32), np.diff(self.indptr))

    @cached_property
    def _gather(self):
        """``indices`` as intp, which ``take`` reads without converting, the
        rows that hold entries and where each of them starts; built once."""
        filled = np.flatnonzero(np.diff(self.indptr))
        return self.indices.astype(np.intp), filled, self.indptr[filled]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        columns, filled, starts = self._gather
        product = x.take(columns).astype(float, copy=False)
        product *= self.data  # in place: one temporary of nnz entries, not two
        # reduceat sums each row's run; an empty run would read the next
        # row's first entry, so empty rows stay out and read zero
        if len(filled) == self.shape[0]:
            return np.add.reduceat(product, starts)
        out = np.zeros(self.shape[0])
        out[filled] = np.add.reduceat(product, starts)
        return out

    def diagonal(self) -> np.ndarray:
        """The main diagonal, zero where no entry is stored."""
        d, on = np.zeros(min(self.shape)), self.rows == self.indices
        d[self.rows[on]] = self.data[on]
        return d

    def as_scipy(self):
        """This matrix as a scipy.sparse.csr_matrix over the same arrays, no
        copy; needs scipy, and imports scipy.sparse."""
        import scipy.sparse as sp

        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape,
                             copy=False)


@dataclass
class LinearSystem:
    """Reduced symmetric system plus the bookkeeping for reactions.

    ``stiffness`` is K as CSR arrays; ``K`` reads it as a scipy matrix.
    ``reaction_matrix`` holds the fixed-slot rows of the full stiffness
    against the free columns, so reactions follow as K_cf u - f_c once the
    free displacements are known.  ``applied_loads`` keeps the physical
    per-point load resultants (nodal loads plus self-weight equivalents)
    before any rigid-link remapping.
    """

    stiffness: CsrArrays
    f: np.ndarray
    reaction_matrix: CsrArrays
    reaction_rhs: np.ndarray
    dofmap: DofMap
    applied_loads: np.ndarray  # (n_points, 6)

    @property
    def K(self):
        """K as a scipy.sparse.csr_matrix over the arrays of ``stiffness``,
        no copy; needs scipy, and reading it imports scipy.sparse."""
        return self.stiffness.as_scipy()


def _local_stiffness(E, G, A, Iy, Iz, J, L):
    """Local 12x12 stiffness of each element; trusses pass Iy = Iz = J = 0."""
    k = np.zeros(np.shape(L) + (12, 12))
    ea, gj, *bending = stiffness_terms(E, G, A, Iy, Iz, J, L)
    k[..., 0, 0] = k[..., 6, 6] = ea
    k[..., 0, 6] = k[..., 6, 0] = -ea
    k[..., 3, 3] = k[..., 9, 9] = gj
    k[..., 3, 9] = k[..., 9, 3] = -gj
    # bending in the x-y plane (v along local y, rotation rz)
    a, b, c, d = bending[:4]
    k[..., 1, 1] = k[..., 7, 7] = a
    k[..., 1, 7] = k[..., 7, 1] = -a
    k[..., 1, 5] = k[..., 5, 1] = k[..., 1, 11] = k[..., 11, 1] = b
    k[..., 5, 7] = k[..., 7, 5] = k[..., 7, 11] = k[..., 11, 7] = -b
    k[..., 5, 5] = k[..., 11, 11] = c
    k[..., 5, 11] = k[..., 11, 5] = d
    # bending in the x-z plane (w along local z, rotation ry = -w')
    a, b, c, d = bending[4:]
    k[..., 2, 2] = k[..., 8, 8] = a
    k[..., 2, 8] = k[..., 8, 2] = -a
    k[..., 2, 4] = k[..., 4, 2] = k[..., 2, 10] = k[..., 10, 2] = -b
    k[..., 4, 8] = k[..., 8, 4] = k[..., 8, 10] = k[..., 10, 8] = b
    k[..., 4, 4] = k[..., 10, 10] = c
    k[..., 4, 10] = k[..., 10, 4] = d
    return k


# Cells per slice of 12x12 stiffness matrices, in assembly and in force
# recovery.  Each slice holds about four arrays of 1,152 bytes a cell, on top
# of the blocks assembly adds into.  On the cleaned 50x5x24 arch (2-core
# Xeon) assembly's traced peak is 3.7 MB at 128, where the slices no longer
# set it, 4.3 MB at 256 and 7.8 MB at 1,024, in about the same time; force
# recovery peaks at 1.4 against 2.5 MB at 1,024 and takes 1-4 ms longer on
# the 80x8x40 arch
_SLICE = 128

# Entry (i, j) of a cell's 12x12 matrix lies in its block _BLOCK[i, j] of
# (a, a), (a, b), (b, a), (b, b), at _OFFSET[i, j] of that block's 36
_BLOCK = 2 * (np.arange(12)[:, None] // 6) + np.arange(12) // 6
_OFFSET = 6 * (np.arange(12)[:, None] % 6) + np.arange(12) % 6


@dataclass
class _Elements:
    """Element arrays over m cells, in cell order.  The local stiffness is
    kept as its inputs and built per slice of cells by ``k``, so no
    (m, 12, 12) array outlives the call that needs it."""

    ends: np.ndarray  # (m, 2) int32 point indices
    R: np.ndarray  # (m, 3, 3) local triads, rows ex, ey, ez
    terms: np.ndarray  # (7, m) E, G, A, Iy, Iz, J, L; a truss has Iy = Iz = J = 0
    f: np.ndarray  # (m, 12) self-weight equivalent nodal loads, local axes

    def k(self, cells: slice = slice(None)) -> np.ndarray:
        """Local 12x12 stiffness of the given cells."""
        return _local_stiffness(*self.terms[:, cells])


def _elements(model: StructuralModel) -> _Elements:
    """Element arrays of every cell in one pass; a cell that ``cell_frames`` refuses raises."""
    cells = model.cells
    ends = model.points.positions(cells.ends).astype(np.int32)
    if np.any(ends < 0):
        raise SolverError("cells reference points that are not in the model")
    R, L, findings = cell_frames(model)
    raise_first(findings, SolverError)
    beam = ~cells.truss
    props = cell_properties(model)
    bending = np.where(beam, 1.0, 0.0)
    terms = np.stack([props.E, props.G, props.A, props.Iy * bending, props.Iz * bending,
                      props.J * bending, L])

    f = np.zeros((len(cells), 12))
    if model.self_weight_enabled:
        w, half, moment = self_weight_levers(props, beam, L)
        q_global = w[:, None] * GRAVITY * KG_MM_S2_TO_N  # N/mm
        qx, qy, qz = (R @ q_global[:, :, None])[:, :, 0].T
        f[:, 0] = f[:, 6] = qx * half
        f[:, 1] = f[:, 7] = qy * half
        f[:, 2] = f[:, 8] = qz * half
        f[:, 4] = -qz * moment
        f[:, 10] = qz * moment
        f[:, 5] = qy * moment
        f[:, 11] = -qy * moment
    return _Elements(ends=ends, R=R, terms=terms, f=f)


def _slice_stiffness(el: _Elements, cells: slice) -> np.ndarray:
    """R^T k R of the given cells, (n, 12, 12), as batched 3x3 block
    products."""
    R = el.R[cells]
    n = len(R)
    kR = el.k(cells).reshape(n, 12, 4, 3) @ R[:, None]
    return (R.transpose(0, 2, 1)[:, None] @ kR.reshape(n, 4, 3, 12)).reshape(n, 12, 12)


def element_stiffness(model: StructuralModel) -> np.ndarray:
    """Global 12x12 stiffness of every cell, (m, 12, 12) in cell order; the
    rotational rows and columns of a truss are zero."""
    el = _elements(model)
    out = np.empty((len(el.ends), 12, 12))
    for s in range(0, len(out), _SLICE):
        out[s : s + _SLICE] = _slice_stiffness(el, slice(s, s + _SLICE))
    return out


def build_dof_map(model: StructuralModel) -> DofMap:
    """Number the slots and give T's link couplings.

    Free and fixed slots map onto their own column of T; slave slots onto
    their master's through u_s = u_m + theta_m x r, theta_s = theta_m, with
    r the link's offset or else the slave's position less the master's;
    the other ``unreached_slots`` map onto nothing.  Raises SolverError for
    links that break the rigid-link rule.
    """
    points, links = model.points, model.rigid_links
    raise_first(rigid_link_findings(links, points), SolverError)
    n = len(points)
    # (k, 2) point rows of each link's master and slave, and its arm r
    linked = points.positions(link_ends(links))
    arms = points.coords[linked[:, 1]] - points.coords[linked[:, 0]]
    given = np.array([l.offset is not None for l in links], dtype=bool)
    arms[given] = np.reshape([l.offset for l in links if l.offset is not None], (-1, 3))

    fixed = points.masks  # the rule leaves slaves without supports
    free = ~fixed & ~unreached_slots(model)
    free[linked[:, 1]] = False  # slaves
    n_eq, n_fixed = int(free.sum()), int(fixed.sum())
    column = np.full((n, 6), -1, dtype=np.int64)
    column[free] = np.arange(n_eq)
    column[fixed] = np.arange(n_eq, n_eq + n_fixed)

    coupling = np.tile(np.eye(6), (len(links), 1, 1))
    # column j of the translation-rotation block is e_j x r
    coupling[:, :3, 3:] = np.cross(np.eye(3), arms[:, None]).transpose(0, 2, 1)
    return DofMap(points.ids.copy(), column, n_eq, n_fixed, linked, coupling)


def _reduce_loads(dm: DofMap, loads: np.ndarray) -> np.ndarray:
    """T^T of the per-point loads (n, 6): a slave's load moves onto its
    master through the transposed coupling, then each slot adds into its
    column.  Returns the vector [f_free; f_fixed]."""
    loads = loads.copy()
    master, slave = dm.links.T
    np.add.at(loads, master, np.einsum("kji,kj->ki", dm.coupling, loads[slave]))
    column = dm.column.ravel()
    own = column >= 0
    return np.bincount(column[own], loads.ravel()[own], dm.n_eq + dm.n_fixed)


def _coupled(k: np.ndarray, dm: DofMap, end_link: np.ndarray) -> np.ndarray:
    """k_e <- C_e^T k_e C_e, in place, for the cells of k with a slave end;
    C_e holds the link's coupling in that end's block and the identity
    elsewhere.  ``end_link`` gives the link of each cell end, or -1."""
    linked = np.flatnonzero((end_link >= 0).any(axis=1))
    if len(linked):
        C = np.tile(np.eye(12), (len(linked), 1, 1))
        for end in (0, 1):
            on = end_link[linked, end] >= 0
            C[on, 6 * end : 6 * end + 6, 6 * end : 6 * end + 6] = \
                dm.coupling[end_link[linked[on], end]]
        k[linked] = C.transpose(0, 2, 1) @ k[linked] @ C
    return k


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # refused below, by name
def assemble(model: StructuralModel, *, check_supports: bool = True):
    """Assemble the reduced stiffness and load vector.

    Raises SolverError with the message of the first defect that ``check``
    reports: the first of ``validate``'s defects, else of the
    ``solvability_findings``; without ``check_supports`` components that
    lack supports pass.  A model whose every term is finite can still sum to
    a stiffness or load vector whose norm is not: that raises SolverError
    naming it.  Returns ``(LinearSystem, DofMap)``.
    """
    raise_first(validate(model).defects or [f for f in solvability_findings(model) if
                check_supports or f.kind != "unsupported-component"], SolverError)

    dm = build_dof_map(model)
    n_eq, n_fixed = dm.n_eq, dm.n_fixed
    n = len(model.points)

    el = _elements(model)
    m, ends = len(el.ends), el.ends
    dofs = (6 * ends[:, :, None] + np.arange(6, dtype=np.int32)).reshape(m, 12)
    f_global = (el.f.reshape(m, 4, 3) @ el.R).reshape(m, 12)

    loads = np.zeros((len(model.points), 6))
    loaded = model.points.bc_ids != 0
    loads[loaded] = per_id(model.points.bc_ids[loaded], lambda i: model.bcs[i].components, 6)
    applied = np.bincount(dofs.ravel(), weights=f_global.ravel(), minlength=6 * n)
    applied = applied.reshape(-1, 6) + loads
    del dofs, f_global

    # Number the point-pair blocks: a slave end moves onto its master, and
    # each cell adds into the blocks (a, a), (a, b), (b, a) and (b, b) of its
    # ends a and b
    link_of = np.full(n, -1)
    link_of[dm.links[:, 1]] = np.arange(len(dm.links))
    end_link = link_of[ends]
    owner = np.arange(n)
    owner[dm.links[:, 1]] = dm.links[:, 0]
    a, b = owner[ends].T
    keys, slot = np.unique(np.stack([a * n + a, a * n + b, b * n + a, b * n + b], axis=1),
                           return_inverse=True)
    slot = slot.reshape(m, 4)

    # Add the values slice by slice.  np.add.at adds one term at a time in
    # index order, here the order of the cells and of their 12x12 entries,
    # so every entry sums its terms as a stable sort of them would.  A flat
    # index per entry keeps add.at on its fast path
    blocks = np.zeros((len(keys), 6, 6))
    for s in range(0, m, _SLICE):
        cells = slice(s, s + _SLICE)
        np.add.at(blocks.reshape(-1), (36 * slot[cells][:, _BLOCK] + _OFFSET).ravel(),
                  _coupled(_slice_stiffness(el, cells), dm, end_link[cells]).ravel())
    del el, slot

    # Keep the nonzero entries with a row and a free column: prescribed
    # values are zero, so only the free columns enter.  No two blocks share
    # a (row, column), so one sort of the entries gives CSR
    row = dm.column[keys // n]
    column = dm.column[keys % n].astype(np.int32)
    column[column >= n_eq] = -1
    keep = (blocks != 0.0) & (row >= 0)[:, :, None] & (column >= 0)[:, None, :]
    data = blocks[keep]
    del blocks
    rows = np.broadcast_to(row[:, :, None], keep.shape)[keep]
    cols = np.broadcast_to(column[:, None, :], keep.shape)[keep]
    del keep
    indptr = np.zeros(n_eq + n_fixed + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n_eq + n_fixed), out=indptr[1:])
    rows *= n_eq
    rows += cols
    order = np.argsort(rows)
    del rows
    reduced = CsrArrays(indptr, cols[order], data[order], (n_eq + n_fixed, n_eq))
    del order, cols, data

    rhs = _reduce_loads(dm, applied)
    if not np.isfinite(_inf_norm(reduced)):
        raise SolverError("stiffness matrix overflows double precision")
    if not np.isfinite(np.linalg.norm(rhs)):
        raise SolverError("load vector overflows double precision")
    at, indptr = reduced.indptr[n_eq], reduced.indptr
    K = CsrArrays(indptr[: n_eq + 1], reduced.indices[:at], reduced.data[:at], (n_eq, n_eq))
    reactions = CsrArrays(indptr[n_eq:] - at, reduced.indices[at:], reduced.data[at:],
                          (n_fixed, n_eq))
    return LinearSystem(K, rhs[:n_eq], reactions, rhs[n_eq:], dm, applied), dm


def _entries(indptr, rows):
    """The positions of the stored entries of ``rows`` in a CSR matrix with
    row pointers ``indptr``, row by row, and each row's count of them."""
    begin = indptr[rows]
    count = indptr[rows + 1] - begin
    ends = np.cumsum(count)
    return np.arange(ends[-1]) + np.repeat(begin - ends + count, count), count


def _bfs_levels(indptr, indices, start, seen, stamp):
    """Breadth-first level sets of the graph (indptr, indices) from
    ``start``, each an ascending index array.  ``seen`` marks the visited
    vertices with ``stamp``, so each search needs no fresh array."""
    seen[start] = stamp
    front = np.array([start])
    levels = []
    while front.size:
        levels.append(front)
        nbrs = indices[_entries(indptr, front)[0]]
        front = distinct(nbrs[seen[nbrs] != stamp])
        seen[front] = stamp
    return levels


def _level_sets(K: CsrArrays):
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


# Rows per stored stripe of a level inverse.  Stripe j keeps the rectangle
# of L_i^-1 left of and on the diagonal in its rows, so the zeros stored
# above the diagonal shrink with the height, while a solve pays one
# matrix-vector product per stripe.  On the 80x8x40 arch (2-core Xeon) 32
# stores 1.59M of the square's 2.58M entries, and a forward and back solve
# takes 10.7 against 8.4 ms; 64 stores 1.88M
_STRIPE = 32


def _stripes(inv: np.ndarray) -> list:
    """The lower triangular ``inv`` as row stripes of ``_STRIPE`` rows, each
    a copy of ``inv[a:b, :b]`` for its rows a to b."""
    return [inv[a : a + _STRIPE, : a + _STRIPE].copy() for a in range(0, len(inv), _STRIPE)]


def _lower(stripes: list, v: np.ndarray, out: np.ndarray) -> None:
    """out = L^-1 v, from the row stripes of L^-1."""
    for S in stripes:
        b = S.shape[1]
        np.dot(S, v[:b], out=out[b - len(S) : b])


def _upper(stripes: list, v: np.ndarray, out: np.ndarray) -> None:
    """out = L^-T v, from the row stripes of L^-1; the last stripe spans
    every column and sets out, the others add into its leading entries."""
    last = stripes[-1]
    np.dot(v[len(v) - len(last) :], last, out=out)
    for S in stripes[:-1]:
        b = S.shape[1]
        out[:b] += v[b - len(S) : b] @ S


class _LevelCholesky:
    """Block Cholesky factor K = L L^T over breadth-first level sets.

    In level order K is block tridiagonal with diagonal blocks A_i and
    coupling blocks B_i (level i+1 against level i); L is block lower
    bidiagonal, with off-diagonal blocks C_i = B_i L_i^-T (George & Liu,
    Computer Solution of Large Sparse Positive Definite Systems, ch. 4 and
    6).  Level by level, L_i is the Cholesky factor of
    A_i - C_{i-1} C_{i-1}^T; C_{i-1} is formed from a dense B_{i-1} and the
    dense square L_{i-1}^-1 for that product, and then dropped.  The factor
    keeps L_i^-1 as row stripes of ``_STRIPE`` rows, each the rectangle on
    and left of the diagonal, and B_i as the (row, column, value) triplets
    of K's own entries, so the triangular solves apply C_i as B_i L_i^-T:
    one matrix-vector product per stripe and one ``np.bincount``.  Every
    dense flop runs in numpy's LAPACK and BLAS.  Levels of separate
    components meet in an empty coupling block.  Raises
    np.linalg.LinAlgError unless K is positive definite to working
    precision, and a MemoryError naming the factor's size when its blocks do
    not fit.  ``nnz`` counts the stored stripe entries, known before the
    first block is allocated.  A ``shift`` sigma factors K + sigma I.
    """

    def __init__(self, K: CsrArrays, shift: float = 0.0):
        levels = _level_sets(K)
        self.perm = np.concatenate(levels)
        self.width = np.array([len(lv) for lv in levels])
        # q full stripes of s rows hold s^2 q (q + 1) / 2 entries, r more rows r w
        q, r = np.divmod(self.width, _STRIPE)
        self.nnz = int(np.sum(_STRIPE**2 * q * (q + 1) // 2 + r * self.width))
        try:
            self._factor(K, shift)
        except MemoryError:
            raise MemoryError(f"direct factor needs {8 * self.nnz / 1e9:.2f} GB "
                              f"({self.nnz} entries)") from None

    def _factor(self, K, shift):
        width = self.width
        n = len(self.perm)
        level = np.empty(n, dtype=np.int64)
        level[self.perm] = np.repeat(np.arange(len(width)), width)
        # int32 local indices: a stored coupling triplet takes 16 bytes, not 24
        local = np.empty(n, dtype=np.int32)
        local[self.perm] = np.arange(n) - np.repeat(np.cumsum(width) - width, width)
        # Each level's block is an array of its own, which can reuse the
        # memory assembly freed; one buffer for all of them would be a fresh
        # mapping.  self.coupling[i] holds B_i: rows local to level i+1,
        # columns to level i
        self.stripes, self.coupling = [], []
        for i, (w, end) in enumerate(zip(width, np.cumsum(width))):
            at, count = _entries(K.indptr, self.perm[end - w : end])
            r = np.repeat(np.arange(w, dtype=np.int32), count)
            c, lc, d = local[K.indices[at]], level[K.indices[at]], K.data[at]
            A = np.zeros((w, w))
            on = lc == i
            A[r[on], c[on]] = d[on]
            A.flat[:: w + 1] += shift
            if i:
                on = lc == i - 1
                self.coupling.append((r[on], c[on], d[on]))
                B = np.zeros((w, width[i - 1]))
                B[r[on], c[on]] = d[on]
                C = B @ inv.T
                del B
                # the square of level i-1 has served its one product
                self.stripes.append(_stripes(inv))
                del inv
                A -= C @ C.T
                del C
            L = np.linalg.cholesky(A)
            del A
            inv = _tril_inverse(L)
            del L
        self.stripes.append(_stripes(inv))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """K^-1 b: forward y_i = L_i^-1 (b_i - B_{i-1} L_{i-1}^-T y_{i-1}),
        then back x_i = L_i^-T (y_i - L_i^-1 B_i^T x_{i+1}), each level
        written into its slice of one array."""
        x = b[self.perm]  # b_i, then x_i
        y = np.empty_like(x)
        t = np.empty(int(self.width.max()))
        w = self.width.tolist()
        end = np.cumsum(self.width).tolist()
        at = [slice(e - wi, e) for e, wi in zip(end, w)]
        for i, stripes in enumerate(self.stripes):
            if i:
                r, c, d = self.coupling[i - 1]
                _upper(self.stripes[i - 1], y[at[i - 1]], t[: w[i - 1]])
                x[at[i]] -= np.bincount(r, d * t[c], w[i])
            _lower(stripes, x[at[i]], y[at[i]])
        for i in range(len(w) - 1, -1, -1):
            if i + 1 < len(w):
                r, c, d = self.coupling[i]
                _lower(self.stripes[i], np.bincount(c, d * x[at[i + 1]][r], w[i]), t[: w[i]])
                y[at[i]] -= t[: w[i]]
            _upper(self.stripes[i], y[at[i]], x[at[i]])
        u = np.empty_like(b)
        u[self.perm] = x
        return u


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # nan shows no null vector
def _mechanism(system: LinearSystem) -> MechanismError | None:
    """The mechanism of K as a MechanismError naming its point and DOF,
    whatever the model size, or None.  Four steps of inverse iteration run
    from a vector of ones on the level-set block Cholesky factor of
    K + sigma I, sigma = 1e-10 max diag K; a Rayleigh quotient x'Kx of at
    most 1e-12 max diag K shows a null vector, and the DOF that moves most
    in it is named.  An empty K, one with non-finite entries and one whose
    shifted factor fails give None: they have no such diagnosis."""
    K = system.stiffness
    if not (K.shape[0] and np.isfinite(K.data).all()):
        return None
    scale = float(np.max(np.abs(K.diagonal()), initial=0.0)) or 1.0
    try:
        factor = _LevelCholesky(K, 1e-10 * scale)
    except (np.linalg.LinAlgError, MemoryError):
        return None
    x = np.ones(K.shape[0])
    for _ in range(4):
        x = factor.solve(x)
        x /= np.linalg.norm(x)
    if not float(x @ (K @ x)) <= 1e-12 * scale:
        return None
    dm = system.dofmap
    eq = int(np.argmax(np.abs(x)))
    point, comp = np.argwhere(dm.column == eq)[0]
    pid, dof = int(dm.point_ids[point]), DOF_NAMES[comp]
    return MechanismError(f"singular stiffness matrix, null vector largest at point {pid} dof "
                          f"{dof}: kinematic mechanism", point_id=pid, dof=dof)


def _fail(system: LinearSystem, message: str):
    """The exit of a failed solve: the MechanismError of ``_mechanism`` when
    K has a mechanism, else SolverError(message).  PCG's iteration limit
    asks ``_mechanism`` the same way before its ConvergenceError."""
    raise _mechanism(system) or SolverError(message)


def _residuals(system: LinearSystem, u: np.ndarray, fnorm: float, knorm: float):
    """(relative residual ||Ku - f|| / ||f||, normwise backward error
    ||Ku - f||_inf / (||K||_inf ||u||_inf + ||f||_inf)) of a solution u."""
    r = system.stiffness @ u - system.f
    scale = knorm * np.linalg.norm(u, np.inf) + np.linalg.norm(system.f, np.inf)
    return float(np.linalg.norm(r)) / fnorm, float(np.linalg.norm(r, np.inf) / scale)


def _inf_norm(K: CsrArrays) -> float:
    """max_i sum_j |K_ij|; reduceat sums the runs of the rows that hold
    entries, since an empty run would read the next row's first entry."""
    starts = K.indptr[:-1][np.diff(K.indptr) > 0]
    return float(np.add.reduceat(np.abs(K.data), starts).max(initial=0.0))


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
    K = system.stiffness
    n = K.shape[0]
    ordering = _DIRECT_ORDERING
    if n == 0:
        return np.zeros(0), SolveStats("direct", 0, 0.0, time.perf_counter() - t0,
                                       ordering=ordering)
    fnorm = float(np.linalg.norm(system.f))
    try:
        chol = _LevelCholesky(K)
    except np.linalg.LinAlgError as exc:
        _fail(system, f"direct factorization failed: {exc}")
    except MemoryError as exc:
        raise SolverError(f"{exc}; try --solver pcg") from None
    factor_time = time.perf_counter() - t0
    u = chol.solve(system.f)
    factor = dict(ordering=ordering, factor_nnz=chol.nnz, factor_time=factor_time)
    if fnorm == 0.0:
        return np.zeros(n), SolveStats("direct", 0, 0.0, time.perf_counter() - t0, **factor)
    if not np.all(np.isfinite(u)):
        _fail(system, "direct solve gave non-finite displacements")
    knorm = _inf_norm(K)
    res, eta = _residuals(system, u, fnorm, knorm)
    for _ in range(_MAX_REFINEMENTS):
        if res <= _REFINE_RESIDUAL:
            break
        refined = u + chol.solve(system.f - K @ u)
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


def solve_pcg_ichol(system: LinearSystem, tol: float = DEFAULT_PCG_TOL,
                    max_iter: int | None = None):
    """Conjugate gradients preconditioned by the diagonal of K (Jacobi).

    M = D = diag(K), so each application of M^-1 is one product with the
    stored inverse diagonal, and each iteration's one product with K runs
    in ``CsrArrays @`` (Saad, Iterative Methods for Sparse Linear Systems,
    section 10.2).  For SPD K, D > 0 and M is SPD; a zero, missing or
    negative diagonal entry fails the solve at once, as a failed direct
    factor does.  Converges on the relative preconditioned residual
    sqrt(r' M^-1 r) measured against the initial one; raises
    ConvergenceError if max_iter (default 10 * n_eq) is exhausted and K
    shows no mechanism.  The name is kept from the incomplete Cholesky
    preconditioner PCG once ran on: the acceptance tests,
    ``perfbench/spans.py`` and the benchmark metric
    ``solver.solve_pcg_ichol_s`` call the function by it.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"PCG tolerance must lie in (0, 1), got {tol:g}")
    if max_iter is not None and max_iter < 1:
        raise ValueError(f"PCG iteration limit must be at least 1, got {max_iter}")
    t0 = time.perf_counter()
    K = system.stiffness
    n = K.shape[0]
    if max_iter is None:
        max_iter = max(10 * n, 20)
    b = system.f
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:  # an empty system included
        mechanism = _mechanism(system)  # u = 0 is then one solution of many
        if mechanism is not None:
            raise mechanism
        return np.zeros(n), SolveStats("pcg-jacobi", 0, 0.0, time.perf_counter() - t0,
                                       ordering=_PCG_ORDERING)

    d = K.diagonal()
    if not np.all(d > 0.0):
        eq = int(np.argmin(d > 0.0))
        _fail(system, f"Jacobi preconditioner needs a positive diagonal, "
              f"K[{eq}, {eq}] = {d[eq]:g}")
    inverse = 1.0 / d
    factor = dict(ordering=_PCG_ORDERING, factor_nnz=n, factor_time=time.perf_counter() - t0)

    x = np.zeros(n)
    r = b.copy()
    z = r * inverse
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
        np.multiply(r, inverse, out=z)
        rz_new = float(r @ z)
        relres = float(np.sqrt(max(rz_new, 0.0)) / denom)
        iterations = k
        if relres <= tol:
            break
        p = z + (rz_new / rz) * p
        rz = rz_new
    else:
        raise _mechanism(system) or ConvergenceError(
            f"PCG did not reach tol={tol:g} within {max_iter} iterations "
            f"(residual {relres:.3e})"
        )
    res, eta = _residuals(system, x, bnorm, _inf_norm(K))
    return x, SolveStats("pcg-jacobi", iterations, relres, time.perf_counter() - t0,
                         true_residual=res, backward_error=eta, **factor)


def expand_displacements(dm: DofMap, u: np.ndarray) -> np.ndarray:
    """Per-point 6-DOF displacements T [u; 0] from the reduced solution."""
    # fixed slots and, through column -1, slave and inactive slots read zero
    full = np.concatenate([np.asarray(u, dtype=float), np.zeros(dm.n_fixed + 1)])
    disp = full[dm.column]
    master, slave = dm.links.T
    disp[slave] = np.einsum("kij,kj->ki", dm.coupling, disp[master])
    return disp


def reaction_forces(system: LinearSystem, u: np.ndarray) -> np.ndarray:
    """Per-point reaction resultants at fixed slots, zero elsewhere."""
    dm = system.dofmap
    r = system.reaction_matrix @ u - system.reaction_rhs
    # free slots read the leading zeros; slave and inactive ones, through -1, the last
    return np.concatenate([np.zeros(dm.n_eq), r, [0.0]])[dm.column]


def recover_end_forces(model: StructuralModel, displacements: np.ndarray) -> np.ndarray:
    """Element end forces in local axes, (n_cells, 2, 6) as (N, Vy, Vz, T, My, Mz).

    Computed as k_local u_local minus the self-weight fixed-end actions, so
    each element's end forces balance the load applied along it; k_local is
    built per slice of ``_SLICE`` cells.
    """
    el = _elements(model)
    m = len(el.ends)
    disp = np.asarray(displacements, dtype=float)
    u_local = (disp[el.ends].reshape(m, 4, 3) @ el.R.transpose(0, 2, 1)).reshape(m, 12, 1)
    p = np.empty_like(el.f)
    for s in range(0, m, _SLICE):
        cells = slice(s, s + _SLICE)
        p[cells] = (el.k(cells) @ u_local[cells])[:, :, 0] - el.f[cells]
    return p.reshape(m, 2, 6)
