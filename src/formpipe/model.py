"""In-memory structural model: 3D points and 2-node line cells decorated with
cross-sections, materials, supports and nodal loads.

Units are fixed package-wide: lengths in mm, forces in N, stresses and moduli
in MPa, densities in kg/mm^3, accelerations in mm/s^2.  Mass in kg times an
acceleration in mm/s^2 gives a force in mN, hence ``KG_MM_S2_TO_N``.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import astuple, dataclass, field
from operator import attrgetter
from typing import NamedTuple

import numpy as np

# 1 N = 1 kg*m/s^2 = 1000 kg*mm/s^2
KG_MM_S2_TO_N = 1.0e-3

STANDARD_GRAVITY_MM_S2 = 9806.65

# the acceleration self-weight acts with, global -Z; shared, so read-only
GRAVITY = np.array([0.0, 0.0, -STANDARD_GRAVITY_MM_S2])
GRAVITY.flags.writeable = False

# below fabrication scale, above double-precision noise at metre-range coordinates
DEFAULT_MERGE_TOL = 1e-6

# relative preconditioned residual at which PCG stops; here, not in the
# solver, so that the CLI can name it without loading the solver
DEFAULT_PCG_TOL = 1e-10

# built-in steel preset yield stress (MPa); used when a material does not carry Ry
DEFAULT_YIELD_STRESS = 300.0

BEAM_LINE = "beam-line"
TRUSS_LINE = "truss-line"
CELL_KINDS = (BEAM_LINE, TRUSS_LINE)

DOF_NAMES = ("ux", "uy", "uz", "rx", "ry", "rz")


def _vec(values, length, name):
    a = np.array(values, dtype=float)
    if a.shape != (length,):
        raise ValueError(f"{name} must be a {length}-vector, got shape {a.shape}")
    return a


class _View:
    """One row of a table.  A view made by its constructor holds its row on
    its own, each column a one-element list, until it is appended to a model."""

    __slots__ = ("_t", "_i")

    def _set(self, k, value):
        self._t._cols[k][self._i] = value

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{type(self).__name__}({fields})"


def _own_row(view, table_type, *values):
    view._t, view._i = object.__new__(table_type), 0
    view._t._cols, view._t._n = [[v] for v in values], 1


def _mask(value):
    mask = np.array(value, dtype=bool)
    if mask.shape != (6,):
        raise ValueError("constraint_mask must have 6 entries")
    return mask


class Point(_View):
    """A model vertex with support mask and optional nodal-load reference.

    ``constraint_mask`` orders DOFs as (ux, uy, uz, rx, ry, rz); True = fixed.
    ``bc_id`` of 0 means no nodal load, otherwise it indexes the model's
    boundary-condition catalog.
    """

    __slots__ = ()
    _FIELDS = ("id", "coords", "constraint_mask", "bc_id")

    def __init__(self, id, coords, constraint_mask=None, bc_id=0):
        mask = np.zeros(6, dtype=bool) if constraint_mask is None else _mask(constraint_mask)
        _own_row(self, PointTable, int(id), _vec(coords, 3, "coords"), mask, int(bc_id))

    id = property(lambda self: int(self._t._cols[0][self._i]), lambda self, v: self._set(0, v))
    coords = property(lambda self: self._t._cols[1][self._i],
                      lambda self, v: self._set(1, _vec(v, 3, "coords")))
    constraint_mask = property(lambda self: self._t._cols[2][self._i],
                               lambda self, v: self._set(2, _mask(v)))
    bc_id = property(lambda self: int(self._t._cols[3][self._i]), lambda self, v: self._set(3, v))


def _pair(connectivity):
    conn = tuple(map(int, connectivity))
    if len(conn) != 2:
        raise ValueError("line cells take exactly two point ids")
    return conn


def _is_truss(kind):
    if kind not in CELL_KINDS:
        raise ValueError(f"unknown cell kind {kind!r}")
    return kind == TRUSS_LINE


class Cell(_View):
    """A 2-node line element referencing section and material catalog ids."""

    __slots__ = ()
    _FIELDS = ("id", "connectivity", "cs_id", "mat_id", "kind")

    def __init__(self, id, connectivity, cs_id, mat_id, kind=BEAM_LINE):
        ends = _pair(connectivity)
        _own_row(self, CellTable, int(id), ends, int(cs_id), int(mat_id), _is_truss(kind))

    id = property(lambda self: int(self._t._cols[0][self._i]), lambda self, v: self._set(0, v))
    connectivity = property(lambda self: tuple(map(int, self._t._cols[1][self._i])),
                            lambda self, v: self._set(1, _pair(v)))
    cs_id = property(lambda self: int(self._t._cols[2][self._i]), lambda self, v: self._set(2, v))
    mat_id = property(lambda self: int(self._t._cols[3][self._i]), lambda self, v: self._set(3, v))
    kind = property(lambda self: TRUSS_LINE if self._t._cols[4][self._i] else BEAM_LINE,
                    lambda self, v: self._set(4, _is_truss(v)))


class _Table:
    """Equal-length columns, the storage behind a model's points or cells.
    ``table[i]`` is a row view: its attribute writes, and in-place writes to
    its arrays, land in the columns until the table grows.  ``append`` copies
    a view's row in, amortised O(1), and rebinds the view to it.

    A column given as an ndarray of the column's dtype is kept as given, not
    copied, so the table owns it from then on: hand it an array that no one
    else holds or writes.  Any other value (a list, an array of another
    dtype) is converted into a new array."""

    __slots__ = ("_n", "_cols")
    _COLUMNS = ()  # (dtype, row shape) per column; columns left out are zero

    def __init__(self, *columns):
        n = len(columns[0])
        self._cols, self._n = [], n
        for value, (dtype, shape) in itertools.zip_longest(columns, self._COLUMNS):
            col = np.zeros((n,) + shape, dtype) if value is None else np.asarray(value, dtype)
            if col.shape != (n,) + shape:
                raise ValueError(f"column of shape {col.shape}, expected {(n,) + shape}")
            self._cols.append(col)

    def __len__(self):
        return self._n

    def __getitem__(self, key):
        rows = range(self._n)[key]
        if isinstance(rows, range):
            return [self[i] for i in rows]
        view = object.__new__(self._VIEW)
        view._t, view._i = self, rows
        return view

    def append(self, view):
        """Copy ``view``'s row to the end and rebind ``view`` to it."""
        if not isinstance(view, self._VIEW):
            raise TypeError(f"expected a {self._VIEW.__name__}, got {type(view).__name__}")
        n = self._n
        if n == len(self._cols[0]):
            for k, col in enumerate(self._cols):
                self._cols[k] = np.empty((2 * n + 8,) + col.shape[1:], col.dtype)
                self._cols[k][:n] = col[:n]
        for dst, src in zip(self._cols, view._t._cols):
            dst[n] = src[view._i]
        self._n = n + 1
        view._t, view._i = self, n

    def take(self, rows):
        """A new table of copies of the given rows: an index array, a boolean mask or a slice."""
        rows = np.arange(self._n)[rows]  # fancy indexing copies, a slice would not
        table = object.__new__(type(self))
        table._cols = [np.asarray(col[: self._n], dtype)[rows]
                       for col, (dtype, _) in zip(self._cols, self._COLUMNS)]
        table._n = len(table._cols[0])
        return table


def _column(k, doc):
    return property(lambda self: self._cols[k][: self._n], doc=doc)


# Ascending point ids are looked up in a table over their span while it
# holds at most this many entries per point and id looked up; beyond that a
# binary search costs less than filling the table
_DENSE_SPAN = 4


class PointTable(_Table):
    """Point columns: ids (n,), coords (n, 3), support masks (n, 6) and load ids (n,)."""

    __slots__ = ()
    _COLUMNS = ((np.int64, ()), (np.float64, (3,)), (np.bool_, (6,)), (np.int64, ()))
    _VIEW = Point
    ids = _column(0, "point ids")
    coords = _column(1, "coordinates, (n, 3)")
    masks = _column(2, "constraint masks, (n, 6), True = fixed")
    bc_ids = _column(3, "nodal-load ids, 0 = none")

    def positions(self, ids) -> np.ndarray:
        """Row of each of ``ids`` (the last of equal ids, as a dict from id to
        row would give), -1 where no point has that id.  Ascending ids over a
        span of at most ``_DENSE_SPAN`` times n plus the ids looked up, as
        every repair leaves them, are read from a table over that span; any
        other ids are searched."""
        ids, own = np.asarray(ids, dtype=np.int64), self.ids
        n = len(own)
        if not n:
            return np.full(ids.shape, -1)
        sort = np.any(own[1:] <= own[:-1])
        if not sort and own[0] == 0 and own[-1] == n - 1:  # ids 0..n-1, as parse_model gives
            return np.where((ids >= 0) & (ids < n), ids, -1)
        low, span = own[0], int(own[-1]) - int(own[0]) + 1
        if not sort and span <= _DENSE_SPAN * (n + ids.size):
            table = np.full(span, -1)
            table[own - low] = np.arange(n)
            inside = (ids >= low) & (ids <= own[-1])
            return np.where(inside, table[np.where(inside, ids - low, 0)], -1)
        order = np.argsort(own, kind="stable") if sort else np.arange(n)
        pos = np.searchsorted(own[order], ids, side="right") - 1
        return np.where((pos >= 0) & (own[order[pos]] == ids), order[pos], -1)


class CellTable(_Table):
    """Cell columns: ids (m,), end point ids (m, 2), section and material ids
    (m,) and the truss flag (m,), False for beams."""

    __slots__ = ()
    _COLUMNS = ((np.int64, ()), (np.int64, (2,)), (np.int64, ()), (np.int64, ()), (np.bool_, ()))
    _VIEW = Cell
    ids = _column(0, "cell ids")
    ends = _column(1, "end point ids, (m, 2)")
    cs_ids = _column(2, "cross-section ids")
    mat_ids = _column(3, "material ids")
    truss = _column(4, "True for truss cells, False for beams")


@dataclass(frozen=True)
class Circle:
    """Solid circular section; ``diameter`` in mm."""

    diameter: float


@dataclass(frozen=True)
class Rectangle:
    """Solid rectangular section.

    Height extends along the local y axis, width along local z, so
    Iz = w*h^3/12 and Iy = h*w^3/12.  ``ref_axis``/``ref_code`` optionally pin
    the orientation of the named local axis: a negative code is a signed
    global-axis index (+-1 = x, +-2 = y, +-3 = z), a non-negative code is a
    point id whose position (seen from the element's first node) gives the
    reference direction.
    """

    width: float
    height: float
    ref_axis: str | None = None
    ref_code: int | None = None


@dataclass(frozen=True)
class SectionProperties:
    """Area, second moments, torsion constant and section moduli.

    As a section shape (``GenericSection``) it gives the values directly:
    homogenized members whose stiffness and strength come from experiments
    rather than a geometric shape.
    """

    A: float  # mm^2
    Iy: float  # mm^4
    Iz: float  # mm^4
    J: float  # mm^4
    Wy: float  # mm^3
    Wz: float  # mm^3
    Wt: float  # mm^3


GenericSection = SectionProperties


@dataclass(eq=False)
class CrossSection:
    id: int
    shape: object
    extra: tuple = ()  # unknown catalog keys, preserved verbatim as (key, raw) pairs


def _rectangle_torsion(width, height):
    """St. Venant constants for a solid rectangle (Roark's closed forms).

    With the long side L and short side t:
        J  = L*t^3 * (1/3 - 0.21*(t/L)*(1 - t^4/(12*L^4)))
        Wt = L*t^2 / (3 + 1.8*t/L)
    Both tend to the thin-strip limits L*t^3/3 and L*t^2/3.
    """
    long_side = max(width, height)
    t = min(width, height)
    ratio = t / long_side
    J = long_side * t**3 * (1.0 / 3.0 - 0.21 * ratio * (1.0 - ratio**4 / 12.0))
    Wt = long_side * t**2 / (3.0 + 1.8 * ratio)
    return J, Wt


def section_properties(shape) -> SectionProperties:
    """Derive area, second moments, torsion constant and section moduli of a
    section shape.  Raises ValueError for dimensions that are not positive
    (NaN included) and for properties that overflow, to inf or OverflowError.
    """
    try:
        props = _shape_properties(shape)
        if all(math.isfinite(v) for v in astuple(props)):
            return props
    except OverflowError:  # a power of a huge dimension raises it; a product gives inf
        pass
    raise ValueError("section properties must be finite")


def _shape_properties(shape) -> SectionProperties:
    if isinstance(shape, Circle):
        d = shape.diameter
        if not d > 0:
            raise ValueError("circle diameter must be positive")
        A = math.pi * d**2 / 4.0
        I = math.pi * d**4 / 64.0
        J = math.pi * d**4 / 32.0
        W = math.pi * d**3 / 32.0
        Wt = math.pi * d**3 / 16.0
        return SectionProperties(A=A, Iy=I, Iz=I, J=J, Wy=W, Wz=W, Wt=Wt)
    if isinstance(shape, Rectangle):
        b, h = shape.width, shape.height
        if not (b > 0 and h > 0):
            raise ValueError("rectangle dimensions must be positive")
        A = b * h
        Iz = b * h**3 / 12.0
        Iy = h * b**3 / 12.0
        Wz = Iz / (h / 2.0)
        Wy = Iy / (b / 2.0)
        J, Wt = _rectangle_torsion(b, h)
        return SectionProperties(A=A, Iy=Iy, Iz=Iz, J=J, Wy=Wy, Wz=Wz, Wt=Wt)
    if isinstance(shape, GenericSection):
        if not all(v > 0 for v in astuple(shape)):
            raise ValueError("generic section properties must be positive")
        return shape
    raise TypeError(f"unsupported section shape {type(shape).__name__}")


@dataclass(eq=False)
class Material:
    """Isotropic linear-elastic material.

    ``tAlpha`` is parsed and stored but never used (no thermal loading).
    ``Ry`` is the yield stress driving the resistance ratio; files that do not
    carry it fall back to the steel preset default.
    """

    id: int
    E: float  # MPa
    nu: float
    tAlpha: float = 0.0  # 1/K
    density: float = 0.0  # kg/mm^3
    Ry: float = DEFAULT_YIELD_STRESS  # MPa
    kind: str = "IsoLinEl"
    extra: tuple = ()

    @property
    def G(self) -> float:
        return self.E / (2.0 * (1.0 + self.nu))


@dataclass(eq=False)
class BoundaryConditionEntry:
    """Nodal load: (Fx, Fy, Fz, Mx, My, Mz) in N and N*mm, global axes."""

    id: int
    components: np.ndarray
    kind: str = "NodalLoad"
    extra: tuple = ()

    def __post_init__(self):
        self.components = _vec(self.components, 6, "components")


@dataclass(eq=False)
class RigidLink:
    """Kinematic tie u_slave = u_master + theta_master x r, theta equal.

    ``offset`` is the arm vector r from master to slave; None means it is
    computed from point positions when the system is assembled.
    """

    master: int
    slave: int
    offset: np.ndarray | None = None

    def __post_init__(self):
        if self.offset is not None:
            self.offset = _vec(self.offset, 3, "offset")


@dataclass(eq=False)
class StructuralModel:
    """Points and cells, as columns behind the ``points``/``cells`` sequence
    views, plus the catalogs, rigid links and the solver-side self-weight
    flag.  Assigning a list of views to ``points`` or ``cells`` copies
    their rows into a new table and rebinds the views to them."""

    comment: str = ""
    points: PointTable = ()
    cells: CellTable = ()
    cross_sections: dict = field(default_factory=dict)
    materials: dict = field(default_factory=dict)
    bcs: dict = field(default_factory=dict)
    rigid_links: list = field(default_factory=list)
    self_weight_enabled: bool = True

    def __setattr__(self, name, value):
        table = {"points": PointTable, "cells": CellTable}.get(name)
        if table is not None and not isinstance(value, table):
            views, value = value, table(())
            for view in views:
                value.append(view)
        object.__setattr__(self, name, value)

    def point_index(self) -> dict:
        """Map point id -> position in ``points``."""
        return dict(zip(self.points.ids.tolist(), range(len(self.points))))

    def coords_array(self) -> np.ndarray:
        return self.points.coords.copy()

    def copy(self) -> "StructuralModel":
        """An independent copy: the columns as array copies, the catalogs deep-copied."""
        catalogs = copy.deepcopy((self.cross_sections, self.materials, self.bcs, self.rigid_links))
        points, cells = self.points.take(slice(None)), self.cells.take(slice(None))
        return StructuralModel(self.comment, points, cells, *catalogs, self.self_weight_enabled)


def _lengths(d: np.ndarray) -> np.ndarray:
    """The cell length, formed here alone: the row lengths of the end differences
    ``d``, rounded as ``np.linalg.norm(d, axis=1)``, with no copy of ``d``; squares ``d``."""
    d *= d
    return np.sqrt(d.sum(axis=1))


def cell_lengths(model: StructuralModel, rows=slice(None)) -> np.ndarray:
    """Length of every cell, or of the cell ``rows``, in table order, as the
    solver forms it.  A cell with a missing end point gets NaN, which no
    tolerance test passes."""
    ends = model.points.positions(model.cells.ends[rows])
    named = np.flatnonzero((ends >= 0).all(axis=1))
    coords = model.points.coords
    d = coords[ends[named, 0]]
    d -= coords[ends[named, 1]]
    lengths = np.full(len(ends), np.nan)
    lengths[named] = _lengths(d)
    return lengths


@np.errstate(invalid="ignore", divide="ignore")  # in the cells it reports
def cell_frames(model: StructuralModel, rows=slice(None)):
    """Local triads (k, 3, 3), rows [ex, ey, ez], lengths and the findings of
    the cell ``rows``, whose ends must name points: a missing reference
    point, a zero length, a reference direction zero or parallel to the cell.

    Local x runs along the cell; local z is global Z projected perpendicular
    to it, global X within 1e-6 of vertical, unless a Rectangle's reference
    direction pins the local axis it names.
    """
    points, cells = model.points, model.cells
    ends, cs_ids = points.positions(cells.ends[rows]), cells.cs_ids[rows]
    xa = points.coords[ends[:, 0]]
    dx = points.coords[ends[:, 1]] - xa
    L = _lengths(dx.copy())
    ex = dx / L[:, None]
    vertical = np.linalg.norm(np.cross(ex, [0.0, 0.0, 1.0]), axis=1) < 1e-6
    ref = np.where(vertical[:, None], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    pinned, pins_y = np.zeros((2, len(cs_ids)), dtype=bool)
    missing = []
    for cs_id in distinct(cs_ids).tolist():
        shape = model.cross_sections[cs_id].shape
        if isinstance(shape, Rectangle) and shape.ref_axis is not None:
            sel, code = cs_ids == cs_id, shape.ref_code
            if code < 0:  # -1..-3 by validate: the negative global axis
                ref[sel] = np.where(np.arange(3) == -code - 1, -1.0, 0.0)
            elif (row := points.positions([code])[0]) >= 0:
                ref[sel] = points.coords[row] - xa[sel]
            else:
                missing.append(Finding("unorientable-cell",
                                       f"section reference point {code} does not exist"))
            pinned[sel], pins_y[sel] = True, shape.ref_axis == "y"
    norm = np.linalg.norm(ref, axis=1)
    ref /= np.where(pinned, norm, 1.0)[:, None]
    proj = ref - np.einsum("ij,ij->i", ref, ex)[:, None] * ex
    proj_norm = np.linalg.norm(proj, axis=1)
    axis = proj / proj_norm[:, None]
    ey = np.where(pins_y[:, None], axis, np.cross(axis, ex))
    ez = np.where(pins_y[:, None], np.cross(ex, axis), axis)
    # a zero length or reference leaves NaN, never a parallel finding
    return np.stack([ex, ey, ez], axis=1), L, missing + _row_findings([
        (L == 0.0, "zero-length-cell", "zero-length cell {0}"),
        (pinned & (norm == 0.0), "unorientable-cell",
         "cell {0}: zero reference direction for element orientation"),
        (proj_norm < 1e-12, "unorientable-cell",
         "cell {0}: reference direction is parallel to the element axis"),
    ], cells.ids[rows])


class CellProperties(NamedTuple):
    """Section and material values per cell, each an (m,) array."""

    A: np.ndarray  # mm^2
    Iy: np.ndarray  # mm^4
    Iz: np.ndarray  # mm^4
    J: np.ndarray  # mm^4
    Wy: np.ndarray  # mm^3
    Wz: np.ndarray  # mm^3
    Wt: np.ndarray  # mm^3
    E: np.ndarray  # MPa
    G: np.ndarray  # MPa
    density: np.ndarray  # kg/mm^3
    Ry: np.ndarray  # MPa


def per_id(ids, row, width):
    """Evaluate ``row(catalog_id)`` once per distinct id, spread over the rows."""
    uniq, inverse = np.unique(np.asarray(ids, dtype=np.int64), return_inverse=True)
    table = np.array([row(i) for i in uniq.tolist()], dtype=float).reshape(len(uniq), width)
    return table[inverse]


def cell_properties(model: StructuralModel, rows=slice(None)) -> CellProperties:
    """Section and material values of every cell, or of the cell ``rows``
    (a mask or an index array), as arrays."""
    cells, cs = model.cells, model.cross_sections
    sections = per_id(cells.cs_ids[rows], lambda i: astuple(section_properties(cs[i].shape)), 7)
    material = attrgetter("E", "G", "density", "Ry")
    materials = per_id(cells.mat_ids[rows], lambda i: material(model.materials[i]), 4)
    return CellProperties(*sections.T, *materials.T)


def stiffness_terms(E, G, A, Iy, Iz, J, L) -> tuple:
    """The distinct entries of each local element stiffness, rounded as the
    solver assembles them: EA/L, GJ/L, then 12EI/L^3, 6EI/L^2, 4EI/L and
    2EI/L with Iz (bending in the local x-y plane) and with Iy (x-z)."""
    bending = [(12.0 * E * I / L**3, 6.0 * E * I / L**2, 4.0 * E * I / L, 2.0 * E * I / L)
               for I in (Iz, Iy)]
    return (E * A / L, G * J / L, *bending[0], *bending[1])


def self_weight_levers(props: CellProperties, beam: np.ndarray, L: np.ndarray) -> tuple:
    """Each cell's line mass rho A (kg/mm), its end-force lever L/2 and beam moment lever L^2/12."""
    return (np.where(props.density > 0.0, props.density * props.A, 0.0), L / 2.0,
            np.where(beam, L**2 / 12.0, 0.0))


@dataclass(frozen=True)
class Finding:
    kind: str
    message: str


@dataclass
class ValidationReport:
    ok: bool
    defects: list
    warnings: list


def raise_first(findings, error) -> None:
    """Raise ``error`` with the message of the first of ``findings``, if any."""
    if findings:
        raise error(findings[0].message)


def distinct(values) -> np.ndarray:
    """The sorted distinct values of an integer array, as ``np.unique``
    gives them.  Its plain form asks ``np.ma.is_masked``, which loads
    numpy.ma (about 17 ms)."""
    values = np.sort(np.ravel(values))
    first = np.ones(values.shape, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def isin(values, test) -> np.ndarray:
    """``np.isin(values, test)`` of integer arrays by one sort and
    ``searchsorted``, which loads no numpy.ma."""
    values, test = np.asarray(values), np.sort(np.ravel(test))
    if not test.size:
        return np.zeros(values.shape, dtype=bool)
    return test[np.searchsorted(test, values).clip(max=test.size - 1)] == values


def _repeats(ids: np.ndarray) -> np.ndarray:
    """True where an id already occurred at an earlier position: a stable
    sort puts each id's first position first among its equals."""
    order = np.argsort(ids, kind="stable")
    ranked = ids[order]
    repeat = np.zeros(len(ids), dtype=bool)
    repeat[order[1:]] = ranked[1:] == ranked[:-1]
    return repeat


def _row_findings(checks, *columns) -> list:
    """Findings for the rows that fail any of ``checks``, (failed mask, kind,
    message) triples, in row order and within a row in check order.  The
    message formats the row's values of ``columns`` as {0}, {1}, ..."""
    failed = np.array([mask for mask, _, _ in checks], dtype=bool).reshape(len(checks), -1)
    rows = np.flatnonzero(failed.any(axis=0))
    values = np.column_stack(columns)[rows].tolist()
    return [Finding(kind, message.format(*row_values))
            for row, row_values in zip(rows, values)
            for (_, kind, message), hit in zip(checks, failed[:, row]) if hit]


def _missing(ids: np.ndarray, catalog: dict) -> np.ndarray:
    return ~isin(ids, np.fromiter(catalog, dtype=np.int64, count=len(catalog)))


def link_ends(links) -> np.ndarray:
    """(k, 2) master and slave point ids of rigid links."""
    return np.array([(l.master, l.slave) for l in links], dtype=np.int64).reshape(-1, 2)


def point_aims(model: StructuralModel) -> list:
    """The cross-sections whose Rectangle ``refNode`` names a point id."""
    return [cs for cs in model.cross_sections.values()
            if isinstance(cs.shape, Rectangle) and cs.shape.ref_axis is not None
            and cs.shape.ref_code >= 0]


def aim_points(model: StructuralModel) -> np.ndarray:
    """Mask of the points that a Rectangle's point-id ``refNode`` names."""
    return isin(model.points.ids, [cs.shape.ref_code for cs in point_aims(model)])


def used_points(model: StructuralModel) -> np.ndarray:
    """Mask of the points that are the end of a cell or a rigid link."""
    ends = np.concatenate([model.cells.ends.ravel(), link_ends(model.rigid_links).ravel()])
    return isin(model.points.ids, ends)


def orientation_points(model: StructuralModel) -> np.ndarray:
    """Mask of the points that only aim sections: the ``aim_points`` that
    are unloaded and the end of no cell or rigid link.  They are not
    structure: they get no equations and need no support."""
    aims = aim_points(model)
    if not aims.any():
        return aims
    return aims & ~used_points(model) & (model.points.bc_ids == 0)


def unreached_slots(model: StructuralModel) -> np.ndarray:
    """The rotation rule, written here alone: mask (n, 6) of the slots that
    no stiffness reaches, the rotations of points that no beam and no rigid
    link (slaves too) ends at and every slot of ``orientation_points``."""
    points = model.points
    rotates = isin(points.ids, model.cells.ends[~model.cells.truss])
    rotates |= isin(points.ids, link_ends(model.rigid_links))
    unreached = np.zeros((len(points), 6), dtype=bool)
    unreached[:, 3:] = ~rotates[:, None]
    unreached[orientation_points(model)] = True
    return unreached


def rigid_link_findings(links, points: PointTable) -> list:
    """The rigid-link rule, the one place it is written: each link joins two
    distinct points of ``points``, an offset it carries is finite, no point
    is slave of two links, a slave carries no support and no point is both
    master and slave, so links never chain.  Returns the findings in link
    order, then the points that are both master and slave by id."""
    masters, slaves = link_ends(links).T
    point_ids = points.ids
    supported = point_ids[points.masks.any(axis=1)]
    bad_offset = [l.offset is not None and not np.all(np.isfinite(l.offset)) for l in links]
    findings = _row_findings([
        (~isin(masters, point_ids), "dangling-reference",
         "rigid link master references missing point {0}"),
        (~isin(slaves, point_ids), "dangling-reference",
         "rigid link slave references missing point {1}"),
        (masters == slaves, "rigid-link-conflict", "rigid link with master == slave {0}"),
        (_repeats(slaves), "rigid-link-conflict", "point {1} is slave of two links"),
        (isin(slaves, supported), "rigid-link-conflict",
         "rigid link slave {1} may not carry support constraints"),
        (bad_offset, "non-finite", "rigid link offset for slave {1} not finite"),
    ], masters, slaves)
    return findings + [Finding("rigid-link-conflict", f"point {pid} is both master and slave")
                       for pid in distinct(slaves[isin(slaves, masters)]).tolist()]


# cells whose lengths, stiffness and self-weight terms ``validate``, and
# whose frames ``frame_findings``, form at a time; ``solve``'s per-cell
# arrays reuse the heap a whole-model pass frees, and slices of 1,024 cells
# raised its peak RSS on the 50x5x24 arch (2.9k cells) by 0.35 MB
_CELL_SLICE = 1 << 12


def _cell_checks(model: StructuralModel, tol: float, overflow: bool):
    """Rows of the cells no longer than ``tol`` and, with ``overflow``, of the
    cells of nonzero length whose ``stiffness_terms`` and, with
    ``self_weight_enabled``, whose self-weight load terms are not all
    finite, each ascending; lengths and terms are formed ``_CELL_SLICE``
    cells at a time."""
    short, stiff, heavy = [], [], []
    for start in range(0, len(model.cells), _CELL_SLICE):
        lengths = cell_lengths(model, slice(start, start + _CELL_SLICE))
        short.append(start + np.flatnonzero(lengths <= tol))
        if not overflow:
            continue
        # a cell shorter than tol is still assembled when no clean removes it
        at = np.flatnonzero(lengths > 0.0)
        rows, length = start + at, lengths[at]
        props, beam = cell_properties(model, rows), ~model.cells.truss[rows]
        values = stiffness_terms(props.E, props.G, props.A, props.Iy * beam, props.Iz * beam,
                                 props.J * beam, length)
        stiff.append(rows[~np.all([np.isfinite(v) for v in values], axis=0)])
        del values
        if model.self_weight_enabled:
            w, half, moment = self_weight_levers(props, beam, length)
            q = w * STANDARD_GRAVITY_MM_S2 * KG_MM_S2_TO_N
            heavy.append(rows[~(np.isfinite(q * half) & np.isfinite(q * moment))])
    empty = np.zeros(0, dtype=np.int64)
    return (np.concatenate([empty, *short]), np.concatenate([empty, *stiff]),
            np.concatenate([empty, *heavy]))


def frame_findings(model: StructuralModel) -> list:
    """The ``cell_frames`` findings of every cell, ``_CELL_SLICE`` cells at a time."""
    return [f for start in range(0, len(model.cells), _CELL_SLICE)
            for f in cell_frames(model, slice(start, start + _CELL_SLICE))[2]]


# what overflows, or divides by an L^3 that underflows, is reported as a finding
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def validate(model: StructuralModel, tol: float = DEFAULT_MERGE_TOL) -> ValidationReport:
    """Consistency check; reports findings without mutating the model.

    Blocking defects (``ok=False``): dangling id references, non-finite
    values, catalog values a solve cannot use (section dimensions or
    properties that are not positive and finite, a Rectangle's negative
    axis code outside -1..-3, E or Ry not positive and finite, nu outside
    -1 < nu <= 0.5, density not finite), duplicate ids, rigid links that
    break the rule of ``rigid_link_findings``, loads whose norm overflows
    double precision and cell stiffness terms (``stiffness_terms``) or,
    with ``self_weight_enabled``, self-weight load terms that do; those
    terms are bounded, for every cell of nonzero length, when the points,
    cells and catalogs show no other defect.  Degenerate cells,
    never-referenced catalog entries and points that no cell or rigid link
    uses, ``orientation_points`` aside, are warnings only.
    """
    points, cells = model.points, model.cells
    pids, ends, bc_ids = points.ids, cells.ends, points.bc_ids
    no_point = ~isin(ends, pids)
    no_cs = _missing(cells.cs_ids, model.cross_sections)
    no_mat = _missing(cells.mat_ids, model.materials)
    no_bc = (bc_ids != 0) & _missing(bc_ids, model.bcs)
    defects = _row_findings([
        (_repeats(pids), "duplicate-id", "duplicate point id {0}"),
        (~np.isfinite(points.coords).all(axis=1), "non-finite",
         "point {0} has non-finite coordinates"),
    ], pids)
    defects += _row_findings([
        (_repeats(cells.ids), "duplicate-id", "duplicate cell id {0}"),
        (no_point[:, 0], "dangling-reference", "cell {0} references missing point {1}"),
        (no_point[:, 1], "dangling-reference", "cell {0} references missing point {2}"),
        (no_cs, "dangling-reference", "cell {0} references missing cross-section {3}"),
        (no_mat, "dangling-reference", "cell {0} references missing material {4}"),
    ], cells.ids, ends, cells.cs_ids, cells.mat_ids)
    defects += _row_findings(
        [(no_bc, "dangling-reference", "point {0} references missing load {1}")], pids, bc_ids)
    used_cs = set(cells.cs_ids[~no_cs].tolist())
    used_mat = set(cells.mat_ids[~no_mat].tolist())
    used_bc = set(bc_ids[(bc_ids != 0) & ~no_bc].tolist())

    for cs_id in sorted(model.cross_sections):
        shape = model.cross_sections[cs_id].shape
        try:
            section_properties(shape)
        except ValueError as exc:
            defects.append(Finding("invalid-catalog", f"cross-section {cs_id}: {exc}"))
        if isinstance(shape, Rectangle) and shape.ref_axis is not None:
            code = shape.ref_code
            if code < -3:
                defects.append(Finding("invalid-catalog",
                                       f"cross-section {cs_id}: bad global axis code {code}"))
            elif code >= 0 and code not in pids:
                defects.append(Finding("dangling-reference",
                                       f"cross-section {cs_id} references missing point {code}"))
    for mat_id in sorted(model.materials):
        mat = model.materials[mat_id]
        if not all(math.isfinite(v) for v in (mat.E, mat.nu, mat.density, mat.Ry)):
            defects.append(Finding("invalid-catalog", f"material {mat_id} has non-finite values"))
        elif not (mat.E > 0 and mat.Ry > 0):
            defects.append(Finding("invalid-catalog", f"material {mat_id} needs positive E and Ry"))
        elif not -1.0 < mat.nu <= 0.5:  # else G = E / (2 (1 + nu)) is not positive
            defects.append(Finding("invalid-catalog", f"material {mat_id} needs -1 < nu <= 0.5"))
    # the terms need every reference and catalog value sound
    short, stiff, heavy = _cell_checks(model, tol, overflow=not defects)
    warnings = [Finding("degenerate-cell", f"cell {i} shorter than merge tolerance")
                for i in cells.ids[short].tolist()]
    defects += [Finding("overflow", f"cell {i} stiffness overflows double precision")
                for i in cells.ids[stiff].tolist()]
    defects += [Finding("overflow", f"cell {i} self-weight overflows double precision")
                for i in cells.ids[heavy].tolist()]

    for bc in model.bcs.values():
        if not np.all(np.isfinite(bc.components)):
            defects.append(Finding("non-finite", f"load {bc.id} has non-finite components"))
        elif not np.isfinite(np.linalg.norm(bc.components)):
            defects.append(Finding("overflow", f"load {bc.id} overflows double precision"))

    defects += rigid_link_findings(model.rigid_links, points)

    for what, catalog, used in (("cross-section", model.cross_sections, used_cs),
                                ("material", model.materials, used_mat),
                                ("load", model.bcs, used_bc)):
        warnings += [Finding("unreferenced-catalog", f"{what} {key} never referenced")
                     for key in sorted(catalog) if key not in used]
    unused = ~used_points(model) & ~orientation_points(model)
    warnings += _row_findings([(unused, "unused-point", "point {0} referenced by no cell")], pids)
    return ValidationReport(ok=not defects, defects=defects, warnings=warnings)
