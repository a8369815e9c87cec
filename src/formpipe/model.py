"""In-memory structural model: 3D points and 2-node line cells decorated with
cross-sections, materials, supports and nodal loads.

Units are fixed package-wide: lengths in mm, forces in N, stresses and moduli
in MPa, densities in kg/mm^3, accelerations in mm/s^2.  Mass in kg times an
acceleration in mm/s^2 gives a force in mN, hence ``KG_MM_S2_TO_N``.
"""

from __future__ import annotations

import copy
import math
from dataclasses import astuple, dataclass, field
from operator import attrgetter
from typing import NamedTuple

import numpy as np

# 1 N = 1 kg*m/s^2 = 1000 kg*mm/s^2
KG_MM_S2_TO_N = 1.0e-3

STANDARD_GRAVITY_MM_S2 = 9806.65

# below fabrication scale, above double-precision noise at metre-range coordinates
DEFAULT_MERGE_TOL = 1e-6

# built-in steel preset yield stress (MPa); used when a material does not carry Ry
DEFAULT_YIELD_STRESS = 300.0

BEAM_LINE = "beam-line"
TRUSS_LINE = "truss-line"
CELL_KINDS = (BEAM_LINE, TRUSS_LINE)

DOF_NAMES = ("ux", "uy", "uz", "rx", "ry", "rz")


def _vec(values, length, name):
    a = np.asarray(values, dtype=float)
    if a.shape != (length,):
        raise ValueError(f"{name} must be a {length}-vector, got shape {a.shape}")
    return a


@dataclass(eq=False)
class Point:
    """A model vertex with support mask and optional nodal-load reference.

    ``constraint_mask`` orders DOFs as (ux, uy, uz, rx, ry, rz); True = fixed.
    ``bc_id`` of 0 means no nodal load, otherwise it indexes the model's
    boundary-condition catalog.
    """

    id: int
    coords: np.ndarray
    constraint_mask: np.ndarray = field(
        default_factory=lambda: np.zeros(6, dtype=bool)
    )
    bc_id: int = 0

    def __post_init__(self):
        self.coords = _vec(self.coords, 3, "coords")
        mask = np.asarray(self.constraint_mask, dtype=bool).copy()
        if mask.shape != (6,):
            raise ValueError("constraint_mask must have 6 entries")
        self.constraint_mask = mask


@dataclass(eq=False)
class Cell:
    """A 2-node line element referencing section and material catalog ids."""

    id: int
    connectivity: tuple
    cs_id: int
    mat_id: int
    kind: str = BEAM_LINE

    def __post_init__(self):
        conn = tuple(int(p) for p in self.connectivity)
        if len(conn) != 2:
            raise ValueError("line cells take exactly two point ids")
        self.connectivity = conn
        if self.kind not in CELL_KINDS:
            raise ValueError(f"unknown cell kind {self.kind!r}")


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
class GenericSection:
    """Section given directly by its resultant properties.

    Used for homogenized members whose stiffness and strength come from
    experiments rather than a geometric shape.
    """

    A: float
    Iy: float
    Iz: float
    J: float
    Wy: float
    Wz: float
    Wt: float


@dataclass(frozen=True)
class SectionProperties:
    A: float  # mm^2
    Iy: float  # mm^4
    Iz: float  # mm^4
    J: float  # mm^4
    Wy: float  # mm^3
    Wz: float  # mm^3
    Wt: float  # mm^3


@dataclass(eq=False)
class CrossSection:
    id: int
    shape: object
    extra: tuple = ()  # unknown catalog keys, preserved verbatim as (key, raw) pairs

    @property
    def properties(self) -> SectionProperties:
        return section_properties(self)


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


def section_properties(cs) -> SectionProperties:
    """Derive area, second moments, torsion constant and section moduli.

    Accepts a CrossSection or a bare shape.  Raises ValueError for
    dimensions that are not positive (NaN included).
    """
    shape = cs.shape if isinstance(cs, CrossSection) else cs
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
        vals = (shape.A, shape.Iy, shape.Iz, shape.J, shape.Wy, shape.Wz, shape.Wt)
        if not all(v > 0 for v in vals):
            raise ValueError("generic section properties must be positive")
        return SectionProperties(*vals)
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


def default_gravity() -> np.ndarray:
    return np.array([0.0, 0.0, -STANDARD_GRAVITY_MM_S2])


@dataclass(eq=False)
class StructuralModel:
    comment: str = ""
    points: list = field(default_factory=list)
    cells: list = field(default_factory=list)
    cross_sections: dict = field(default_factory=dict)
    materials: dict = field(default_factory=dict)
    bcs: dict = field(default_factory=dict)
    rigid_links: list = field(default_factory=list)
    gravity: np.ndarray = field(default_factory=default_gravity)
    self_weight_enabled: bool = True

    def __post_init__(self):
        self.gravity = _vec(self.gravity, 3, "gravity")

    def point_index(self) -> dict:
        """Map point id -> position in ``points``."""
        return {p.id: i for i, p in enumerate(self.points)}

    def point_by_id(self) -> dict:
        return {p.id: p for p in self.points}

    def coords_array(self) -> np.ndarray:
        if not self.points:
            return np.zeros((0, 3))
        return np.array([p.coords for p in self.points])

    def copy(self) -> "StructuralModel":
        return copy.deepcopy(self)


def cell_lengths(model: StructuralModel) -> np.ndarray:
    """Length of every cell, in list order, from one batched dot product
    (the same rounding as ``np.linalg.norm`` of each end difference).  A
    cell with a missing end point gets NaN, which no tolerance test passes."""
    index = model.point_index()
    ends = np.fromiter((index.get(pid, -1) for c in model.cells for pid in c.connectivity),
                       dtype=np.intp, count=2 * len(model.cells)).reshape(-1, 2)
    # index -1 picks the appended NaN row
    coords = np.array([p.coords for p in model.points] + [np.full(3, np.nan)])
    d = coords[ends[:, 0]] - coords[ends[:, 1]]
    return np.sqrt(np.vecdot(d, d))


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


def _per_cell(ids, row, width):
    """Evaluate ``row(catalog_id)`` once per distinct id, spread over the cells."""
    uniq, inverse = np.unique(np.asarray(ids, dtype=np.int64), return_inverse=True)
    table = np.array([row(i) for i in uniq.tolist()], dtype=float).reshape(len(uniq), width)
    return table[inverse]


def cell_properties(model: StructuralModel, cells=None) -> CellProperties:
    """Section and material values of ``cells`` (default: all) as arrays."""
    cells = model.cells if cells is None else cells
    sections = _per_cell(
        [c.cs_id for c in cells], lambda i: astuple(model.cross_sections[i].properties), 7
    )
    material = attrgetter("E", "G", "density", "Ry")
    materials = _per_cell([c.mat_id for c in cells], lambda i: material(model.materials[i]), 4)
    return CellProperties(*sections.T, *materials.T)


@dataclass(frozen=True)
class Finding:
    kind: str
    message: str


@dataclass
class ValidationReport:
    ok: bool
    defects: list
    warnings: list

    def by_kind(self, kind: str) -> list:
        return [f for f in self.defects + self.warnings if f.kind == kind]


def validate(model: StructuralModel, tol: float = DEFAULT_MERGE_TOL) -> ValidationReport:
    """Consistency check; reports findings without mutating the model.

    Blocking defects (``ok=False``): dangling id references, non-finite
    values, catalog values a solve cannot use (section dimensions or
    properties that are not positive and finite, E or Ry not positive and
    finite, nu or density not finite), duplicate ids and conflicting rigid
    links.  Degenerate cells, never-referenced catalog entries and points
    referenced by no cell are warnings only.
    """
    short = (cell_lengths(model) <= tol).tolist()
    defects = []
    warnings = []

    seen_pids = set()
    finite = np.isfinite(model.coords_array()).all(axis=1).tolist()
    for p, is_finite in zip(model.points, finite):
        if p.id in seen_pids:
            defects.append(Finding("duplicate-id", f"duplicate point id {p.id}"))
        seen_pids.add(p.id)
        if not is_finite:
            defects.append(Finding("non-finite", f"point {p.id} has non-finite coordinates"))

    by_id = {p.id: p for p in model.points}

    seen_cids = set()
    used_points = set()
    used_cs = set()
    used_mat = set()
    for c, is_short in zip(model.cells, short):
        if c.id in seen_cids:
            defects.append(Finding("duplicate-id", f"duplicate cell id {c.id}"))
        seen_cids.add(c.id)
        for pid in c.connectivity:
            if pid not in by_id:
                defects.append(
                    Finding("dangling-reference", f"cell {c.id} references missing point {pid}")
                )
            else:
                used_points.add(pid)
        if c.cs_id not in model.cross_sections:
            defects.append(
                Finding("dangling-reference", f"cell {c.id} references missing cross-section {c.cs_id}")
            )
        else:
            used_cs.add(c.cs_id)
        if c.mat_id not in model.materials:
            defects.append(
                Finding("dangling-reference", f"cell {c.id} references missing material {c.mat_id}")
            )
        else:
            used_mat.add(c.mat_id)
        if is_short:
            warnings.append(Finding("degenerate-cell", f"cell {c.id} shorter than merge tolerance"))

    used_bc = set()
    for p in model.points:
        if p.bc_id != 0:
            if p.bc_id not in model.bcs:
                defects.append(
                    Finding("dangling-reference", f"point {p.id} references missing load {p.bc_id}")
                )
            else:
                used_bc.add(p.bc_id)

    for cs_id in sorted(model.cross_sections):
        try:
            props = section_properties(model.cross_sections[cs_id])
            if not all(math.isfinite(v) for v in astuple(props)):
                raise ValueError("section properties must be finite")
        except ValueError as exc:
            defects.append(Finding("invalid-catalog", f"cross-section {cs_id}: {exc}"))
    for mat_id in sorted(model.materials):
        mat = model.materials[mat_id]
        if not all(math.isfinite(v) for v in (mat.E, mat.nu, mat.density, mat.Ry)):
            defects.append(Finding("invalid-catalog", f"material {mat_id} has non-finite values"))
        elif not (mat.E > 0 and mat.Ry > 0):
            defects.append(Finding("invalid-catalog", f"material {mat_id} needs positive E and Ry"))

    for bc in model.bcs.values():
        if not np.all(np.isfinite(bc.components)):
            defects.append(Finding("non-finite", f"load {bc.id} has non-finite components"))

    slaves = set()
    masters = set()
    for link in model.rigid_links:
        for pid, role in ((link.master, "master"), (link.slave, "slave")):
            if pid not in by_id:
                defects.append(
                    Finding("dangling-reference", f"rigid link {role} references missing point {pid}")
                )
        if link.master == link.slave:
            defects.append(Finding("rigid-link-conflict", f"rigid link with master == slave {link.master}"))
        if link.slave in slaves:
            defects.append(Finding("rigid-link-conflict", f"point {link.slave} is slave of two links"))
        slaves.add(link.slave)
        masters.add(link.master)
        if link.offset is not None and not np.all(np.isfinite(link.offset)):
            defects.append(Finding("non-finite", f"rigid link offset for slave {link.slave} not finite"))
    chained = slaves & masters
    for pid in sorted(chained):
        defects.append(Finding("rigid-link-conflict", f"point {pid} is both master and slave"))

    for cs_id in sorted(model.cross_sections):
        if cs_id not in used_cs:
            warnings.append(Finding("unreferenced-catalog", f"cross-section {cs_id} never referenced"))
    for mat_id in sorted(model.materials):
        if mat_id not in used_mat:
            warnings.append(Finding("unreferenced-catalog", f"material {mat_id} never referenced"))
    for bc_id in sorted(model.bcs):
        if bc_id not in used_bc:
            warnings.append(Finding("unreferenced-catalog", f"load {bc_id} never referenced"))

    for p in model.points:
        if p.id not in used_points:
            warnings.append(Finding("unused-point", f"point {p.id} referenced by no cell"))

    return ValidationReport(ok=not defects, defects=defects, warnings=warnings)
