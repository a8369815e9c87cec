"""Reader/writer for the structural VTK XML PolyData exchange dialect and a
legacy ASCII VTK writer for solved results.

The dialect stores geometry in a single ``Piece`` (Points plus 2-node Lines),
per-point support masks and load ids in PointData, per-cell catalog
assignments in CellData, and the catalogs themselves as whitespace-tokenized
items inside ``AppendedData/Characteristics``.  Only ``format="ascii"`` data
arrays are accepted; binary or appended payloads are rejected.

The wire format is positional: points and cells are written in ascending id
order and re-read with dense ids 0..n-1.  Gravity and the self-weight flag
are solver-side settings and are not serialized.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np

from .model import (
    BEAM_LINE,
    TRUSS_LINE,
    BoundaryConditionEntry,
    Cell,
    Circle,
    CrossSection,
    GenericSection,
    Material,
    Point,
    Rectangle,
    RigidLink,
    StructuralModel,
)
from .resistance import deformed_geometry


class ExchangeFormatError(ValueError):
    """Raised for malformed or out-of-contract exchange documents."""


def _fmt(x) -> str:
    # repr of a Python float is the shortest round-tripping decimal
    return repr(float(x))


def _require_ascii(elem):
    fmt = elem.get("format")
    if fmt != "ascii":
        raise ExchangeFormatError(
            f"only ascii data arrays are supported, got format={fmt!r}"
        )


def _tokens(elem) -> list:
    return (elem.text or "").split()


def _floats(elem, n, what) -> np.ndarray:
    _require_ascii(elem)
    toks = _tokens(elem)
    if len(toks) != n:
        raise ExchangeFormatError(f"{what}: expected {n} values, got {len(toks)}")
    try:
        return np.array([float(t) for t in toks])
    except ValueError as exc:
        raise ExchangeFormatError(f"{what}: {exc}") from exc


def _ints(elem, n, what) -> list:
    _require_ascii(elem)
    toks = _tokens(elem)
    if len(toks) != n:
        raise ExchangeFormatError(f"{what}: expected {n} values, got {len(toks)}")
    try:
        return [int(t) for t in toks]
    except ValueError as exc:
        raise ExchangeFormatError(f"{what}: {exc}") from exc


class _ItemReader:
    """Cursor over the whitespace tokens of one catalog item."""

    def __init__(self, text, what):
        self.toks = text.split()
        self.pos = 0
        self.what = what

    def take(self):
        if self.pos >= len(self.toks):
            raise ExchangeFormatError(f"unparseable catalog item ({self.what}): truncated")
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def take_int(self):
        tok = self.take()
        try:
            return int(tok)
        except ValueError:
            raise ExchangeFormatError(
                f"unparseable catalog item ({self.what}): expected integer, got {tok!r}"
            ) from None

    def take_float(self):
        tok = self.take()
        try:
            return float(tok)
        except ValueError:
            raise ExchangeFormatError(
                f"unparseable catalog item ({self.what}): expected number, got {tok!r}"
            ) from None

    def exhausted(self):
        return self.pos >= len(self.toks)


def _read_keyed(reader, known):
    """Walk ``key value`` pairs; known keys parse as floats, unknown keys are
    preserved verbatim.  Returns (values, extra)."""
    values = {}
    extra = []
    while not reader.exhausted():
        key = reader.take()
        if key in known:
            values[key] = reader.take_float()
        else:
            extra.append((key, reader.take()))
    return values, tuple(extra)


def _parse_cross_section(text):
    reader = _ItemReader(text, "cross-section")
    cs_id = reader.take_int()
    kind = reader.take()
    if kind == "Circle":
        values, extra = _read_keyed(reader, {"width"})
        if "width" not in values:
            raise ExchangeFormatError("unparseable catalog item (cross-section): Circle needs width")
        return CrossSection(id=cs_id, shape=Circle(diameter=values["width"]), extra=extra)
    if kind == "Rectangle":
        values = {}
        extra = []
        ref_axis = None
        ref_code = None
        while not reader.exhausted():
            key = reader.take()
            if key in ("width", "height"):
                values[key] = reader.take_float()
            elif key == "refNode":
                ref_axis = reader.take()
                ref_code = reader.take_int()
                if ref_axis not in ("y", "z"):
                    raise ExchangeFormatError(
                        f"unparseable catalog item (cross-section): refNode axis {ref_axis!r}"
                    )
            else:
                extra.append((key, reader.take()))
        if "width" not in values or "height" not in values:
            raise ExchangeFormatError(
                "unparseable catalog item (cross-section): Rectangle needs width and height"
            )
        shape = Rectangle(
            width=values["width"], height=values["height"], ref_axis=ref_axis, ref_code=ref_code
        )
        return CrossSection(id=cs_id, shape=shape, extra=tuple(extra))
    if kind == "Generic":
        keys = {"A", "Iy", "Iz", "J", "Wy", "Wz", "Wt"}
        values, extra = _read_keyed(reader, keys)
        missing = keys - values.keys()
        if missing:
            raise ExchangeFormatError(
                f"unparseable catalog item (cross-section): Generic missing {sorted(missing)}"
            )
        return CrossSection(id=cs_id, shape=GenericSection(**values), extra=extra)
    raise ExchangeFormatError(f"unparseable catalog item (cross-section): kind {kind!r}")


def _parse_material(text):
    reader = _ItemReader(text, "material")
    mat_id = reader.take_int()
    kind = reader.take()
    if kind != "IsoLinEl":
        raise ExchangeFormatError(f"unparseable catalog item (material): kind {kind!r}")
    values, extra = _read_keyed(reader, {"E", "nu", "tAlpha", "density", "Ry"})
    if "E" not in values or "nu" not in values:
        raise ExchangeFormatError("unparseable catalog item (material): needs E and nu")
    mat = Material(
        id=mat_id,
        E=values["E"],
        nu=values["nu"],
        tAlpha=values.get("tAlpha", 0.0),
        density=values.get("density", 0.0),
        extra=extra,
    )
    if "Ry" in values:
        mat.Ry = values["Ry"]
    return mat


def _parse_bc(text):
    reader = _ItemReader(text, "boundary condition")
    bc_id = reader.take_int()
    kind = reader.take()
    if kind != "NodalLoad":
        raise ExchangeFormatError(f"unparseable catalog item (boundary condition): kind {kind!r}")
    key = reader.take()
    if key != "components":
        raise ExchangeFormatError("unparseable catalog item (boundary condition): expected 'components'")
    count = reader.take_int()
    if count != 6:
        raise ExchangeFormatError(
            f"unparseable catalog item (boundary condition): expected 6 components, got {count}"
        )
    comps = np.array([reader.take_float() for _ in range(6)])
    extra = []
    while not reader.exhausted():
        extra.append((reader.take(), reader.take()))
    return BoundaryConditionEntry(id=bc_id, components=comps, extra=tuple(extra))


def _parse_rigid_link(text):
    reader = _ItemReader(text, "rigid link")
    reader.take_int()  # ordinal, ignored
    kind = reader.take()
    if kind != "RigidLink":
        raise ExchangeFormatError(f"unparseable catalog item (rigid link): kind {kind!r}")
    master = slave = None
    offset = None
    while not reader.exhausted():
        key = reader.take()
        if key == "master":
            master = reader.take_int()
        elif key == "slave":
            slave = reader.take_int()
        elif key == "offset":
            offset = np.array([reader.take_float() for _ in range(3)])
        else:
            raise ExchangeFormatError(f"unparseable catalog item (rigid link): key {key!r}")
    if master is None or slave is None:
        raise ExchangeFormatError("unparseable catalog item (rigid link): needs master and slave")
    return RigidLink(master=master, slave=slave, offset=offset)


def _catalog_items(section, what):
    declared = section.get("Number")
    items = section.findall("item")
    if declared is not None:
        try:
            n = int(declared)
        except ValueError:
            raise ExchangeFormatError(f"{what}: bad Number attribute {declared!r}") from None
        if n != len(items):
            raise ExchangeFormatError(
                f"{what}: declared Number={n} but found {len(items)} items"
            )
    return [(it.text or "") for it in items]


def parse_model(text: str) -> StructuralModel:
    """Parse an exchange document into a StructuralModel.

    Points and cells get dense ids in file order.  Support masks come from
    the Boundary_Conditions array (1 = fixed), nodal-load references from
    ID_BOUNDARY_CONDITION.  Unknown named data arrays are ignored.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ExchangeFormatError(f"malformed document: {exc}") from exc

    if root.tag != "VTKFile":
        raise ExchangeFormatError(f"not a VTKFile document (root {root.tag!r})")
    if root.get("type") != "PolyData":
        raise ExchangeFormatError(f"unsupported VTK file type {root.get('type')!r}")

    poly = root.find("PolyData")
    piece = poly.find("Piece") if poly is not None else None
    if piece is None:
        raise ExchangeFormatError("missing PolyData/Piece element")
    for bad in ("Verts", "Strips", "Polys"):
        elem = piece.find(bad)
        if elem is not None and any(_tokens(a) for a in elem):
            raise ExchangeFormatError(f"unknown cell kind: {bad} geometry is not supported")

    try:
        n_points = int(piece.get("NumberOfPoints", "0"))
        n_lines = int(piece.get("NumberOfLines", "0"))
    except ValueError as exc:
        raise ExchangeFormatError(f"bad Piece counts: {exc}") from exc
    if n_points < 0 or n_lines < 0:
        raise ExchangeFormatError("Piece counts must be non-negative")

    coords = np.zeros((0, 3))
    points_elem = piece.find("Points")
    if points_elem is not None:
        da = points_elem.find("DataArray")
        if da is not None:
            coords = _floats(da, 3 * n_points, "point coordinates").reshape(-1, 3)
    if coords.shape[0] != n_points:
        raise ExchangeFormatError(
            f"point coordinates: expected {n_points} points, got {coords.shape[0]}"
        )

    connectivity = []
    offsets = []
    lines_elem = piece.find("Lines")
    if lines_elem is not None:
        for da in lines_elem.findall("DataArray"):
            name = da.get("Name")
            if name == "connectivity":
                _require_ascii(da)
                connectivity = _ints(da, len(_tokens(da)), "connectivity")
            elif name == "offsets":
                _require_ascii(da)
                offsets = _ints(da, len(_tokens(da)), "offsets")
    if len(offsets) != n_lines:
        raise ExchangeFormatError(f"offsets: expected {n_lines} entries, got {len(offsets)}")
    prev = 0
    conn_pairs = []
    for off in offsets:
        if off <= prev:
            raise ExchangeFormatError("offsets must be strictly increasing")
        if off - prev != 2:
            raise ExchangeFormatError(
                f"unknown cell kind: cell with {off - prev} vertices (only 2-node lines)"
            )
        if off > len(connectivity):
            raise ExchangeFormatError("offsets run past the end of the connectivity array")
        conn_pairs.append((connectivity[prev], connectivity[prev + 1]))
        prev = off
    if prev != len(connectivity):
        raise ExchangeFormatError(
            f"connectivity length {len(connectivity)} does not match final offset {prev}"
        )

    masks = np.zeros((n_points, 6), dtype=bool)
    bc_ids = [0] * n_points
    point_data = piece.find("PointData")
    if point_data is not None:
        for da in point_data.findall("DataArray"):
            name = da.get("Name")
            if name == "Boundary_Conditions":
                ncomp = da.get("NumOfComp") or da.get("NumberOfComponents")
                try:
                    if ncomp is not None and int(ncomp) != 6:
                        raise ExchangeFormatError("Boundary_Conditions must carry 6 components")
                except ValueError as exc:
                    raise ExchangeFormatError(f"bad component count {ncomp!r}") from exc
                vals = _ints(da, 6 * n_points, "Boundary_Conditions")
                masks = np.array(vals, dtype=bool).reshape(-1, 6)
            elif name == "ID_BOUNDARY_CONDITION":
                bc_ids = _ints(da, n_points, "ID_BOUNDARY_CONDITION")

    cs_ids = [0] * n_lines
    mat_ids = [0] * n_lines
    kinds = [0] * n_lines
    cell_data = piece.find("CellData")
    if cell_data is not None:
        for da in cell_data.findall("DataArray"):
            name = da.get("Name")
            if name == "ID_CROSS-SECTION":
                cs_ids = _ints(da, n_lines, "ID_CROSS-SECTION")
            elif name == "ID_MATERIAL":
                mat_ids = _ints(da, n_lines, "ID_MATERIAL")
            elif name == "ELEMENT_TYPE":
                kinds = _ints(da, n_lines, "ELEMENT_TYPE")
    elif n_lines > 0:
        raise ExchangeFormatError("missing CellData with ID_CROSS-SECTION / ID_MATERIAL")

    model = StructuralModel()
    model.points = [
        Point(id=i, coords=coords[i], constraint_mask=masks[i], bc_id=bc_ids[i])
        for i in range(n_points)
    ]
    for i, (a, b) in enumerate(conn_pairs):
        if not (0 <= a < n_points and 0 <= b < n_points):
            raise ExchangeFormatError(f"cell {i} references point outside 0..{n_points - 1}")
        kind = TRUSS_LINE if kinds[i] else BEAM_LINE
        model.cells.append(Cell(id=i, connectivity=(a, b), cs_id=cs_ids[i], mat_id=mat_ids[i], kind=kind))

    appended = root.find("AppendedData")
    chars = appended.find("Characteristics") if appended is not None else None
    if chars is not None:
        comment_sec = chars.find("COMMENT")
        if comment_sec is not None:
            items = comment_sec.findall("item")
            if items:
                model.comment = " ".join((items[0].text or "").split())
        cs_sec = chars.find("CROSS-SECTIONS")
        if cs_sec is not None:
            for item in _catalog_items(cs_sec, "CROSS-SECTIONS"):
                cs = _parse_cross_section(item)
                model.cross_sections[cs.id] = cs
        mat_sec = chars.find("MATERIALS")
        if mat_sec is not None:
            for item in _catalog_items(mat_sec, "MATERIALS"):
                mat = _parse_material(item)
                model.materials[mat.id] = mat
        bc_sec = chars.find("BOUNDARY_CONDITIONS")
        if bc_sec is not None:
            for item in _catalog_items(bc_sec, "BOUNDARY_CONDITIONS"):
                bc = _parse_bc(item)
                model.bcs[bc.id] = bc
        link_sec = chars.find("RIGID_LINKS")
        if link_sec is not None:
            for item in _catalog_items(link_sec, "RIGID_LINKS"):
                model.rigid_links.append(_parse_rigid_link(item))

    return model


def _cs_item(cs: CrossSection) -> str:
    shape = cs.shape
    if isinstance(shape, Circle):
        parts = [str(cs.id), "Circle", "width", _fmt(shape.diameter)]
    elif isinstance(shape, Rectangle):
        parts = [str(cs.id), "Rectangle", "width", _fmt(shape.width), "height", _fmt(shape.height)]
        if shape.ref_axis is not None:
            parts += ["refNode", shape.ref_axis, str(shape.ref_code)]
    elif isinstance(shape, GenericSection):
        parts = [str(cs.id), "Generic"]
        for key in ("A", "Iy", "Iz", "J", "Wy", "Wz", "Wt"):
            parts += [key, _fmt(getattr(shape, key))]
    else:
        raise ExchangeFormatError(f"cannot serialize section shape {type(shape).__name__}")
    for key, raw in cs.extra:
        parts += [key, raw]
    return " ".join(parts)


def _mat_item(mat: Material) -> str:
    parts = [
        str(mat.id), "IsoLinEl",
        "E", _fmt(mat.E),
        "nu", _fmt(mat.nu),
        "tAlpha", _fmt(mat.tAlpha),
        "density", _fmt(mat.density),
        "Ry", _fmt(mat.Ry),
    ]
    for key, raw in mat.extra:
        parts += [key, raw]
    return " ".join(parts)


def _bc_item(bc: BoundaryConditionEntry) -> str:
    parts = [str(bc.id), "NodalLoad", "components", "6"]
    parts += [_fmt(c) for c in bc.components]
    for key, raw in bc.extra:
        parts += [key, raw]
    return " ".join(parts)


def write_model(model: StructuralModel) -> str:
    """Serialize a model to the exchange dialect.

    Ordering is deterministic (points, cells and catalog items ascending by
    id), so identical models produce byte-identical documents.  Floats use
    the shortest round-tripping decimal form.
    """
    points = sorted(model.points, key=lambda p: p.id)
    cells = sorted(model.cells, key=lambda c: c.id)
    pos = {p.id: i for i, p in enumerate(points)}

    out = []
    out.append('<VTKFile type="PolyData" version="0.1" byte_order="LittleEndian">')
    out.append("  <PolyData>")
    out.append(f'    <Piece NumberOfPoints="{len(points)}" NumberOfLines="{len(cells)}">')
    out.append("      <Points>")
    out.append('        <DataArray type="Float32" NumberOfComponents="3" format="ascii">')
    for p in points:
        out.append(f"          {_fmt(p.coords[0])} {_fmt(p.coords[1])} {_fmt(p.coords[2])}")
    out.append("        </DataArray>")
    out.append("      </Points>")
    out.append("      <Lines>")
    out.append('        <DataArray format="ascii" type="Int32" Name="connectivity">')
    for c in cells:
        out.append(f"          {pos[c.connectivity[0]]} {pos[c.connectivity[1]]}")
    out.append("        </DataArray>")
    out.append('        <DataArray format="ascii" type="Int32" Name="offsets">')
    for i in range(len(cells)):
        out.append(f"          {2 * (i + 1)}")
    out.append("        </DataArray>")
    out.append("      </Lines>")
    out.append("      <PointData>")
    out.append('        <DataArray format="ascii" type="Int32" Name="Boundary_Conditions" NumOfComp="6">')
    for p in points:
        out.append("          " + " ".join(str(int(v)) for v in p.constraint_mask))
    out.append("        </DataArray>")
    out.append('        <DataArray format="ascii" type="Int32" Name="ID_BOUNDARY_CONDITION">')
    for p in points:
        out.append(f"          {p.bc_id}")
    out.append("        </DataArray>")
    out.append("      </PointData>")
    out.append("      <CellData>")
    out.append('        <DataArray format="ascii" type="Int32" Name="ID_CROSS-SECTION">')
    for c in cells:
        out.append(f"          {c.cs_id}")
    out.append("        </DataArray>")
    out.append('        <DataArray format="ascii" type="Int32" Name="ID_MATERIAL">')
    for c in cells:
        out.append(f"          {c.mat_id}")
    out.append("        </DataArray>")
    if any(c.kind == TRUSS_LINE for c in cells):
        out.append('        <DataArray format="ascii" type="Int32" Name="ELEMENT_TYPE">')
        for c in cells:
            out.append(f"          {1 if c.kind == TRUSS_LINE else 0}")
        out.append("        </DataArray>")
    out.append("      </CellData>")
    out.append("    </Piece>")
    out.append("  </PolyData>")
    out.append("  <AppendedData>")
    out.append("    _")
    out.append("    <Characteristics>")
    comment = " ".join(model.comment.split())
    out.append(f"      <COMMENT> <item> {escape(comment)} </item> </COMMENT>")
    out.append(f'      <CROSS-SECTIONS Number="{len(model.cross_sections)}">')
    for cs_id in sorted(model.cross_sections):
        out.append(f"        <item> {escape(_cs_item(model.cross_sections[cs_id]))} </item>")
    out.append("      </CROSS-SECTIONS>")
    out.append(f'      <MATERIALS Number="{len(model.materials)}">')
    for mat_id in sorted(model.materials):
        out.append(f"        <item> {escape(_mat_item(model.materials[mat_id]))} </item>")
    out.append("      </MATERIALS>")
    out.append(f'      <BOUNDARY_CONDITIONS Number="{len(model.bcs)}">')
    for bc_id in sorted(model.bcs):
        out.append(f"        <item> {escape(_bc_item(model.bcs[bc_id]))} </item>")
    out.append("      </BOUNDARY_CONDITIONS>")
    if model.rigid_links:
        out.append(f'      <RIGID_LINKS Number="{len(model.rigid_links)}">')
        for i, link in enumerate(model.rigid_links):
            parts = [str(i + 1), "RigidLink", "master", str(link.master), "slave", str(link.slave)]
            if link.offset is not None:
                parts += ["offset"] + [_fmt(v) for v in link.offset]
            out.append(f"        <item> {' '.join(parts)} </item>")
        out.append("      </RIGID_LINKS>")
    out.append("    </Characteristics>")
    out.append("  </AppendedData>")
    out.append("</VTKFile>")
    return "\n".join(out) + "\n"


def write_results_vtk(model: StructuralModel, results, deform_scale: float = 1.0) -> str:
    """Legacy ASCII VTK POLYDATA with deformed geometry, nodal displacement
    vectors, per-cell resistance ratios and the binary exceeded flag."""
    n = len(model.points)
    m = len(model.cells)
    disp = np.asarray(results.displacements, dtype=float)
    deformed = deformed_geometry(model, disp, deform_scale)
    if len(results.u_el) != m or len(results.exceeded) != m:
        raise ValueError("per-cell result arrays do not match the cell count")

    points = sorted(model.points, key=lambda p: p.id)
    cells = sorted(model.cells, key=lambda c: c.id)
    pos = {p.id: i for i, p in enumerate(points)}
    order = {p.id: i for i, p in enumerate(model.points)}
    cell_order = {c.id: i for i, c in enumerate(model.cells)}

    out = []
    out.append("# vtk DataFile Version 3.0")
    out.append(" ".join(model.comment.split()) or "formpipe results")
    out.append("ASCII")
    out.append("DATASET POLYDATA")
    out.append(f"POINTS {n} float")
    for p in points:
        x = deformed[order[p.id]]
        out.append(f"{_fmt(x[0])} {_fmt(x[1])} {_fmt(x[2])}")
    out.append(f"LINES {m} {3 * m}")
    for c in cells:
        out.append(f"2 {pos[c.connectivity[0]]} {pos[c.connectivity[1]]}")
    out.append(f"POINT_DATA {n}")
    out.append("VECTORS displacement float")
    for p in points:
        u = disp[order[p.id], :3]
        out.append(f"{_fmt(u[0])} {_fmt(u[1])} {_fmt(u[2])}")
    out.append(f"CELL_DATA {m}")
    out.append("SCALARS resistance_ratio float 1")
    out.append("LOOKUP_TABLE default")
    for c in cells:
        out.append(_fmt(results.u_el[cell_order[c.id]]))
    out.append("SCALARS exceeded int 1")
    out.append("LOOKUP_TABLE default")
    for c in cells:
        out.append(str(int(bool(results.exceeded[cell_order[c.id]]))))
    return "\n".join(out) + "\n"
