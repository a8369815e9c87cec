"""Reader/writer for the structural VTK XML PolyData exchange dialect and a
legacy ASCII VTK writer for solved results.

The dialect stores geometry in a single ``Piece`` (Points plus 2-node Lines),
per-point support masks and load ids in PointData, per-cell catalog
assignments in CellData, and the catalogs themselves as whitespace-tokenized
items inside ``AppendedData/Characteristics``.  Only ``format="ascii"`` data
arrays are accepted; binary or appended payloads are rejected.

The wire format is positional: points and cells are written in ascending id
order and re-read with dense ids 0..n-1.  The self-weight flag is a
solver-side setting and is not serialized.
"""

from __future__ import annotations

import re
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np

from .model import (
    BoundaryConditionEntry,
    CellTable,
    Circle,
    CrossSection,
    GenericSection,
    Material,
    PointTable,
    Rectangle,
    RigidLink,
    StructuralModel,
    link_ends,
)
from .resistance import deformed_geometry


class ExchangeFormatError(ValueError):
    """Raised for malformed or out-of-contract exchange documents."""


def escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as XML entities, as ``xml.sax.saxutils.escape``
    writes them; that module imports urllib and the networking stdlib."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(x) -> str:
    # repr of a Python float is the shortest round-tripping decimal
    return repr(float(x))


_INT64 = np.iinfo(np.int64)
# a sign that no digit follows, which numpy's tokenizer reads as 0 or as the
# sign of the next token, and drops before nan; one pattern per sign, since a
# search skips ahead to a literal but tests a character class at every
# character (8 times slower on the soup benchmark's 3 MB of coordinates)
_LONE_SIGNS = tuple((sign, re.compile(re.escape(sign) + "(?![0-9])")) for sign in "+-")


def _column(text: str, dtype) -> np.ndarray | None:
    """The numbers of ``text`` as ``dtype`` (float or np.int64) read by
    numpy's C tokenizer, or None where it could read them otherwise than
    ``dtype`` of each whitespace token does: blank or non-ASCII text, a sign
    that no digit follows, a NaN payload ``nan(...)``, a token it does not
    read to its end, and an integer at the int64 limits, to which it
    saturates."""
    if (text.isspace() or not text.isascii() or "(" in text
            or any(sign in text and lone.search(text) for sign, lone in _LONE_SIGNS)):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # older numpy only warns
        try:
            values = np.fromstring(text, dtype=dtype, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    if (dtype is np.int64 and values.size
            and (values.max() == _INT64.max or values.min() == _INT64.min)):
        return None
    return values


def _values(elem, n, dtype, what, arrays) -> np.ndarray:
    """The whitespace-separated tokens of an ascii DataArray as an array of
    ``dtype``; ``n`` is the expected count, None accepts any.  ``arrays``
    holds what ``_column`` read while the document was parsed; where it
    declined, the tokens are read one by one."""
    fmt = elem.get("format")
    if fmt != "ascii":
        raise ExchangeFormatError(f"only ascii data arrays are supported, got format={fmt!r}")
    values = arrays.get(elem)
    items = (elem.text or "").split() if values is None else values
    if n is not None and len(items) != n:
        raise ExchangeFormatError(f"{what}: expected {n} values, got {len(items)}")
    if values is not None:
        return values
    try:
        return np.array(items, dtype=dtype)
    except (ValueError, OverflowError) as exc:
        raise ExchangeFormatError(f"{what}: {exc}") from exc


# the sections of a Piece whose DataArrays are numeric columns, and their dtype
_COLUMN_DTYPES = {"Points": float, "Lines": np.int64, "PointData": np.int64,
                  "CellData": np.int64}
# characters or bytes of a document that the XML parser takes at a time;
# expat copies each slice into a buffer it grows by doubling, so a larger
# slice raises the peak: on a 0.41 MB document it is 2.5 times the length at
# 64 KiB and 1.7 times at 16 KiB, for the same parse time
_FEED = 1 << 14


def _events(parser, document):
    """The events of an ``ET.XMLPullParser`` fed ``document`` in slices."""
    for start in range(0, len(document), _FEED):
        parser.feed(document[start:start + _FEED])
        yield from parser.read_events()
    parser.close()
    yield from parser.read_events()


def _parse_tree(document):
    """The root element of ``document`` and, by element, what ``_column``
    read from each ascii DataArray of a ``_COLUMN_DTYPES`` section when the
    parser reached its end tag.  Such an element's text is dropped once
    read, so the parse holds the text of one column at a time, and of any
    that ``_column`` declined."""
    parser = ET.XMLPullParser(("start", "end"))
    path, arrays = [], {}
    for event, elem in _events(parser, document):
        if event == "start":
            path.append(elem)
            continue
        path.pop()
        dtype = _COLUMN_DTYPES.get(path[-1].tag) if path else None
        if dtype is not None and elem.tag == "DataArray" and elem.get("format") == "ascii":
            values = _column(elem.text or "", dtype)
            if values is not None:
                arrays[elem] = values
                elem.text = None
    return elem, arrays  # the root ends last


class _ItemReader:
    """Cursor over the whitespace tokens of one catalog item."""

    def __init__(self, text, what):
        self.toks = text.split()
        self.pos = 0
        self.what = what

    def error(self, message):
        return ExchangeFormatError(f"unparseable catalog item ({self.what}): {message}")

    def exhausted(self):
        return self.pos >= len(self.toks)

    def take(self):
        if self.exhausted():
            raise self.error("truncated")
        self.pos += 1
        return self.toks[self.pos - 1]

    def take_as(self, kind):
        """The next token as an int or a float."""
        tok = self.take()
        try:
            return kind(tok)
        except ValueError:
            name = "integer" if kind is int else "number"
            raise self.error(f"expected {name}, got {tok!r}") from None

    def keyed(self, known, ref_node=False):
        """Walk ``key value`` pairs to the end: known keys parse as floats,
        ``refNode`` (where allowed) takes an axis and a code, unknown keys
        are kept verbatim.  Returns (values, extra)."""
        values = {}
        extra = []
        while not self.exhausted():
            key = self.take()
            if key in known:
                values[key] = self.take_as(float)
            elif key == "refNode" and ref_node:
                axis, code = self.take(), self.take_as(int)
                if axis not in ("y", "z"):
                    raise self.error(f"refNode axis {axis!r}")
                values[key] = (axis, code)
            else:
                extra.append((key, self.take()))
        return values, tuple(extra)


# keyed values of Generic sections and of materials, in the order they are written
_GENERIC_KEYS = ("A", "Iy", "Iz", "J", "Wy", "Wz", "Wt")
_MATERIAL_KEYS = ("E", "nu", "tAlpha", "density", "Ry")


def _parse_cross_section(text):
    reader = _ItemReader(text, "cross-section")
    cs_id = reader.take_as(int)
    kind = reader.take()
    if kind == "Circle":
        values, extra = reader.keyed({"width"})
        if "width" not in values:
            raise reader.error("Circle needs width")
        shape = Circle(diameter=values["width"])
    elif kind == "Rectangle":
        values, extra = reader.keyed({"width", "height"}, ref_node=True)
        if "width" not in values or "height" not in values:
            raise reader.error("Rectangle needs width and height")
        ref_axis, ref_code = values.get("refNode", (None, None))
        shape = Rectangle(values["width"], values["height"], ref_axis, ref_code)
    elif kind == "Generic":
        values, extra = reader.keyed(_GENERIC_KEYS)
        missing = set(_GENERIC_KEYS) - values.keys()
        if missing:
            raise reader.error(f"Generic missing {sorted(missing)}")
        shape = GenericSection(**values)
    else:
        raise reader.error(f"kind {kind!r}")
    return CrossSection(id=cs_id, shape=shape, extra=extra)


def _parse_material(text):
    reader = _ItemReader(text, "material")
    mat_id = reader.take_as(int)
    kind = reader.take()
    if kind != "IsoLinEl":
        raise reader.error(f"kind {kind!r}")
    values, extra = reader.keyed(_MATERIAL_KEYS)
    if "E" not in values or "nu" not in values:
        raise reader.error("needs E and nu")
    return Material(id=mat_id, extra=extra, **values)


def _parse_bc(text):
    reader = _ItemReader(text, "boundary condition")
    bc_id = reader.take_as(int)
    kind = reader.take()
    if kind != "NodalLoad":
        raise reader.error(f"kind {kind!r}")
    if reader.take() != "components":
        raise reader.error("expected 'components'")
    count = reader.take_as(int)
    if count != 6:
        raise reader.error(f"expected 6 components, got {count}")
    components = [reader.take_as(float) for _ in range(6)]
    _, extra = reader.keyed(())
    return BoundaryConditionEntry(id=bc_id, components=components, extra=extra)


def _parse_rigid_link(text):
    reader = _ItemReader(text, "rigid link")
    reader.take_as(int)  # ordinal, ignored
    kind = reader.take()
    if kind != "RigidLink":
        raise reader.error(f"kind {kind!r}")
    ends = {}
    offset = None
    while not reader.exhausted():
        key = reader.take()
        if key in ("master", "slave"):
            ends[key] = reader.take_as(int)
        elif key == "offset":
            offset = [reader.take_as(float) for _ in range(3)]
        else:
            raise reader.error(f"key {key!r}")
    if len(ends) < 2:
        raise reader.error("needs master and slave")
    return RigidLink(offset=offset, **ends)


def _keyed_parts(entry, keys) -> list:
    return [tok for key in keys for tok in (key, _fmt(getattr(entry, key)))]


def _cs_item(cs: CrossSection) -> list:
    shape = cs.shape
    if isinstance(shape, Circle):
        return ["Circle", "width", _fmt(shape.diameter)]
    if isinstance(shape, Rectangle):
        parts = ["Rectangle", "width", _fmt(shape.width), "height", _fmt(shape.height)]
        if shape.ref_axis is not None:
            parts += ["refNode", shape.ref_axis, str(shape.ref_code)]
        return parts
    if isinstance(shape, GenericSection):
        return ["Generic"] + _keyed_parts(shape, _GENERIC_KEYS)
    raise ExchangeFormatError(f"cannot serialize section shape {type(shape).__name__}")


def _mat_item(mat: Material) -> list:
    return ["IsoLinEl"] + _keyed_parts(mat, _MATERIAL_KEYS)


def _bc_item(bc: BoundaryConditionEntry) -> list:
    return ["NodalLoad", "components", "6"] + [_fmt(c) for c in bc.components]


def _link_item(link: RigidLink) -> list:
    parts = ["RigidLink", "master", str(link.master), "slave", str(link.slave)]
    if link.offset is not None:
        parts += ["offset"] + [_fmt(v) for v in link.offset]
    return parts


# The catalogs of the Characteristics section, in file order: tag, model
# attribute, item reader and item writer.  Dict catalogs are keyed by the
# leading id of each item; rigid links are a list whose items lead with an
# ordinal and are written only when there are any.
_CATALOGS = (
    ("CROSS-SECTIONS", "cross_sections", _parse_cross_section, _cs_item),
    ("MATERIALS", "materials", _parse_material, _mat_item),
    ("BOUNDARY_CONDITIONS", "bcs", _parse_bc, _bc_item),
    ("RIGID_LINKS", "rigid_links", _parse_rigid_link, _link_item),
)


def _catalog_items(section, what):
    if section is None:
        return []
    declared = section.get("Number")
    items = section.findall("item")
    if declared is not None:
        try:
            n = int(declared)
        except ValueError:
            raise ExchangeFormatError(f"{what}: bad Number attribute {declared!r}") from None
        if n != len(items):
            raise ExchangeFormatError(f"{what}: declared Number={n} but found {len(items)} items")
    return [(it.text or "") for it in items]


def _named_arrays(piece, tag) -> list:
    """(Name, DataArray) pairs of one section of the Piece, in file order."""
    section = piece.find(tag)
    return [] if section is None else [(da.get("Name"), da) for da in section.findall("DataArray")]


def _check_lines(offsets, n_conn):
    """Offsets must run 2, 4, ..., n_conn: raise for the first cell that
    breaks this, then for a connectivity array of another length."""
    bad = np.flatnonzero((np.diff(offsets, prepend=0) != 2) | (offsets > n_conn))
    if bad.size:
        step = int(offsets[bad[0]]) - 2 * int(bad[0])  # every earlier cell spans two vertices
        if step <= 0:
            raise ExchangeFormatError("offsets must be strictly increasing")
        if step != 2:
            raise ExchangeFormatError(f"unknown cell kind: cell with {step} vertices "
                                      "(only 2-node lines)")
        raise ExchangeFormatError("offsets run past the end of the connectivity array")
    if 2 * len(offsets) != n_conn:
        raise ExchangeFormatError(f"connectivity length {n_conn} does not match final offset "
                                  f"{2 * len(offsets)}")


def parse_model(document: str | bytes) -> StructuralModel:
    """Parse an exchange document into a StructuralModel.

    ``document`` is text or, in the encoding the XML declaration names
    (UTF-8 without one), bytes.  Points and cells get dense ids in file
    order.  Support masks come from the Boundary_Conditions array
    (1 = fixed), nodal-load references from ID_BOUNDARY_CONDITION.  Unknown
    named data arrays are ignored.
    """
    # expat raises ParseError; a declared encoding that Python does not know
    # raises LookupError, and one that expat cannot take ValueError
    try:
        root, arrays = _parse_tree(document)
    except (ET.ParseError, LookupError, ValueError) as exc:
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
        if elem is not None and any((a.text or "").split() for a in elem):
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
            coords = _values(da, 3 * n_points, float, "point coordinates", arrays).reshape(-1, 3)
    if coords.shape[0] != n_points:
        raise ExchangeFormatError(f"point coordinates: expected {n_points} points, "
                                  f"got {coords.shape[0]}")

    connectivity = np.zeros(0, dtype=np.int64)
    offsets = np.zeros(0, dtype=np.int64)
    for name, da in _named_arrays(piece, "Lines"):
        if name == "connectivity":
            connectivity = _values(da, None, np.int64, "connectivity", arrays)
        elif name == "offsets":
            offsets = _values(da, None, np.int64, "offsets", arrays)
    if len(offsets) != n_lines:
        raise ExchangeFormatError(f"offsets: expected {n_lines} entries, got {len(offsets)}")
    _check_lines(offsets, len(connectivity))

    masks = np.zeros((n_points, 6), dtype=bool)
    bc_ids = np.zeros(n_points, dtype=np.int64)
    for name, da in _named_arrays(piece, "PointData"):
        if name == "Boundary_Conditions":
            ncomp = da.get("NumOfComp") or da.get("NumberOfComponents")
            try:
                count = 6 if ncomp is None else int(ncomp)
            except ValueError as exc:
                raise ExchangeFormatError(f"bad component count {ncomp!r}") from exc
            if count != 6:
                raise ExchangeFormatError("Boundary_Conditions must carry 6 components")
            masks = _values(da, 6 * n_points, np.int64, "Boundary_Conditions",
                            arrays).reshape(-1, 6) != 0
        elif name == "ID_BOUNDARY_CONDITION":
            bc_ids = _values(da, n_points, np.int64, "ID_BOUNDARY_CONDITION", arrays)

    if n_lines > 0 and piece.find("CellData") is None:
        raise ExchangeFormatError("missing CellData with ID_CROSS-SECTION / ID_MATERIAL")
    columns = dict.fromkeys(("ID_CROSS-SECTION", "ID_MATERIAL", "ELEMENT_TYPE"),
                            np.zeros(n_lines, dtype=np.int64))
    for name, da in _named_arrays(piece, "CellData"):
        if name in columns:
            columns[name] = _values(da, n_lines, np.int64, name, arrays)

    pairs = connectivity.reshape(-1, 2)
    outside = np.flatnonzero(((pairs < 0) | (pairs >= n_points)).any(axis=1))
    if outside.size:
        raise ExchangeFormatError(f"cell {outside[0]} references point outside 0..{n_points - 1}")
    model = StructuralModel(
        points=PointTable(np.arange(n_points), coords, masks, bc_ids),
        cells=CellTable(np.arange(n_lines), pairs, columns["ID_CROSS-SECTION"],
                        columns["ID_MATERIAL"], columns["ELEMENT_TYPE"] != 0),
    )

    appended = root.find("AppendedData")
    chars = appended.find("Characteristics") if appended is not None else None
    if chars is not None:
        comment_sec = chars.find("COMMENT")
        if comment_sec is not None:
            items = comment_sec.findall("item")
            if items:
                model.comment = " ".join((items[0].text or "").split())
        for tag, attr, read, _ in _CATALOGS:
            entries = [read(item) for item in _catalog_items(chars.find(tag), tag)]
            catalog = getattr(model, attr)
            if isinstance(catalog, dict):
                catalog.update((entry.id, entry) for entry in entries)
            else:
                catalog.extend(entries)

    return model


def _rows(values, indent: str = "") -> list:
    """The text rows of a 1-D array, one per entry, or of a 2-D array, one per
    row with single spaces between values, as one block in a list (empty for
    no rows); floats in ``_fmt`` form, since %r of a Python float is repr."""
    values = np.asarray(values)
    if not values.size:
        return []
    width = values.shape[1] if values.ndim == 2 else 1
    row = indent + " ".join(["%r" if values.dtype.kind == "f" else "%d"] * width)
    return ["\n".join([row] * (values.size // width)) % tuple(values.ravel().tolist())]


def _data_array(attrs: str, values) -> list:
    return [f"        <DataArray {attrs}>", *_rows(values, " " * 10), "        </DataArray>"]


def _wire(points: PointTable, ids, message) -> np.ndarray:
    """Positions of point ``ids`` in the written ``points``; raises
    ValueError with ``message`` for an id that is not among them."""
    pos = points.positions(ids)
    if np.any(pos < 0):
        raise ValueError(message)
    return pos


def _ordered(model: StructuralModel):
    """The wire order: rows of the points and of the cells in ascending id
    order, the points as a table in that order, and each cell's two ends as
    positions in it."""
    point_order = np.argsort(model.points.ids, kind="stable")
    cell_order = np.argsort(model.cells.ids, kind="stable")
    points = model.points.take(point_order)
    ends = _wire(points, model.cells.ends[cell_order],
                 "cells reference points that are not in the model")
    return point_order, cell_order, points, ends


def _wire_catalogs(model: StructuralModel, points: PointTable) -> dict:
    """The catalogs by model attribute, with the point ids they hold (rigid
    link ends, a Rectangle's non-negative refNode code) as wire positions,
    since ``parse_model`` gives the points dense ids in file order."""
    links = model.rigid_links
    if links:
        ends = _wire(points, link_ends(links),
                     "rigid links reference points that are not in the model")
        links = [replace(link, master=m, slave=s) for link, (m, s) in zip(links, ends.tolist())]
    sections = dict(model.cross_sections)
    for key, cs in model.cross_sections.items():
        shape = cs.shape
        if isinstance(shape, Rectangle) and shape.ref_axis is not None and shape.ref_code >= 0:
            code = _wire(points, shape.ref_code, f"cross-section {cs.id} references "
                         f"point {shape.ref_code}, which is not in the model")
            sections[key] = replace(cs, shape=replace(shape, ref_code=int(code)))
    return {"cross_sections": sections, "materials": model.materials, "bcs": model.bcs,
            "rigid_links": links}


def write_model(model: StructuralModel) -> str:
    """Serialize a model to the exchange dialect.

    Ordering is deterministic (points, cells and catalog items ascending by
    id), so identical models produce byte-identical documents.  Floats use
    the shortest round-tripping decimal form.
    """
    _, cell_order, points, ends = _ordered(model)
    cells = model.cells.take(cell_order)
    catalogs = _wire_catalogs(model, points)
    array = 'format="ascii" type="Int32" Name='

    out = ['<VTKFile type="PolyData" version="0.1" byte_order="LittleEndian">', "  <PolyData>",
           f'    <Piece NumberOfPoints="{len(points)}" NumberOfLines="{len(cells)}">',
           "      <Points>"]
    out += _data_array('type="Float32" NumberOfComponents="3" format="ascii"', points.coords)
    out += ["      </Points>", "      <Lines>"]
    out += _data_array(array + '"connectivity"', ends)
    out += _data_array(array + '"offsets"', np.arange(2, 2 * len(cells) + 1, 2))
    out += ["      </Lines>", "      <PointData>"]
    out += _data_array(array + '"Boundary_Conditions" NumOfComp="6"', points.masks.view(np.int8))
    out += _data_array(array + '"ID_BOUNDARY_CONDITION"', points.bc_ids)
    out += ["      </PointData>", "      <CellData>"]
    out += _data_array(array + '"ID_CROSS-SECTION"', cells.cs_ids)
    out += _data_array(array + '"ID_MATERIAL"', cells.mat_ids)
    if cells.truss.any():
        out += _data_array(array + '"ELEMENT_TYPE"', cells.truss.view(np.int8))
    out += ["      </CellData>", "    </Piece>", "  </PolyData>", "  <AppendedData>", "    _"]
    out.append("    <Characteristics>")
    comment = escape(" ".join(model.comment.split()))
    out.append(f"      <COMMENT> <item> {comment} </item> </COMMENT>")
    for tag, attr, _, write in _CATALOGS:
        catalog = catalogs[attr]
        if isinstance(catalog, dict):
            entries = [(catalog[key].id, catalog[key]) for key in sorted(catalog)]
        elif catalog:
            entries = list(enumerate(catalog, 1))
        else:
            continue
        out.append(f'      <{tag} Number="{len(entries)}">')
        for lead, entry in entries:
            parts = [str(lead)] + write(entry)
            for key, raw in getattr(entry, "extra", ()):
                parts += [key, raw]
            out.append(f"        <item> {escape(' '.join(parts))} </item>")
        out.append(f"      </{tag}>")
    out += ["    </Characteristics>", "  </AppendedData>", "</VTKFile>"]
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
    point_order, cell_order, _, ends = _ordered(model)

    out = ["# vtk DataFile Version 3.0", " ".join(model.comment.split()) or "formpipe results",
           "ASCII", "DATASET POLYDATA", f"POINTS {n} float"]
    out += _rows(deformed[point_order])
    out.append(f"LINES {m} {3 * m}")
    out += _rows(np.column_stack([np.full(m, 2), ends]))
    out += [f"POINT_DATA {n}", "VECTORS displacement float"]
    out += _rows(disp[point_order, :3])
    out += [f"CELL_DATA {m}", "SCALARS resistance_ratio float 1", "LOOKUP_TABLE default"]
    out += _rows(np.asarray(results.u_el, dtype=float)[cell_order])
    out += ["SCALARS exceeded int 1", "LOOKUP_TABLE default"]
    out += _rows(np.asarray(results.exceeded, dtype=bool)[cell_order].astype(np.int8))
    return "\n".join(out) + "\n"
