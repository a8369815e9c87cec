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
from xml.parsers import expat

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
    point_aims,
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
    """The numbers of ``text`` as ``dtype`` (float or np.int64, or bool for
    the nonzero mask of np.int64 values) read by numpy's C tokenizer, or
    None where it could read them otherwise than ``dtype`` of each
    whitespace token does: blank or non-ASCII text, a sign that no digit
    follows, a NaN payload ``nan(...)``, a token it does not read to its
    end, and an integer at the int64 limits, to which it saturates."""
    if (text.isspace() or not text.isascii() or "(" in text
            or any(sign in text and lone.search(text) for sign, lone in _LONE_SIGNS)):
        return None
    read = np.int64 if dtype is bool else dtype
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # older numpy only warns
        try:
            values = np.fromstring(text, dtype=read, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    if (read is np.int64 and values.size
            and (values.max() == _INT64.max or values.min() == _INT64.min)):
        return None
    return values != 0 if dtype is bool else values


def _values(elem, n, dtype, what, arrays) -> np.ndarray:
    """The whitespace-separated tokens of an ascii DataArray as an array of
    ``dtype``; ``n`` is the expected count, None accepts any.  ``arrays``
    holds, by element, the parts ``_Builder`` read the column's text in,
    which this takes out of it: arrays that ``_column`` read, and the
    tokens of the batches it declined, read here one by one."""
    fmt = elem.get("format")
    if fmt != "ascii":
        raise ExchangeFormatError(f"only ascii data arrays are supported, got format={fmt!r}")
    parts = arrays.pop(elem)
    count = sum(map(len, parts))
    if n is not None and count != n:
        raise ExchangeFormatError(f"{what}: expected {n} values, got {count}")
    try:
        parts = [np.array(part, dtype=dtype) if isinstance(part, list) else part
                 for part in parts]
    except (ValueError, OverflowError) as exc:
        raise ExchangeFormatError(f"{what}: {exc}") from exc
    if not parts:
        return np.zeros(0, dtype=dtype)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


# the sections of a Piece whose DataArrays are numeric columns, and their dtype
_COLUMN_DTYPES = {"Points": float, "Lines": np.int64, "PointData": np.int64,
                  "CellData": np.int64}
# characters or bytes of a document that the XML parser takes at a time;
# expat copies each slice into a buffer it grows by doubling, so a larger
# slice raises the peak: on a 0.41 MB document it is 2.5 times the length at
# 64 KiB and 1.7 times at 16 KiB, for the same parse time
_FEED = 1 << 14
# characters of a column's text that one ``_column`` call reads at most,
# and the most that expat gathers into one call of the data handler
_BATCH = 1 << 16
# the ASCII whitespace that numpy's tokenizer skips between numbers
_SPACE = " \n\t\r\v\f"


def _qualified(name: str) -> str:
    """ElementTree's form ``{uri}local`` of expat's ``uri}local``."""
    return "{" + name if "}" in name else name


class _Builder:
    """expat handlers that build the element tree of a document, as
    ElementTree's parser does, and read the text of each ascii DataArray of
    a ``_COLUMN_DTYPES`` section, a column, into ``arrays``, by element.
    Every ascii DataArray that ``_model`` reads is such a column, so it
    finds the values of each in ``arrays`` and none in the tree.

    A column's text is read in batches of about ``_BATCH`` characters as it
    arrives, each cut at its last whitespace, so the parse holds one batch
    of text at a time.  A batch that ``_column`` reads is kept as its array,
    one that it declines as its tokens, which ``_values`` reads one by one
    once the parse is done; so malformed markup anywhere in the document is
    reported before any value.  A column's text ends at its end tag or at
    its first child element, where ElementTree's ``.text`` ends."""

    def __init__(self):
        self.tree = ET.TreeBuilder()
        self.open = []  # the elements whose end tag has not arrived
        self.arrays = {}
        self.column = None  # the column being read, and its dtype
        self.dtype = None
        self.parts = []  # what its text read as so far
        self.text = []  # its text not yet read, and that text's length
        self.size = 0

    def parse(self, pieces):
        """The root element of the document fed as the slices ``pieces``,
        and ``arrays``."""
        parser = self.parser = expat.ParserCreate(None, "}")
        parser.buffer_text = True
        parser.buffer_size = _BATCH
        parser.ordered_attributes = True
        parser.StartElementHandler = self.start
        parser.EndElementHandler = self.end
        parser.CharacterDataHandler = self.data
        parser.DefaultHandlerExpand = self.default
        try:
            for piece in pieces:
                parser.Parse(piece, False)
            parser.Parse(b"", True)
        finally:
            del self.parser  # its handlers refer to this builder
        return self.tree.close(), self.arrays

    def _dtype(self, elem):
        """The dtype of ``elem``, a child of the innermost open element,
        where it is a column."""
        if elem.tag == "DataArray" and elem.get("format") == "ascii" and self.open:
            section = self.open[-1].tag
            if section == "PointData" and elem.get("Name") == "Boundary_Conditions":
                return bool  # only its nonzero flags are kept: 1 byte a value, not 8
            return _COLUMN_DTYPES.get(section)
        return None

    def start(self, tag, attributes):
        self._close()
        names = map(_qualified, attributes[::2])
        elem = self.tree.start(_qualified(tag), dict(zip(names, attributes[1::2])))
        dtype = self._dtype(elem)
        if dtype is not None:
            self.column, self.dtype = elem, dtype
        self.open.append(elem)

    def data(self, text):
        if self.column is None:
            self.tree.data(text)
            return
        self.text.append(text)
        self.size += len(text)
        if self.size >= _BATCH:
            cut = -1  # the last whitespace of this piece
            for space in _SPACE:
                cut = max(cut, text.rfind(space, cut + 1))
            if cut >= 0:  # else it may end inside a token: wait for the next
                self.text[-1] = text[:cut]
                self._read("".join(self.text))
                self.text, self.size = [text[cut:]], len(text) - cut

    def _read(self, text):
        if text.isspace() and text.isascii():
            return  # whitespace between tokens reads as nothing
        values = _column(text, self.dtype)
        self.parts.append(text.split() if values is None else values)

    def _close(self):
        """End the column being read, if any, with the text not yet read."""
        if self.column is not None:
            self._read("".join(self.text))
            self.arrays[self.column] = self.parts
            self.column, self.parts, self.text, self.size = None, [], [], 0

    def end(self, tag):
        self._close()
        self.tree.end(_qualified(tag))
        self.open.pop()

    def default(self, text):
        """expat passes here an entity reference that no declaration it
        read defines; ElementTree's parser refuses it with this message."""
        if text.startswith("&"):
            raise expat.ExpatError(f"undefined entity {text}: line "
                                   f"{self.parser.ErrorLineNumber}, column "
                                   f"{self.parser.ErrorColumnNumber}")


def _tree(pieces):
    """The root element of the document fed as the slices ``pieces`` and, by
    element, the parts that ``_Builder`` read its columns in."""
    # expat raises ExpatError; a declared encoding that Python does not know
    # raises LookupError, and one that expat cannot take ValueError
    try:
        return _Builder().parse(pieces)
    except (expat.ExpatError, LookupError, ValueError) as exc:
        raise ExchangeFormatError(f"malformed document: {exc}") from exc


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

    def kind(self, *known):
        """The next token, the item's kind, which must be one of ``known``."""
        kind = self.take()
        if kind not in known:
            raise self.error(f"kind {kind!r}")
        return kind

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
    kind = reader.kind("Circle", "Rectangle", "Generic")
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
    else:
        values, extra = reader.keyed(_GENERIC_KEYS)
        missing = set(_GENERIC_KEYS) - values.keys()
        if missing:
            raise reader.error(f"Generic missing {sorted(missing)}")
        shape = GenericSection(**values)
    return CrossSection(id=cs_id, shape=shape, extra=extra)


def _parse_material(text):
    reader = _ItemReader(text, "material")
    mat_id = reader.take_as(int)
    reader.kind("IsoLinEl")
    values, extra = reader.keyed(_MATERIAL_KEYS)
    if "E" not in values or "nu" not in values:
        raise reader.error("needs E and nu")
    return Material(id=mat_id, extra=extra, **values)


def _parse_bc(text):
    reader = _ItemReader(text, "boundary condition")
    bc_id = reader.take_as(int)
    reader.kind("NodalLoad")
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
    reader.kind("RigidLink")
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
    return _model(*_tree(document[start:start + _FEED]
                         for start in range(0, len(document), _FEED)))


def read_model(handle) -> StructuralModel:
    """Parse the exchange document of the open file ``handle``, binary or
    text, a pipe too, from where it stands, read ``_FEED`` units at a time
    to an empty read, as ``parse_model`` parses it; never held whole."""
    return _model(*_tree(iter(lambda: handle.read(_FEED) or None, None)))


def _model(root, arrays) -> StructuralModel:
    """The StructuralModel of the element tree ``root`` and the arrays read
    from its columns."""
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
                            arrays).reshape(-1, 6).astype(bool, copy=False)
        elif name == "ID_BOUNDARY_CONDITION":
            bc_ids = _values(da, n_points, np.int64, "ID_BOUNDARY_CONDITION", arrays)

    if n_lines > 0 and piece.find("CellData") is None:
        raise ExchangeFormatError("missing CellData with ID_CROSS-SECTION / ID_MATERIAL")
    # one array per column: the cell table keeps each as given
    columns = {name: np.zeros(n_lines, dtype=np.int64)
               for name in ("ID_CROSS-SECTION", "ID_MATERIAL", "ELEMENT_TYPE")}
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


# rows of a column that one text piece of a writer holds at most
_ROWS = 1 << 10


def _rows(values, indent: str = ""):
    """The text rows of a 1-D array, one per entry, or of a 2-D array, one per
    row with single spaces between values, each ending in a newline, in
    pieces of at most ``_ROWS`` rows (none for no rows); floats in ``_fmt``
    form, since %r of a Python float is repr."""
    values = np.asarray(values)
    values = values.reshape(-1, values.shape[1] if values.ndim == 2 else 1)
    row = indent + " ".join(["%r" if values.dtype.kind == "f" else "%d"] * values.shape[1]) + "\n"
    for start in range(0, len(values), _ROWS):
        block = values[start:start + _ROWS]
        yield (row * len(block)) % tuple(block.ravel().tolist())


def _data_array(attrs: str, values):
    yield f"        <DataArray {attrs}>\n"
    yield from _rows(values, " " * 10)
    yield "        </DataArray>\n"


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
    for key, cs in point_aims(model).items():
        code = _wire(points, cs.shape.ref_code, f"cross-section {cs.id} references "
                     f"point {cs.shape.ref_code}, which is not in the model")
        sections[key] = replace(cs, shape=replace(cs.shape, ref_code=int(code)))
    return {"cross_sections": sections, "materials": model.materials, "bcs": model.bcs,
            "rigid_links": links}


def model_pieces(model: StructuralModel):
    """The exchange document of ``model`` as an iterator of text pieces,
    made one at a time: a few lines, or at most ``_ROWS`` rows of a column.

    Ordering is deterministic (points, cells and catalog items ascending by
    id), so identical models produce byte-identical documents.  Floats use
    the shortest round-tripping decimal form.  A cell, rigid link or
    Rectangle ``refNode`` that names a missing point raises ValueError here,
    before the first piece.
    """
    _, cell_order, points, ends = _ordered(model)
    catalogs = _wire_catalogs(model, points)
    return _document(model, points, cell_order, ends, catalogs)


def _document(model, points, cell_order, ends, catalogs):
    """The pieces of ``model_pieces``: ``points`` is the table in wire
    order, and each cell column is put in wire order as it is written."""
    cells = model.cells
    array = 'format="ascii" type="Int32" Name='
    yield ('<VTKFile type="PolyData" version="0.1" byte_order="LittleEndian">\n  <PolyData>\n'
           f'    <Piece NumberOfPoints="{len(points)}" NumberOfLines="{len(cells)}">\n'
           "      <Points>\n")
    yield from _data_array('type="Float32" NumberOfComponents="3" format="ascii"', points.coords)
    yield "      </Points>\n      <Lines>\n"
    yield from _data_array(array + '"connectivity"', ends)
    yield from _data_array(array + '"offsets"', np.arange(2, 2 * len(cells) + 1, 2))
    yield "      </Lines>\n      <PointData>\n"
    yield from _data_array(array + '"Boundary_Conditions" NumOfComp="6"',
                           points.masks.view(np.int8))
    yield from _data_array(array + '"ID_BOUNDARY_CONDITION"', points.bc_ids)
    yield "      </PointData>\n      <CellData>\n"
    yield from _data_array(array + '"ID_CROSS-SECTION"', cells.cs_ids[cell_order])
    yield from _data_array(array + '"ID_MATERIAL"', cells.mat_ids[cell_order])
    if cells.truss.any():
        yield from _data_array(array + '"ELEMENT_TYPE"', cells.truss[cell_order].view(np.int8))
    out = ["      </CellData>", "    </Piece>", "  </PolyData>", "  <AppendedData>", "    _",
           "    <Characteristics>"]
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
    yield "\n".join(out) + "\n"


def write_model(model: StructuralModel) -> str:
    """Serialize a model to the exchange dialect: ``model_pieces`` joined."""
    return "".join(model_pieces(model))


def results_pieces(model: StructuralModel, results, deform_scale: float = 1.0):
    """Legacy ASCII VTK POLYDATA with deformed geometry, nodal displacement
    vectors, per-cell resistance ratios and the binary exceeded flag, as an
    iterator of text pieces.  Result arrays that do not match the model, or
    a deformed geometry that overflows, raise ValueError here, before the
    first piece."""
    m = len(model.cells)
    disp = np.asarray(results.displacements, dtype=float)
    deformed = deformed_geometry(model, disp, deform_scale)
    if len(results.u_el) != m or len(results.exceeded) != m:
        raise ValueError("per-cell result arrays do not match the cell count")
    point_order, cell_order, _, ends = _ordered(model)
    return _results(model, results, disp, deformed, point_order, cell_order, ends)


def _results(model, results, disp, deformed, point_order, cell_order, ends):
    """The pieces of ``results_pieces``, each column in wire order."""
    n, m = len(point_order), len(cell_order)
    title = " ".join(model.comment.split()) or "formpipe results"
    yield f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET POLYDATA\nPOINTS {n} float\n"
    yield from _rows(deformed[point_order])
    yield f"LINES {m} {3 * m}\n"
    yield from _rows(np.column_stack([np.full(m, 2), ends]))
    yield f"POINT_DATA {n}\nVECTORS displacement float\n"
    yield from _rows(disp[point_order, :3])
    yield f"CELL_DATA {m}\nSCALARS resistance_ratio float 1\nLOOKUP_TABLE default\n"
    yield from _rows(np.asarray(results.u_el, dtype=float)[cell_order])
    yield "SCALARS exceeded int 1\nLOOKUP_TABLE default\n"
    yield from _rows(np.asarray(results.exceeded, dtype=bool)[cell_order].astype(np.int8))


def write_results_vtk(model: StructuralModel, results, deform_scale: float = 1.0) -> str:
    """``results_pieces`` joined."""
    return "".join(results_pieces(model, results, deform_scale))
