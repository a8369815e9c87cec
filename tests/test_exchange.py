import io
import os
import re
import threading
import xml.etree.ElementTree as ET
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import formpipe as fp
from formpipe import exchange
from formpipe.exchange import (
    _FEED,
    ExchangeFormatError,
    _column,
    _model,
    _tree,
    escape,
    model_pieces,
    parse_model,
    read_model,
    results_pieces,
    write_model,
    write_results_vtk,
)
from formpipe.model import (
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
    validate,
)
from formpipe.cli import atomic_write
from formpipe.resistance import ResultSet, build_result_set

from conftest import DATA_DIR, assert_models_equal, random_model, soup_document, traced_peak


class TestParseReferenceDocument:
    def test_geometry(self, reference_cantilever_text):
        model = parse_model(reference_cantilever_text)
        assert len(model.points) == 2
        assert np.array_equal(model.points[0].coords, [0.0, 0.0, 0.0])
        assert np.array_equal(model.points[1].coords, [1000.0, 0.0, 0.0])
        assert len(model.cells) == 1
        cell = model.cells[0]
        assert cell.connectivity == (0, 1)
        assert cell.cs_id == 2
        assert cell.mat_id == 1

    def test_supports_and_loads(self, reference_cantilever_text):
        model = parse_model(reference_cantilever_text)
        assert model.points[0].constraint_mask.all()
        assert not model.points[0].bc_id
        assert not model.points[1].constraint_mask.any()
        assert model.points[1].bc_id == 1
        assert np.array_equal(
            model.bcs[1].components, [-264.777, 0.0, 0.0, 0.0, 0.0, 0.0]
        )

    def test_catalogs(self, reference_cantilever_text):
        model = parse_model(reference_cantilever_text)
        assert model.comment == "example - cantilever"
        rect = model.cross_sections[1].shape
        assert isinstance(rect, Rectangle)
        assert (rect.width, rect.height) == (0.1, 0.2)
        assert (rect.ref_axis, rect.ref_code) == ("y", -2)
        circ = model.cross_sections[2].shape
        assert isinstance(circ, Circle)
        assert circ.diameter == 20.0
        mat = model.materials[1]
        assert mat.E == 210.0e3
        assert mat.nu == 0.2
        assert mat.tAlpha == 1.2e-5
        assert mat.density == 7850.0e-9
        # Ry is not part of the printed record: preset default applies
        assert mat.Ry == 300.0

    def test_round_trip(self, reference_cantilever_text):
        model = parse_model(reference_cantilever_text)
        text = write_model(model)
        again = parse_model(text)
        assert_models_equal(model, again)
        assert write_model(again) == text

    def test_validates_with_one_unreferenced_section_warning(self, reference_cantilever_text):
        from formpipe.model import validate

        report = validate(parse_model(reference_cantilever_text))
        assert report.ok
        assert len(report.warnings) == 1
        assert report.warnings[0].kind == "unreferenced-catalog"
        assert "cross-section 1" in report.warnings[0].message


class TestParseErrors:
    def test_empty_document(self):
        text = (
            '<VTKFile type="PolyData" version="0.1" byte_order="LittleEndian">'
            "<PolyData><Piece NumberOfPoints=\"0\" NumberOfLines=\"0\"/></PolyData></VTKFile>"
        )
        model = parse_model(text)
        assert not model.points and not model.cells

    def test_malformed_markup(self):
        with pytest.raises(ExchangeFormatError, match="malformed"):
            parse_model("<VTKFile><PolyData>")

    def test_wrong_vtk_type(self):
        with pytest.raises(ExchangeFormatError, match="type"):
            parse_model('<VTKFile type="UnstructuredGrid"><foo/></VTKFile>')

    def test_boundary_conditions_length_mismatch(self, reference_cantilever_text):
        broken = reference_cantilever_text.replace(
            "          1 1 1 1 1 1\n          0 0 0 0 0 0",
            "          1 1 1 1 1\n          0 0 0 0 0 0",
        )
        with pytest.raises(ExchangeFormatError, match="Boundary_Conditions"):
            parse_model(broken)

    def test_binary_payload_rejected(self, reference_cantilever_text):
        broken = reference_cantilever_text.replace(
            '<DataArray type="Float32" NumberOfComponents="3" format="ascii">',
            '<DataArray type="Float32" NumberOfComponents="3" format="binary">',
        )
        with pytest.raises(ExchangeFormatError, match="ascii"):
            parse_model(broken)

    def test_catalog_count_mismatch(self, reference_cantilever_text):
        broken = reference_cantilever_text.replace('CROSS-SECTIONS Number="2"', 'CROSS-SECTIONS Number="3"')
        with pytest.raises(ExchangeFormatError, match="Number"):
            parse_model(broken)

    def test_unknown_cell_arity(self, reference_cantilever_text):
        broken = reference_cantilever_text.replace(
            '<DataArray format="ascii" type="Int32" Name="connectivity"> 0 1 </DataArray>',
            '<DataArray format="ascii" type="Int32" Name="connectivity"> 0 1 1 </DataArray>',
        ).replace(
            '<DataArray format="ascii" type="Int32" Name="offsets"> 2 </DataArray>',
            '<DataArray format="ascii" type="Int32" Name="offsets"> 3 </DataArray>',
        )
        with pytest.raises(ExchangeFormatError, match="cell"):
            parse_model(broken)

    def test_unparseable_material(self, reference_cantilever_text):
        broken = reference_cantilever_text.replace("IsoLinEl", "Rubber")
        with pytest.raises(ExchangeFormatError, match="material"):
            parse_model(broken)

    def test_truncated_tail(self, reference_cantilever_text):
        with pytest.raises(ExchangeFormatError):
            parse_model(reference_cantilever_text[: len(reference_cantilever_text) // 2])


class TestParserTotality:
    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=60, deadline=None)
    def test_mutated_documents_never_crash(self, seed):
        """Any mutilated input yields either a model or a structured error."""
        import os

        from conftest import DATA_DIR

        with open(os.path.join(DATA_DIR, "reference_cantilever.vtp"), encoding="utf-8") as fh:
            text = fh.read()
        rng = np.random.default_rng(seed)
        kind = int(rng.integers(4))
        if kind == 0:
            cut = int(rng.integers(len(text)))
            text = text[:cut]
        elif kind == 1:
            pos = int(rng.integers(len(text)))
            text = text[:pos] + chr(int(rng.integers(32, 127))) + text[pos + 1 :]
        elif kind == 2:
            tokens = text.split(" ")
            i, j = rng.integers(len(tokens), size=2)
            tokens[i], tokens[j] = tokens[j], tokens[i]
            text = " ".join(tokens)
        else:
            pos = int(rng.integers(len(text)))
            text = text[:pos] + text
        try:
            model = parse_model(text)
            assert isinstance(model, StructuralModel)
        except ExchangeFormatError:
            pass


class TestWriter:
    def test_empty_model_round_trip(self):
        model = StructuralModel()
        text = write_model(model)
        again = parse_model(text)
        assert_models_equal(model, again)

    def test_writer_is_deterministic(self):
        rng = np.random.default_rng(7)
        model = random_model(rng)
        assert write_model(model) == write_model(model.copy())

    def test_truss_kind_round_trips(self):
        model = StructuralModel()
        model.points = [Point(id=0, coords=(0, 0, 0)), Point(id=1, coords=(100, 0, 0))]
        model.cells = [
            Cell(id=0, connectivity=(0, 1), cs_id=1, mat_id=1, kind=TRUSS_LINE)
        ]
        model.cross_sections[1] = CrossSection(id=1, shape=Circle(diameter=10.0))
        model.materials[1] = Material(id=1, E=1e4, nu=0.3)
        again = parse_model(write_model(model))
        assert again.cells[0].kind == TRUSS_LINE
        assert_models_equal(model, again)

    def test_rigid_links_round_trip(self):
        model = StructuralModel()
        model.points = [Point(id=0, coords=(0, 0, 0)), Point(id=1, coords=(100, 0, 0))]
        model.cells = [Cell(id=0, connectivity=(0, 1), cs_id=1, mat_id=1)]
        model.cross_sections[1] = CrossSection(id=1, shape=Circle(diameter=10.0))
        model.materials[1] = Material(id=1, E=1e4, nu=0.3)
        model.rigid_links = [
            RigidLink(master=0, slave=1, offset=None),
        ]
        again = parse_model(write_model(model))
        assert_models_equal(model, again)
        model.rigid_links = [RigidLink(master=0, slave=1, offset=(0.0, 50.0, 0.0))]
        again = parse_model(write_model(model))
        assert_models_equal(model, again)

    def test_unknown_catalog_keys_preserved(self, reference_cantilever_text):
        patched = reference_cantilever_text.replace(
            "2 Circle width 20.0", "2 Circle width 20.0 finish polished"
        )
        model = parse_model(patched)
        assert model.cross_sections[2].extra == (("finish", "polished"),)
        again = parse_model(write_model(model))
        assert again.cross_sections[2].extra == (("finish", "polished"),)

    def test_ry_extension_key(self, reference_cantilever_text):
        patched = reference_cantilever_text.replace("density 7850.0e-09", "density 7850.0e-09 Ry 355.0")
        model = parse_model(patched)
        assert model.materials[1].Ry == 355.0

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_model_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_points=int(rng.integers(2, 25)), with_extras=True)
        text = write_model(model)
        again = parse_model(text)
        assert_models_equal(model, again)
        assert write_model(again) == text

    def test_pieces_are_whole_lines_of_the_document(self, monkeypatch):
        model = parse_model(soup_document(5))
        text = write_model(model)
        monkeypatch.setattr(exchange, "_ROWS", 7)
        pieces = list(model_pieces(model))
        assert all(type(piece) is str and piece.endswith("\n") for piece in pieces)
        assert "".join(pieces) == text
        assert len(pieces) > 3 * len(model.points) // 7  # three point columns in 7-row pieces

    def test_missing_point_is_refused_before_the_first_piece(self):
        model = golden_model()
        model.points = [p for p in model.points if p.id != 22]  # the refNode and a link slave
        with pytest.raises(ValueError, match="rigid links reference points"):
            model_pieces(model)

    def test_markup_characters_round_trip(self):
        model = StructuralModel(comment="a & b < c > d &amp; e")
        model.cross_sections[1] = CrossSection(id=1, shape=Circle(diameter=10.0),
                                               extra=(("note", "x&y<z>&lt;"),))
        text = write_model(model)
        assert "a &amp; b &lt; c &gt; d &amp;amp; e" in text
        again = parse_model(text)
        assert again.comment == model.comment
        assert again.cross_sections[1].extra == (("note", "x&y<z>&lt;"),)


@pytest.mark.parametrize("text", ["a & b", "<tag>", "x > y", "&amp;", 'say "hi"', "it's",
                                  "plain text", "", "&<>&&<<>>"])
def test_escape_matches_saxutils(text):
    from xml.sax.saxutils import escape as oracle

    assert escape(text) == oracle(text)


def tied_coordinates(model):
    """Coordinates of the points that rigid links and Rectangle refNode codes
    name, looked up by id."""
    coords = {int(i): tuple(x) for i, x in zip(model.points.ids, model.points.coords.tolist())}
    links = [(coords[l.master], coords[l.slave]) for l in model.rigid_links]
    refs = {key: coords[cs.shape.ref_code] for key, cs in model.cross_sections.items()
            if isinstance(cs.shape, Rectangle) and cs.shape.ref_code is not None
            and cs.shape.ref_code >= 0}
    return links, refs


class TestPointReferencesRenumbered:
    """The wire gives points dense ids 0..n-1, so the ids that rigid links and
    Rectangle refNode codes hold are written as point positions."""

    def test_merged_cantilever_with_a_link(self):
        model = fp.gen_cantilever()
        model.points.append(Point(id=2, coords=(1000.0, 0.0, 0.0)))  # duplicate tip
        for pid, x in ((3, (1000.0, 0.0, 500.0)), (4, (1000.0, 0.0, 900.0)),
                       (5, (1000.0, 300.0, 500.0))):
            model.points.append(Point(id=pid, coords=x))
        for cid, ends in ((1, (2, 3)), (2, (3, 4)), (3, (4, 5))):
            model.cells.append(Cell(id=cid, connectivity=ends, cs_id=2, mat_id=1))
        model.rigid_links.append(RigidLink(master=3, slave=5))
        merged, _ = fp.merge_duplicate_nodes(model)
        assert merged.points.ids.tolist() == [0, 1, 3, 4, 5]
        again = parse_model(write_model(merged))
        assert validate(again).defects == []
        assert tied_coordinates(again) == tied_coordinates(merged)
        assert [(l.master, l.slave) for l in again.rigid_links] == [(2, 4)]

    def test_rectangle_reference_point(self):
        model = golden_model()
        again = parse_model(write_model(model))
        assert validate(again).defects == []
        assert again.cross_sections[6].shape.ref_code == 4
        assert tied_coordinates(again) == tied_coordinates(model)

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.rigid_links.append(RigidLink(master=14, slave=8)),
         "rigid links reference points that are not in the model"),
        (lambda m: m.cross_sections.update({7: CrossSection(id=7, shape=Rectangle(
            width=1.0, height=2.0, ref_axis="y", ref_code=10))}),
         "cross-section 7 references point 10, which is not in the model"),
    ])
    def test_reference_to_a_missing_point_refused(self, edit, message):
        model = golden_model()
        edit(model)
        with pytest.raises(ValueError) as err:
            write_model(model)
        assert str(err.value) == message


class TestResultsWriter:
    def _solved_cantilever(self):
        import formpipe as fp

        model = fp.gen_cantilever()
        system, dm = fp.assemble(model)
        u, _ = fp.solve_direct(system)
        disp = fp.expand_displacements(dm, u)
        forces = fp.recover_end_forces(model, disp)
        results = build_result_set(model, disp, forces)
        return model, results

    def test_zero_scale_keeps_geometry(self):
        model, results = self._solved_cantilever()
        text = write_results_vtk(model, results, deform_scale=0.0)
        lines = text.splitlines()
        start = lines.index("POINTS 2 float") + 1
        assert lines[start] == "0.0 0.0 0.0"
        assert lines[start + 1] == "1000.0 0.0 0.0"
        assert "SCALARS resistance_ratio float 1" in lines
        assert "VECTORS displacement float" in lines

    def test_exceeded_flag_set(self):
        model, results = self._solved_cantilever()
        assert results.u_el[0] > 1.0
        text = write_results_vtk(model, results, deform_scale=1.0)
        lines = text.splitlines()
        idx = lines.index("SCALARS exceeded int 1")
        assert lines[idx + 2] == "1"

    def test_all_zero_load_case(self):
        import formpipe as fp

        model = fp.gen_cantilever(fp.CantileverSpec(tip_force=0.0))
        model.self_weight_enabled = False
        system, dm = fp.assemble(model)
        u, _ = fp.solve_direct(system)
        disp = fp.expand_displacements(dm, u)
        forces = fp.recover_end_forces(model, disp)
        results = build_result_set(model, disp, forces)
        assert results.max_u_el == 0.0
        text = write_results_vtk(model, results, deform_scale=1.0)
        lines = text.splitlines()
        idx = lines.index("SCALARS exceeded int 1")
        assert lines[idx + 2] == "0"

    def test_size_mismatch_rejected(self):
        model, results = self._solved_cantilever()
        results.displacements = results.displacements[:1]
        with pytest.raises(ValueError):
            write_results_vtk(model, results, deform_scale=1.0)


def golden_model():
    """One model with every feature the writer serializes: id gaps, lists in
    shuffled order, a Rectangle with refNode, a truss, rigid links with and
    without offset, catalog extras (one needing escapes) and a comment that
    needs whitespace folding and escapes."""
    model = StructuralModel(comment="golden  mixed\nmodel <a&b>")
    points = [
        (14, (1000.0, 0.0, 250.0), [0, 1, 0, 0, 0, 0], 7),
        (3, (0.0, 0.0, 0.0), [1, 1, 1, 1, 1, 1], 0),
        (9, (500.0, 1 / 3, -2.5e-7), [0, 0, 0, 0, 0, 0], 0),
        (22, (1000.0, 120.0, 250.0), [0, 0, 0, 0, 0, 0], 2),
        (5, (0.0, 1200.0, 1e6 / 7), [1, 1, 1, 0, 0, 0], 0),
    ]
    model.points = [Point(id=i, coords=x, constraint_mask=m, bc_id=b) for i, x, m, b in points]
    model.cells = [
        Cell(id=40, connectivity=(9, 14), cs_id=6, mat_id=2),
        Cell(id=2, connectivity=(3, 9), cs_id=6, mat_id=2),
        Cell(id=17, connectivity=(5, 9), cs_id=1, mat_id=4, kind=TRUSS_LINE),
        Cell(id=11, connectivity=(14, 5), cs_id=3, mat_id=4),
    ]
    model.cross_sections = {
        6: CrossSection(id=6, shape=Rectangle(width=80.0, height=120.5, ref_axis="z",
                                              ref_code=22), extra=(("finish", "raw"),)),
        1: CrossSection(id=1, shape=Circle(diameter=12.7)),
        3: CrossSection(id=3, shape=GenericSection(A=150.0, Iy=4.0e4, Iz=3.0e4, J=7.0e4,
                                                    Wy=1.6e3, Wz=1.3e3, Wt=3.0e3),
                        extra=(("source", "test"), ("grade", "S<355>"))),
    }
    model.materials = {
        4: Material(id=4, E=210000.0, nu=0.3, tAlpha=1.2e-5, density=7.85e-6, Ry=355.0),
        2: Material(id=2, E=11000.0, nu=0.25, density=4.5e-7, extra=(("species", "oak"),)),
    }
    model.bcs = {
        7: BoundaryConditionEntry(id=7, components=(0.0, -264.777, 0.0, 0.0, 0.0, 1e5)),
        2: BoundaryConditionEntry(id=2, components=(1.5, 0.0, -3.0, 0.0, 0.1, 0.0),
                                  extra=(("case", "wind"),)),
    }
    model.rigid_links = [
        RigidLink(master=14, slave=22, offset=(0.0, 120.0, 0.0)),
        RigidLink(master=3, slave=9),
    ]
    return model


def golden_results(model):
    """Fixed per-point and per-cell values in the model's list order."""
    n, m = len(model.points), len(model.cells)
    disp = (np.arange(6 * n, dtype=float).reshape(n, 6) - 7.0) / 3.0e3
    u_el = np.array([0.25, 1.0, 1.0 + 1e-9, 0.1])
    return ResultSet(
        displacements=disp, end_forces=np.zeros((m, 2, 6)), u_el=u_el, exceeded=u_el > 1.0,
        max_u_el=float(u_el.max()), max_total_displacement=0.0,
        reactions=np.zeros((n, 6)), applied_loads=np.zeros((n, 6)),
    )


def read_data(name):
    with open(os.path.join(DATA_DIR, name), encoding="utf-8") as fh:
        return fh.read()


class TestGoldenFiles:
    """Writer output pinned byte for byte (files written before the writers
    were rebuilt on shared array helpers)."""

    def test_model_file(self):
        assert write_model(golden_model()) == read_data("golden_mixed.vtp")

    def test_results_file(self):
        model = golden_model()
        text = write_results_vtk(model, golden_results(model), deform_scale=2.5)
        assert text == read_data("golden_mixed_results.vtk")

    @pytest.mark.parametrize("rows", [1, 3, 1 << 10])
    def test_files_in_pieces_of_any_rows(self, monkeypatch, rows):
        monkeypatch.setattr(exchange, "_ROWS", rows)
        model = golden_model()
        pieces = list(results_pieces(model, golden_results(model), deform_scale=2.5))
        assert all(type(piece) is str for piece in pieces)
        assert "".join(pieces) == read_data("golden_mixed_results.vtk")
        assert write_model(model) == read_data("golden_mixed.vtp")

    def test_model_file_is_a_fixed_point(self):
        text = read_data("golden_mixed.vtp")
        assert write_model(parse_model(text)) == text


class TestDataArrayErrors:
    @pytest.mark.parametrize("ncomp, message", [
        ("5", "Boundary_Conditions must carry 6 components"),
        ("six", "bad component count 'six'"),
    ])
    def test_boundary_condition_component_count(self, reference_cantilever_text, ncomp, message):
        broken = reference_cantilever_text.replace('NumOfComp="6"', f'NumOfComp="{ncomp}"')
        with pytest.raises(ExchangeFormatError) as err:
            parse_model(broken)
        assert str(err.value) == message

    @pytest.mark.parametrize("token", ["9223372036854775808", "-99999999999999999999"])
    def test_integer_outside_int64_names_its_array(self, token):
        text = read_data("golden_mixed.vtp").replace(
            'Name="ID_MATERIAL">\n          2', f'Name="ID_MATERIAL">\n          {token}')
        with pytest.raises(ExchangeFormatError, match="^ID_MATERIAL: "):
            parse_model(text)

    @pytest.mark.parametrize("offsets, message", [
        ("2 2 6 8", "offsets must be strictly increasing"),
        ("2 5 6 8", "unknown cell kind: cell with 3 vertices (only 2-node lines)"),
        ("2 4 6 10", "unknown cell kind: cell with 4 vertices (only 2-node lines)"),
        ("2 4 6 8", None),
    ])
    def test_first_failing_offset_is_reported(self, offsets, message):
        text = read_data("golden_mixed.vtp").replace(
            "\n          2\n          4\n          6\n          8\n", f"\n {offsets}\n")
        if message is None:
            assert len(parse_model(text).cells) == 4
            return
        with pytest.raises(ExchangeFormatError) as err:
            parse_model(text)
        assert str(err.value) == message

    def test_offsets_past_connectivity(self):
        text = read_data("golden_mixed.vtp").replace(
            "\n          2 3\n", "\n          2\n")
        with pytest.raises(ExchangeFormatError) as err:
            parse_model(text)
        assert str(err.value) == "offsets run past the end of the connectivity array"


def _split_parse(body, n, what="ID_MATERIAL", dtype=np.int64):
    """What the whitespace tokens of a DataArray body give under
    ``np.array(tokens, dtype=dtype)``: the values (floats as the int64 of
    their bits) or the error message."""
    tokens = body.split()
    if len(tokens) != n:
        return f"{what}: expected {n} values, got {len(tokens)}"
    try:
        return np.array(tokens, dtype=dtype).view(np.int64).tolist()
    except (ValueError, OverflowError) as exc:
        return f"{what}: {exc}"


def _parsed_materials(token):
    """``parse_model`` of the golden file with ``token`` in place of its
    first ID_MATERIAL value: the column, or the error message."""
    head = 'Name="ID_MATERIAL">\n          '
    text = read_data("golden_mixed.vtp").replace(head + "2", head + token)
    try:
        return parse_model(text).cells.mat_ids.tolist()
    except ExchangeFormatError as exc:
        return str(exc)


class TestIntegerColumns:
    """Integer columns are read by numpy's C tokenizer where it reads them as
    the tokens would be read one at a time, and token by token elsewhere:
    either way a value, or an error message, equals the token path's."""

    REST = "\n          4\n          4\n          2\n        "

    @pytest.mark.parametrize("token", [
        "+5", "1_000", "-1-2", "1.5", "0x10", "9223372036854775807", "-9223372036854775808",
        "\t\n7\n\t", "9223372036854775808", "-9223372036854775809", "-", "+", "- 5", "+ 5",
        "5 -", "007", "-0",
    ])
    def test_value_or_message_as_token_by_token(self, token):
        assert _parsed_materials(token) == _split_parse(token + self.REST, 4)

    @given(token=st.text(alphabet="0123456789+-_.x \t\n", min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_any_token_as_token_by_token(self, token):
        assert _parsed_materials(token) == _split_parse(token + self.REST, 4)



# the body of the golden file's Points DataArray
_POINTS_HEAD = 'format="ascii">'
_COORDINATES = read_data("golden_mixed.vtp").split(_POINTS_HEAD)[1].split("</DataArray>")[0]


def _parsed_coordinates(token):
    """``parse_model`` of the golden file with ``token`` in place of its
    first coordinate: the coordinates as the int64 of their bits, or the
    error message."""
    body = _COORDINATES.replace("0.0", token, 1)
    text = read_data("golden_mixed.vtp").replace(_POINTS_HEAD + _COORDINATES, _POINTS_HEAD + body)
    try:
        return parse_model(text).points.coords.ravel().view(np.int64).tolist()
    except ExchangeFormatError as exc:
        return str(exc)


class TestFloatColumns:
    """Float columns are read by numpy's C tokenizer where it reads them as
    the tokens would be read one at a time, and token by token elsewhere:
    either way the bits of every value, or the error message, equal the
    token path's."""

    @staticmethod
    def token_path(token):
        return _split_parse(_COORDINATES.replace("0.0", token, 1), 15, "point coordinates",
                            float)

    @pytest.mark.parametrize("token", [
        "-0.0", "nan", "NaN", "-nan", "+nan", "inf", "-inf", "+Infinity", "1e999", "-1e999",
        "1e-999", "-1e-999", "4.9e-324", "2.5e-324", ".5", "-.5", "5.", "1E5", "nan(123)",
        "-nan(1)", "nan(", "1_000", "\u0661\u0662", "1\xa02", "1\xa0", "- 5", "-", "+", "1.5-2",
        "1e", "0x10", "1,5", "infinit", "nanx", "1d5", "\t\n7\n\t",
    ])
    def test_value_or_message_as_token_by_token(self, token):
        assert _parsed_coordinates(token) == self.token_path(token)

    @given(token=st.one_of(
        st.floats().map(repr),
        st.text(alphabet="0123456789+-_.eEnaifNIty() \t\n\xa0\u0661", min_size=1,
                max_size=12)))
    @settings(max_examples=300, deadline=None)
    def test_any_token_as_token_by_token(self, token):
        assert _parsed_coordinates(token) == self.token_path(token)

    @pytest.mark.parametrize("text", [
        "  ", "\n\t ",  # the tokenizer reads blank text as [-1.]
        "nan(123)", "1 nan(abc) 2",  # the tokenizer accepts a NaN payload
        "-nan", "1 -nan",  # the tokenizer drops the sign of nan
        "1_000", "\u0661\u0662", "1\xa02",  # only float() accepts these
    ])
    def test_known_divergences_decline(self, text):
        assert _column(text, float) is None


# documents whose first failure, or whose success, must not depend on how
# far the parser had read when a DataArray failed to convert
_PAD = " " * 100_000  # whitespace past the first slices the parser takes


class TestStreamingPrecedence:
    """The streaming parse reports the same first failure as a parse of the
    whole tree: malformed markup wins over any value, values are read in
    the order the checks reach them, and unknown arrays are never read."""

    @pytest.mark.parametrize("edits, message", [
        ([("0.0 0.0 0.0", "0.0 x 0.0" + _PAD), ("</CellData>", "</CellDatum>")],
         "malformed document: mismatched tag: line 62, column 8"),
        ([("0.0 0.0 0.0", "0.0 x 0.0"), ("\n          7\n", "\n")],
         "point coordinates: could not convert string to float: 'x'"),
        ([('format="ascii" type="Int32" Name="ID_BOUNDARY_CONDITION"',
           'format="binary" type="Int32" Name="ID_BOUNDARY_CONDITION"')],
         "only ascii data arrays are supported, got format='binary'"),
        ([("\n          7\n", "\n")], "ID_BOUNDARY_CONDITION: expected 5 values, got 4"),
        ([("1000.0 120.0 250.0", "1000.0 120.0 250.0" + _PAD + "2.0")],
         "point coordinates: expected 15 values, got 16"),
    ], ids=["bad-value-then-markup", "bad-value-then-count", "binary", "count",
            "count-past-a-slice"])
    def test_first_failure(self, edits, message):
        text = read_data("golden_mixed.vtp")
        for old, new in edits:
            assert old in text
            text = text.replace(old, new, 1)
        with pytest.raises(ExchangeFormatError) as err:
            parse_model(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("kind", ["Verts", "Polys", "Strips"])
    def test_other_cell_kinds(self, kind):
        array = '<DataArray format="ascii" type="Int32" Name="connectivity"> 0 x </DataArray>'
        text = read_data("golden_mixed.vtp").replace(
            "      <Lines>", f"      <{kind}>{array}</{kind}>\n      <Lines>")
        with pytest.raises(ExchangeFormatError) as err:
            parse_model(text)
        assert str(err.value) == f"unknown cell kind: {kind} geometry is not supported"

    @pytest.mark.parametrize("body", ["1.5 x 2.5e", "1 2 3", _PAD + "1 2"])
    def test_unknown_named_array_is_ignored(self, body):
        text = read_data("golden_mixed.vtp")
        array = f'<DataArray format="ascii" type="Float32" Name="Temperature">{body}</DataArray>'
        patched = text.replace("      </PointData>", f"        {array}\n      </PointData>")
        assert patched != text
        assert write_model(parse_model(patched)) == text

    def test_declared_encoding_is_honoured_for_bytes(self):
        text = write_model(StructuralModel(comment="fa\xe7ade"))
        latin = ('<?xml version="1.0" encoding="ISO-8859-1"?>\n' + text).encode("latin-1")
        assert parse_model(latin).comment == parse_model(text.encode()).comment == "fa\xe7ade"
        assert read_model(io.BytesIO(latin)).comment == "fa\xe7ade"

    def test_character_split_across_slices_is_read_whole(self):
        # the two UTF-8 bytes of the comment's last character straddle the
        # end of a slice of the file
        at = write_model(StructuralModel(comment="\xe7")).encode().index("\xe7".encode())
        comment = "a" * (-(at + 1) % _FEED) + "\xe7"
        data = write_model(StructuralModel(comment=comment)).encode()
        assert data.index("\xe7".encode()) % _FEED == _FEED - 1
        assert read_model(io.BytesIO(data)).comment == parse_model(data).comment == comment


def test_parse_holds_no_whole_tree_text():
    """The 8x8x8 soup (3.1k points, 0.41 MB): the parse's traced peak is 1.42
    times the document's length, with each column's text read in batches as
    it arrives; holding a whole column's text twice at its end tag took
    1.74 times, and the whole tree's text and every token of a column at
    once 4.9 times."""
    text = soup_document(8)
    assert 3000 < len(parse_model(text).points) < 3300
    assert traced_peak(parse_model, text) <= 1.6 * len(text)


def test_reading_a_file_holds_no_whole_document(tmp_path):
    """The same soup read from its file in slices: the traced peak is 1.42
    times the file's length, as parsing the text already in memory; reading
    the file's bytes whole first took 2.75 times."""
    path = tmp_path / "soup.vtp"
    path.write_text(soup_document(8))
    size = path.stat().st_size

    def read():
        with open(path, "rb") as handle:
            return read_model(handle)

    assert_models_equal(read(), parse_model(path.read_text()))
    assert traced_peak(read) <= 1.6 * size


def test_parse_holds_support_masks_as_bools():
    """The 12x12x12 soup (10.5k points, 1.29 MB): the parse's traced peak
    is 1.04 times the document's length.  Reading Boundary_Conditions as
    int64, 8 bytes a value where its mask takes 1, and keeping every column
    in the parse's arrays until the model was built took 1.41 times."""
    text = soup_document(12)
    assert traced_peak(parse_model, text) <= 1.15 * len(text)


def test_streamed_write_holds_no_whole_document(tmp_path):
    """Writing the 8x8x8 soup (0.41 MB) piece by piece traces 0.39 MB: the
    model's tables in wire order and one piece of at most ``_ROWS`` rows.
    Formatting the whole document before writing it took 1.47 MB."""
    soup = parse_model(soup_document(8))
    path = tmp_path / "soup.vtp"
    assert traced_peak(lambda: atomic_write(str(path), model_pieces(soup))) <= 0.5e6
    assert path.read_text() == write_model(soup)


def _with_token(text, token):
    """The soup document ``text`` with ``token`` in place of the first
    coordinate that follows its first three batches."""
    line = text.index("\n", text.index(_POINTS_HEAD) + 3 * exchange._BATCH)
    found = re.compile(r"\S+").search(text, line)
    return text[:found.start()] + token + text[found.end():]


def test_declined_column_holds_one_batch_of_tokens():
    """The 12x12x12 soup with a ``-nan`` coordinate, which ``_column``
    declines, past its first three batches: the parse's traced peak is 1.04
    times the document's length, as for the clean soup, since only that
    batch is kept as tokens.  Parsing the whole input again, with each
    column's text held whole, took 2.70 times."""
    text = _with_token(soup_document(12), "-nan")
    assert traced_peak(parse_model, text) <= 1.15 * len(text)


def _read_from_pipe(data: bytes):
    """``read_model`` of the read end of a pipe that another thread writes
    ``data`` into."""
    read_end, write_end = os.pipe()

    def write():
        with open(write_end, "wb") as pipe:
            pipe.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    with open(read_end, "rb") as pipe:
        assert not pipe.seekable()
        model = read_model(pipe)
    writer.join(timeout=60)
    assert not writer.is_alive()
    return model


@pytest.mark.parametrize("token", [None, "-nan"], ids=["clean", "declined"])
def test_reading_a_pipe(token):
    """The 8x8x8 soup read from a pipe, which cannot seek, is the model that
    ``parse_model`` gives, also with a coordinate past its first batches
    that ``_column`` declines."""
    text = soup_document(8)
    if token is not None:
        text = _with_token(text, token)
    piped, parsed = _read_from_pipe(text.encode()), parse_model(text)
    assert write_model(piped) == write_model(parsed)
    assert np.array_equal(piped.points.coords.view(np.int64),
                          parsed.points.coords.view(np.int64))


def _read_within(handle, seconds=60):
    """``read_model(handle)`` on a thread that must return within ``seconds``."""
    models = []
    reader = threading.Thread(target=lambda: models.append(read_model(handle)), daemon=True)
    reader.start()
    reader.join(timeout=seconds)
    assert not reader.is_alive(), "read_model did not return"
    return models[0]


def test_reading_a_text_handle(tmp_path):
    """A text file and a StringIO end at their first empty read, as a
    binary file does, and give the model that ``parse_model`` gives."""
    text = soup_document(8)
    path = tmp_path / "soup.vtp"
    path.write_text(text)
    parsed = write_model(parse_model(text))
    with open(path) as handle:
        assert write_model(_read_within(handle)) == parsed
    assert write_model(_read_within(io.StringIO(text))) == parsed


def _parsed(document, feed=_FEED, batch=exchange._BATCH):
    """The model, or the error message, of ``document`` fed to the reader in
    slices of ``feed``, with its columns read in batches of ``batch``
    characters."""
    slices = (document[start:start + feed] for start in range(0, len(document), feed))
    with mock.patch.object(exchange, "_BATCH", batch):
        try:
            return _model(*_tree(slices))
        except ExchangeFormatError as exc:
            return str(exc)


def _etree_column(document, path, n, what, dtype=np.int64):
    """``_split_parse`` of the text that ElementTree's parse of ``document``
    gives the DataArray at ``path``, or None where it refuses the document."""
    try:
        root = ET.fromstring(document)
    except ET.ParseError:
        return None
    return _split_parse(root.find(path).text or "", n, what, dtype)


_GOLDEN = read_data("golden_mixed.vtp")
_MATERIALS_HEAD = 'Name="ID_MATERIAL">'
_MATERIALS = _GOLDEN.split(_MATERIALS_HEAD)[1].split("</DataArray>")[0]
_POINTS_PATH = "PolyData/Piece/Points/DataArray"
_MATERIALS_PATH = "PolyData/Piece/CellData/DataArray[@Name='ID_MATERIAL']"

# tokens where numpy's tokenizer and the token path may part: signs,
# exponents, NaN spellings and payloads, lone signs, the int64 limits and
# non-ASCII digits and spaces
_TOKENS = st.one_of(
    st.floats().map(repr), st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["nan", "-nan", "+nan", "NaN", "inf", "-inf", "+Infinity", "nan(12)",
                     "-nan(x)", "nan(", "-", "+", "1e", "1e999", "-0", "+5", "007", "1_0",
                     "9223372036854775807", "-9223372036854775808", "9223372036854775808",
                     "\u0661\u0662", "1\xa02", "\xe9"]),
    st.text(alphabet="0123456789+-.eEnaifxy()", min_size=1, max_size=6))
# every whitespace character; expat turns \r into \n and refuses \v and \f
_GAPS = st.text(alphabet=" \t\n\r\v\f", min_size=1, max_size=3).filter(
    lambda gap: not set(gap) & set("\v\f") or len(gap) == 3)


_SMALL_SOUP = soup_document(5)  # 0.06 MB


def _column_text(tokens, gaps):
    return "".join(gap + token for token, gap in zip(tokens, gaps)) + gaps[-1]


class TestStreamingParity:
    """A column read in batches, cut at whitespace as the parser hands its
    text over, gives the values or the message that the tokens of its text,
    as ElementTree gives it, give one by one, wherever the slices of the
    document and the batches fall."""

    @given(tokens=st.lists(_TOKENS, min_size=1, max_size=20),
           gaps=st.lists(_GAPS, min_size=21, max_size=21),
           float_column=st.booleans(), feed=st.integers(1, 64), batch=st.integers(1, 48))
    @settings(max_examples=300, deadline=None)
    def test_any_column_text(self, tokens, gaps, float_column, feed, batch):
        body = _column_text(tokens, gaps)
        if float_column:
            document = _GOLDEN.replace(_POINTS_HEAD + _COORDINATES, _POINTS_HEAD + body)
            reference = (_POINTS_PATH, 15, "point coordinates", float)

            def column(model):
                return model.points.coords.ravel().view(np.int64).tolist()
        else:
            document = _GOLDEN.replace(_MATERIALS_HEAD + _MATERIALS, _MATERIALS_HEAD + body)
            reference = (_MATERIALS_PATH, 4, "ID_MATERIAL")

            def column(model):
                return model.cells.mat_ids.tolist()
        for data in (document, document.encode("utf-8")):
            outcome = _parsed(data, feed=feed, batch=batch)
            expected = _etree_column(data, *reference)
            if expected is None:
                assert isinstance(outcome, str)
                assert outcome.startswith("malformed document: ")
            elif isinstance(expected, str):
                assert outcome == expected
            else:
                assert column(outcome) == expected

    @given(feed=st.integers(100, 1 << 15), batch=st.integers(1, 1 << 17))
    @settings(max_examples=20, deadline=None)
    def test_soup_across_slices_and_batches(self, feed, batch):
        assert write_model(_parsed(_SMALL_SOUP, feed=feed, batch=batch)) == _SMALL_SOUP

    @pytest.mark.parametrize("edit, outcome", [
        ((_POINTS_HEAD, _POINTS_HEAD), None),  # no change
        (("<VTKFile ", '<VTKFile xmlns="urn:formpipe" '),
         "not a VTKFile document (root '{urn:formpipe}VTKFile')"),
        (("0.0 0.0 0.0", "0.0 &undefined; 0.0"),
         "malformed document: undefined entity: line 6, column 14"),
        (("0.0 0.0 0.0", "0.0 <!-- a comment -->0.0 0.0"), None),
        (("0.0 0.0 0.0", "0.0 <![CDATA[0.0]]> 0.0"), None),
        (("0.0 0.0 0.0", "0.0&#32;0.0&#x9;0.0"), None),
        # the column's text ends at the child, after the first point
        (("0.0 0.0 0.0", "0.0 0.0 0.0<b>1</b>"), "point coordinates: expected 15 values, got 3"),
        ((_COORDINATES + "</DataArray>", _COORDINATES.rstrip() + "<b>7</b></DataArray>"), None),
        ((_MATERIALS_HEAD + _MATERIALS, _MATERIALS_HEAD + "\n  \t  "),
         "ID_MATERIAL: expected 4 values, got 0"),
        ((_MATERIALS_HEAD + _MATERIALS, _MATERIALS_HEAD), "ID_MATERIAL: expected 4 values, got 0"),
    ], ids=["golden", "namespaced-root", "undefined-entity", "comment", "cdata", "char-refs",
            "child-element", "child-after-the-values", "blank-column", "empty-column"])
    def test_fixed_documents(self, edit, outcome):
        """The golden model where ``outcome`` is None, else its message."""
        document = _GOLDEN.replace(*edit, 1)
        for batch in (1, 5, exchange._BATCH):
            parsed = _parsed(document, batch=batch)
            if outcome is None:
                assert write_model(parsed) == _GOLDEN
            else:
                assert parsed == outcome

    def test_namespaced_root_is_refused_by_its_qualified_tag(self):
        document = _GOLDEN.replace("<VTKFile ", '<VTKFile xmlns="urn:formpipe" ', 1)
        with pytest.raises(ExchangeFormatError) as err:
            parse_model(document)
        assert str(err.value) == "not a VTKFile document (root '{urn:formpipe}VTKFile')"

    def test_undefined_entity_is_malformed(self):
        with pytest.raises(ExchangeFormatError) as err:
            parse_model(_GOLDEN.replace("0.0 0.0 0.0", "0.0 &undefined; 0.0", 1))
        assert str(err.value) == "malformed document: undefined entity: line 6, column 14"
        # with an external DTD expat leaves the reference to the parser
        document = '<!DOCTYPE VTKFile SYSTEM "vtk.dtd">\n' + _GOLDEN.replace(
            "0.0 0.0 0.0", "0.0 &undefined; 0.0", 1)
        with pytest.raises(ExchangeFormatError) as err:
            parse_model(document)
        assert str(err.value) == ("malformed document: undefined entity &undefined;: "
                                  "line 7, column 14")

    def test_declared_latin_1_column_document(self):
        text = _GOLDEN.replace("<item> ", "<item> fa\xe7ade ", 1)
        document = ('<?xml version="1.0" encoding="ISO-8859-1"?>\n' + text).encode("latin-1")
        model = _parsed(document, batch=3)
        assert_models_equal(model, parse_model(text))
        assert "fa\xe7ade" in model.comment + str(model.cross_sections)

    def test_declined_column_is_read_in_one_pass(self):
        """A NaN payload or a lone sign past the first batches of the soup's
        coordinates raises its message after one pass over the input, read
        from where the handle stood: here after a header that is not the
        document's, through a handle that can only read."""
        header = b"not the document\n"
        for bad in ("nan(7)", "-"):
            body = _with_token(soup_document(8), bad).encode()
            handle = io.BytesIO(header + body)
            handle.read(len(header))
            read = []

            class Reader:
                @staticmethod
                def read(size):
                    read.append(handle.read(size))
                    return read[-1]

            with pytest.raises(ExchangeFormatError) as err:
                read_model(Reader())
            assert str(err.value) == ("point coordinates: could not convert string to "
                                      f"float: {bad!r}")
            assert b"".join(read) == body


_SUPPORTS_HEAD = 'Name="Boundary_Conditions" NumOfComp="6">'
_SUPPORTS = _GOLDEN.split(_SUPPORTS_HEAD)[1].split("</DataArray>")[0]
_SUPPORTS_PATH = "PolyData/Piece/PointData/DataArray[@Name='Boundary_Conditions']"


class TestSupportMasks:
    """Boundary_Conditions is read as the nonzero flag of each value, one
    byte a value: the masks, or the message, are those of the int64 tokens
    of its text, as ElementTree gives it, read one by one."""

    @given(values=st.lists(st.sampled_from(["0", "1", "-0", "+2", "007", "-1",
                                            "9223372036854775807", "-9223372036854775808"]),
                           min_size=29, max_size=31),
           bad=st.one_of(st.none(), st.tuples(st.integers(0, 28), _TOKENS)),
           gaps=st.lists(st.text(alphabet=" \t\n\r", min_size=1, max_size=3),
                         min_size=32, max_size=32),
           feed=st.integers(1, 64), batch=st.integers(1, 48))
    @settings(max_examples=200, deadline=None)
    def test_masks_as_token_by_token(self, values, bad, gaps, feed, batch):
        if bad is not None:
            values[bad[0]] = bad[1]
        body = _column_text(values, gaps)
        document = _GOLDEN.replace(_SUPPORTS_HEAD + _SUPPORTS, _SUPPORTS_HEAD + body)
        expected = _etree_column(document, _SUPPORTS_PATH, 30, "Boundary_Conditions")
        if not isinstance(expected, str):
            expected = (np.array(expected) != 0).reshape(-1, 6).tolist()
        outcome = _parsed(document, feed=feed, batch=batch)
        masks = outcome if isinstance(outcome, str) else outcome.points.masks.tolist()
        assert masks == expected
