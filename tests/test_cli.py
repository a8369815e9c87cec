import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import formpipe as fp
from formpipe.cli import main, run_clean_pipeline, run_solve_pipeline

from conftest import floating_chains, line_pinned_lattice, random_model


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_structured(text):
    records = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(" ")
        records[key] = value
    return records


def is_plain_value(value):
    """An int, a float or a bare token such as ``pcg-jacobi``."""
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_.\-]*", value):
        return True
    try:
        float(value)
    except ValueError:
        return False
    return True


@pytest.fixture
def cantilever_file(tmp_path, capsys):
    path = tmp_path / "cantilever.vtp"
    code, _, _ = run(capsys, "gen", "cantilever", str(path))
    assert code == 0
    return path


class TestCheck:
    def test_generated_cantilever_clean(self, capsys, cantilever_file):
        code, out, err = run(capsys, "check", str(cantilever_file))
        assert code == 0
        assert "clean" in out
        assert err == ""

    def test_reference_fixture_warns_on_unused_catalog(self, capsys, tmp_path, reference_cantilever_text):
        path = tmp_path / "reference.vtp"
        path.write_text(reference_cantilever_text)
        code, out, _ = run(capsys, "check", str(path))
        assert code == 1
        assert "unreferenced-catalog" in out

    def test_truncated_file_unreadable(self, capsys, tmp_path, reference_cantilever_text):
        path = tmp_path / "broken.vtp"
        path.write_text(reference_cantilever_text[:200])
        code, _, err = run(capsys, "check", str(path))
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("command", ["check", "clean", "solve"])
    def test_id_outside_int64_unreadable(self, capsys, tmp_path, cantilever_file, command):
        path = tmp_path / "huge.vtp"
        column = 'Name="ID_CROSS-SECTION">\n          2'
        path.write_text(cantilever_file.read_text().replace(column, column + "0" * 19))
        argv = [command, str(path)] + ([str(tmp_path / "out")] if command != "check" else [])
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ID_CROSS-SECTION: ")

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.replace(b"</PolyData>", b"</PolyData>\xff\xfe"),
         r"not well-formed \(invalid token\): line \d+, column \d+"),
        (lambda doc: b'<?xml version="1.0" encoding="no-such-codec"?>\n' + doc,
         "unknown encoding: no-such-codec"),
        (lambda doc: b'<?xml version="1.0" encoding="shift_jis"?>\n' + doc,
         "multi-byte encodings are not supported"),
    ], ids=["invalid-utf8", "unknown-encoding", "multi-byte-encoding"])
    def test_undecodable_file_unreadable(self, capsys, tmp_path, cantilever_file, edit, message):
        path = tmp_path / "undecodable.vtp"
        path.write_bytes(edit(cantilever_file.read_bytes()))
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (3, "")
        assert re.fullmatch(f"error: malformed document: {message}\n", err)

    @pytest.mark.parametrize("old, new, message", [
        (" Circle width 20.0 ", " Rectangle width 1.0 height 2.0 refNode x 0 ",
         "unparseable catalog item (cross-section): refNode axis 'x'"),
        (" Circle width 20.0 ", " Circle ", "unparseable catalog item (cross-section): "
         "Circle needs width"),
        (" Circle width 20.0 ", " Rectangle width 1.0 ",
         "unparseable catalog item (cross-section): Rectangle needs width and height"),
        (" Circle width 20.0 ", " Generic A 1.0 Iz 2.0 ", "unparseable catalog item "
         "(cross-section): Generic missing ['Iy', 'J', 'Wt', 'Wy', 'Wz']"),
        (" Circle width 20.0 ", " Hexagon width 20.0 ",
         "unparseable catalog item (cross-section): kind 'Hexagon'"),
        (" IsoLinEl ", " Orthotropic ", "unparseable catalog item (material): kind 'Orthotropic'"),
        (" nu 0.2 ", " ", "unparseable catalog item (material): needs E and nu"),
        (" NodalLoad ", " PointLoad ",
         "unparseable catalog item (boundary condition): kind 'PointLoad'"),
        (" components 6 ", " values 6 ",
         "unparseable catalog item (boundary condition): expected 'components'"),
        (" components 6 ", " components 3 ",
         "unparseable catalog item (boundary condition): expected 6 components, got 3"),
        (" 0 RigidLink master 0 slave 1 ", " 0 Spring master 0 slave 1 ",
         "unparseable catalog item (rigid link): kind 'Spring'"),
        (" 0 RigidLink master 0 slave 1 ", " 0 RigidLink master 0 slave 1 stiffness 5 ",
         "unparseable catalog item (rigid link): key 'stiffness'"),
        (" 0 RigidLink master 0 slave 1 ", " 0 RigidLink master 0 ",
         "unparseable catalog item (rigid link): needs master and slave"),
        ('<CROSS-SECTIONS Number="1">', '<CROSS-SECTIONS Number="one">',
         "CROSS-SECTIONS: bad Number attribute 'one'"),
        ('"connectivity">\n          0 1\n', '"connectivity">\n          0 1 1\n',
         "connectivity length 3 does not match final offset 2"),
        ("Piece", "Part", "missing PolyData/Piece element"),
        ('NumberOfPoints="2"', 'NumberOfPoints="two"',
         "bad Piece counts: invalid literal for int() with base 10: 'two'"),
        ('NumberOfLines="1"', 'NumberOfLines="-1"', "Piece counts must be non-negative"),
        ("Points>", "Nodes>", "point coordinates: expected 2 points, got 0"),
        ('"offsets">\n          2\n', '"offsets">\n          2 4\n',
         "offsets: expected 1 entries, got 2"),
        ("CellData", "CellInfo", "missing CellData with ID_CROSS-SECTION / ID_MATERIAL"),
        ('"connectivity">\n          0 1\n', '"connectivity">\n          0 5\n',
         "cell 0 references point outside 0..1"),
    ], ids=["ref-node-axis", "circle-width", "rectangle-height", "generic-missing",
            "section-kind", "material-kind", "material-nu", "load-kind", "load-components",
            "load-count", "link-kind", "link-key", "link-slave", "catalog-number",
            "connectivity-length", "piece", "piece-counts", "negative-count", "point-count",
            "offset-count", "cell-data", "point-outside"])
    def test_refused_document_is_one_error_line(self, capsys, tmp_path, cantilever_file, old,
                                                new, message):
        """Each refusal of the exchange reader ends ``check`` with exit 3 and
        one ``error:`` line; the rigid-link cases add a link catalog first."""
        text = cantilever_file.read_text().replace(
            "</BOUNDARY_CONDITIONS>", "</BOUNDARY_CONDITIONS>\n      <RIGID_LINKS Number=\"1\">"
            " <item> 0 RigidLink master 0 slave 1 </item> </RIGID_LINKS>")
        assert fp.parse_model(text).rigid_links and old in text
        path = tmp_path / "refused.vtp"
        path.write_text(text.replace(old, new))
        code, out, err = run(capsys, "check", str(path))
        assert (code, out, err) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize("case, words", [
        ("truss-moment", "moment load on rotation-free point 2 (rx)"),
        ("parallel-reference", "reference direction is parallel to the element axis"),
        ("zero-reference", "zero reference direction for element orientation"),
        ("zero-length", "zero-length cell"),
    ], ids=["truss-moment", "parallel-reference", "zero-reference", "zero-length"])
    def test_unsolvable_model_blocks_check_and_solve_alike(self, capsys, tmp_path, case, words):
        """A model that validates but that no solve can take: check exits 2
        with a defect line, and solve exits 2 with the first of them."""
        model = fp.gen_cantilever(fp.CantileverSpec(n_elements=2))
        if case == "truss-moment":
            for cell in model.cells:
                cell.kind = fp.TRUSS_LINE
            model.points[2].constraint_mask[1:3] = True  # with the fixed end, all 5 motions held
            model.bcs[1].components = np.array([0.0, 0.0, -1.0, 5.0, 0.0, 0.0])
        elif case == "zero-length":
            model.points[2].coords = model.points[1].coords
        else:  # refNode z -1 runs along the cantilever, refNode z 0 aims at its first end
            shape = fp.Rectangle(20.0, 30.0, "z", -1 if case == "parallel-reference" else 0)
            model.cross_sections[2] = fp.CrossSection(id=2, shape=shape)
        path = tmp_path / f"{case}.vtp"
        path.write_text(fp.write_model(model))
        code, out, err = run(capsys, "check", str(path))
        defects = [line for line in out.splitlines() if line.startswith("defect [")]
        assert (code, err) == (2, "")
        assert words in defects[0]
        code, out, err = run(capsys, "solve", str(path), str(tmp_path / "never.vtk"))
        assert (code, out) == (2, "")
        assert err == f"error: {defects[0].partition(']: ')[2]}\n"

    def test_floating_component_blocks(self, capsys, tmp_path):
        model = fp.gen_cantilever()
        model.points.append(fp.Point(id=2, coords=(0, 500.0, 0)))
        model.points.append(fp.Point(id=3, coords=(0, 500.0, 100.0)))
        model.cells.append(fp.Cell(id=1, connectivity=(2, 3), cs_id=2, mat_id=1))
        path = tmp_path / "floating.vtp"
        path.write_text(fp.write_model(model))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 2
        assert "unsupported-component" in out

    def test_unsupported_components_listed_then_counted(self, capsys, tmp_path):
        model = fp.gen_cantilever()
        for k in range(25):
            model.points.append(fp.Point(id=2 + 2 * k, coords=(0, 500.0, 100.0 * k)))
            model.points.append(fp.Point(id=3 + 2 * k, coords=(50.0, 500.0, 100.0 * k)))
            model.cells.append(fp.Cell(id=1 + k, connectivity=(2 + 2 * k, 3 + 2 * k),
                                       cs_id=2, mat_id=1))
        path = tmp_path / "floating.vtp"
        path.write_text(fp.write_model(model))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 2
        lines = [l for l in out.splitlines() if "unsupported-component" in l]
        assert len(lines) == 21
        assert lines[0] == ("defect [unsupported-component]: points [2, 3] have a free rigid "
                            "motion, largest at point 2 dof ux")
        assert lines[19] == ("defect [unsupported-component]: points [40, 41] have a free rigid "
                             "motion, largest at point 40 dof ux")
        assert lines[20] == ("defect [unsupported-component]: 5 more component(s) have a free "
                             "rigid motion")

    def test_long_components_list_their_first_eight_points(self, capsys, tmp_path):
        path = tmp_path / "chains.vtp"
        path.write_text(fp.write_model(floating_chains()))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 2
        assert out.splitlines() == [
            "defect [unsupported-component]: points [2, 3, 4, 5, 6, 7, 8, 9] have a free rigid "
            "motion, largest at point 2 dof ux",
            "defect [unsupported-component]: points [12, 13, 14, 15, 16, 17, 18, 19] have a free "
            "rigid motion, largest at point 12 dof uy"]

    def test_line_pinned_lattice_blocks_check_and_solve_alike(self, capsys, tmp_path):
        # pinned along the x axis, the lattice can spin about it
        model, on_line = line_pinned_lattice()
        path = tmp_path / "line-pinned.vtp"
        path.write_text(fp.write_model(model))
        code, out, err = run(capsys, "check", str(path))
        assert (code, err) == (2, "")
        assert out.splitlines() == [
            "defect [unsupported-component]: points [0, 1, 2, 3, 4, 5, 6, 7] have a free rigid "
            "motion, largest at point 2 dof uy"]
        assert 2 not in on_line
        code, out, err = run(capsys, "solve", str(path), str(tmp_path / "never.vtk"))
        assert (code, out) == (2, "")
        assert err == ("error: points [0, 1, 2, 3, 4, 5, 6, 7] have a free rigid motion, "
                       "largest at point 2 dof uy\n")

    def test_non_finite_section_blocks(self, capsys, tmp_path):
        model = fp.gen_cantilever()
        model.cross_sections[2] = fp.CrossSection(id=2, shape=fp.Circle(diameter=float("inf")))
        path = tmp_path / "inf.vtp"
        path.write_text(fp.write_model(model))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 2
        assert "defect [invalid-catalog]: cross-section 2: section properties must be finite" in out
        code, _, err = run(capsys, "solve", str(path), str(tmp_path / "never.vtk"))
        assert code == 2
        assert err == "error: cross-section 2: section properties must be finite\n"

    @pytest.mark.parametrize("ref, line", [
        ("500", "defect [dangling-reference]: cross-section 2 references missing point 500"),
        ("-4", "defect [invalid-catalog]: cross-section 2: bad global axis code -4"),
    ])
    def test_bad_section_reference_blocks(self, capsys, tmp_path, ref, line):
        model = fp.gen_cantilever(fp.CantileverSpec(n_elements=2))
        model.cross_sections[2] = fp.CrossSection(id=2, shape=fp.Rectangle(20.0, 30.0, "z", -3))
        path = tmp_path / "ref.vtp"
        path.write_text(fp.write_model(model).replace("refNode z -3", f"refNode z {ref}"))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 2
        assert line in out.splitlines()
        code, _, err = run(capsys, "solve", str(path), str(tmp_path / "never.vtk"))
        assert code == 2
        assert err == f"error: {line.partition(']: ')[2]}\n"
        if "missing point" in line:
            # clean's streamed writer refuses the model before it makes a file
            dst = tmp_path / "never.vtp"
            message = f"error: cross-section 2 references point {ref}, which is not in the model\n"
            assert run(capsys, "clean", str(path), str(dst)) == (2, "", message)
            assert not dst.exists() and not list(tmp_path.glob(".formpipe-*"))

    def test_supported_rigid_link_slave_blocks(self, capsys, tmp_path):
        model = fp.gen_cantilever()
        model.points.append(fp.Point(id=2, coords=(1000.0, 50.0, 0.0)))
        model.rigid_links.append(fp.RigidLink(master=1, slave=2))
        model.points[2].constraint_mask[0] = True
        path = tmp_path / "slave.vtp"
        path.write_text(fp.write_model(model))
        line = "rigid link slave 2 may not carry support constraints"
        assert run(capsys, "check", str(path)) == (2, f"defect [rigid-link-conflict]: {line}\n", "")
        code, _, err = run(capsys, "solve", str(path), str(tmp_path / "never.vtk"))
        assert code == 2
        assert err == f"error: {line}\n"


def aimed_frame(case):
    """A tip-loaded cantilever 0-1 propped by the supported strut 3-1, whose
    rectangle aims at a point that one repair touches: a free point 9 on top
    of the strut foot 3 (merge), the tip 37 of a two-point arm off the tip
    (prune) or point 8 of the detached piece 7-8 (detached removal).
    Returns the model, the aim's position and the repair's report key."""
    model = fp.gen_cantilever()
    model.points.append(fp.Point(id=3, coords=(0.0, 500.0, 0.0), constraint_mask=[True] * 6))
    model.cross_sections[3] = fp.CrossSection(id=3, shape=fp.Circle(diameter=20.0))
    model.cells.append(fp.Cell(id=1, connectivity=(3, 1), cs_id=3, mat_id=1))
    extra = {
        "merge": ({9: (0.0, 500.0, 0.0)}, [], "merge_duplicate_nodes.merged_pairs"),
        "prune": ({36: (1000.0, 0.0, 250.0), 37: (1000.0, 0.0, 500.0)}, [(1, 36), (36, 37)],
                  "prune_dead_arms.pruned_points"),
        "detached": ({7: (0.0, 0.0, 800.0), 8: (0.0, 0.0, 1000.0)}, [(7, 8)],
                     "remove_detached_components.removed_components"),
    }
    points, cells, repair = extra[case]
    for pid, x in points.items():
        model.points.append(fp.Point(id=pid, coords=x))
    for k, ends in enumerate(cells):
        model.cells.append(fp.Cell(id=10 + k, connectivity=ends, cs_id=3, mat_id=1))
    aim = max(points)
    model.cross_sections[2] = fp.CrossSection(id=2, shape=fp.Rectangle(20.0, 30.0, "z", aim))
    return model, np.array(points[aim]), repair


class TestClean:
    def test_duplicate_node_fixture(self, capsys, tmp_path):
        model = fp.gen_cantilever()
        # a duplicated tip node picked up by one extra supported strut
        model.points.append(fp.Point(id=2, coords=(1000.0, 0.0, 1e-9)))
        model.points.append(fp.Point(id=3, coords=(1000.0, 0.0, 500.0)))
        model.points[3].constraint_mask[:] = True
        model.cells.append(fp.Cell(id=1, connectivity=(2, 3), cs_id=2, mat_id=1))
        src = tmp_path / "dup.vtp"
        dst = tmp_path / "cleaned.vtp"
        src.write_text(fp.write_model(model))
        code, out, _ = run(capsys, "clean", str(src), str(dst), "--format", "structured")
        assert code == 0
        records = parse_structured(out)
        assert records["formpipe_report_version"] == "1"
        assert records["merge_duplicate_nodes.merged_pairs"] == "1"
        cleaned = fp.parse_model(dst.read_text())
        assert len(cleaned.points) == 3

    def test_already_clean_round_trip_byte_identical(self, capsys, tmp_path, cantilever_file):
        out1 = tmp_path / "c1.vtp"
        out2 = tmp_path / "c2.vtp"
        code, text, _ = run(capsys, "clean", str(cantilever_file), str(out1))
        assert code == 0
        assert "no changes" in text
        code, _, _ = run(capsys, "clean", str(out1), str(out2))
        assert code == 0
        assert out1.read_text() == out2.read_text()
        assert out1.read_text() == cantilever_file.read_text()

    def test_splash_lattice_report(self, capsys, tmp_path):
        occ = fp.arch_occupancy(24, 3, 12, thickness=3.0)
        dirty = fp.gen_sphere_lattice(
            fp.LatticeSpec(occupancy=occ, splash_fraction=0.02, seed=1)
        )
        clean = fp.gen_sphere_lattice(
            fp.LatticeSpec(occupancy=occ, splash_fraction=0.0, seed=1)
        )
        src = tmp_path / "lattice.vtp"
        dst = tmp_path / "lattice_clean.vtp"
        src.write_text(fp.write_model(dirty))
        code, out, _ = run(capsys, "clean", str(src), str(dst), "--format", "structured")
        assert code == 0
        records = parse_structured(out)
        total = float(records["total_element_removal_fraction"])
        injected = (len(dirty.cells) - fp.gen_sphere_lattice(
            fp.LatticeSpec(occupancy=occ, splash_fraction=1e-12, seed=1)
        ).cells.__len__()) / len(dirty.cells)
        assert total == pytest.approx(injected, abs=0.005)

    def test_merge_that_chains_rigid_links_refused(self, capsys, tmp_path):
        # tip point 1 and point 2 coincide: links 0->1 and 2->3 would chain
        model = fp.gen_cantilever()
        model.points.append(fp.Point(id=2, coords=(1000.0, 0.0, 0.0)))
        model.points.append(fp.Point(id=3, coords=(1000.0, 0.0, 100.0)))
        model.cells.append(fp.Cell(id=1, connectivity=(2, 3), cs_id=2, mat_id=1))
        fp.make_rigid_link(model, master=0, slave=1)
        fp.make_rigid_link(model, master=2, slave=3)
        src, dst = tmp_path / "links.vtp", tmp_path / "out.vtp"
        src.write_text(fp.write_model(model))
        code, out, err = run(capsys, "clean", str(src), str(dst))
        assert code == 2
        assert out == ""
        assert err == "error: point 1 is both master and slave\n"
        assert not dst.exists()

    def test_free_section_reference_point_kept(self, capsys, tmp_path):
        # a free point that only aims the rectangle is not structure: check
        # passes it, clean keeps it, and solve gives the axis-code aim's answer
        model = fp.gen_cantilever()
        model.cross_sections[2] = fp.CrossSection(id=2, shape=fp.Rectangle(20.0, 30.0, "z", -3))
        by_axis = tmp_path / "axis.vtp"
        by_axis.write_text(fp.write_model(model))
        model.points.append(fp.Point(id=2, coords=(0.0, 0.0, 1000.0)))
        model.cross_sections[2] = fp.CrossSection(id=2, shape=fp.Rectangle(20.0, 30.0, "z", 2))
        src, dst = tmp_path / "ref.vtp", tmp_path / "out.vtp"
        src.write_text(fp.write_model(model))
        assert run(capsys, "check", str(src)) == (0, "model is clean\n", "")
        code, out, err = run(capsys, "clean", str(src), str(dst), "--format", "structured")
        assert (code, err) == (0, "")
        records = parse_structured(out)
        assert records["remove_detached_components.removed_components"] == "0"
        assert records["prune_dead_arms.pruned_points"] == "0"
        assert dst.read_text() == src.read_text()
        solved = []
        for path in (dst, by_axis):
            code, out, err = run(capsys, "solve", str(path), str(tmp_path / "r.vtk"),
                                 "--format", "structured")
            assert (code, err) == (0, "")
            solved.append(parse_structured(out))
        aimed, axis = solved
        assert float(aimed["max_u_el"]) == pytest.approx(0.4797861, rel=1e-6)
        for key in ("max_u_el", "max_total_displacement_mm"):
            assert float(aimed[key]) == pytest.approx(float(axis[key]), rel=1e-12)

    @pytest.mark.parametrize("case", ["merge", "prune", "detached"])
    def test_repairs_keep_section_aims(self, capsys, tmp_path, case):
        # the point a rectangle aims at survives every repair, at its place
        model, aim, repair = aimed_frame(case)
        src, dst = tmp_path / "aimed.vtp", tmp_path / "out.vtp"
        src.write_text(fp.write_model(model))
        code, out, err = run(capsys, "clean", str(src), str(dst), "--format", "structured")
        assert (code, err) == (0, "")
        assert parse_structured(out)[repair] == "1"
        cleaned = fp.parse_model(dst.read_text())
        row = cleaned.points.positions([cleaned.cross_sections[2].shape.ref_code])[0]
        assert row >= 0 and np.array_equal(cleaned.points.coords[row], aim)
        assert run(capsys, "check", str(dst)) == (0, "model is clean\n", "")
        code, _, err = run(capsys, "solve", str(dst), str(tmp_path / "r.vtk"))
        assert (code, err) == (0, "")

    def test_prune_keeps_rigid_link_ends(self, capsys, tmp_path):
        # the load sits on slave 2, tied to the tip 1: the tip is no dead arm
        model = fp.gen_cantilever()
        model.points.append(fp.Point(id=2, coords=(1000.0, 50.0, 0.0)))
        model.points[1].bc_id = 0
        model.points[2].bc_id = 1
        fp.make_rigid_link(model, master=1, slave=2)
        src, dst = tmp_path / "eccentric.vtp", tmp_path / "out.vtp"
        src.write_text(fp.write_model(model))
        assert run(capsys, "check", str(src)) == (0, "model is clean\n", "")
        code, out, err = run(capsys, "clean", str(src), str(dst))
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "cells: 1 -> 1"
        assert dst.read_text() == src.read_text()
        code, out, err = run(capsys, "solve", str(dst), str(tmp_path / "r.vtk"),
                             "--format", "structured")
        assert (code, err) == (0, "")
        assert float(parse_structured(out)["max_u_el"]) == pytest.approx(1.17608, rel=1e-5)

    def test_report_file_written(self, capsys, tmp_path, cantilever_file):
        dst = tmp_path / "out.vtp"
        report = tmp_path / "report.txt"
        code, out, _ = run(
            capsys, "clean", str(cantilever_file), str(dst), "--report", str(report)
        )
        assert code == 0
        assert report.read_text().strip() in out.strip()


def linked_aimed_model(rng):
    """A random model with up to three rule-abiding rigid links and one
    rectangle aimed at a point id: an existing point, or a new free point
    near one, which may merge into it."""
    model = random_model(rng, n_points=int(rng.integers(4, 40)), span=float(rng.uniform(1, 50)))
    n = len(model.points)
    for _ in range(int(rng.integers(0, 4))):
        master, slave = (int(v) for v in rng.choice(n, 2, replace=False))
        try:
            fp.make_rigid_link(model, master=master, slave=slave)
        except fp.TopologyError:
            pass
    aim = int(rng.integers(n))
    if rng.random() < 0.5:
        near = model.points[aim].coords + rng.uniform(-0.01, 0.01, 3)
        model.points.append(fp.Point(id=n, coords=near))
        aim = n
    cs_id = max(model.cross_sections) + 1
    model.cross_sections[cs_id] = fp.CrossSection(
        id=cs_id, shape=fp.Rectangle(20.0, 30.0, str(rng.choice(["y", "z"])), aim))
    for cell in model.cells:
        if rng.random() < 0.3:
            cell.cs_id = cs_id
    return model


@given(seed=st.integers(min_value=0, max_value=100_000),
       merge_tol=st.sampled_from([1e-6, 0.05, 2.0]))
@settings(max_examples=60, deadline=None)
def test_what_clean_writes_check_accepts(seed, merge_tol):
    # clean either refuses with a TopologyError or writes a model without defects
    model = linked_aimed_model(np.random.default_rng(seed))
    try:
        cleaned, _ = run_clean_pipeline(model, merge_tol=merge_tol)
    except fp.TopologyError:
        return
    report = fp.validate(fp.parse_model(fp.write_model(cleaned)))
    assert report.defects == []


class TestSolve:
    def test_cantilever_summary(self, capsys, tmp_path, cantilever_file):
        results = tmp_path / "results.vtk"
        code, out, _ = run(
            capsys, "solve", str(cantilever_file), str(results), "--format", "structured"
        )
        assert code == 0
        records = parse_structured(out)
        assert float(records["max_u_el"]) == pytest.approx(1.175, abs=0.005)
        assert records["solver_method"] == "direct"
        text = results.read_text()
        assert text.startswith("# vtk DataFile Version 3.0")
        assert "resistance_ratio" in text

    def test_pcg_matches_direct(self, capsys, tmp_path, cantilever_file):
        out_d = tmp_path / "d.vtk"
        out_p = tmp_path / "p.vtk"
        _, text_d, _ = run(capsys, "solve", str(cantilever_file), str(out_d),
                           "--format", "structured")
        _, text_p, _ = run(capsys, "solve", str(cantilever_file), str(out_p),
                           "--solver", "pcg", "--format", "structured")
        rec_d = parse_structured(text_d)
        rec_p = parse_structured(text_p)
        assert float(rec_p["max_u_el"]) == pytest.approx(float(rec_d["max_u_el"]), rel=1e-6)
        assert rec_p["solver_method"] == "pcg-jacobi"

    def test_text_report_shows_solver_diagnostics(self, capsys, tmp_path, cantilever_file):
        for solver, ordering in (("direct", "BFS_LEVELS"), ("pcg", "NATURAL")):
            code, out, _ = run(capsys, "solve", str(cantilever_file),
                               str(tmp_path / "r.vtk"), "--solver", solver)
            assert code == 0
            assert "true residual |Ku-f|/|f| = " in out
            assert "equilibrium residual (reactions + loads) = " in out
            assert f"{ordering} ordering, " in out

    def test_mechanism_exit_code_and_no_partial_output(self, capsys, tmp_path):
        """Collinear trusses leave the middle point free across them: K has
        no diagonal entry there, and both solvers end in one line naming
        that point and DOF (PCG before its first iteration)."""
        model = fp.StructuralModel(self_weight_enabled=False)
        model.points = [
            fp.Point(id=0, coords=(0, 0, 0)),
            fp.Point(id=1, coords=(1000, 0, 0)),
            fp.Point(id=2, coords=(2000, 0, 0)),
        ]
        model.points[0].constraint_mask[:] = True
        model.points[2].constraint_mask[:] = True
        for i in range(2):
            model.cells.append(
                fp.Cell(id=i, connectivity=(i, i + 1), cs_id=1, mat_id=1, kind=fp.TRUSS_LINE)
            )
        model.cross_sections[1] = fp.CrossSection(id=1, shape=fp.Circle(diameter=20.0))
        model.materials[1] = fp.Material(id=1, E=210e3, nu=0.2)
        model.bcs[1] = fp.BoundaryConditionEntry(id=1, components=(1e3, 0, 0, 0, 0, 0))
        model.points[1].bc_id = 1
        src = tmp_path / "mechanism.vtp"
        dst = tmp_path / "never.vtk"
        src.write_text(fp.write_model(model))
        for solver in ("direct", "pcg"):
            code, out, err = run(capsys, "solve", str(src), str(dst), "--no-self-weight",
                                 "--solver", solver)
            assert (code, out) == (2, "")
            assert err == ("error: singular stiffness matrix, null vector largest at point 1 "
                           "dof uy: kinematic mechanism\n")
            assert not dst.exists()

    @pytest.mark.parametrize("solver", ["direct", "pcg"])
    @pytest.mark.parametrize("mechanism", [True, False], ids=["mechanism", "sound"])
    def test_zero_load_mechanism_named_by_both_solvers(self, capsys, tmp_path, solver, mechanism):
        """u = 0 solves a zero load, but only a sound model has no other
        solution: both solvers name the mechanism of a truss chain whose
        middle point is free across it, and both solve the cantilever."""
        model = fp.gen_cantilever(fp.CantileverSpec(n_elements=2, tip_force=0.0))
        if mechanism:
            model.cells.truss[:] = True
            model.points[2].constraint_mask[:] = True
        src, dst = tmp_path / "zero.vtp", tmp_path / "r.vtk"
        src.write_text(fp.write_model(model))
        code, out, err = run(capsys, "solve", str(src), str(dst), "--no-self-weight",
                             "--solver", solver)
        if mechanism:
            assert (code, out) == (2, "")
            assert err == ("error: singular stiffness matrix, null vector largest at point 1 "
                           "dof uy: kinematic mechanism\n")
            assert not dst.exists()
        else:
            assert (code, err) == (0, "")
            assert "max total displacement = 0 mm" in out

    def test_direct_factor_out_of_memory_is_one_error_line(self, capsys, tmp_path,
                                                            monkeypatch):
        # the 4x4x4 lattice has levels up to 66 equations wide, more than one
        # stripe of the factor: it stores 11,088 entries, not the 14,384 of
        # its squared level widths
        src = tmp_path / "lattice.vtp"
        run(capsys, "gen", "lattice", str(src), "--nx", "4", "--ny", "4", "--nz", "4")
        _, out, _ = run(capsys, "solve", str(src), str(tmp_path / "r.vtk"),
                        "--format", "structured")
        entries = int(parse_structured(out)["solver_factor_nnz"])
        assert entries == 11088

        def no_memory(a):
            raise MemoryError

        monkeypatch.setattr(np.linalg, "cholesky", no_memory)
        dst = tmp_path / "never.vtk"
        code, out, err = run(capsys, "solve", str(src), str(dst))
        assert (code, out) == (2, "")
        assert err == (f"error: direct factor needs {8 * entries / 1e9:.2f} GB ({entries} "
                       "entries); try --solver pcg\n")
        assert not dst.exists()

    def test_unreadable_input(self, capsys, tmp_path):
        src = tmp_path / "junk.vtp"
        src.write_text("not xml at all")
        code, _, err = run(capsys, "solve", str(src), str(tmp_path / "o.vtk"))
        assert code == 3


class TestGen:
    @pytest.mark.parametrize("case, options, expected", [
        ("cantilever", [], fp.gen_cantilever),
        ("leonardo", [], fp.gen_leonardo),
        ("lattice", [], fp.gen_sphere_lattice),
        ("lattice", ["--shape", "arch"],
         lambda: fp.gen_sphere_lattice(fp.LatticeSpec(occupancy=fp.arch_occupancy(5, 5, 5)))),
        ("cantilever", ["--shape", "arch", "--span", "3", "--nx", "2"], fp.gen_cantilever),
    ], ids=["cantilever", "leonardo", "lattice", "arch", "other-cases-options"])
    def test_defaults_are_the_specs(self, capsys, tmp_path, case, options, expected):
        """With no option given, gen writes the model of the library's
        default spec, and ``--shape arch`` the default ``arch_occupancy``;
        the options of other cases change nothing."""
        path = tmp_path / "default.vtp"
        assert run(capsys, "gen", case, str(path), *options)[0] == 0
        assert path.read_text() == fp.write_model(expected())

    def test_unknown_variant_is_the_specs_error(self, capsys, tmp_path):
        path = tmp_path / "never.vtp"
        code, _, err = run(capsys, "gen", "leonardo", str(path), "--variant", "ajar")
        assert (code, err) == (2, "error: unknown variant 'ajar'\n")
        assert not path.exists()

    def test_lattice_counts(self, capsys, tmp_path):
        path = tmp_path / "lat.vtp"
        code, out, _ = run(capsys, "gen", "lattice", str(path),
                           "--nx", "5", "--ny", "5", "--nz", "5")
        assert code == 0
        model = fp.parse_model(path.read_text())
        assert len(model.points) == 125

    def test_leonardo_variant_ordering_via_files(self, capsys, tmp_path):
        disps = {}
        for variant in ("open", "closed"):
            src = tmp_path / f"{variant}.vtp"
            dst = tmp_path / f"{variant}.vtk"
            run(capsys, "gen", "leonardo", str(src), "--variant", variant)
            _, out, _ = run(capsys, "solve", str(src), str(dst), "--format", "structured")
            disps[variant] = float(parse_structured(out)["max_total_displacement_mm"])
        assert disps["open"] > disps["closed"]

    @pytest.mark.parametrize("option, value", [("--diameter", "inf"), ("--length", "nan")])
    def test_non_finite_spec_exit_code(self, capsys, tmp_path, option, value):
        dst = tmp_path / "never.vtp"
        code, _, err = run(capsys, "gen", "cantilever", str(dst), option, value)
        assert code == 2
        assert err == "error: spec values must be finite\n"
        assert not dst.exists()

    @pytest.mark.parametrize("argv, message", [
        (["cantilever", "--length", "1e308", "--n-elements", "3"],
         "point 2 has non-finite coordinates"),
        (["leonardo", "--span", "1e308"], "point 2 has non-finite coordinates"),
        (["cantilever", "--diameter", "1e77"],
         "cross-section 2: section properties must be finite"),
        (["cantilever", "--tip-force", "1e308"], "load 1 overflows double precision"),
        # shorter than the merge tolerance, and its 12EI/L^3 overflows
        (["cantilever", "--length", "1e-120"], "cell 0 stiffness overflows double precision"),
        # numpy refuses this block before it allocates anything
        (["lattice", "--nx", "100000", "--ny", "100000", "--nz", "100000"],
         "out of memory: Unable to allocate "),
        # two stations on one point: a cell that check would report and no solve takes
        (["leonardo", "--span", "9.210557363759072e-267", "--height", "1", "--n-segments", "3"],
         "zero-length cell 1\n"),
        # a negative wall thickness leaves the arch no voxel
        (["lattice", "--nx", "5", "--ny", "2", "--nz", "3", "--shape", "arch",
          "--thickness", "-1"], "lattice occupancy is empty\n"),
        (["lattice", "--nx", "-2"], "lattice nx, ny and nz must be at least 1\n"),
        (["lattice", "--nx", "-2", "--shape", "arch"],
         "lattice nx, ny and nz must be at least 1\n"),
        (["lattice", "--seed", "-1", "--splash-fraction", "0.05"],
         "lattice seed must be non-negative\n"),
    ], ids=["length", "span", "diameter", "tip-force", "sub-tolerance-length", "lattice-size",
            "collapsed-cell", "empty-lattice", "negative-size", "negative-arch-size",
            "negative-seed"])
    def test_spec_that_overflows_is_one_error_line(self, capsys, tmp_path, argv, message):
        dst = tmp_path / "never.vtp"
        code, out, err = run(capsys, "gen", argv[0], str(dst), *argv[1:])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1
        assert not dst.exists()

    @pytest.mark.parametrize("value", ["-1e+16", "-1.5e3", "-.5", "-2"])
    def test_negative_number_is_a_value(self, capsys, tmp_path, value):
        # exponent forms included: argparse alone reads -1e+16 as an option
        dst = tmp_path / "m.vtp"
        code, _, err = run(capsys, "gen", "cantilever", str(dst), "--tip-force", value)
        assert (code, err) == (0, "")
        load = fp.parse_model(dst.read_text()).bcs[1].components
        assert load[2] == -float(value)

    def test_bad_spec_exit_code(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "leonardo", str(tmp_path / "x.vtp"),
                           "--n-segments", "2")
        assert code == 2
        assert "error" in err


class TestStreamedFiles:
    """gen, clean and solve write their files piece by piece, in pieces of
    ``_ROWS`` rows: the bytes are those of the whole-text writers at any
    piece size."""

    def test_files_equal_the_whole_text(self, capsys, tmp_path, monkeypatch):
        argv = ["--nx", "6", "--ny", "4", "--nz", "5", "--splash-fraction", "0.05", "--seed", "1"]
        lattice = fp.gen_sphere_lattice(fp.LatticeSpec(nx=6, ny=4, nz=5, splash_fraction=0.05,
                                                       seed=1))
        cleaned, _ = run_clean_pipeline(lattice.copy())
        results, _ = run_solve_pipeline(cleaned)
        expected = [fp.write_model(lattice), fp.write_model(cleaned),
                    fp.write_results_vtk(cleaned, results)]
        monkeypatch.setattr(fp.exchange, "_ROWS", 7)
        paths = [tmp_path / name for name in ("lattice.vtp", "cleaned.vtp", "results.vtk")]
        assert run(capsys, "gen", "lattice", str(paths[0]), *argv)[0] == 0
        assert run(capsys, "clean", str(paths[0]), str(paths[1]))[0] == 0
        assert run(capsys, "solve", str(paths[1]), str(paths[2]))[0] == 0
        assert [path.read_text() for path in paths] == expected
        assert len(list(fp.exchange.model_pieces(lattice))) > len(lattice.points) // 7


class TestComposition:
    def test_file_chain_matches_in_process(self, capsys, tmp_path):
        src = tmp_path / "model.vtp"
        cleaned = tmp_path / "clean.vtp"
        results = tmp_path / "results.vtk"
        occ = fp.arch_occupancy(20, 3, 10, thickness=3.0)
        spec = fp.LatticeSpec(occupancy=occ, splash_fraction=0.02, seed=2)

        model = fp.gen_sphere_lattice(spec)
        src.write_text(fp.write_model(model))
        run(capsys, "clean", str(src), str(cleaned))
        code, out, _ = run(capsys, "solve", str(cleaned), str(results),
                           "--format", "structured")
        assert code == 0
        file_records = parse_structured(out)

        in_proc_model, _ = run_clean_pipeline(fp.gen_sphere_lattice(spec))
        in_results, _ = run_solve_pipeline(in_proc_model)
        assert float(file_records["max_u_el"]) == in_results.max_u_el
        assert float(file_records["max_total_displacement_mm"]) == pytest.approx(
            in_results.max_total_displacement, rel=0, abs=0
        )

    def test_stdout_reports_nothing_on_stderr_when_ok(self, capsys, cantilever_file, tmp_path):
        code, out, err = run(capsys, "solve", str(cantilever_file), str(tmp_path / "r.vtk"))
        assert code == 0
        assert err == ""
        assert out

    def test_every_command_takes_the_empty_model(self, capsys, tmp_path):
        src = tmp_path / "empty.vtp"
        src.write_text(fp.write_model(fp.StructuralModel()))
        assert run(capsys, "check", str(src)) == (0, "model is clean\n", "")
        code, _, err = run(capsys, "clean", str(src), str(tmp_path / "clean.vtp"))
        assert (code, err) == (0, "")
        assert (tmp_path / "clean.vtp").read_bytes() == src.read_bytes()
        for solver in ("direct", "pcg"):
            code, _, err = run(capsys, "solve", str(src), str(tmp_path / "r.vtk"),
                               "--solver", solver)
            assert (code, err) == (0, "")

    def test_solve_pipeline_reads_self_weight_from_the_model(self):
        weightless = fp.gen_cantilever()
        weightless.self_weight_enabled = False
        results, _ = run_solve_pipeline(weightless)
        assert weightless.self_weight_enabled is False
        assert results.max_u_el < run_solve_pipeline(fp.gen_cantilever())[0].max_u_el

    def test_solve_pipeline_refuses_an_unknown_solver(self):
        with pytest.raises(ValueError, match="^unknown solver 'cg'$"):
            run_solve_pipeline(fp.gen_cantilever(), solver="cg")


class TestStructuredReport:
    def test_every_value_parses(self, capsys, tmp_path):
        occ = fp.arch_occupancy(12, 3, 6, thickness=3.0)
        src = tmp_path / "lattice.vtp"
        src.write_text(fp.write_model(fp.gen_sphere_lattice(
            fp.LatticeSpec(occupancy=occ, splash_fraction=0.02, seed=3))))
        cleaned = tmp_path / "clean.vtp"
        code, out, _ = run(capsys, "clean", str(src), str(cleaned), "--format", "structured")
        assert code == 0
        reports = [out]
        for solver in ("direct", "pcg"):
            code, out, _ = run(capsys, "solve", str(cleaned), str(tmp_path / "r.vtk"),
                               "--solver", solver, "--format", "structured")
            assert code == 0
            reports.append(out)
        for report in reports:
            for line in report.strip().splitlines():
                key, value = line.split(" ")
                assert is_plain_value(value), line
        for report, ordering in zip(reports[1:], ("BFS_LEVELS", "NATURAL")):
            records = parse_structured(report)
            assert records["solver_ordering"] == ordering
            assert float(records["solver_true_residual"]) <= 1e-6
            assert 0.0 <= float(records["solver_equilibrium_residual"]) <= 1e-9
            assert int(records["solver_factor_nnz"]) > 0
            assert float(records["solver_factor_time_s"]) > 0.0


class TestBadOptions:
    def test_negative_merge_tol(self, capsys, tmp_path, cantilever_file):
        dst = tmp_path / "never.vtp"
        code, out, err = run(capsys, "clean", str(cantilever_file), str(dst), "--merge-tol", "-1")
        assert code == 2
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "merge tolerance" in err
        assert not dst.exists()

    def test_pcg_tol_outside_unit_interval(self, capsys, tmp_path, cantilever_file):
        dst = tmp_path / "never.vtk"
        code, _, err = run(capsys, "solve", str(cantilever_file), str(dst),
                           "--solver", "pcg", "--pcg-tol", "2")
        assert code == 2
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "PCG tolerance" in err
        assert not dst.exists()

    @pytest.mark.parametrize("command, options, message", [
        ("clean", ["--merge-tol", "inf"], "merge tolerance must be finite and non-negative, got inf"),
        ("clean", ["--merge-tol", "nan"], "merge tolerance must be finite and non-negative, got nan"),
        ("solve", ["--deform-scale", "inf"],
         "deformation scale must be finite and non-negative, got inf"),
        ("solve", ["--deform-scale", "-2"],
         "deformation scale must be finite and non-negative, got -2"),
        ("solve", ["--deform-scale", "1e308"],
         "deformation scale 1e+308 moves points to non-finite coordinates"),
        ("solve", ["--solver", "pcg", "--pcg-max-iter", "-5"],
         "PCG iteration limit must be at least 1, got -5"),
        ("solve", ["--solver", "pcg", "--pcg-max-iter", "0"],
         "PCG iteration limit must be at least 1, got 0"),
    ], ids=["merge-tol-inf", "merge-tol-nan", "deform-scale-inf", "deform-scale-negative",
            "deform-scale-overflow", "pcg-max-iter-negative", "pcg-max-iter-zero"])
    def test_value_checked_where_used(self, capsys, tmp_path, cantilever_file, command, options,
                                      message):
        # the function that uses the value checks it: exit 2, one error line, no file
        dst = tmp_path / "never"
        code, out, err = run(capsys, command, str(cantilever_file), str(dst), *options)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not dst.exists()

    @pytest.mark.parametrize("argv, message", [
        (["solve", "m.vtp", "r.vtk", "--solver", "bogus"],
         "error: argument --solver: invalid choice: "),
        (["gen", "cantilever", "m.vtp", "--length", "long"],
         "error: argument --length: invalid float value: 'long'"),
        ([], "error: the following arguments are required: command"),
    ], ids=["bad-choice", "bad-float", "no-command"])
    def test_argument_error_is_one_line(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        out, err = capsys.readouterr()
        assert (exit_.value.code, out) == (2, "")
        assert err.startswith(message) and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_zero_merge_tol_accepted(self, capsys, tmp_path, cantilever_file):
        dst = tmp_path / "exact.vtp"
        code, _, err = run(capsys, "clean", str(cantilever_file), str(dst), "--merge-tol", "0")
        assert code == 0
        assert err == ""
        assert dst.read_text() == cantilever_file.read_text()


_IMPORT_PROBE = """
import json, os, sys
os.chdir(sys.argv[1])
def loaded():
    return {"scipy": sorted(m for m in sys.modules if m.startswith("scipy")),
            "network": [m for m in ("urllib.request", "http.client", "email.parser", "ssl")
                        if m in sys.modules],
            "casegen": "formpipe.casegen" in sys.modules, "numpy.ma": "numpy.ma" in sys.modules,
            "solver": "formpipe.solver" in sys.modules}
import formpipe.cli
seen = {"import": loaded()}
for name, argv in json.loads(sys.argv[2]):
    formpipe.cli.main(argv)
    seen[name] = loaded()
import formpipe
from formpipe import SolverError, solve_direct
seen["same"] = (SolverError is formpipe.solver.SolverError
                and solve_direct is formpipe.solver.solve_direct
                and formpipe.gen_cantilever is formpipe.casegen.gen_cantilever)
seen["dir"] = {"solve_direct", "LatticeSpec"} <= set(dir(formpipe))
print(json.dumps(seen))
"""


def test_cli_import_leaves_scipy_spatial_out(tmp_path):
    """Each command loads only the modules it uses: no command loads scipy
    or numpy.ma, not even ``solve`` with either solver; only ``gen`` loads
    casegen, only ``solve`` the solver, so the rules that ``check`` shares
    with it live outside the solver, and none loads the networking stdlib.
    Importing them costs more than the rest of a ``check``, ``clean`` or
    ``gen`` run: scipy's
    sparse solvers alone take about 0.4 s and 30 MB.  The lazy names stay
    importable from the package, as the same objects."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fp.__file__)))

    def probe(*commands):  # (name, argv) pairs
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path),
                              json.dumps(commands)], env=env, capture_output=True, text=True,
                             check=True).stdout
        return json.loads(out.strip().splitlines()[-1])

    bare = {"scipy": [], "network": [], "casegen": False, "numpy.ma": False, "solver": False}
    seen = probe(("gen", ["gen", "lattice", "m.vtp", "--nx", "4", "--ny", "3", "--nz", "3"]))
    assert seen == {"import": bare, "gen": dict(bare, casegen=True), "same": True, "dir": True}
    solving = dict(bare, solver=True)
    seen = probe(("check", ["check", "m.vtp"]), ("clean", ["clean", "m.vtp", "c.vtp"]),
                 ("solve", ["solve", "c.vtp", "r.vtk"]),
                 ("solve --solver pcg", ["solve", "c.vtp", "p.vtk", "--solver", "pcg"]))
    assert seen == {"import": bare, "check": bare, "clean": bare, "solve": solving,
                    "solve --solver pcg": solving, "same": True, "dir": True}


@pytest.mark.parametrize("argv, written", [
    (["gen", "cantilever", "{out}"], "{out}"),
    (["clean", "{model}", "{out}"], "{out}"),
    (["clean", "{model}", "{tmp}/ok.vtp", "--report", "{out}"], "{out}"),
    (["solve", "{model}", "{out}"], "{out}"),
    (["solve", "{model}", "{tmp}/ok.vtk", "--report", "{out}"], "{out}"),
    (["solve", "{model}", "{tmp}"], "{tmp}"),
], ids=["gen", "clean", "clean-report", "solve", "solve-report", "solve-into-directory"])
def test_unwritable_output_is_one_error_line(capsys, tmp_path, cantilever_file, argv, written):
    """An output or report path in a missing directory, or naming a directory,
    exits 2 with one line naming the path and leaves no temp file behind."""
    names = dict(model=cantilever_file, out=tmp_path / "missing" / "out", tmp=tmp_path)
    code, _, err = run(capsys, *(arg.format(**names) for arg in argv))
    assert code == 2
    assert err.startswith(f"error: cannot write {written.format(**names)}: ")
    assert len(err.splitlines()) == 1
    assert not list(tmp_path.rglob(".formpipe-*"))
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("nu", ["-1.0", "-1.5", "0.6"])
def test_poisson_ratio_out_of_range_is_a_defect(capsys, tmp_path, cantilever_file, nu):
    """nu = -1 divides G = E / (2 (1 + nu)) by zero, and nu < -1 makes G and
    K indefinite: both stop at ``check`` and at ``solve``."""
    src = tmp_path / "nu.vtp"
    text = cantilever_file.read_text()
    assert " nu 0.2 " in text
    src.write_text(text.replace(" nu 0.2 ", f" nu {nu} "))
    message = "material 1 needs -1 < nu <= 0.5"
    code, out, _ = run(capsys, "check", str(src))
    assert (code, out) == (2, f"defect [invalid-catalog]: {message}\n")
    code, out, err = run(capsys, "solve", str(src), str(tmp_path / "r.vtk"))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


_HUGE_SECTION = "cross-section 2: section properties must be finite"


@pytest.mark.parametrize("old, new, defect", [
    (" E 210000.0 ", " E 1e308 ", "[overflow]: cell 0 stiffness overflows double precision"),
    (" -264.777 ", " 1e308 ", "[overflow]: load 1 overflows double precision"),
    (" density 7.85e-06 ", " density 1e305 ",
     "[overflow]: cell 0 self-weight overflows double precision"),
    # d**4 and h**3 raise OverflowError where a product would give inf
    (" Circle width 20.0 ", " Circle width 1.2e77 ", f"[invalid-catalog]: {_HUGE_SECTION}"),
    (" Circle width 20.0 ", " Rectangle width 1.0 height 5.7e102 ",
     f"[invalid-catalog]: {_HUGE_SECTION}"),
    (" -264.777 ", " nan ", "[non-finite]: load 1 has non-finite components"),
], ids=["modulus", "load", "density", "circle", "rectangle", "nan-load"])
def test_overflowing_input_is_one_error_line(tmp_path, cantilever_file, old, new, defect):
    """Finite inputs whose stiffness, load, self-weight or section properties
    overflow, and a load that reads nan, are a defect to ``check`` and end
    ``solve`` in one error line with the defect's message, with no numpy
    warning or traceback on stderr before either."""
    src = tmp_path / "big.vtp"
    text = cantilever_file.read_text()
    assert old in text
    src.write_text(text.replace(old, new))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fp.__file__)))
    proc = subprocess.run([sys.executable, "-m", "formpipe.cli", "check", str(src)], env=env,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, f"defect {defect}\n", "")
    proc = subprocess.run([sys.executable, "-m", "formpipe.cli", "solve", str(src),
                           str(tmp_path / "r.vtk")], env=env, capture_output=True, text=True)
    message = defect.partition("]: ")[2]
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


def _sum_overflows(case):
    """A two-beam cantilever whose every term is finite and whose assembled
    sum is not: the middle point's two 12EI/L^3 terms, each about 1e308, or
    the loads of 1e154 on points 1 and 2 in the load vector's 2-norm."""
    if case == "stiffness":
        model = fp.gen_cantilever(fp.CantileverSpec(n_elements=2, length=0.928))
        model.materials[1].E = 1.06e302
    else:
        model = fp.gen_cantilever(fp.CantileverSpec(n_elements=2, tip_force=1e154))
        model.points[1].bc_id = 1
    return model


@pytest.mark.parametrize("case, message", [
    ("stiffness", "stiffness matrix overflows double precision"),
    ("load", "load vector overflows double precision"),
])
def test_overflowing_sum_is_one_error_line(tmp_path, case, message):
    """``check`` passes a model whose sums alone overflow; ``solve`` names
    the sum in one error line under both solvers, with nothing else on
    stderr."""
    src = tmp_path / "sum.vtp"
    src.write_text(fp.write_model(_sum_overflows(case)))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fp.__file__)))
    proc = subprocess.run([sys.executable, "-m", "formpipe.cli", "check", str(src)], env=env,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "model is clean\n", "")
    for solver in ("direct", "pcg"):
        proc = subprocess.run([sys.executable, "-m", "formpipe.cli", "solve", str(src),
                               str(tmp_path / "r.vtk"), "--solver", solver],
                              env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


def test_check_reads_a_pipe(cantilever_file):
    """``cat m.vtp | formpipe check /dev/stdin``: the model is read from the
    pipe in one pass, which needs no seek."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fp.__file__)))
    proc = subprocess.run([sys.executable, "-m", "formpipe.cli", "check", "/dev/stdin"],
                          env=env, input=cantilever_file.read_bytes(), capture_output=True,
                          timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"model is clean\n", b"")


class TestClosedStdout:
    """A reader that closes its end of the pipe early (``formpipe ... | head``)
    must not turn a finished command into a traceback."""

    @staticmethod
    def run_into_closed_pipe(*argv):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fp.__file__)))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            return subprocess.run([sys.executable, "-m", "formpipe.cli", *argv], env=env,
                                  stdout=write_end, stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(write_end)

    def test_check_keeps_its_exit_code(self, capsys, tmp_path):
        path = tmp_path / "splash.vtp"
        fp.cli.atomic_write(str(path), fp.write_model(fp.gen_sphere_lattice(
            fp.LatticeSpec(nx=6, ny=3, nz=4, splash_fraction=0.05, seed=2))))
        expected, _, _ = run(capsys, "check", str(path))
        assert expected == 2  # splash clusters float unsupported
        proc = self.run_into_closed_pipe("check", str(path))
        assert proc.stderr == b""
        assert proc.returncode == expected

    def test_clean_writes_its_files(self, capsys, tmp_path, cantilever_file):
        ref, ref_report = tmp_path / "ref.vtp", tmp_path / "ref.txt"
        code, _, _ = run(capsys, "clean", str(cantilever_file), str(ref),
                         "--report", str(ref_report))
        assert code == 0
        dst, report = tmp_path / "out.vtp", tmp_path / "out.txt"
        proc = self.run_into_closed_pipe("clean", str(cantilever_file), str(dst),
                                         "--report", str(report))
        assert proc.stderr == b""
        assert proc.returncode == 0
        assert dst.read_bytes() == ref.read_bytes()
        assert report.read_bytes() == ref_report.read_bytes()

    def test_gen_reports_success(self, tmp_path):
        dst = tmp_path / "cantilever.vtp"
        proc = self.run_into_closed_pipe("gen", "cantilever", str(dst))
        assert proc.stderr == b""
        assert proc.returncode == 0
        assert dst.read_text() == fp.write_model(fp.gen_cantilever())


def test_output_files_honour_the_umask(capsys, tmp_path):
    """Written files get the mode a plain open() would give them, not the
    owner-only mode of the temp file they are renamed from."""
    old = os.umask(0o022)
    try:
        code, _, _ = run(capsys, "gen", "cantilever", str(tmp_path / "c.vtp"))
    finally:
        os.umask(old)
    assert code == 0
    assert (tmp_path / "c.vtp").stat().st_mode & 0o777 == 0o644


def test_direct_solve_accepted_at_the_residual_floor(capsys, tmp_path):
    """The smallest seed-0 arch lattice (thickness 3.5, nx = 2 nz) whose
    relative residual cannot get below 1e-10: computing K u - f rounds at
    about that level.  The direct solve is accepted on its backward error
    and agrees with PCG."""
    model, cleaned = tmp_path / "arch.vtp", tmp_path / "clean.vtp"
    assert run(capsys, "gen", "lattice", str(model), "--nx", "106", "--ny", "2", "--nz", "53",
               "--shape", "arch", "--thickness", "3.5", "--splash-fraction", "0.01")[0] == 0
    assert run(capsys, "clean", str(model), str(cleaned))[0] == 0
    fields = {}
    for solver in ("direct", "pcg"):
        code, out, err = run(capsys, "solve", str(cleaned), str(tmp_path / f"{solver}.vtk"),
                             "--solver", solver, "--format", "structured")
        assert (code, err) == (0, "")
        fields[solver] = parse_structured(out)
        assert float(fields[solver]["solver_backward_error"]) < 1e-13
    assert float(fields["direct"]["solver_true_residual"]) > 1e-10
    direct, pcg = (_displacements(tmp_path / f"{s}.vtk") for s in ("direct", "pcg"))
    assert np.abs(direct - pcg).max() <= 1e-6 * np.abs(direct).max()


def _displacements(path):
    lines = path.read_text().splitlines()
    n = int(next(line for line in lines if line.startswith("POINT_DATA")).split()[1])
    start = lines.index("VECTORS displacement float") + 1
    return np.loadtxt(lines[start : start + n])


_SPEC_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@given(case=st.one_of(
    st.tuples(st.just("cantilever"), st.fixed_dictionaries({
        "--length": _SPEC_FLOATS, "--diameter": _SPEC_FLOATS, "--tip-force": _SPEC_FLOATS,
        "--n-elements": st.integers(1, 3)})),
    st.tuples(st.just("leonardo"), st.fixed_dictionaries({
        "--span": _SPEC_FLOATS, "--height": _SPEC_FLOATS, "--n-segments": st.integers(3, 5)}))))
@example(case=("cantilever", {"--length": 1e308, "--n-elements": 3}))
@example(case=("cantilever", {"--diameter": 1e77}))
@example(case=("cantilever", {"--tip-force": 1e308}))
@example(case=("leonardo", {"--span": 1e308}))
@example(case=("cantilever", {"--length": 1e-120}))  # L^3 is zero: once a divide-by-zero warning
@example(case=("leonardo", {"--span": 9.210557363759072e-267, "--height": 1.0,
                            "--n-segments": 3}))  # two stations on one point: gen refuses the cell
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # capsys is read per run
def test_what_gen_writes_check_and_solve_take(capsys, case):
    """Any finite spec: gen writes a model or refuses it in one line, and
    check and solve end on what it wrote with a documented code and at most
    one error line; a warning fails the test through the suite's filters."""
    kind, options = case
    argv = [arg for key, value in options.items() for arg in (key, repr(value))]
    with tempfile.TemporaryDirectory() as tmp:
        model, results = os.path.join(tmp, "m.vtp"), os.path.join(tmp, "r.vtk")
        for command, allowed in ((["gen", kind, model, *argv], (0, 2)),
                                 (["check", model], (0, 1)), (["solve", model, results], (0, 2))):
            code, _, err = run(capsys, *command)
            assert code in allowed and len(err.splitlines()) <= 1, (command, code, err)
            if not os.path.exists(model):
                break
