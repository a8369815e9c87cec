import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import formpipe as fp
from formpipe import model as model_module
from formpipe.cli import run_clean_pipeline
from formpipe.model import (
    BEAM_LINE,
    TRUSS_LINE,
    Cell,
    _Table,
    CellTable,
    Circle,
    CrossSection,
    GenericSection,
    Material,
    Point,
    PointTable,
    Rectangle,
    StructuralModel,
    ValidationReport,
    section_properties,
    validate,
)

from conftest import assert_models_equal, random_model, soup_document, traced_peak


class TestSectionProperties:
    def test_circle_d20(self):
        props = section_properties(Circle(diameter=20.0))
        assert props.A == pytest.approx(math.pi * 100.0, rel=1e-15)
        assert props.Iy == pytest.approx(math.pi * 20.0**4 / 64.0, rel=1e-15)
        assert props.J == pytest.approx(math.pi * 20.0**4 / 32.0, rel=1e-15)
        assert props.Wy == pytest.approx(math.pi * 20.0**3 / 32.0, rel=1e-15)
        assert props.Wt == pytest.approx(math.pi * 20.0**3 / 16.0, rel=1e-15)
        # frozen reference numbers
        assert props.A == pytest.approx(314.159, abs=1e-3)
        assert props.Iy == pytest.approx(7853.98, abs=1e-2)
        assert props.Wy == pytest.approx(785.398, abs=1e-3)

    def test_circle_unit_scale(self):
        assert section_properties(Circle(diameter=2.0)).A == pytest.approx(math.pi, rel=1e-15)

    def test_rectangle_100x200(self):
        props = section_properties(Rectangle(width=100.0, height=200.0))
        assert props.A == pytest.approx(2.0e4, rel=1e-15)
        assert props.Iz == pytest.approx(100.0 * 200.0**3 / 12.0, rel=1e-15)
        assert props.Iz == pytest.approx(6.667e7, rel=1e-4)
        assert props.Iy == pytest.approx(200.0 * 100.0**3 / 12.0, rel=1e-15)
        assert props.Wz == pytest.approx(props.Iz / 100.0, rel=1e-15)
        assert props.Wy == pytest.approx(props.Iy / 50.0, rel=1e-15)

    def test_rectangle_torsion_square(self):
        # square: classical table value J = 0.141 a^4, Wt = 0.208 a^3
        props = section_properties(Rectangle(width=20.0, height=20.0))
        assert props.J == pytest.approx(0.141 * 20.0**4, rel=0.01)
        assert props.Wt == pytest.approx(0.208 * 20.0**3, rel=0.01)

    def test_rectangle_torsion_thin_strip_limit(self):
        props = section_properties(Rectangle(width=1000.0, height=10.0))
        assert props.J == pytest.approx(1000.0 * 10.0**3 / 3.0, rel=0.01)
        assert props.Wt == pytest.approx(1000.0 * 10.0**2 / 3.0, rel=0.01)

    def test_generic_passthrough(self):
        shape = GenericSection(A=1.0, Iy=2.0, Iz=3.0, J=4.0, Wy=5.0, Wz=6.0, Wt=7.0)
        props = section_properties(shape)
        assert (props.A, props.Iy, props.Iz, props.J) == (1.0, 2.0, 3.0, 4.0)

    @pytest.mark.parametrize(
        "shape",
        [
            Circle(diameter=0.0),
            Circle(diameter=-2.0),
            Circle(diameter=math.nan),
            Rectangle(width=0.0, height=1.0),
            Rectangle(width=math.nan, height=1.0),
            GenericSection(A=math.nan, Iy=1.0, Iz=1.0, J=1.0, Wy=1.0, Wz=1.0, Wt=1.0),
        ],
    )
    def test_nonpositive_dimensions_rejected(self, shape):
        with pytest.raises(ValueError):
            section_properties(shape)

    @given(
        s=st.floats(min_value=0.1, max_value=10.0),
        d=st.floats(min_value=1.0, max_value=100.0),
    )
    @settings(max_examples=50)
    def test_circle_scale_homogeneity(self, s, d):
        base = section_properties(Circle(diameter=d))
        scaled = section_properties(Circle(diameter=s * d))
        assert scaled.A == pytest.approx(s**2 * base.A, rel=1e-12)
        assert scaled.Iy == pytest.approx(s**4 * base.Iy, rel=1e-12)
        assert scaled.J == pytest.approx(s**4 * base.J, rel=1e-12)
        assert scaled.Wy == pytest.approx(s**3 * base.Wy, rel=1e-12)

    @given(
        s=st.floats(min_value=0.1, max_value=10.0),
        b=st.floats(min_value=1.0, max_value=300.0),
        h=st.floats(min_value=1.0, max_value=300.0),
    )
    @settings(max_examples=50)
    def test_rectangle_scale_homogeneity(self, s, b, h):
        base = section_properties(Rectangle(width=b, height=h))
        scaled = section_properties(Rectangle(width=s * b, height=s * h))
        assert scaled.A == pytest.approx(s**2 * base.A, rel=1e-12)
        assert scaled.Iz == pytest.approx(s**4 * base.Iz, rel=1e-12)
        assert scaled.J == pytest.approx(s**4 * base.J, rel=1e-12)
        assert scaled.Wt == pytest.approx(s**3 * base.Wt, rel=1e-12)


def test_material_shear_modulus():
    mat = Material(id=1, E=210e3, nu=0.2)
    assert mat.G == pytest.approx(210e3 / 2.4, rel=1e-15)


def of_kind(report, kind):
    return [f for f in report.defects + report.warnings if f.kind == kind]


def _two_point_model():
    model = StructuralModel()
    model.points = [Point(id=0, coords=(0, 0, 0)), Point(id=1, coords=(1000, 0, 0))]
    model.cells = [Cell(id=0, connectivity=(0, 1), cs_id=1, mat_id=1)]
    model.cross_sections[1] = CrossSection(id=1, shape=Circle(diameter=20.0))
    model.materials[1] = Material(id=1, E=210e3, nu=0.2)
    return model


class TestValidate:
    def test_empty_model_is_clean(self):
        report = validate(StructuralModel())
        assert report.ok
        assert not report.defects and not report.warnings

    def test_clean_model(self):
        report = validate(_two_point_model())
        assert report.ok
        assert not report.warnings

    def test_dangling_point_reference(self):
        model = _two_point_model()
        model.cells[0].connectivity = (0, 99)
        report = validate(model)
        assert not report.ok
        assert len(of_kind(report, "dangling-reference")) == 1

    def test_nonfinite_coordinates(self):
        model = _two_point_model()
        model.points[1].coords[0] = np.nan
        model.points.append(Point(id=0, coords=(0, np.inf, 0)))
        report = validate(model)
        assert not report.ok
        assert [f.message for f in report.defects] == [
            "point 1 has non-finite coordinates",
            "duplicate point id 0",
            "point 0 has non-finite coordinates",
        ]

    def test_rigid_link_rule(self):
        model = _two_point_model()
        model.points.append(Point(id=2, coords=(0, 0, 500)))
        model.rigid_links = [fp.RigidLink(0, 1), fp.RigidLink(1, 2), fp.RigidLink(0, 2),
                             fp.RigidLink(9, 8), fp.RigidLink(2, 2),
                             fp.RigidLink(0, 1, offset=(np.nan, 0.0, 0.0))]
        assert [(f.kind, f.message) for f in validate(model).defects] == [
            ("rigid-link-conflict", "point 2 is slave of two links"),
            ("dangling-reference", "rigid link master references missing point 9"),
            ("dangling-reference", "rigid link slave references missing point 8"),
            ("rigid-link-conflict", "rigid link with master == slave 2"),
            ("rigid-link-conflict", "point 2 is slave of two links"),
            ("rigid-link-conflict", "point 1 is slave of two links"),
            ("non-finite", "rigid link offset for slave 1 not finite"),
            ("rigid-link-conflict", "point 1 is both master and slave"),
            ("rigid-link-conflict", "point 2 is both master and slave"),
        ]

    def test_link_end_is_used_and_slave_carries_no_support(self):
        model = _two_point_model()
        model.points.append(Point(id=2, coords=(1000, 50, 0)))
        model.rigid_links = [fp.RigidLink(1, 2)]
        assert validate(model) == ValidationReport(defects=[], warnings=[])
        model.points[2].constraint_mask[0] = True
        assert [(f.kind, f.message) for f in validate(model).defects] == [
            ("rigid-link-conflict", "rigid link slave 2 may not carry support constraints")]

    @pytest.mark.parametrize(
        "shape, message",
        [
            (Circle(diameter=math.inf), "cross-section 1: section properties must be finite"),
            (Circle(diameter=math.nan), "cross-section 1: circle diameter must be positive"),
            (Rectangle(width=-1.0, height=2.0),
             "cross-section 1: rectangle dimensions must be positive"),
            # d**4 and h**3 overflow; a product of huge dimensions gives inf
            (Circle(diameter=1.2e77), "cross-section 1: section properties must be finite"),
            (Circle(diameter=1e77), "cross-section 1: section properties must be finite"),
            (Rectangle(width=1.0, height=5.7e102),
             "cross-section 1: section properties must be finite"),
        ],
    )
    def test_unusable_section_blocks(self, shape, message):
        model = _two_point_model()
        model.cross_sections[1] = CrossSection(id=1, shape=shape)
        report = validate(model)
        assert not report.ok
        assert [f.message for f in of_kind(report, "invalid-catalog")] == [message]

    @pytest.mark.parametrize(
        "values, message",
        [
            (dict(E=math.inf), "material 1 has non-finite values"),
            (dict(nu=math.nan), "material 1 has non-finite values"),
            (dict(density=math.nan), "material 1 has non-finite values"),
            (dict(Ry=math.nan), "material 1 has non-finite values"),
            (dict(E=0.0), "material 1 needs positive E and Ry"),
            (dict(Ry=-300.0), "material 1 needs positive E and Ry"),
            (dict(nu=-1.0), "material 1 needs -1 < nu <= 0.5"),
            (dict(nu=-1.5), "material 1 needs -1 < nu <= 0.5"),
            (dict(nu=0.5000001), "material 1 needs -1 < nu <= 0.5"),
        ],
    )
    def test_unusable_material_blocks(self, values, message):
        model = _two_point_model()
        for key, value in values.items():
            setattr(model.materials[1], key, value)
        report = validate(model)
        assert not report.ok
        assert [f.message for f in of_kind(report, "invalid-catalog")] == [message]

    def test_overflowing_stiffness_term_blocks(self):
        # 4 E I / L overflows; E A / L, all a truss has, does not
        model = _two_point_model()
        model.materials[1].E = 1e305
        messages = [f.message for f in of_kind(validate(model), "overflow")]
        assert messages == ["cell 0 stiffness overflows double precision"]
        model.cells.truss[0] = True
        assert validate(model).ok

    def test_sub_tolerance_cell_stiffness_is_bounded(self):
        # 12 E I / L^3 of a cell 1e-120 mm long overflows: shorter than the
        # merge tolerance, it is also degenerate, but a solve assembles it
        model = _two_point_model()
        model.points[1].coords[:] = (1e-120, 0.0, 0.0)
        report = validate(model)
        assert [f.message for f in of_kind(report, "overflow")] == [
            "cell 0 stiffness overflows double precision"]
        assert [f.kind for f in report.warnings] == ["degenerate-cell"]
        model.points[1].coords[:] = (1e-3, 0.0, 0.0)
        assert validate(model).defects == []

    def test_overflowing_self_weight_blocks(self):
        # rho A g L / 2 overflows; without self-weight nothing does
        model = _two_point_model()
        model.materials[1].density = 1e305
        messages = [f.message for f in of_kind(validate(model), "overflow")]
        assert messages == ["cell 0 self-weight overflows double precision"]
        model.self_weight_enabled = False
        assert validate(model).ok

    @pytest.mark.parametrize("cell_slice", [1, 4, 7, 1 << 10])
    def test_overflow_findings_do_not_depend_on_the_slices(self, monkeypatch, cell_slice):
        # 30 cells with descending ids: material 2 overflows a beam's
        # stiffness (not a truss's), material 3 any cell's self-weight, and
        # a zero-length cell is never assembled, so it is never reported
        model = StructuralModel()
        model.points = [Point(id=i, coords=(100.0 * i, 0, 0)) for i in range(31)]
        model.cells = [Cell(id=100 - i, connectivity=(i, i if i % 7 == 3 else i + 1), cs_id=1,
                            mat_id=1 + i % 3, kind=TRUSS_LINE if i % 5 == 0 else BEAM_LINE)
                       for i in range(30)]
        model.cross_sections[1] = CrossSection(id=1, shape=Circle(diameter=20.0))
        model.materials[1] = Material(id=1, E=210e3, nu=0.2)
        model.materials[2] = Material(id=2, E=1e305, nu=0.2)
        model.materials[3] = Material(id=3, E=210e3, nu=0.2, density=1e305)
        monkeypatch.setattr(model_module, "_CELL_SLICE", cell_slice)
        stiff = [100 - i for i in range(30) if i % 3 == 1 and i % 5 and i % 7 != 3]
        heavy = [100 - i for i in range(30) if i % 3 == 2 and i % 7 != 3]
        assert [f.message for f in of_kind(validate(model), "overflow")] == (
            [f"cell {i} stiffness overflows double precision" for i in stiff]
            + [f"cell {i} self-weight overflows double precision" for i in heavy])

    def test_overflow_check_holds_one_slice_of_terms(self, monkeypatch):
        """The 8x8x8 line soup (1,560 cells) in slices of 256 cells: 0.22 MB
        traced, where forming every cell's properties and terms at once took
        0.46 MB."""
        soup = fp.parse_model(soup_document(8))
        monkeypatch.setattr(model_module, "_CELL_SLICE", 256)
        assert validate(soup).ok
        assert traced_peak(validate, soup) <= 0.3e6

    def test_overflowing_load_blocks(self):
        model = _two_point_model()
        model.bcs[1] = fp.BoundaryConditionEntry(id=1, components=(1e150, 0, 0, 0, 0, 0))
        model.points[1].bc_id = 1
        assert validate(model).ok
        model.bcs[1].components[2] = 1e200  # its square overflows
        messages = [f.message for f in of_kind(validate(model), "overflow")]
        assert messages == ["load 1 overflows double precision"]

    def test_unusable_material_is_not_also_an_overflow(self):
        model = _two_point_model()
        model.materials[1].nu = -1.0  # G = E / 0
        assert [f.kind for f in validate(model).defects] == ["invalid-catalog"]

    @pytest.mark.parametrize("nu", [0.5, 0.0, -0.99])
    def test_poisson_ratio_within_bounds_is_clean(self, nu):
        model = _two_point_model()
        model.materials[1].nu = nu
        assert not of_kind(validate(model), "invalid-catalog")

    def test_degenerate_cell_is_warning_only(self):
        model = _two_point_model()
        model.points[1].coords[:] = (0.0, 0.0, 1e-9)
        report = validate(model)
        assert report.ok
        assert of_kind(report, "degenerate-cell")

    def test_unreferenced_catalog_entry(self):
        model = _two_point_model()
        model.cross_sections[7] = CrossSection(id=7, shape=Circle(diameter=5.0))
        report = validate(model)
        assert report.ok
        assert len(of_kind(report, "unreferenced-catalog")) == 1

    def test_point_without_cells(self):
        model = _two_point_model()
        model.points.append(Point(id=2, coords=(0, 50, 0)))
        report = validate(model)
        assert report.ok
        assert len(of_kind(report, "unused-point")) == 1

    def test_missing_load_reference(self):
        model = _two_point_model()
        model.points[1].bc_id = 3
        report = validate(model)
        assert not report.ok

    def test_validate_is_idempotent_and_pure(self):
        model = _two_point_model()
        model.cross_sections[9] = CrossSection(id=9, shape=Circle(diameter=1.0))
        first = validate(model)
        second = validate(model)
        assert [f.message for f in first.defects] == [f.message for f in second.defects]
        assert [f.message for f in first.warnings] == [f.message for f in second.warnings]

    def test_catalog_lookups_total_on_ok_models(self):
        model = _two_point_model()
        assert validate(model).ok
        for cell in model.cells:
            assert section_properties(model.cross_sections[cell.cs_id].shape).A > 0
            assert model.materials[cell.mat_id].E > 0


def _line_soup(seed=0):
    """A small lattice exploded into a shuffled line soup: every cell gets
    its own two jittered endpoints, carrying its nodes' masks and loads."""
    rng = np.random.default_rng(seed)
    lattice = fp.gen_sphere_lattice(fp.LatticeSpec(nx=4, ny=3, nz=3, splash_fraction=0.05,
                                                   seed=seed))
    cells, points = lattice.cells, lattice.points
    order = rng.permutation(len(cells))
    ends = points.positions(cells.ends[order]).ravel()
    n = len(ends)
    soup = fp.StructuralModel(
        comment="soup", cross_sections=lattice.cross_sections, materials=lattice.materials,
        points=PointTable(np.arange(n), points.coords[ends] + rng.uniform(-1e-3, 1e-3, (n, 3)),
                          points.masks[ends], points.bc_ids[ends]),
        cells=CellTable(np.arange(n // 2), np.arange(n).reshape(-1, 2), cells.cs_ids[order],
                        cells.mat_ids[order], cells.truss[order]))
    return fp.write_model(soup)


def test_check_and_clean_build_no_row_objects(monkeypatch):
    """Parse, validate, support check, the repair passes and the writer work
    on the columns: none of them makes a Point or Cell, or a row view."""
    text = _line_soup()
    made = []

    def counted(cls, method):
        def wrapper(self, *args, **kwargs):
            made.append(cls.__name__)
            return method(self, *args, **kwargs)
        monkeypatch.setattr(cls, method.__name__, wrapper)

    counted(Point, Point.__init__)
    counted(Cell, Cell.__init__)
    counted(_Table, _Table.__getitem__)  # where row views come from
    model = fp.parse_model(text)
    n_soup = len(model.points)
    assert validate(model).ok
    assert fp.check_support_reachability(model)  # every segment floats on its own
    cleaned, _ = run_clean_pipeline(model, merge_tol=0.01)
    fp.write_model(cleaned)
    assert not made
    assert len(cleaned.points) < n_soup / 3  # the soup did merge
    cleaned.points.append(Point(id=-1, coords=(0, 0, 0)))
    assert made == ["Point"]  # the counter counts
    assert cleaned.points[-1].id == -1 and made == ["Point", "_Table"]



def _positions_oracle(ids, query):
    rows = {pid: row for row, pid in enumerate(ids)}  # the last row of an id wins
    return [rows.get(q, -1) for q in query]


@pytest.mark.parametrize("ids", [
    [0, 1, 2, 3, 4], [3, 0, 4, 1, 2], [0, 2, 5, 9], [4, 1, 4, 0, 1, 2], [0, 1, 1, 3], [1, 2, 3],
    [-1, 1, 2], [0], [],
], ids=["dense", "shuffled", "gapped", "duplicated", "dense-ends-duplicated", "shifted",
       "negative-first", "single", "empty"])
def test_positions_match_a_dict_from_id_to_row(ids):
    """Dense ids 0..n-1 in row order are their own rows, other ascending ids
    are read from a table over their span, and every other table is
    searched.  Ids outside the table, the int64 limits among them, give -1,
    and the query's shape is kept."""
    table = PointTable(ids, np.zeros((len(ids), 3)))
    limits = np.iinfo(np.int64)
    query = [*range(-3, max(ids, default=0) + 4), limits.min, limits.max]
    got = table.positions(np.reshape(query, (-1, 1)))
    assert got.shape == (len(query), 1)
    assert got.ravel().tolist() == _positions_oracle(ids, query)


@given(ids=st.one_of(st.lists(st.integers(-3, 30), max_size=20),
                     st.integers(0, 20).map(lambda n: list(range(n)))),
       query=st.lists(st.integers(-5, 35), max_size=20))
@settings(max_examples=100, deadline=None)
def test_positions_match_a_dict_on_any_ids(ids, query):
    table = PointTable(ids, np.zeros((len(ids), 3)))
    assert table.positions(query).tolist() == _positions_oracle(ids, query)


_EXTREMES = st.sampled_from([int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)])


@given(ids=st.one_of(st.lists(st.one_of(st.integers(-40, 40), _EXTREMES), max_size=20),
                     st.lists(st.one_of(st.integers(-40, 40), _EXTREMES), max_size=20,
                              unique=True).map(sorted)),
       query=st.lists(st.one_of(st.integers(-50, 50), _EXTREMES), max_size=30))
@settings(max_examples=200, deadline=None)
def test_dense_lookup_matches_the_search(ids, query):
    """Ascending ids with gaps, as repairs leave them, read from a table over
    their span give what the binary search gives, the last of equal ids and
    -1 for a missing one included; so do shuffled, duplicated and empty
    tables, which are always searched.  A span limit of 0 turns the table
    off."""
    table = PointTable(ids, np.zeros((len(ids), 3)))
    got = table.positions(query)
    span = model_module._DENSE_SPAN
    try:
        model_module._DENSE_SPAN = 0
        searched = table.positions(query)
    finally:
        model_module._DENSE_SPAN = span
    assert got.tolist() == searched.tolist() == _positions_oracle(ids, query)


@given(values=st.lists(st.one_of(st.integers(-40, 40), _EXTREMES), max_size=30),
       test=st.lists(st.one_of(st.integers(-40, 40), _EXTREMES), max_size=30),
       scale=st.sampled_from([1, 10**6]))
@settings(max_examples=200, deadline=None)
def test_isin_matches_numpy(values, test, scale):
    """``isin``'s sorted search gives np.isin's answer over a small span and
    a wide one (scaled, or reaching the int64 limits), for one- and
    two-dimensional values alike."""
    values = np.array([v if abs(v) > 40 else v * scale for v in values], dtype=np.int64)
    test = np.array([v if abs(v) > 40 else v * scale for v in test], dtype=np.int64)
    for shaped in (values, values.reshape(-1, 1)):
        assert np.array_equal(model_module.isin(shaped, test), np.isin(shaped, test))


@pytest.mark.parametrize("ids", [[0, 1, 2], [7, 2, 5], []], ids=["dense", "searched", "empty"])
def test_cell_lengths_are_nan_only_for_missing_ends(ids):
    """Each cell whose ends name points has the ``np.linalg.norm`` of their
    difference along its row as its length, bit for bit, as the solver's
    triads have it, and every other cell NaN, also where the point table
    is empty."""
    coords = np.sqrt(np.arange(3.0 * len(ids)).reshape(-1, 3)) * [1.0, -3.7, 11.0]
    ends = [[a, b] for a in [*ids, 9] for b in [*ids, 9]]
    model = StructuralModel(points=PointTable(ids, coords),
                            cells=CellTable(np.arange(len(ends)), ends))
    rows = {pid: row for row, pid in enumerate(ids)}
    expected = [np.linalg.norm([coords[rows[a]] - coords[rows[b]]], axis=1)[0]
                if a in rows and b in rows else np.nan for a, b in ends]
    got = model_module.cell_lengths(model)
    assert np.array_equal(got, expected, equal_nan=True)


def test_models_own_their_columns():
    """No two columns of a parsed model, its copy, a merged model and a
    generated lattice share memory, nor any of them with an array the
    caller still holds: the point table the merge replaced, the lattice's
    occupancy.  A parse that reads no section or material ids gives each
    its own zeros.  So a write through one model's row view shows in that
    model alone."""
    document = soup_document(5)
    parsed = fp.parse_model(document)
    copied = parsed.copy()
    merged = parsed.copy()
    replaced = merged.points
    merged, _ = fp.merge_duplicate_nodes(merged, tol=0.01)
    occupancy = fp.arch_occupancy(6, 2, 4, thickness=1.5)
    lattice = fp.gen_sphere_lattice(fp.LatticeSpec(occupancy=occupancy))
    bare = fp.parse_model(re.sub(r'\s*<DataArray [^>]*Name="ID_(CROSS-SECTION|MATERIAL)">.*?'
                                 r"</DataArray>", "", document, flags=re.S))
    assert not bare.cells.cs_ids.any() and not bare.cells.mat_ids.any()
    models = [parsed, copied, merged, lattice, bare]
    held = [*replaced._cols, occupancy]
    columns = [col for model in models for table in (model.points, model.cells)
               for col in table._cols] + held
    for a, b in itertools.combinations(columns, 2):
        assert not np.shares_memory(a, b)

    before = [model.copy() for model in models]
    for model in models:
        model.points[0].coords[:] = -1.0
        model.points[0].constraint_mask[:] = True
        model.points[0].bc_id = 5
        model.cells[0].connectivity = (0, 0)
        model.cells[0].cs_id = 7
        model.cells[0].kind = TRUSS_LINE
        assert model.cells[0].mat_id == 0 if model is bare else 1
        for other, old in zip(models, before):
            if other is not model:
                assert_models_equal(other, old)
        before = [other.copy() for other in models]


class TestViews:
    def test_attribute_and_mask_writes_reach_the_columns(self):
        model = _two_point_model()
        model.points[1].bc_id = 7
        model.points[0].constraint_mask[:] = True
        model.points[1].coords[2] = 5.0
        model.cells[0].kind = TRUSS_LINE
        model.cells[0].connectivity = (1, 0)
        assert model.points.bc_ids.tolist() == [0, 7]
        assert model.points.masks.tolist() == [[True] * 6, [False] * 6]
        assert model.points.coords[1].tolist() == [1000.0, 0.0, 5.0]
        assert model.cells.truss.tolist() == [True]
        assert model.cells.ends.tolist() == [[1, 0]]

    def test_appended_point_stays_bound_to_the_model(self):
        model = _two_point_model()
        p = Point(id=5, coords=(1, 2, 3))
        model.points.append(p)
        p.bc_id = 2
        p.constraint_mask[1] = True
        p.coords = (4, 5, 6)
        assert (model.points[-1].bc_id, model.points.masks[-1].tolist()) == (
            2, [False, True, False, False, False, False])
        assert model.points.coords[-1].tolist() == [4.0, 5.0, 6.0]

    def test_standalone_rows_read_back(self):
        p = Point(id=3, coords=[1, 2, 3], constraint_mask=[1, 0, 0, 0, 0, 0], bc_id=2)
        c = Cell(id=4, connectivity=np.array([5, 6]), cs_id=1, mat_id=2, kind=TRUSS_LINE)
        assert (p.id, p.coords.tolist(), p.constraint_mask.tolist(), p.bc_id) == (
            3, [1.0, 2.0, 3.0], [True] + [False] * 5, 2)
        assert (c.id, c.connectivity, c.cs_id, c.mat_id, c.kind) == (4, (5, 6), 1, 2, TRUSS_LINE)
        assert repr(c) == "Cell(id=4, connectivity=(5, 6), cs_id=1, mat_id=2, kind='truss-line')"

    def test_standalone_rows_validate(self):
        with pytest.raises(ValueError, match="coords must be a 3-vector"):
            Point(id=0, coords=(0, 0))
        with pytest.raises(ValueError, match="constraint_mask must have 6 entries"):
            Point(id=0, coords=(0, 0, 0), constraint_mask=[True])
        with pytest.raises(ValueError, match="exactly two point ids"):
            Cell(id=0, connectivity=(0, 1, 2), cs_id=1, mat_id=1)
        with pytest.raises(ValueError, match="unknown cell kind"):
            Cell(id=0, connectivity=(0, 1), cs_id=1, mat_id=1, kind="shell")

    def test_copy_is_independent(self):
        model = _two_point_model()
        model.rigid_links.append(fp.RigidLink(master=0, slave=1))
        dup = model.copy()
        dup.points[0].coords[0] = 9.0
        dup.points[1].constraint_mask[:] = True
        dup.cells[0].cs_id = 4
        dup.materials[1].E = 1.0
        dup.rigid_links[0].slave = 0
        dup.points.append(Point(id=2, coords=(0, 0, 1)))
        assert model.points.coords[0].tolist() == [0.0, 0.0, 0.0]
        assert not model.points.masks.any()
        assert (model.cells[0].cs_id, model.materials[1].E) == (1, 210e3)
        assert (model.rigid_links[0].slave, len(model.points)) == (1, 2)

    def test_reordered_own_views_keep_their_rows(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, n_points=30)
        before = {p.id: (p.coords.tolist(), p.constraint_mask.tolist(), p.bc_id)
                  for p in model.points}
        order = rng.permutation(len(model.points))
        model.points = [model.points[i] for i in order]
        assert model.points.ids.tolist() == order.tolist()
        assert {p.id: (p.coords.tolist(), p.constraint_mask.tolist(), p.bc_id)
                for p in model.points} == before
        model.cells = model.cells[::-1]
        assert model.cells.ids.tolist() == list(range(len(model.cells)))[::-1]

    def test_slices(self):
        model = _two_point_model()
        assert [p.id for p in model.points[::-1]] == [1, 0]
        assert [p.id for p in model.points[1:]] == [1]
        with pytest.raises(IndexError):
            model.points[2]

    def test_repeated_clean_is_bit_identical(self):
        text = _line_soup(seed=3)
        outputs = set()
        for _ in range(3):
            cleaned, _ = run_clean_pipeline(fp.parse_model(text), merge_tol=0.01)
            outputs.add(fp.write_model(cleaned))
        assert len(outputs) == 1


def row_findings_oracle(model, tol):
    """The per-point and per-cell findings, one object at a time, in the
    order validate reports them: (defects, warnings) as messages."""
    defects, warnings, seen, used = [], [], set(), set()
    ids = {p.id for p in model.points}
    for p in model.points:
        if p.id in seen:
            defects.append(f"duplicate point id {p.id}")
        seen.add(p.id)
        if not np.isfinite(p.coords).all():
            defects.append(f"point {p.id} has non-finite coordinates")
    seen = set()
    by_id = {p.id: p for p in model.points}
    for c in model.cells:
        if c.id in seen:
            defects.append(f"duplicate cell id {c.id}")
        seen.add(c.id)
        for pid in c.connectivity:
            if pid in ids:
                used.add(pid)
            else:
                defects.append(f"cell {c.id} references missing point {pid}")
        if c.cs_id not in model.cross_sections:
            defects.append(f"cell {c.id} references missing cross-section {c.cs_id}")
        if c.mat_id not in model.materials:
            defects.append(f"cell {c.id} references missing material {c.mat_id}")
        a, b = (by_id.get(pid) for pid in c.connectivity)
        if a is not None and b is not None and np.linalg.norm(a.coords - b.coords) <= tol:
            warnings.append(f"cell {c.id} shorter than merge tolerance")
    defects += [f"point {p.id} references missing load {p.bc_id}" for p in model.points
                if p.bc_id != 0 and p.bc_id not in model.bcs]
    warnings += [f"point {p.id} referenced by no cell" for p in model.points if p.id not in used]
    return defects, warnings


@pytest.mark.parametrize("seed", range(20))
def test_validate_matches_one_object_at_a_time_oracle(seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, n_points=int(rng.integers(2, 40)), span=5.0)
    n, m = len(model.points), len(model.cells)
    for _ in range(int(rng.integers(0, 4))):  # duplicate ids, bad values, dangling references
        model.points[int(rng.integers(n))].id = int(rng.integers(n))
        model.points[int(rng.integers(n))].coords[int(rng.integers(3))] = np.nan
        model.points[int(rng.integers(n))].bc_id = int(rng.integers(0, 5))
        cell = model.cells[int(rng.integers(m))]
        cell.connectivity = (cell.connectivity[0], int(rng.integers(n + 3)))
        model.cells[int(rng.integers(m))].id = int(rng.integers(m))
        model.cells[int(rng.integers(m))].cs_id = int(rng.integers(1, 7))
        model.cells[int(rng.integers(m))].mat_id = int(rng.integers(1, 4))
        model.points.append(Point(id=n + 10, coords=model.points[0].coords + 1e-7))
        # a cell shorter than the merge tolerance, a degenerate-cell warning
        model.cells.append(Cell(id=m + 10, connectivity=(model.points[0].id, n + 10), cs_id=1,
                                mat_id=1))
    report = validate(model)
    defects, warnings = row_findings_oracle(model, model_module.DEFAULT_MERGE_TOL)
    assert [f.message for f in report.defects] == defects
    assert [f.message for f in report.warnings if f.kind != "unreferenced-catalog"] == warnings
