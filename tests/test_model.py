import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formpipe.model import (
    Cell,
    Circle,
    CrossSection,
    GenericSection,
    Material,
    Point,
    Rectangle,
    StructuralModel,
    section_properties,
    validate,
)


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
        assert len(report.by_kind("dangling-reference")) == 1

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

    @pytest.mark.parametrize(
        "shape, message",
        [
            (Circle(diameter=math.inf), "cross-section 1: section properties must be finite"),
            (Circle(diameter=math.nan), "cross-section 1: circle diameter must be positive"),
            (Rectangle(width=-1.0, height=2.0),
             "cross-section 1: rectangle dimensions must be positive"),
        ],
    )
    def test_unusable_section_blocks(self, shape, message):
        model = _two_point_model()
        model.cross_sections[1] = CrossSection(id=1, shape=shape)
        report = validate(model)
        assert not report.ok
        assert [f.message for f in report.by_kind("invalid-catalog")] == [message]

    @pytest.mark.parametrize(
        "values, message",
        [
            (dict(E=math.inf), "material 1 has non-finite values"),
            (dict(nu=math.nan), "material 1 has non-finite values"),
            (dict(density=math.nan), "material 1 has non-finite values"),
            (dict(Ry=math.nan), "material 1 has non-finite values"),
            (dict(E=0.0), "material 1 needs positive E and Ry"),
            (dict(Ry=-300.0), "material 1 needs positive E and Ry"),
        ],
    )
    def test_unusable_material_blocks(self, values, message):
        model = _two_point_model()
        for key, value in values.items():
            setattr(model.materials[1], key, value)
        report = validate(model)
        assert not report.ok
        assert [f.message for f in report.by_kind("invalid-catalog")] == [message]

    def test_degenerate_cell_is_warning_only(self):
        model = _two_point_model()
        model.points[1].coords[:] = (0.0, 0.0, 1e-9)
        report = validate(model)
        assert report.ok
        assert report.by_kind("degenerate-cell")

    def test_unreferenced_catalog_entry(self):
        model = _two_point_model()
        model.cross_sections[7] = CrossSection(id=7, shape=Circle(diameter=5.0))
        report = validate(model)
        assert report.ok
        assert len(report.by_kind("unreferenced-catalog")) == 1

    def test_point_without_cells(self):
        model = _two_point_model()
        model.points.append(Point(id=2, coords=(0, 50, 0)))
        report = validate(model)
        assert report.ok
        assert len(report.by_kind("unused-point")) == 1

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
            assert model.cross_sections[cell.cs_id].properties.A > 0
            assert model.materials[cell.mat_id].E > 0
