import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import formpipe as fp
from formpipe.model import Circle, section_properties
from formpipe.resistance import classify, deformed_geometry, equilibrium_residual


def solve(model, method="direct"):
    system, dm = fp.assemble(model)
    u, stats = fp.solve_pcg_ichol(system) if method == "pcg" else fp.solve_direct(system)
    disp = fp.expand_displacements(dm, u)
    forces = fp.recover_end_forces(model, disp)
    reactions = fp.reaction_forces(system, u)
    return fp.build_result_set(model, disp, forces, reactions, system.applied_loads)


D20 = section_properties(Circle(diameter=20.0))


def ratio(end_forces):
    """u_el of the one cell of ``gen_cantilever()``, a 20 mm circle of
    Ry 300, under (2, 6) local end forces, through ``build_result_set``."""
    forces = np.asarray(end_forces, dtype=float)[None]
    return fp.build_result_set(fp.gen_cantilever(), np.zeros((2, 6)), forces).u_el[0]


class TestResistanceRatio:
    def test_zero_forces(self):
        assert ratio(np.zeros((2, 6))) == 0.0

    def test_pure_torsion_shear_yield(self):
        # tau = Ry / sqrt(3) is exactly the yield point of the criterion
        T = D20.Wt * 300.0 / math.sqrt(3.0)
        ef = np.zeros((2, 6))
        ef[0, 3] = T
        assert ratio(ef) == pytest.approx(1.0, rel=1e-12)

    def test_axial_only_degenerates_to_stress_ratio(self):
        ef = np.zeros((2, 6))
        ef[1, 0] = -D20.A * 150.0  # compression: magnitudes count
        u = ratio(ef)
        assert u * 300.0 == pytest.approx(150.0, rel=1e-12)

    def test_max_over_both_ends(self):
        ef = np.zeros((2, 6))
        ef[0, 4] = 100.0
        ef[1, 4] = 300.0
        expected = (300.0 / D20.Wy) / 300.0
        assert ratio(ef) == pytest.approx(expected, rel=1e-12)

    def test_cantilever_reproduces_reference_ratio(self):
        results = solve(fp.gen_cantilever())
        assert results.max_u_el == pytest.approx(1.175, abs=0.005)

    def test_axial_plus_torsion_ratio(self):
        # sigma = 100 and tau = 20 MPa at one end combine as sqrt(sigma^2 + 3 tau^2)
        ef = np.zeros((2, 6))
        ef[1] = (D20.A * 100.0, 0.0, 0.0, -D20.Wt * 20.0, 0.0, 0.0)
        expected = math.sqrt(100.0**2 + 3.0 * 20.0**2) / 300.0
        assert ratio(ef) == pytest.approx(expected, rel=1e-12)


class TestClassify:
    def test_reference_values(self):
        assert classify(1.175) == "exceeded"
        assert classify(0.45) == "ok"

    def test_threshold_is_strict(self):
        assert classify(1.0) == "ok"
        assert classify(np.nextafter(1.0, 2.0)) == "exceeded"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classify(-0.1)

    @given(
        u=st.floats(min_value=0.0, max_value=10.0),
        v=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=50)
    def test_monotone(self, u, v):
        lo, hi = sorted((u, v))
        if classify(lo) == "exceeded":
            assert classify(hi) == "exceeded"


class TestSummarize:
    """The headline numbers of a solve summary, read from the ResultSet."""

    def test_two_element_maxima(self):
        model = fp.gen_cantilever(fp.CantileverSpec(n_elements=2))
        results = solve(model)
        assert len(results.u_el) == 2
        assert results.max_u_el == results.u_el.max()
        assert results.max_total_displacement == np.linalg.norm(
            results.displacements[:, :3], axis=1).max()

    def test_counts_exceeded(self):
        model = fp.gen_cantilever()
        results = solve(model)
        assert int(results.exceeded.sum()) == 1

    def test_unloaded_model_zeroes(self):
        model = fp.gen_cantilever(fp.CantileverSpec(tip_force=0.0))
        model.self_weight_enabled = False
        results = solve(model)
        assert results.max_u_el == 0.0
        assert results.max_total_displacement == 0.0
        assert int(results.exceeded.sum()) == 0


class TestEquilibriumResidual:
    def test_solved_models_balance(self):
        for model in (fp.gen_cantilever(fp.CantileverSpec(n_elements=4)), fp.gen_leonardo()):
            for method in ("direct", "pcg"):
                assert equilibrium_residual(model, solve(model, method)) < 1e-9

    def test_missing_reactions_leave_the_whole_load_unbalanced(self):
        model = fp.gen_cantilever()
        results = solve(model)
        results.reactions[:] = 0.0
        assert equilibrium_residual(model, results) == pytest.approx(1.0, rel=1e-12)

    def test_self_balancing_loads_use_the_load_magnitudes(self):
        # a couple of two opposite 10 N forces 1000 mm apart, nothing reacting:
        # net force 0, net moment 1e4 N mm over an extent of 1000 mm
        model = fp.gen_cantilever()
        results = solve(model)
        results.reactions[:] = 0.0
        results.applied_loads[:] = 0.0
        results.applied_loads[0, 2] = 10.0
        results.applied_loads[1, 2] = -10.0
        assert equilibrium_residual(model, results) == pytest.approx(10.0 / 20.0, rel=1e-12)

    def test_unloaded_model_is_zero(self):
        model = fp.gen_cantilever(fp.CantileverSpec(tip_force=0.0))
        model.self_weight_enabled = False
        assert equilibrium_residual(model, solve(model)) == 0.0


class TestDeformedGeometry:
    def test_zero_scale_identity(self):
        model = fp.gen_cantilever()
        results = solve(model)
        out = deformed_geometry(model, results.displacements, 0.0)
        assert np.array_equal(out, model.coords_array())

    def test_rigid_translation_field(self):
        model = fp.gen_cantilever(fp.CantileverSpec(n_elements=3))
        disp = np.zeros((4, 6))
        disp[:, :3] = (1.0, -2.0, 3.0)
        out = deformed_geometry(model, disp, 1.0)
        assert np.allclose(out - model.coords_array(), [1.0, -2.0, 3.0])

    def test_cantilever_tip_moves_by_analytic_deflection(self):
        model = fp.gen_cantilever(fp.CantileverSpec(n_elements=8))
        results = solve(model)
        out = deformed_geometry(model, results.displacements, 1.0)
        I = math.pi * 20.0**4 / 64.0
        w = 7850e-9 * 9806.65 * math.pi * 100.0 * 1e-3
        expected = 264.777 * 1e9 / (3 * 210e3 * I) + w * 1e12 / (8 * 210e3 * I)
        moved = np.linalg.norm(out[-1] - model.coords_array()[-1])
        assert moved == pytest.approx(expected, rel=1e-3)
        assert moved == pytest.approx(55.3, abs=0.1)

    def test_nonfinite_scale_rejected(self):
        model = fp.gen_cantilever()
        results = solve(model)
        with pytest.raises(ValueError):
            deformed_geometry(model, results.displacements, math.inf)


class TestHomogeneity:
    def test_load_scaling_scales_ratio(self):
        base = fp.gen_cantilever()
        base.self_weight_enabled = False
        u0 = solve(base).max_u_el
        for alpha in (0.5, 2.0, 4.0):
            model = fp.gen_cantilever(fp.CantileverSpec(tip_force=264.777 * alpha))
            model.self_weight_enabled = False
            assert solve(model).max_u_el == pytest.approx(alpha * u0, rel=1e-12)

    def test_rigid_translation_of_geometry_leaves_ratio(self):
        base = fp.gen_cantilever()
        moved = base.copy()
        for p in moved.points:
            p.coords += np.array([1234.0, -567.0, 89.0])
        assert solve(moved).max_u_el == pytest.approx(solve(base).max_u_el, rel=1e-9)
