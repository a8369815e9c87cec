import numpy as np
import pytest

import formpipe as fp
from formpipe.casegen import _largest_component, _peel_stable_body
from formpipe.model import Circle, validate

from conftest import assert_models_equal


def solve(model, method="direct"):
    system, dm = fp.assemble(model)
    u, _ = fp.solve_system(system, method=method)
    disp = fp.expand_displacements(dm, u)
    forces = fp.recover_end_forces(model, disp)
    reactions = fp.reaction_forces(system, u)
    return fp.build_result_set(model, disp, forces, reactions, system.applied_loads)


class TestCantileverGenerator:
    def test_matches_reference_fixture_geometry(self, reference_cantilever_text):
        """Same geometry, supports and catalogs as the reference document;
        the load acts vertically here instead of along the axis."""
        generated = fp.gen_cantilever()
        reference = fp.parse_model(reference_cantilever_text)
        assert len(generated.points) == len(reference.points)
        for pg, pr in zip(generated.points, reference.points):
            assert np.array_equal(pg.coords, pr.coords)
            assert np.array_equal(pg.constraint_mask, pr.constraint_mask)
            assert pg.bc_id == pr.bc_id
        cg, cr = generated.cells[0], reference.cells[0]
        assert (cg.connectivity, cg.cs_id, cg.mat_id) == (cr.connectivity, cr.cs_id, cr.mat_id)
        shape_g = generated.cross_sections[2].shape
        shape_r = reference.cross_sections[2].shape
        assert isinstance(shape_g, Circle) and shape_g == shape_r
        mg, mr = generated.materials[1], reference.materials[1]
        assert (mg.E, mg.nu, mg.tAlpha, mg.density) == (mr.E, mr.nu, mr.tAlpha, mr.density)
        assert np.linalg.norm(generated.bcs[1].components) == pytest.approx(
            np.linalg.norm(reference.bcs[1].components)
        )
        assert generated.bcs[1].components[2] == -264.777

    def test_refined_mesh_matches_single_element_at_shared_nodes(self):
        coarse = fp.gen_cantilever()
        coarse.self_weight_enabled = False
        fine = fp.gen_cantilever(fp.CantileverSpec(n_elements=8))
        fine.self_weight_enabled = False
        disp_c = solve(coarse).displacements
        disp_f = solve(fine).displacements
        assert np.allclose(disp_f[-1], disp_c[-1], rtol=1e-9, atol=1e-12)

    def test_zero_force_without_self_weight_is_at_rest(self):
        model = fp.gen_cantilever(fp.CantileverSpec(tip_force=0.0))
        model.self_weight_enabled = False
        results = solve(model)
        assert np.abs(results.displacements).max() == 0.0

    def test_validates(self):
        report = validate(fp.gen_cantilever(fp.CantileverSpec(n_elements=5)))
        assert report.ok and not report.warnings


class TestLeonardoGenerator:
    def test_symmetric_minimal_arch(self):
        model = fp.gen_leonardo(fp.LeonardoSpec(n_segments=3))
        results = solve(model)
        disp = results.displacements
        n = len(model.points)
        coords = model.coords_array()
        for j in range(n):
            mirror = n - 1 - j
            assert coords[j, 2] == coords[mirror, 2]
            # vertical displacements mirror, horizontal ones flip sign
            assert disp[j, 2] == pytest.approx(disp[mirror, 2], rel=1e-8, abs=1e-12)
            assert disp[j, 0] == pytest.approx(-disp[mirror, 0], rel=1e-8, abs=1e-12)

    def test_open_variant_is_softer_than_closed(self):
        open_arch = solve(fp.gen_leonardo(fp.LeonardoSpec(variant="open")))
        closed_arch = solve(fp.gen_leonardo(fp.LeonardoSpec(variant="closed")))
        assert open_arch.max_total_displacement > closed_arch.max_total_displacement

    def test_released_support_carries_no_horizontal_reaction(self):
        model = fp.gen_leonardo(fp.LeonardoSpec(variant="closed_mobile"))
        results = solve(model)
        released = len(model.points) - 1
        loads_norm = np.abs(results.applied_loads).sum()
        assert abs(results.reactions[released, 0]) <= 1e-8 * loads_norm
        # the closed variant does carry horizontal thrust there
        closed = solve(fp.gen_leonardo(fp.LeonardoSpec(variant="closed")))
        assert abs(closed.reactions[released, 0]) > 1e-3 * loads_norm

    def test_all_variants_validate(self):
        for variant in ("open", "closed", "closed_mobile"):
            model = fp.gen_leonardo(fp.LeonardoSpec(variant=variant))
            report = validate(model)
            assert report.ok

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            fp.LeonardoSpec(n_segments=2)
        with pytest.raises(ValueError):
            fp.LeonardoSpec(variant="bogus")


@pytest.mark.parametrize(
    "make",
    [
        lambda: fp.CantileverSpec(diameter=float("inf")),
        lambda: fp.CantileverSpec(length=float("nan")),
        lambda: fp.CantileverSpec(tip_force=float("nan")),
        lambda: fp.LeonardoSpec(span=float("inf")),
        lambda: fp.LeonardoSpec(snow_load=float("nan")),
        lambda: fp.LeonardoSpec(row_offset=float("inf")),
        lambda: fp.LatticeSpec(ball_diameter=float("inf")),
        lambda: fp.LatticeSpec(E=float("nan")),
        lambda: fp.LatticeSpec(density=float("inf")),
    ],
)
def test_non_finite_spec_values_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make()


class TestLatticeGenerator:
    def test_two_voxel_lattice(self):
        model = fp.gen_sphere_lattice(fp.LatticeSpec(nx=2, ny=1, nz=1))
        assert len(model.points) == 2
        assert len(model.cells) == 1
        a, b = model.cells[0].connectivity
        by_id = model.point_by_id()
        length = np.linalg.norm(by_id[a].coords - by_id[b].coords)
        assert length == pytest.approx(47.0)

    def test_full_block_counts(self):
        model = fp.gen_sphere_lattice(fp.LatticeSpec(nx=5, ny=5, nz=5))
        assert len(model.points) == 125
        assert len(model.cells) == 3 * 5 * 5 * 4  # n*n*(n-1) per axis

    def test_base_plane_supported(self):
        model = fp.gen_sphere_lattice(fp.LatticeSpec(nx=3, ny=3, nz=3))
        for p in model.points:
            if p.coords[2] == 0.0:
                assert p.constraint_mask.all()
            else:
                assert not p.constraint_mask.any()

    def test_deterministic_given_seed(self):
        spec = fp.LatticeSpec(
            occupancy=fp.arch_occupancy(20, 3, 10), splash_fraction=0.02, seed=9
        )
        assert_models_equal(fp.gen_sphere_lattice(spec), fp.gen_sphere_lattice(spec))

    def test_injected_fraction_recovered_by_repair(self):
        occ = fp.arch_occupancy(24, 3, 12, thickness=3.0)
        dirty = fp.gen_sphere_lattice(
            fp.LatticeSpec(occupancy=occ, splash_fraction=0.03, seed=4)
        )
        n_total = len(dirty.cells)
        model = dirty.copy()
        model, _ = fp.merge_duplicate_nodes(model)
        model, _ = fp.remove_degenerate_cells(model)
        model, _ = fp.remove_detached_components(model)
        model, _ = fp.prune_dead_arms(model, max_degree=2)
        removed = (n_total - len(model.cells)) / n_total
        # ground truth: the clean body is what the same spec generates junk-free
        clean = fp.gen_sphere_lattice(
            fp.LatticeSpec(occupancy=occ, splash_fraction=1e-9, seed=4)
        )
        injected = (n_total - len(clean.cells)) / n_total
        assert removed == pytest.approx(injected, abs=0.005)
        assert validate(model).ok

    def test_splash_fraction_bounds(self):
        with pytest.raises(ValueError):
            fp.LatticeSpec(splash_fraction=0.2)

    def test_generated_models_validate(self):
        for model in (
            fp.gen_sphere_lattice(fp.LatticeSpec(nx=4, ny=2, nz=3)),
            fp.gen_sphere_lattice(
                fp.LatticeSpec(occupancy=fp.arch_occupancy(18, 3, 9), splash_fraction=0.02)
            ),
        ):
            assert validate(model).ok


def largest_component_oracle(voxels):
    """Breadth-first search from each unseen voxel in sorted order; a later
    component replaces the best only when strictly larger."""
    best, seen = set(), set()
    for start in sorted(voxels):
        if start in seen:
            continue
        comp, frontier = {start}, [start]
        seen.add(start)
        while frontier:
            i, j, k = frontier.pop()
            for nb in ((i + 1, j, k), (i - 1, j, k), (i, j + 1, k), (i, j - 1, k),
                       (i, j, k + 1), (i, j, k - 1)):
                if nb in voxels and nb not in seen:
                    seen.add(nb)
                    comp.add(nb)
                    frontier.append(nb)
        if len(comp) > len(best):
            best = comp
    return best


class TestLargestComponent:
    def test_tie_goes_to_the_component_with_the_smallest_voxel(self):
        rod = {(0, 0, 5), (0, 0, 6), (0, 0, 7)}
        ell = {(3, 0, 0), (4, 0, 0), (4, 1, 0)}
        diagonal = {(9, 9, 9), (10, 10, 10), (11, 11, 11)}  # edge-only contacts: 3 singletons
        voxels = rod | ell | diagonal
        assert _largest_component(voxels) == rod == largest_component_oracle(voxels)
        assert _largest_component(ell | diagonal) == ell
        assert _largest_component(set()) == set()

    def test_matches_bfs_oracle_on_random_voxel_sets(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            extent = int(rng.integers(1, 6))
            voxels = {
                tuple(int(v) for v in rng.integers(-extent, extent, size=3))
                for _ in range(int(rng.integers(1, 40)))
            }
            assert _largest_component(voxels) == largest_component_oracle(voxels)


def peel_stable_body_oracle(voxels, k_base, max_degree=2):
    """Sweep the voxels in sorted order, dropping any off the base plane with
    at most ``max_degree`` face neighbours, until a sweep changes nothing."""
    body = set(voxels)
    changed = True
    while changed:
        changed = False
        for i, j, k in sorted(body):
            if k == k_base:
                continue
            steps = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
            if sum((i + a, j + b, k + c) in body for a, b, c in steps) <= max_degree:
                body.discard((i, j, k))
                changed = True
    return body


def test_peel_stable_body_matches_sweep_oracle():
    rng = np.random.default_rng(8)
    for _ in range(200):
        voxels = set(map(tuple, rng.integers(0, 5, size=(int(rng.integers(1, 90)), 3)).tolist()))
        k_base = min(v[2] for v in voxels)
        assert _peel_stable_body(voxels, k_base) == peel_stable_body_oracle(voxels, k_base)
