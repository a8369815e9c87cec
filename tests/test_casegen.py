import hashlib

import numpy as np
import pytest

import formpipe as fp
from formpipe.casegen import _face_pairs, _largest_component, _peel_stable_body
from formpipe.model import Circle, validate

from conftest import assert_models_equal


def solve(model, method="direct"):
    system, dm = fp.assemble(model)
    u, _ = fp.solve_pcg_ichol(system) if method == "pcg" else fp.solve_direct(system)
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
        a, b = model.points.positions(model.cells.ends[0])
        length = np.linalg.norm(model.points.coords[a] - model.points.coords[b])
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

    def test_non_positive_ball_diameter_rejected(self):
        with pytest.raises(ValueError, match="^ball diameter must be positive$"):
            fp.LatticeSpec(ball_diameter=0.0)

    def test_two_dimensional_occupancy_rejected(self):
        spec = fp.LatticeSpec(occupancy=np.ones((3, 3), dtype=bool))
        with pytest.raises(ValueError, match=r"^occupancy must be a 3-D boolean array, "
                                             r"got 2 dimension\(s\)$"):
            fp.gen_sphere_lattice(spec)

    def test_generated_models_validate(self):
        for model in (
            fp.gen_sphere_lattice(fp.LatticeSpec(nx=4, ny=2, nz=3)),
            fp.gen_sphere_lattice(
                fp.LatticeSpec(occupancy=fp.arch_occupancy(18, 3, 9), splash_fraction=0.02)
            ),
        ):
            assert validate(model).ok


@pytest.mark.parametrize("shape, thickness, digest", [
    ((80, 8, 40), 3.5, "08c82a0d19751ade83892836e1d8042a0b8b80ac067887efd1c5b5ddc93adaad"),
    ((50, 5, 24), 3.5, "ca283cdfc3b2530f527711c5aa65a3694c3b7d7baa11b22d7b2d5abe6a3ebd0c"),
    ((20, 20, 20), None, "3113dc92132dd024304c2baf717f1eebf902287bfcb84dfceec4ac3ed0656afd"),
], ids=["arch-80x8x40", "arch-50x5x24", "block-20"])
def test_benchmark_lattices_are_pinned(shape, thickness, digest):
    """The benchmark's input models, as ``gen lattice`` writes them at seed 0:
    a generator or writer change that moves them fails here."""
    occupancy = None if thickness is None else fp.arch_occupancy(*shape, thickness=thickness)
    nx, ny, nz = shape
    spec = fp.LatticeSpec(occupancy=occupancy, nx=nx, ny=ny, nz=nz, splash_fraction=0.01, seed=0)
    text = fp.write_model(fp.gen_sphere_lattice(spec))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def as_array(voxels):
    """The voxel set as the sorted (n, 3) int64 array the helpers take."""
    return np.array(sorted(voxels), dtype=np.int64).reshape(-1, 3)


def kept_voxels(helper, voxels, *args):
    """The voxels ``helper`` keeps of the voxel set, given with its face
    pairs; the pairs it hands back must be those of the kept voxels."""
    def pairs_of(order):
        return _face_pairs(order) if len(order) else np.empty((0, 2), dtype=np.intp)

    order = as_array(voxels)
    kept, pairs = helper(order, pairs_of(order), *args)
    assert np.array_equal(pairs, pairs_of(kept))
    return kept


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
        assert np.array_equal(kept_voxels(_largest_component, voxels), as_array(rod))
        assert rod == largest_component_oracle(voxels)
        assert np.array_equal(kept_voxels(_largest_component, ell | diagonal), as_array(ell))
        assert np.array_equal(kept_voxels(_largest_component, set()), as_array(set()))

    def test_matches_bfs_oracle_on_random_voxel_sets(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            extent = int(rng.integers(1, 6))
            voxels = {
                tuple(int(v) for v in rng.integers(-extent, extent, size=3))
                for _ in range(int(rng.integers(1, 40)))
            }
            assert np.array_equal(kept_voxels(_largest_component, voxels),
                                  as_array(largest_component_oracle(voxels)))


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
        assert np.array_equal(kept_voxels(_peel_stable_body, voxels, k_base),
                              as_array(peel_stable_body_oracle(voxels, k_base)))
