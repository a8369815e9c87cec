"""Acceptance gate: every shipped criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to watch them stream)."""

import math
import time

import numpy as np
import pytest

import formpipe as fp
from formpipe.cli import run_solve_pipeline
from formpipe.topology import TopologyError

from conftest import assert_models_equal, random_model
from test_topology import bfs_components_oracle, merge_oracle, prune_oracle

D20_I = math.pi * 20.0**4 / 64.0
D20_A = math.pi * 100.0
W_SELF = 7850e-9 * 9806.65 * D20_A * 1e-3  # N/mm


def _report(number, label):
    print(f"ACCEPTANCE {number}: PASS - {label}")


def solve(model, method="direct"):
    return run_solve_pipeline(model, solver="pcg" if method == "pcg" else "direct")


def test_acceptance_1_cantilever_resistance_ratio():
    fp.assemble(fp.gen_cantilever())  # warm the solver path before timing
    t0 = time.perf_counter()
    results, _ = solve(fp.gen_cantilever())
    elapsed = time.perf_counter() - t0
    # hand reconstruction: M = F*L + w*L^2/2, sigma = M/W, u = sigma/Ry
    M = 264.777 * 1000.0 + W_SELF * 1000.0**2 / 2.0
    sigma = M / (math.pi * 20.0**3 / 32.0)
    assert M == pytest.approx(276_870.0, rel=1e-4)
    assert sigma / 300.0 == pytest.approx(1.175, abs=0.001)
    assert results.max_u_el == pytest.approx(1.175, abs=0.005)
    assert elapsed < 0.1
    _report(1, f"max u_el {results.max_u_el:.4f} = 1.175 +/- 0.005 in {elapsed * 1e3:.1f} ms")


def test_acceptance_2_cantilever_deflection():
    t0 = time.perf_counter()
    point_term = 264.777 * 1000.0**3 / (3.0 * 210e3 * D20_I)
    weight_term = W_SELF * 1000.0**4 / (8.0 * 210e3 * D20_I)
    assert point_term == pytest.approx(53.51, abs=0.01)
    assert weight_term == pytest.approx(1.83, abs=0.01)

    one = fp.gen_cantilever()
    one.self_weight_enabled = False
    results, _ = solve(one)
    assert abs(results.displacements[-1, 2]) == pytest.approx(point_term, rel=1e-3)

    eight = fp.gen_cantilever(fp.CantileverSpec(n_elements=8))
    results, _ = solve(eight)
    total = point_term + weight_term
    assert abs(results.displacements[-1, 2]) == pytest.approx(total, rel=1e-3)
    assert total == pytest.approx(55.3, abs=0.1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.1
    _report(2, f"tip deflection {total:.2f} mm within 0.1% in {elapsed * 1e3:.1f} ms")


def test_acceptance_3_exchange_round_trip(reference_cantilever_text):
    t0 = time.perf_counter()
    reference = fp.parse_model(reference_cantilever_text)
    text = fp.write_model(reference)
    assert_models_equal(reference, fp.parse_model(text))
    assert fp.write_model(fp.parse_model(text)) == text

    rng = np.random.default_rng(2024)
    for _ in range(500):
        model = random_model(rng, n_points=int(rng.integers(2, 30)), with_extras=True)
        text = fp.write_model(model)
        again = fp.parse_model(text)
        assert_models_equal(model, again)
        assert fp.write_model(again) == text
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(3, f"reference fixture + 500 random models round-trip in {elapsed:.2f} s")


def test_acceptance_4_repair_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    sizes = [int(s) for s in np.exp(rng.uniform(np.log(10), np.log(400), 198))]
    sizes += [1200, 2000]
    assert len(sizes) == 200 and max(sizes) <= 2000
    for i, n in enumerate(sizes):
        model = random_model(rng, n_points=n, span=float(n) ** (1 / 3) * 4.0)
        tol = float(rng.uniform(0.0, 2.0))
        coords = model.coords_array()

        expected_merge = merge_oracle(coords, tol)
        bc_sets = {}
        for m, s in expected_merge.items():
            bc_sets.setdefault(s, set()).add(model.points[m].bc_id)
        if any(len(group - {0}) > 1 for group in bc_sets.values()):
            with pytest.raises(TopologyError):
                fp.merge_duplicate_nodes(model.copy(), tol=tol)
            continue
        merged, _ = fp.merge_duplicate_nodes(model, tol=tol)
        assert [p.id for p in merged.points] == sorted(set(expected_merge.values()))

        comps = bfs_components_oracle(merged)
        counted = []
        for comp in comps:
            n_cells = sum(1 for c in merged.cells if c.connectivity[0] in comp)
            counted.append((n_cells, -min(comp), comp))
        expect_keep = max(counted)[2]
        detached, _ = fp.remove_detached_components(merged)
        assert {p.id for p in detached.points} == expect_keep

        protected = {
            p.id for p in detached.points if p.bc_id or p.constraint_mask.any()
        }
        expected_prune = prune_oracle(detached, 2, protected)
        if not expected_prune:
            with pytest.raises(TopologyError):
                fp.prune_dead_arms(detached, max_degree=2)
            continue
        pruned, _ = fp.prune_dead_arms(detached, max_degree=2)
        assert {p.id for p in pruned.points} == expected_prune
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(4, f"merge/detach/prune == oracles on 200 models in {elapsed:.2f} s")


def _solver_test_models():
    models = [
        fp.gen_cantilever(),
        fp.gen_cantilever(fp.CantileverSpec(n_elements=8, diameter=40.0)),
        fp.gen_leonardo(fp.LeonardoSpec(variant="open")),
        fp.gen_leonardo(fp.LeonardoSpec(variant="closed")),
        fp.gen_leonardo(fp.LeonardoSpec(variant="closed_mobile")),
        fp.gen_sphere_lattice(fp.LatticeSpec(nx=4, ny=3, nz=3)),
        fp.gen_sphere_lattice(
            fp.LatticeSpec(occupancy=fp.arch_occupancy(20, 3, 10), splash_fraction=0.0)
        ),
    ]
    eccentric = fp.gen_cantilever()
    eccentric.points.append(fp.Point(id=2, coords=(1000.0, 50.0, 0.0)))
    eccentric.points[1].bc_id = 0
    eccentric.points[2].bc_id = 1
    fp.make_rigid_link(eccentric, master=1, slave=2)
    models.append(eccentric)
    return models


def test_acceptance_5_solver_equivalence():
    t0 = time.perf_counter()
    for model in _solver_test_models():
        system, _ = fp.assemble(model)
        u_direct, _ = fp.solve_direct(system)
        u_pcg, stats = fp.solve_pcg_ichol(system, tol=1e-10)
        diff = np.linalg.norm(u_pcg - u_direct) / np.linalg.norm(u_direct)
        assert diff <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(5, f"PCG(IC0) == direct within 1e-8 on 8 models in {elapsed:.2f} s")


def test_acceptance_6_lattice_repair_and_conditioning():
    t0 = time.perf_counter()
    occ = fp.arch_occupancy(50, 5, 24, thickness=3.5)
    kw = dict(occupancy=occ, splash_fraction=0.01, seed=0)
    dirty = fp.gen_sphere_lattice(fp.LatticeSpec(**kw))
    n_dof = 6 * len(dirty.points)
    assert 5_000 <= n_dof <= 20_000

    n_total = len(dirty.cells)
    body = fp.gen_sphere_lattice(fp.LatticeSpec(occupancy=occ, splash_fraction=1e-12, seed=0))
    injected_fraction = (n_total - len(body.cells)) / n_total

    model = dirty.copy()
    model, _ = fp.merge_duplicate_nodes(model, tol=1e-6)
    model, _ = fp.remove_degenerate_cells(model, tol=1e-6)
    model, _ = fp.remove_detached_components(model)
    system_before, _ = fp.assemble(model)
    _, stats_before = fp.solve_pcg_ichol(system_before, tol=1e-10)

    model, _ = fp.prune_dead_arms(model, max_degree=2)
    removed_fraction = (n_total - len(model.cells)) / n_total
    assert removed_fraction == pytest.approx(injected_fraction, abs=0.005)

    system_after, _ = fp.assemble(model)
    _, stats_after = fp.solve_pcg_ichol(system_after, tol=1e-10)
    assert stats_after.iterations < stats_before.iterations

    from test_topology import bfs_components_oracle as components

    assert len(components(model)) == 1
    assert fp.check_support_reachability(model) == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(
        6,
        f"{n_dof} DOF lattice: fraction {removed_fraction:.4f} vs {injected_fraction:.4f}, "
        f"PCG {stats_before.iterations} -> {stats_after.iterations} iters in {elapsed:.1f} s",
    )


def test_acceptance_7_leonardo_ordinal_properties():
    t0 = time.perf_counter()
    results = {}
    for variant in ("open", "closed", "closed_mobile"):
        model = fp.gen_leonardo(fp.LeonardoSpec(variant=variant))
        res, _ = solve(model)
        results[variant] = (model, res)
        # global equilibrium in every variant
        coords = model.coords_array()
        applied = res.applied_loads
        reactions = res.reactions
        force_residual = reactions[:, :3].sum(axis=0) + applied[:, :3].sum(axis=0)
        scale = np.abs(applied[:, :3]).sum()
        assert np.abs(force_residual).max() <= 1e-8 * scale
        moment = np.zeros(3)
        for arr in (reactions, applied):
            moment += arr[:, 3:].sum(axis=0) + np.cross(coords, arr[:, :3]).sum(axis=0)
        mscale = np.abs(np.cross(coords, applied[:, :3])).sum()
        assert np.abs(moment).max() <= 1e-8 * mscale

    open_disp = results["open"][1].max_total_displacement
    closed_disp = results["closed"][1].max_total_displacement
    assert open_disp > closed_disp

    mobile_model, mobile_res = results["closed_mobile"]
    released = len(mobile_model.points) - 1
    loads_norm = np.abs(mobile_res.applied_loads).sum()
    assert abs(mobile_res.reactions[released, 0]) <= 1e-8 * loads_norm
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(
        7,
        f"open {open_disp:.1f} mm > closed {closed_disp:.1f} mm, released support "
        f"thrust-free, equilibrium 1e-8 in {elapsed:.2f} s",
    )


def test_acceptance_8_mechanics_invariants():
    t0 = time.perf_counter()
    # stiffness symmetry on all solver test models
    for model in _solver_test_models():
        system, _ = fp.assemble(model)
        assert abs(system.K - system.K.T).max() <= 1e-12 * abs(system.K).max()

    # six near-zero eigenvalues of an unconstrained connected frame (<= 50 DOF)
    frame = fp.StructuralModel(self_weight_enabled=False)
    coords = [(0, 0, 0), (1000, 0, 0), (1000, 800, 0), (1000, 800, 600)]
    for i, xyz in enumerate(coords):
        frame.points.append(fp.Point(id=i, coords=xyz))
    for i in range(3):
        frame.cells.append(fp.Cell(id=i, connectivity=(i, i + 1), cs_id=1, mat_id=1))
    frame.cross_sections[1] = fp.CrossSection(id=1, shape=fp.Circle(diameter=40.0))
    frame.materials[1] = fp.Material(id=1, E=210e3, nu=0.2)
    system, dm = fp.assemble(frame, check_supports=False)
    assert dm.n_eq <= 50
    eigs = np.abs(np.linalg.eigvalsh(system.K.toarray()))
    assert np.sum(eigs <= 1e-9 * eigs.max()) == 6

    # load linearity, exact to 1e-12 relative
    base = fp.gen_cantilever(fp.CantileverSpec(n_elements=4))
    base.self_weight_enabled = False
    res0, _ = solve(base)
    for alpha in (0.5, 2.0, -1.0):
        scaled = base.copy()
        scaled.bcs[1].components = alpha * scaled.bcs[1].components
        res, _ = solve(scaled)
        assert np.allclose(res.displacements, alpha * res0.displacements, rtol=1e-12, atol=0.0)
        assert np.allclose(res.end_forces, alpha * res0.end_forces, rtol=1e-12, atol=1e-280)

    # reactions balance applied loads
    for model in (fp.gen_cantilever(fp.CantileverSpec(n_elements=4)), fp.gen_leonardo()):
        res, _ = solve(model)
        residual = res.reactions[:, :3].sum(axis=0) + res.applied_loads[:, :3].sum(axis=0)
        scale = np.abs(res.applied_loads[:, :3]).sum()
        assert np.abs(residual).max() <= 1e-8 * scale
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(8, f"symmetry, rigid modes, linearity, equilibrium in {elapsed:.2f} s")


def test_acceptance_9_classification_rule():
    t0 = time.perf_counter()
    assert fp.classify(1.175) == "exceeded"
    assert fp.classify(0.45) == "ok"
    assert fp.classify(1.0) == "ok"
    elapsed = time.perf_counter() - t0
    _report(9, f"1.175 exceeded / 0.45 ok / 1.0 ok (strict) in {elapsed * 1e3:.2f} ms")
