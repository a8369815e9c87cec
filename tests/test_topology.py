"""Repair-suite tests, each hard operation checked against a brute-force
oracle: pairwise union-find for merging, BFS labelling for detached
components, one-at-a-time degree recomputation for arm pruning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

import formpipe as fp
from formpipe.model import (
    BEAM_LINE,
    DOF_NAMES,
    TRUSS_LINE,
    BoundaryConditionEntry,
    Cell,
    CellTable,
    Circle,
    CrossSection,
    Material,
    Point,
    PointTable,
    Rectangle,
    RigidLink,
    StructuralModel,
    orientation_points,
    validate,
)
from formpipe import exchange, topology
from formpipe.topology import (
    RepairReport,
    TopologyError,
    _clusters,
    _component_labels,
    check_support_reachability,
    make_rigid_link,
    merge_duplicate_nodes,
    prune_dead_arms,
    remove_degenerate_cells,
    remove_detached_components,
    unsupported_components,
)

from conftest import (collinear_trusses, line_pinned_lattice, random_model, soup_document,
                      traced_peak)


def _close_pairs(coords, tol):
    """The sweep's clusters as (k, 2) pairs (lowest, i) that join each point
    i to the lowest index of its cluster: a spanning forest, so k < n."""
    parent = _clusters(coords, tol)
    joined = np.flatnonzero(parent != np.arange(len(parent)))
    return np.stack([parent[joined], joined], axis=1)


def simple_model(coords, cells, masks=None, bc_points=()):
    model = StructuralModel()
    for i, xyz in enumerate(coords):
        model.points.append(Point(id=i, coords=xyz))
    if masks:
        for pid, mask in masks.items():
            model.points[pid].constraint_mask[:] = mask
    for i, (a, b) in enumerate(cells):
        model.cells.append(Cell(id=i, connectivity=(a, b), cs_id=1, mat_id=1))
    model.cross_sections[1] = CrossSection(id=1, shape=Circle(diameter=20.0))
    model.materials[1] = Material(id=1, E=210e3, nu=0.2)
    if bc_points:
        model.bcs[1] = BoundaryConditionEntry(id=1, components=(0, 0, -1e3, 0, 0, 0))
        for pid in bc_points:
            model.points[pid].bc_id = 1
    return model


# ---------------------------------------------------------------- merging


def merge_oracle(coords, tol):
    """Brute force union-find over all pairs within tol; returns survivor
    index per point (lowest index of its cluster)."""
    n = len(coords)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        # all pairs still, one row of distances at a time
        near = np.flatnonzero(np.linalg.norm(coords[i + 1 :] - coords[i], axis=1) <= tol)
        for j in (near + i + 1).tolist():
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri
    clusters = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)
    survivor = {}
    for members in clusters.values():
        low = min(members)
        for m in members:
            survivor[m] = low
    return survivor


class TestMergeDuplicateNodes:
    def test_merge_that_supports_a_slave_refused(self):
        # the supported point 3 lies on the slave 2, and masks OR-combine
        model = simple_model([(0, 0, 0), (1000, 0, 0), (1000, 50, 0), (1000, 50, 1e-9)],
                             [(0, 1)], masks={0: [True] * 6, 3: [True] + [False] * 5})
        make_rigid_link(model, master=1, slave=2)
        with pytest.raises(TopologyError,
                           match="^rigid link slave 2 may not carry support constraints$"):
            merge_duplicate_nodes(model)

    def test_section_aim_follows_its_survivor(self):
        model = simple_model([(0, 0, 0), (1000, 0, 0), (0, 0, 500), (0, 0, 500)], [(0, 1)],
                             masks={0: [True] * 6})
        model.cross_sections[1] = CrossSection(id=1, shape=Rectangle(20.0, 30.0, "z", 3))
        model, report = merge_duplicate_nodes(model)
        assert report.merged_point_pairs.tolist() == [[2, 3]]
        assert model.cross_sections[1].shape == Rectangle(20.0, 30.0, "z", 2)

    def test_basic_merge(self):
        model = simple_model(
            [(0, 0, 0), (0, 0, 1e-9), (1000, 0, 0)], [(1, 2)], masks={0: [True] * 6}
        )
        model, report = merge_duplicate_nodes(model, tol=1e-6)
        assert report.merged_point_pairs.tolist() == [[0, 1]]
        assert [p.id for p in model.points] == [0, 2]
        assert model.cells[0].connectivity == (0, 2)
        # constraint masks OR-combine onto the survivor
        assert model.points[0].constraint_mask.all()

    def test_conflicting_loads_error(self):
        model = simple_model([(0, 0, 0), (0, 0, 0), (9, 9, 9)], [(0, 2), (1, 2)])
        model.bcs[1] = BoundaryConditionEntry(id=1, components=np.ones(6))
        model.bcs[2] = BoundaryConditionEntry(id=2, components=2 * np.ones(6))
        model.points[0].bc_id = 1
        model.points[1].bc_id = 2
        with pytest.raises(TopologyError, match="conflicting"):
            merge_duplicate_nodes(model, tol=1e-6)

    def test_links_follow_the_survivors(self):
        # 1 merges into 0: link 1->2 becomes 0->2, link 0->1 collapses and goes
        model = simple_model([(0, 0, 0), (0, 0, 0), (9, 0, 0), (9, 9, 0)], [(0, 2), (2, 3)])
        make_rigid_link(model, master=1, slave=2)
        model.rigid_links.append(RigidLink(master=0, slave=1))
        model, _ = merge_duplicate_nodes(model, tol=1e-6)
        assert [(l.master, l.slave) for l in model.rigid_links] == [(0, 2)]

    def test_merge_that_chains_links_raises(self):
        # 1 and 2 merge: links 0->1 and 2->3 would make point 1 master and slave
        model = simple_model([(0, 0, 0), (9, 0, 0), (9, 0, 0), (9, 9, 0)], [(0, 1), (2, 3)])
        make_rigid_link(model, master=0, slave=1)
        make_rigid_link(model, master=2, slave=3)
        with pytest.raises(TopologyError, match="point 1 is both master and slave"):
            merge_duplicate_nodes(model, tol=1e-6)
        assert len(model.points) == 4  # refused before any change

    def test_compatible_loads_keep_the_nonzero_one(self):
        model = simple_model([(0, 0, 0), (0, 0, 0), (9, 9, 9)], [(0, 2), (1, 2)],
                             bc_points=(1,))
        model, _ = merge_duplicate_nodes(model, tol=1e-6)
        assert model.points[0].bc_id == 1

    def test_survivors_separated_by_tol(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, n_points=60, span=5.0)
        tol = 0.8
        model, _ = merge_duplicate_nodes(model, tol=tol)
        coords = model.coords_array()
        for i in range(len(coords)):
            d = np.linalg.norm(coords[i + 1 :] - coords[i], axis=1)
            assert (d > tol).all()

    @given(seed=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=30, deadline=None)
    def test_matches_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 120))
        span = float(rng.uniform(1.0, 50.0))
        tol = float(rng.uniform(0.0, 5.0))
        model = random_model(rng, n_points=n, span=span)
        coords = model.coords_array()
        expected = merge_oracle(coords, tol)
        clusters = {}
        for member, survivor in expected.items():
            clusters.setdefault(survivor, set()).add(member)
        conflict = any(
            len({model.points[m].bc_id for m in members} - {0}) > 1
            for members in clusters.values()
        )
        if conflict:
            with pytest.raises(TopologyError, match="conflicting"):
                merge_duplicate_nodes(model, tol=tol)
            return
        expected_survivors = sorted(set(expected.values()))
        merged, report = merge_duplicate_nodes(model, tol=tol)
        assert [p.id for p in merged.points] == expected_survivors
        for survivor, removed in report.merged_point_pairs.tolist():
            assert expected[removed] == survivor

    def test_zero_tolerance_merges_exact_coincidence_only(self):
        # coincident junction nodes collapse, nearby ones stay
        model = simple_model(
            [(0, 0, 0), (0, 0, 0), (0, 0, 1e-12), (9, 0, 0)], [(0, 3), (1, 3), (2, 3)]
        )
        model, report = merge_duplicate_nodes(model, tol=0.0)
        assert report.merged_point_pairs.tolist() == [[0, 1]]
        assert [p.id for p in model.points] == [0, 2, 3]

    # sort-and-sweep edge cases: the sweep projects on (1, sqrt 2, sqrt 3)/sqrt 6
    AXIS = np.array([1.0, np.sqrt(2.0), np.sqrt(3.0)]) / np.sqrt(6.0)

    def assert_matches_oracle(self, coords, tol):
        coords = np.asarray(coords, dtype=float)
        expected = merge_oracle(coords, tol)
        model = simple_model(coords, [])
        merged, report = merge_duplicate_nodes(model, tol=tol)
        assert [p.id for p in merged.points] == sorted(set(expected.values()))
        assert report.merged_point_pairs.tolist() == sorted(
            [survivor, member] for member, survivor in expected.items() if member != survivor
        )
        return report

    def plane_normal_to_axis(self, rng, n, span):
        basis = np.linalg.svd(self.AXIS[None, :])[2][1:]  # two unit vectors normal to it
        return 5.0 * self.AXIS + rng.uniform(-span, span, size=(n, 2)) @ basis

    def test_points_on_a_plane_normal_to_the_sweep_axis(self):
        # every projection ties, so each window holds the whole model
        rng = np.random.default_rng(7)
        coords = self.plane_normal_to_axis(rng, 150, 4.0)
        proj = coords @ self.AXIS
        assert np.ptp(proj) < 1e-12
        report = self.assert_matches_oracle(coords, 0.45)
        assert len(report.merged_point_pairs)

    def test_zero_tolerance_with_shared_projections(self):
        rng = np.random.default_rng(8)
        coords = self.plane_normal_to_axis(rng, 40, 3.0)
        coords = np.concatenate([coords, coords[rng.choice(40, size=12)]])
        coords = coords[rng.permutation(len(coords))]
        report = self.assert_matches_oracle(coords, 0.0)
        assert len(report.merged_point_pairs) == len(coords) - len(np.unique(coords, axis=0))

    def test_rounding_margin_near_1e6_mm(self):
        # pairs a hair under tol apart along the sweep axis, where the
        # projections round by a sizeable fraction of tol = 1e-9 mm
        rng = np.random.default_rng(9)
        tol = 1e-9
        base = 1.0e6 + 10.0 * np.arange(200)[:, None] + rng.uniform(0.0, 1.0, size=(200, 3))
        partner = base + self.AXIS * tol * rng.uniform(0.9, 1.0, size=(200, 1))
        coords = np.concatenate([base, partner])
        report = self.assert_matches_oracle(coords, tol)
        assert len(report.merged_point_pairs) > 100

    def test_non_finite_points_merge_with_nothing(self):
        coords = [(0, 0, 0), (np.nan, 0, 0), (0, 0, 1e-9), (np.inf, 0, 0), (np.inf, 0, 0)]
        with np.errstate(invalid="ignore"):  # inf - inf
            report = self.assert_matches_oracle(coords, 1e-6)
        assert report.merged_point_pairs.tolist() == [[0, 2]]

    def test_result_independent_of_point_ordering(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, n_points=40, span=4.0)
        shuffled = model.copy()
        order = rng.permutation(len(shuffled.points))
        shuffled.points = [shuffled.points[i] for i in order]
        merged_a, _ = merge_duplicate_nodes(model, tol=0.5)
        merged_b, _ = merge_duplicate_nodes(shuffled, tol=0.5)
        assert sorted(p.id for p in merged_a.points) == sorted(p.id for p in merged_b.points)

    def test_coincident_points_give_linearly_many_pairs(self):
        coords = np.tile([[120.0, -3.5, 7.25]], (2000, 1))
        pairs = _close_pairs(coords, 0.01)
        assert len(pairs) == 1999  # not 2000 * 1999 / 2
        model, report = merge_duplicate_nodes(simple_model(coords, []), tol=0.01)
        assert [p.id for p in model.points] == [0]
        assert report.merged_point_pairs.tolist() == [[0, i] for i in range(1, 2000)]

    def test_a_chain_along_the_sweep_merges_into_its_first_point(self):
        # 5,000 points along the sweep axis, each within tol of the next but
        # two: chunks hook long chains of roots, in order and shuffled
        axis = topology._SWEEP_AXIS
        coords = np.arange(5000)[:, None] * 0.4 * axis
        for order in (np.arange(5000), np.random.default_rng(6).permutation(5000)):
            parent = _clusters(coords[order], 1.0)
            assert parent.tolist() == [0] * 5000

    def test_exact_copies_stay_out_of_the_sweep(self, monkeypatch):
        # a point on the x axis and one on the y axis whose projections
        # round to the same value, and copies of each, interleaved: the two
        # runs of copies sort apart inside the tie, and only the two
        # distinct points reach the sweep's windows
        axis, x = topology._SWEEP_AXIS, np.sqrt(2.0)
        on_y = 0.0 * axis[0] + axis[1] + 0.0 * axis[2]
        for _ in range(8):
            if x * axis[0] + 0.0 * axis[1] + 0.0 * axis[2] == on_y:
                break
            x = np.nextafter(x, np.inf)
        else:
            pytest.fail("no equal projection near sqrt 2")
        a, b = (x, 0.0, 0.0), (0.0, 1.0, 0.0)
        coords = np.array([b, a, b, a, a, b])
        swept = []
        window = topology._window_pairs
        monkeypatch.setattr(topology, "_window_pairs", lambda coords, order, *rest: (
            swept.append(len(order)) or window(coords, order, *rest)))
        assert _close_pairs(coords, 0.0).tolist() == [[0, 2], [1, 3], [1, 4], [0, 5]]
        assert swept == [2]

    @pytest.mark.parametrize("seed", range(6))
    def test_duplicates_mixed_with_near_points(self, seed):
        # exact copies of some points, others moved by less than tol, and
        # copies of those: every kind of link the oracle sees
        rng = np.random.default_rng(seed)
        tol = 0.3
        base = rng.uniform(-4.0, 4.0, size=(60, 3))
        near = base[rng.choice(60, size=20)] + rng.uniform(-0.17, 0.17, size=(20, 3))
        coords = np.concatenate([base, near])
        coords = np.concatenate([coords, coords[rng.choice(len(coords), size=40)]])
        coords = coords[rng.permutation(len(coords))]
        assert len(np.unique(coords, axis=0)) < len(coords)
        self.assert_matches_oracle(coords, tol)
        self.assert_matches_oracle(coords, 0.0)


    @pytest.mark.parametrize("chunk", [1, 7, 1 << 14])
    def test_sweep_in_chunks_gives_the_same_pairs(self, monkeypatch, chunk):
        # 400 points in a 10 mm cube: about 40 close pairs
        coords = np.random.default_rng(3).uniform(0.0, 10.0, (400, 3))
        whole = _close_pairs(coords, 0.5)
        assert 0 < len(whole) <= 400
        monkeypatch.setattr(topology, "_CHUNK", chunk)
        assert np.array_equal(_close_pairs(coords, 0.5), whole)

    @pytest.mark.parametrize("chunk", [1, 50, 1 << 14])
    def test_many_close_pairs_keep_a_spanning_forest(self, monkeypatch, chunk):
        # a tight cluster of 150 points has 11,175 close pairs, of which the
        # sweep keeps a spanning forest; the clusters still match the oracle's
        monkeypatch.setattr(topology, "_CHUNK", chunk)
        rng = np.random.default_rng(4)
        coords = np.concatenate([rng.uniform(0.0, 0.1, (150, 3)), rng.uniform(5.0, 50.0, (60, 3))])
        coords = coords[rng.permutation(len(coords))]
        assert len(_close_pairs(coords, 0.2)) <= 210 - 1
        report = self.assert_matches_oracle(coords, 0.2)
        assert len(report.merged_point_pairs) >= 149

    def test_merged_pairs_are_an_int64_array(self):
        model = simple_model([(0, 0, 0), (0, 0, 0), (5, 0, 0)], [(0, 2), (1, 2)])
        model, report = merge_duplicate_nodes(model)
        assert report.merged_point_pairs.dtype == np.int64
        assert report.merged_point_pairs.tolist() == [[0, 1]]
        assert RepairReport().merged_point_pairs.shape == (0, 2)
        assert report != RepairReport() and RepairReport() == RepairReport()


# ------------------------------------------------------- degenerate removal


@pytest.mark.parametrize("repair", [merge_duplicate_nodes, remove_degenerate_cells])
@pytest.mark.parametrize("tol", [-1.0, math.inf, math.nan])
def test_tolerance_must_be_finite_and_non_negative(repair, tol):
    model = simple_model([(0, 0, 0), (5, 0, 0)], [(0, 1)])
    with pytest.raises(ValueError, match="must be finite and non-negative"):
        repair(model, tol=tol)


class TestRemoveDegenerateCells:
    def test_collapsed_cell_removed(self):
        model = simple_model([(0, 0, 0), (5, 0, 0)], [(0, 0), (0, 1)])
        model, report = remove_degenerate_cells(model, tol=1e-6)
        assert report.removed_degenerate_cells == [0]
        assert len(model.cells) == 1

    def test_duplicate_connectivity_reduced(self):
        model = simple_model([(0, 0, 0), (5, 0, 0)], [(0, 1), (1, 0)])
        model, report = remove_degenerate_cells(model, tol=1e-6)
        assert report.removed_duplicate_cells == [1]
        assert len(model.cells) == 1

    def test_post_merge_scan_is_exhaustive(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, n_points=80, span=3.0)
        tol = 0.4
        model, _ = merge_duplicate_nodes(model, tol=tol)
        model, _ = remove_degenerate_cells(model, tol=tol)
        index, coords = model.point_index(), model.points.coords
        seen = set()
        for c in model.cells:
            a, b = c.connectivity
            assert np.linalg.norm(coords[index[a]] - coords[index[b]]) > tol
            key = frozenset((a, b))
            assert key not in seen
            seen.add(key)


# ------------------------------------------------------ detached components


def bfs_components_oracle(model):
    adjacency = {p.id: set() for p in model.points}
    for c in model.cells:
        a, b = c.connectivity
        adjacency[a].add(b)
        adjacency[b].add(a)
    comps = []
    seen = set()
    for p in model.points:
        if p.id in seen:
            continue
        comp = set()
        frontier = [p.id]
        seen.add(p.id)
        while frontier:
            pid = frontier.pop()
            comp.add(pid)
            for nb in adjacency[pid]:
                if nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        comps.append(comp)
    return comps


def rotating_points(model):
    """The ids of the points whose rotations stiffness reaches: beam and
    rigid-link ends."""
    rotates = {pid for c in model.cells if c.kind == BEAM_LINE for pid in c.connectivity}
    return rotates | {pid for l in model.rigid_links for pid in (l.master, l.slave)}


def support_oracle(model, components):
    """The components, as sorted id lists, whose restrained slots hold fewer
    rigid motions than the slots stiffness reaches make.  The rigid-motion
    rows are built point by point: a translation slot d moves by
    t_d + (theta x r)_d, a rotation slot d by theta_d, with r the arm from
    the component's centroid in units of its RMS radius; a rotation is
    reached at a beam or rigid-link end.  ``np.linalg.matrix_rank`` ranks
    them, singular values above 1e-5 of the reached rows' largest."""
    point, rotates = {p.id: p for p in model.points}, rotating_points(model)
    flagged = []
    for comp in components:
        comp = sorted(comp)
        xyz = np.array([point[pid].coords for pid in comp])
        arms = xyz - xyz.mean(axis=0)
        arms /= math.sqrt((arms**2).sum() / len(comp)) or 1.0
        reached, held = [], []
        for pid, r in zip(comp, arms):
            for d in range(6):
                if d < 3:
                    row = [float(j == d) for j in range(3)]
                    row += [float(np.cross(np.eye(3)[j], r)[d]) for j in range(3)]
                elif pid in rotates:
                    row = [0.0] * 3 + [float(j == d - 3) for j in range(3)]
                else:
                    continue
                reached.append(row)
                if point[pid].constraint_mask[d]:
                    held.append(row)
        tol = 1e-5 * np.linalg.norm(reached, 2)
        if np.linalg.matrix_rank(np.array(held + [[0.0] * 6]), tol) < \
                np.linalg.matrix_rank(np.array(reached), tol):
            flagged.append(comp)
    return sorted(flagged)


def found_components(model):
    """``unsupported_components`` as sorted id lists; each named point is
    a member, and each named slot gets stiffness."""
    found = unsupported_components(model)
    comps = [found.members[a : a + k].tolist() for a, k in zip(found.starts, found.sizes)]
    rotates = rotating_points(model)
    for comp, pid, dof in zip(comps, found.point_ids.tolist(), found.dofs.tolist()):
        assert pid in comp
        assert dof < 3 or pid in rotates
    return comps


def _path(order):
    return np.stack([order[:-1], order[1:]], axis=1)


def _comb(n):
    """A path over the upper half of the indices with a two-point tooth of
    low indices hanging from every spine point."""
    half = n // 2
    spine = np.arange(half, n)
    teeth = np.arange(len(spine))
    return np.concatenate([_path(spine), np.stack([spine, teeth], axis=1),
                           np.stack([teeth[1:], teeth[:-1]], axis=1)[::2]])


def _zigzag(n):
    """The path 0, n-1, 1, n-2, ...: every hop crosses the index range."""
    order = np.empty(n, dtype=np.intp)
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = np.arange(n - 1, (n + 1) // 2 - 1, -1)
    return _path(order)


_GRAPHS = {
    "shuffled-path": lambda rng, n: _path(rng.permutation(n)),
    "reversed-path": lambda rng, n: _path(np.arange(n)[::-1]),
    "zigzag-path": lambda rng, n: _zigzag(n),
    "comb": lambda rng, n: _comb(n),
    "random-sparse": lambda rng, n: rng.integers(0, n, size=(n * 3 // 4, 2)),
    "isolated-points": lambda rng, n: rng.integers(0, n // 10, size=(n // 20, 2)) * 10,
    "no-edges": lambda rng, n: np.zeros((0, 2), dtype=np.intp),
    "loops-and-repeats": lambda rng, n: np.concatenate([
        np.repeat(np.arange(n)[:, None], 2, axis=1)[::3],
        np.tile(rng.integers(0, n, size=(n // 4, 2)), (3, 1))]),
}


@pytest.mark.parametrize("graph", list(_GRAPHS))
def test_component_labels_match_csgraph(graph):
    """Counts and labels (components numbered by their lowest index) equal
    those of ``scipy.sparse.csgraph.connected_components``."""
    n = 2001
    edges = _GRAPHS[graph](np.random.default_rng(7), n)
    matrix = coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
    count, labels = _component_labels(n, edges)
    expect_count, expect_labels = connected_components(matrix, directed=False)
    assert count == expect_count
    assert np.array_equal(labels, expect_labels)


class TestRemoveDetachedComponents:
    def test_smaller_component_removed(self):
        coords = [(i, 0, 0) for i in range(11)] + [(i, 100, 0) for i in range(4)]
        cells = [(i, i + 1) for i in range(10)] + [(11 + i, 12 + i) for i in range(3)]
        model = simple_model(coords, cells)
        model, report = remove_detached_components(model)
        assert report.removed_components == [(3, 11)]
        assert len(model.points) == 11

    def test_single_component_untouched(self):
        model = simple_model([(0, 0, 0), (1, 0, 0)], [(0, 1)])
        before = len(model.points)
        model, report = remove_detached_components(model)
        assert not report.removed_components
        assert len(model.points) == before

    def test_empty_model_passes_through(self):
        model, report = remove_detached_components(StructuralModel())
        assert not report.removed_components
        assert len(model.points) == len(model.cells) == 0

    @given(seed=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=30, deadline=None)
    def test_matches_bfs_oracle(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_points=int(rng.integers(4, 80)))
        comps = bfs_components_oracle(model)
        counts = []
        for comp in comps:
            n_cells = sum(1 for c in model.cells if c.connectivity[0] in comp)
            counts.append((n_cells, -min(comp), comp))
        expect_keep = max(counts)[2]
        model, _ = remove_detached_components(model)
        assert {p.id for p in model.points} == expect_keep


def linked_random_model(rng):
    """Random model with a few rigid links, and a copy of it in which every
    link is one more cell, so that bfs_components_oracle sees the links."""
    model = random_model(rng, n_points=int(rng.integers(4, 80)))
    model.cells = model.cells[: int(rng.integers(1, len(model.cells) + 1))]
    for _ in range(int(rng.integers(1, 8))):
        master, slave = (int(v) for v in rng.choice(len(model.points), 2, replace=False))
        try:
            make_rigid_link(model, master=master, slave=slave)
        except TopologyError:
            pass
    linked = model.copy()
    for k, link in enumerate(model.rigid_links):
        linked.cells.append(Cell(id=10_000 + k, connectivity=(link.master, link.slave),
                                 cs_id=1, mat_id=1))
    return model, linked


class TestComponentsWithRigidLinks:
    @given(seed=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=30, deadline=None)
    def test_detached_removal_matches_bfs_oracle(self, seed):
        model, linked = linked_random_model(np.random.default_rng(seed))
        comps = bfs_components_oracle(linked)
        counts = []
        for comp in comps:
            n_cells = sum(1 for c in model.cells if c.connectivity[0] in comp)
            counts.append((n_cells, -min(comp), comp))
        keep = max(counts)[2]
        expected_removed = sorted(
            ((n, -neg_rep) for n, neg_rep, comp in counts if comp is not keep),
            key=lambda t: t[1],
        )
        model, report = remove_detached_components(model)
        assert {p.id for p in model.points} == keep
        assert report.removed_components == expected_removed
        assert all(l.master in keep and l.slave in keep for l in model.rigid_links)
        assert len(model.rigid_links) == sum(
            1 for c in linked.cells if c.id >= 10_000 and c.connectivity[0] in keep
        )

    @given(seed=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=30, deadline=None)
    def test_support_reachability_matches_bfs_oracle(self, seed):
        model, linked = linked_random_model(np.random.default_rng(seed))
        expected = support_oracle(model, bfs_components_oracle(linked))
        assert found_components(model) == expected
        listed = [f"points {comp[:8]}" for comp in expected[:20]]
        listed += [f"{len(expected) - 20} more component(s)"] * (len(expected) > 20)
        findings = check_support_reachability(model)
        assert [f.message.partition(" have")[0] for f in findings] == listed


# ------------------------------------------------------------- arm pruning


def prune_oracle(model, max_degree, protected):
    """Delete one eligible point at a time, recomputing degrees after every
    deletion, until none qualifies.  Returns surviving point id set."""
    points = {p.id for p in model.points}
    cells = {c.id: set(c.connectivity) for c in model.cells}
    while True:
        degree = {pid: 0 for pid in points}
        for conn in cells.values():
            for pid in conn:
                degree[pid] += 1
        victim = None
        for pid in sorted(points):
            if pid in protected:
                continue
            if degree[pid] <= max_degree:
                victim = pid
                break
        if victim is None:
            return points
        points.discard(victim)
        cells = {cid: conn for cid, conn in cells.items() if victim not in conn}


def grid_with_chain():
    # 3x3 grid in the x-y plane, all nodes supported, plus a 5-cell chain
    coords = []
    for i in range(3):
        for j in range(3):
            coords.append((i * 10.0, j * 10.0, 0.0))
    cells = []
    idx = lambda i, j: 3 * i + j
    for i in range(3):
        for j in range(3):
            if i + 1 < 3:
                cells.append((idx(i, j), idx(i + 1, j)))
            if j + 1 < 3:
                cells.append((idx(i, j), idx(i, j + 1)))
    chain_start = idx(1, 1)
    base = len(coords)
    prev = chain_start
    for k in range(5):
        coords.append((10.0 + (k + 1) * 5.0, 10.0, 10.0))
        cells.append((prev, base + k))
        prev = base + k
    masks = {idx(i, j): [True] * 6 for i in range(3) for j in range(3)}
    return simple_model(coords, cells, masks=masks)


class TestPruneDeadArms:
    def test_hanging_chain_removed_grid_intact(self):
        model = grid_with_chain()
        model, report = prune_dead_arms(model, max_degree=2)
        assert report.pruned_arm_points == list(range(9, 14))
        assert len(model.points) == 9
        assert report.element_removal_fraction == pytest.approx(5 / 17)

    def test_supported_chain_retained_at_leaf_degree(self):
        # far end supported: leaf peeling must stop at the protected tip
        coords = [(i * 10.0, 0, 0) for i in range(4)]
        cells = [(i, i + 1) for i in range(3)]
        model = simple_model(coords, cells, masks={3: [True] * 6, 0: [True] * 6})
        model, report = prune_dead_arms(model, max_degree=1)
        assert not report.pruned_arm_points
        assert len(model.points) == 4

    def test_unprotected_chain_vanishes_and_raises(self):
        coords = [(i * 10.0, 0, 0) for i in range(4)]
        cells = [(i, i + 1) for i in range(3)]
        model = simple_model(coords, cells)
        with pytest.raises(TopologyError, match="empty"):
            prune_dead_arms(model, max_degree=1)

    def test_never_removes_protected_points(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            model = random_model(rng, n_points=30)
            protected = {
                p.id for p in model.points if p.bc_id or p.constraint_mask.any()
            }
            try:
                model, report = prune_dead_arms(model, max_degree=2)
            except TopologyError:
                continue
            assert protected <= {p.id for p in model.points}

    @given(seed=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=30, deadline=None)
    def test_matches_one_at_a_time_oracle(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_points=int(rng.integers(4, 60)))
        protected = {p.id for p in model.points if p.bc_id or p.constraint_mask.any()}
        expected = prune_oracle(model, 2, protected)
        if not expected:
            with pytest.raises(TopologyError, match="empty"):
                prune_dead_arms(model, max_degree=2)
            return
        model, _ = prune_dead_arms(model, max_degree=2)
        assert {p.id for p in model.points} == expected


# ------------------------------------------------------------ reachability


def truss_bar(fixed):
    """A truss bar along x, its two points restrained in the ``fixed`` slots."""
    model = simple_model([(0, 0, 0), (1000, 0, 0)], [(0, 1)], masks={0: fixed, 1: fixed})
    model.cells[0].kind = TRUSS_LINE
    return model


PIN = [True, True, True, False, False, False]


class TestSupportReachability:
    def test_fixed_cantilever_clean(self):
        model = simple_model([(0, 0, 0), (1000, 0, 0)], [(0, 1)], masks={0: [True] * 6})
        assert check_support_reachability(model) == []

    def test_free_floating_line_flagged(self):
        model = simple_model([(0, 0, 0), (1000, 0, 0)], [(0, 1)])
        assert [f.message for f in check_support_reachability(model)] == [
            "points [0, 1] have a free rigid motion, largest at point 0 dof ux"]

    def test_single_pin_flagged(self):
        # the beam turns about the pin; its far end moves most
        model = simple_model([(0, 0, 0), (1000, 0, 0)], [(0, 1)], masks={0: PIN})
        assert [f.message for f in check_support_reachability(model)] == [
            "points [0, 1] have a free rigid motion, largest at point 1 dof uy"]

    def test_line_pinned_lattice_flagged(self):
        # 120 fixed slots on one line leave the spin about it free
        model, on_line = line_pinned_lattice()
        found = unsupported_components(model)
        assert found.sizes.tolist() == [len(model.points)]
        assert found.point_ids[0] not in on_line
        assert DOF_NAMES[found.dofs[0]] in ("uy", "uz")

    def test_rotations_at_truss_points_hold_nothing(self):
        model = truss_bar([False] * 3 + [True] * 3)
        assert [f.message for f in check_support_reachability(model)] == [
            "points [0, 1] have a free rigid motion, largest at point 0 dof ux"]

    @pytest.mark.parametrize("build", [
        lambda: truss_bar(PIN),
        collinear_trusses,
        lambda: simple_model([(0, 0, 0)], [], masks={0: PIN}),
    ], ids=["pinned-truss-bar", "collinear-trusses", "lone-pinned-point"])
    def test_every_motion_it_can_make_held(self, build):
        # 5 motions for the trusses: a turn about their line moves no slot
        # with stiffness; 3 for a point whose rotations nothing reaches
        assert check_support_reachability(build()) == []


def lattice_soup(seed):
    """A small lattice exploded into a line soup: every cell gets its own
    two endpoints, jittered by at most 1e-3 per axis and carrying its
    nodes' masks and loads, in shuffled cell order.  The point ids are a
    shuffled sample with gaps, so row order and id order differ."""
    rng = np.random.default_rng(seed)
    lattice = fp.gen_sphere_lattice(fp.LatticeSpec(nx=3, ny=3, nz=3, splash_fraction=0.05,
                                                   seed=seed))
    cells, points = lattice.cells, lattice.points
    order = rng.permutation(len(cells))
    ends = points.positions(cells.ends[order]).ravel()
    n = len(ends)
    ids = rng.permutation(3 * n)[:n]
    return StructuralModel(
        comment="soup", cross_sections=lattice.cross_sections, materials=lattice.materials,
        bcs=lattice.bcs,
        points=PointTable(ids, points.coords[ends] + rng.uniform(-1e-3, 1e-3, (n, 3)),
                          points.masks[ends], points.bc_ids[ends]),
        cells=CellTable(np.arange(n // 2), ids.reshape(-1, 2), cells.cs_ids[order],
                        cells.mat_ids[order], cells.truss[order]))


class TestLineSoupReports:
    """The repair and support reports on a shuffled line soup, raw and after
    a merge at a tolerance that joins only some endpoint copies."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("tol", [None, 2e-3, 0.01])
    def test_reachability_matches_per_component_oracle(self, seed, tol):
        model = lattice_soup(seed)
        if tol is not None:
            model, _ = merge_duplicate_nodes(model, tol=tol)
        components = bfs_components_oracle(model)
        expected = support_oracle(model, components)
        assert found_components(model) == expected
        assert len(expected) < len(components)  # some components are supported

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("tol", [2e-3, 0.01])
    def test_merged_pairs_are_sorted_survivor_removed_pairs(self, seed, tol):
        model = lattice_soup(seed)
        ids = model.points.ids.tolist()
        clusters = {}
        for member, low in merge_oracle(model.points.coords, tol).items():
            clusters.setdefault(low, []).append(ids[member])
        # the lowest id of each cluster survives
        survivor, removed = zip(*[(min(c), pid) for c in clusters.values() for pid in c
                                  if pid != min(c)])
        _, report = merge_duplicate_nodes(model, tol=tol)
        assert report.merged_point_pairs.tolist() == sorted(map(list, zip(survivor, removed)))


def aimed_cantilever():
    """A fixed, tip-loaded cantilever whose rectangle is aimed at the free
    point 2, plus the isolated point 3 that nothing references."""
    model = simple_model([(0, 0, 0), (1000, 0, 0), (0, 0, 1000), (0, 500, 0)], [(0, 1)],
                         masks={0: [True] * 6}, bc_points=(1,))
    model.cross_sections[1] = CrossSection(id=1, shape=Rectangle(20.0, 30.0, "z", 2))
    return model


class TestOrientationPoints:
    def test_mask(self):
        model = aimed_cantilever()
        assert orientation_points(model).tolist() == [False, False, True, False]
        model.points[2].bc_id = 1  # a loaded point is structure
        assert not orientation_points(model).any()

    def test_aims_survive_prune_and_detached_removal(self):
        # point 2 aims the rectangle from the tip of the arm 1-4-2, point 6
        # from the detached, loaded piece 5-6
        model = simple_model([(0, 0, 0), (1000, 0, 0), (1000, 0, 500), (0, 500, 0),
                              (1000, 0, 250), (0, 0, 800), (0, 0, 1000)],
                             [(0, 1), (3, 1), (1, 4), (4, 2), (5, 6)],
                             masks={0: [True] * 6, 3: [True] * 6}, bc_points=(1, 6))
        model.cross_sections[1] = CrossSection(id=1, shape=Rectangle(20.0, 30.0, "z", 2))
        model.cross_sections[2] = CrossSection(id=2, shape=Rectangle(20.0, 30.0, "z", 6))
        model.cells[1].cs_id = 2  # the strut 3-1
        model, report = remove_detached_components(model)
        assert report.removed_components == [(1, 5)]
        assert model.points.ids.tolist() == [0, 1, 2, 3, 4, 6]
        assert model.points.bc_ids.tolist() == [0, 1, 0, 0, 0, 0]
        model, report = prune_dead_arms(model, max_degree=2)
        assert report.pruned_arm_points == [4]
        assert model.points.ids.tolist() == [0, 1, 2, 3, 6]
        assert orientation_points(model).tolist() == [False, False, True, False, True]
        assert validate(model).defects == validate(model).warnings == []

    def test_not_structure(self):
        model = aimed_cantilever()
        warnings = [f.message for f in validate(model).warnings]
        assert warnings == ["point 3 referenced by no cell"]
        assert found_components(model) == [[3]]
        model, report = remove_detached_components(model)
        assert report.removed_components == [(0, 3)]
        assert model.points.ids.tolist() == [0, 1, 2]
        model, report = prune_dead_arms(model, max_degree=2)
        assert model.points.ids.tolist() == [0, 1, 2]
        assert report.pruned_arm_points == []


# -------------------------------------------------------------- rigid links


class TestMakeRigidLink:
    def test_register_and_auto_offset(self):
        model = simple_model([(0, 0, 0), (10, 0, 0), (10, 100, 0)], [(0, 1)])
        make_rigid_link(model, master=1, slave=2)
        make_rigid_link(model, master=1, slave=0, offset=(-10.0, 0.0, 0.0))
        links = [(l.master, l.slave, l.offset) for l in model.rigid_links]
        assert links[0] == (1, 2, None)  # the arm follows the positions at assembly
        assert links[1][:2] == (1, 0) and links[1][2].tolist() == [-10.0, 0.0, 0.0]

    def test_duplicate_slave_rejected(self):
        model = simple_model([(0, 0, 0), (10, 0, 0), (20, 0, 0)], [(0, 1)])
        make_rigid_link(model, master=0, slave=2)
        with pytest.raises(TopologyError, match="point 2 is slave of two links"):
            make_rigid_link(model, master=1, slave=2)

    def test_chained_links_rejected(self):
        model = simple_model([(0, 0, 0), (10, 0, 0), (20, 0, 0)], [(0, 1)])
        make_rigid_link(model, master=0, slave=1)
        with pytest.raises(TopologyError, match="point 1 is both master and slave"):
            make_rigid_link(model, master=1, slave=2)
        assert len(model.rigid_links) == 1

    def test_self_link_rejected(self):
        model = simple_model([(0, 0, 0), (10, 0, 0)], [(0, 1)])
        with pytest.raises(TopologyError):
            make_rigid_link(model, master=1, slave=1)

    def test_missing_point_and_bad_offset_rejected(self):
        model = simple_model([(0, 0, 0), (10, 0, 0)], [(0, 1)])
        with pytest.raises(TopologyError, match="slave references missing point 7"):
            make_rigid_link(model, master=1, slave=7)
        with pytest.raises(TopologyError, match="offset for slave 0 not finite"):
            make_rigid_link(model, master=1, slave=0, offset=(0.0, np.inf, 0.0))
        assert model.rigid_links == []


    def test_supported_slave_rejected(self):
        model = simple_model([(0, 0, 0), (10, 0, 0), (10, 100, 0)], [(0, 1)],
                             masks={2: [True] + [False] * 5})
        with pytest.raises(TopologyError,
                           match="^rigid link slave 2 may not carry support constraints$"):
            make_rigid_link(model, master=1, slave=2)
        make_rigid_link(model, master=2, slave=1)  # a master may carry supports
        assert [(l.master, l.slave) for l in model.rigid_links] == [(2, 1)]


# ---------------------------------------------------------------- pipeline


def run_pipeline(model, tol=1e-6, max_degree=2):
    model, _ = merge_duplicate_nodes(model, tol=tol)
    model, _ = remove_degenerate_cells(model, tol=tol)
    model, _ = remove_detached_components(model)
    model, _ = prune_dead_arms(model, max_degree=max_degree)
    return model


def noisy_lattice(seed):
    """Lattice with injected splashes/arms plus duplicate points and cells:
    the kind of raw converted model the clean pipeline exists for."""
    import formpipe as fp

    rng = np.random.default_rng(seed)
    occ = fp.arch_occupancy(16, 3, 8, thickness=2.5)
    model = fp.gen_sphere_lattice(
        fp.LatticeSpec(occupancy=occ, splash_fraction=0.02, seed=seed)
    )
    next_pid = len(model.points)
    next_cid = len(model.cells)
    for _ in range(4):  # jittered duplicates of random points, rewired cells
        victim = int(rng.integers(len(model.points)))
        p = model.points[victim]
        dup = Point(id=next_pid, coords=p.coords + rng.uniform(-1e-8, 1e-8, 3))
        model.points.append(dup)
        cell = model.cells[int(rng.integers(len(model.cells)))]
        if cell.connectivity[0] == p.id:
            cell.connectivity = (dup.id, cell.connectivity[1])
        next_pid += 1
    for _ in range(3):  # duplicated connectivity
        cell = model.cells[int(rng.integers(len(model.cells)))]
        model.cells.append(
            Cell(id=next_cid, connectivity=cell.connectivity, cs_id=cell.cs_id,
                 mat_id=cell.mat_id)
        )
        next_cid += 1
    return model


class TestPipelineProperties:
    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=10, deadline=None)
    def test_pipeline_idempotent_on_lattice_models(self, seed):
        model = noisy_lattice(seed)
        once = run_pipeline(model.copy(), tol=1e-6)
        twice = run_pipeline(once.copy(), tol=1e-6)
        assert [p.id for p in once.points] == [p.id for p in twice.points]
        assert [c.id for c in once.cells] == [c.id for c in twice.cells]

    def test_second_pass_reports_no_changes(self):
        model = noisy_lattice(42)
        model, _ = merge_duplicate_nodes(model, tol=1e-6)
        model, _ = remove_degenerate_cells(model, tol=1e-6)
        model, _ = remove_detached_components(model)
        model, _ = prune_dead_arms(model, max_degree=2)
        for op in (
            lambda m: merge_duplicate_nodes(m, tol=1e-6),
            lambda m: remove_degenerate_cells(m, tol=1e-6),
            remove_detached_components,
            lambda m: prune_dead_arms(m, max_degree=2),
        ):
            model, report = op(model)
            assert report == RepairReport()

    @given(seed=st.integers(min_value=0, max_value=2000))
    @settings(max_examples=25, deadline=None)
    def test_repairs_preserve_referential_integrity(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_points=int(rng.integers(6, 60)), span=20.0)
        try:
            model = run_pipeline(model, tol=0.5)
        except TopologyError:
            return
        assert validate(model).ok

    def test_detached_removal_leaves_one_component(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            model = random_model(rng, n_points=40)
            model, _ = remove_detached_components(model)
            assert len(bfs_components_oracle(model)) == 1


class TestMemoryGates:
    """Traced peaks of the read, the repairs, the support check and
    ``validate`` on the 8x8x8 line soup (3,120 points, 1,660 cells, 8,154
    sweep candidates), and of a merge that joins every point of a lattice
    into one."""

    @pytest.fixture(scope="class")
    def document(self):
        return soup_document(8)

    @pytest.fixture(scope="class")
    def soup(self, document):
        return fp.parse_model(document)

    def test_parse_holds_each_column_once(self, document):
        # the model's columns take 0.21 MB; beside the arrays the parse
        # read, building the model peaks at 0.13 MB: the ids and the join of
        # each column's batches.  Tables that copied every column took 0.31 MB
        root, arrays = exchange._tree([document])
        assert traced_peak(exchange._model, root, arrays) <= 0.16e6

    def test_component_labels_hold_no_sort(self, soup):
        # 0.09 MB: a running count of the roots numbers the components;
        # np.unique's sort of the parent array and its inverse took 0.17 MB
        edges = soup.points.positions(soup.cells.ends)
        assert traced_peak(_component_labels, len(soup.points), edges) <= 0.11e6

    def test_merge_of_the_soup(self, soup):
        # 0.41 MB; the sweep tests its candidates in chunks of 4k and hooks
        # each chunk's close pairs into one parent array, which labels the
        # clusters (0.76 MB when its spanning forest was hooked again to
        # label them, with chunks of 16k; 0.95 MB when it gathered the
        # pairs, and a lexsort found the exact copies)
        assert traced_peak(merge_duplicate_nodes, soup.copy(), 0.01) <= 0.5e6

    def test_support_check_as_arrays(self, soup):
        # 0.12 MB for 1,362 flagged components, ordered before they are
        # named, after one sort of the points; 0.26 MB when every component
        # was named and the ranked rows sorted apart, and the list of
        # UnsupportedComponent objects peaked at 0.48 MB
        assert len(unsupported_components(soup).starts) == 1362
        assert traced_peak(unsupported_components, soup) <= 0.15e6

    def test_validate_of_the_soup(self, soup):
        # 0.38 MB: lengths and overflow terms by slices of cells, their
        # finiteness tested term by term, and the duplicate ids found by a
        # stable argsort; 0.46 MB with the terms stacked and np.unique's
        # first positions
        assert traced_peak(validate, soup) <= 0.42e6

    def test_huge_tolerance_keeps_few_pairs(self):
        # 12x12x12 lattice, 1,728 points and 1.5M candidate pairs, all close:
        # 0.51 MB (1.49 MB with chunks of 16k candidates, 1.74 MB with a
        # forest pass over the gathered pairs), where holding every close
        # pair took 133 MB
        lattice = fp.gen_sphere_lattice(fp.LatticeSpec(nx=12, ny=12, nz=12))
        assert traced_peak(merge_duplicate_nodes, lattice, 1e300) <= 0.65e6
        assert len(lattice.points) == 1
