import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import formpipe as fp
from formpipe import solver
from formpipe.model import (
    BEAM_LINE,
    GRAVITY,
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
    cell_frames,
    section_properties,
    stiffness_terms,
)
from formpipe.solver import (
    ConvergenceError,
    CsrArrays,
    DofMap,
    MechanismError,
    SolverError,
    LinearSystem,
    _LevelCholesky,
    _elements,
    _fail,
    _inf_norm,
    _level_sets,
    assemble,
    build_dof_map,
    element_stiffness,
    expand_displacements,
    reaction_forces,
    recover_end_forces,
    solve_direct,
    solve_pcg_ichol,
)

from conftest import E_STEEL, bar_model, collinear_trusses, line_pinned_lattice, traced_peak

D20_I = math.pi * 20.0**4 / 64.0
D20_A = math.pi * 100.0
D20_W = math.pi * 20.0**3 / 32.0


@pytest.fixture(scope="module")
def arch_50x5x24():
    """The cleaned 50x5x24 arch lattice (seed 0), 6,840 equations."""
    occ = fp.arch_occupancy(50, 5, 24, thickness=3.5)
    model = fp.gen_sphere_lattice(fp.LatticeSpec(occupancy=occ, splash_fraction=0.01, seed=0))
    model, _ = fp.merge_duplicate_nodes(model, tol=1e-6)
    model, _ = fp.remove_degenerate_cells(model, tol=1e-6)
    model, _ = fp.remove_detached_components(model)
    model, _ = fp.prune_dead_arms(model, max_degree=2)
    return model


def csr_arrays(A):
    """A dense matrix or a scipy sparse matrix as the solver's CSR arrays:
    ascending columns in each row, no stored zero, int32 indices."""
    A = sp.csr_matrix(A)
    A.sum_duplicates()
    A.eliminate_zeros()
    return CsrArrays(A.indptr.astype(np.int32), A.indices.astype(np.int32), A.data, A.shape)


def transformation(dm):
    """T as a scipy matrix, (6n, n_eq + n_fixed), from the DOF map's arrays:
    a slot that is not a slave maps onto its own column, and the slots of a
    slave onto its master's columns through the link's coupling."""
    column = dm.column.ravel()
    own = np.flatnonzero(column >= 0)
    link, s_comp, m_comp = np.nonzero(dm.coupling)
    return sp.csr_matrix(
        (np.concatenate([np.ones(len(own)), dm.coupling[link, s_comp, m_comp]]),
         (np.concatenate([own, 6 * dm.links[link, 1] + s_comp]),
          np.concatenate([column[own], column[6 * dm.links[link, 0] + m_comp]]))),
        shape=(len(column), dm.n_eq + dm.n_fixed),
    )


def components_matrix():
    """A 60x60 SPD matrix whose graph holds a path, a star, a dense clique
    and lone vertices, interleaved, and a right-hand side."""
    rng = np.random.default_rng(3)
    n = 60
    A = np.zeros((n, n))
    path, star, clique = np.arange(0, 40, 2), np.arange(1, 30, 2), np.arange(41, 58)
    A[path[:-1], path[1:]] = rng.uniform(-1, 1, len(path) - 1)
    A[star[0], star[1:]] = rng.uniform(-1, 1, len(star) - 1)
    A[np.ix_(clique, clique)] = np.triu(rng.uniform(-1, 1, (len(clique),) * 2), 1)
    A += A.T
    A[np.diag_indices(n)] = np.abs(A).sum(axis=1) + 1.0
    return A, rng.standard_normal(n)


def striped_size(width, height=None):
    """Entries of the row stripes of level inverses of the given widths:
    full stripe j holds height x (j + 1) height, a last partial one r x w;
    the height is the solver's ``_STRIPE`` unless given."""
    height = solver._STRIPE if height is None else height
    q, r = np.divmod(np.asarray(width), height)
    return height**2 * q * (q + 1) // 2 + r * width


def two_cliques(w, seed=5):
    """A (2w + 1)-square SPD matrix whose levels are 1, w and w wide: a
    vertex tied to a clique of w, every vertex of which is tied to a
    second clique of w; and a right-hand side."""
    rng = np.random.default_rng(seed)
    n = 2 * w + 1
    A = np.zeros((n, n))
    A[0, 1 : w + 1] = rng.uniform(-1, 1, w)
    A[1:, 1:] = np.triu(rng.uniform(-1, 1, (n - 1, n - 1)), 1)
    A += A.T
    A[np.diag_indices(n)] = np.abs(A).sum(axis=1) + 1.0
    return A, rng.standard_normal(n)


def solve_model(model, method="direct", **kw):
    system, dm = assemble(model)
    u, stats = (
        solve_direct(system) if method == "direct" else solve_pcg_ichol(system, **kw)
    )
    disp = expand_displacements(dm, u)
    return system, dm, u, disp, stats


def textbook_local_stiffness(ea, gj, az, bz, cz, dz, ay, by, cy, dy):
    """The local 12x12 Euler-Bernoulli stiffness of one element, entry by
    entry, from its ``stiffness_terms``: the symmetric upper triangle, then
    its mirror."""
    k = np.zeros((12, 12))
    upper = {(0, 0): ea, (0, 6): -ea, (6, 6): ea, (3, 3): gj, (3, 9): -gj, (9, 9): gj,
             (1, 1): az, (1, 7): -az, (7, 7): az, (1, 5): bz, (1, 11): bz, (5, 7): -bz,
             (7, 11): -bz, (5, 5): cz, (11, 11): cz, (5, 11): dz,
             (2, 2): ay, (2, 8): -ay, (8, 8): ay, (2, 4): -by, (2, 10): -by, (4, 8): by,
             (8, 10): by, (4, 4): cy, (10, 10): cy, (4, 10): dy}
    for (i, j), value in upper.items():
        k[i, j] = k[j, i] = value
    return k


@pytest.mark.parametrize("truss", [False, True], ids=["beam", "truss"])
def test_six_rows_of_each_end_are_the_textbook_rows(truss):
    """Each cell end's six rows, formed alone from the mirror symmetry of
    the two ends, are the rows of the textbook matrix that end owns, bit
    for bit and zero signs included, and ``k`` stacks both ends' rows."""
    rng = np.random.default_rng(5)
    m = 40
    terms = rng.uniform(1.0, 1e5, (7, m))
    if truss:
        terms[3:6] = 0.0  # a truss has no bending or torsion terms
    el = solver._Elements(ends=None, R=None, terms=terms, f=None)
    end = rng.integers(0, 2, m)
    want = np.stack([textbook_local_stiffness(*t) for t in zip(*stiffness_terms(*terms))])
    assert el.k().tobytes() == want.tobytes()
    rows = want.reshape(m, 2, 6, 12)[np.arange(m), end]
    assert el.k(slice(None), end).tobytes() == rows.tobytes()


class TestElementStiffness:
    def test_axial_elongation(self):
        model = bar_model(kind=TRUSS_LINE, force=(1000.0, 0.0, 0.0))
        _, _, _, disp, _ = solve_model(model)
        expected = 1000.0 * 1000.0 / (E_STEEL * D20_A)  # NL/EA
        assert disp[1, 0] == pytest.approx(expected, rel=1e-12)

    def test_cantilever_tip_deflection_point_load(self):
        model = fp.gen_cantilever()
        model.self_weight_enabled = False
        _, _, _, disp, _ = solve_model(model)
        expected = -264.777 * 1000.0**3 / (3.0 * E_STEEL * D20_I)
        assert disp[1, 2] == pytest.approx(expected, rel=1e-9)
        assert abs(disp[1, 2]) == pytest.approx(53.51, abs=0.01)

    def test_beam_matrix_has_six_rigid_body_modes(self):
        model = fp.gen_cantilever()
        k = element_stiffness(model)[0]
        assert np.allclose(k, k.T, atol=1e-9 * np.abs(k).max())
        eigs = np.abs(np.linalg.eigvalsh(k))
        near_zero = np.sum(eigs <= 1e-9 * eigs.max())
        assert near_zero == 6

    def test_truss_axial_block(self):
        model = StructuralModel(self_weight_enabled=False)
        model.points = [Point(id=0, coords=(0, 0, 0)), Point(id=1, coords=(1, 0, 0))]
        model.cells = [Cell(id=0, connectivity=(0, 1), cs_id=1, mat_id=1, kind=TRUSS_LINE)]
        model.cross_sections[1] = CrossSection(
            id=1, shape=GenericSection(A=1.0, Iy=1, Iz=1, J=1, Wy=1, Wz=1, Wt=1)
        )
        model.materials[1] = Material(id=1, E=1.0, nu=0.3)
        k = element_stiffness(model)[0]
        assert k[0, 0] == pytest.approx(1.0)
        assert k[0, 6] == pytest.approx(-1.0)
        assert k[6, 6] == pytest.approx(1.0)
        # rotational rows stay zero
        assert np.all(k[3:6, :] == 0.0) and np.all(k[9:12, :] == 0.0)

    def test_truss_direction_cosine_form(self):
        # bar at 45 degrees in the x-y plane: k = EA/L * outer(c, c)
        model = StructuralModel(self_weight_enabled=False)
        model.points = [Point(id=0, coords=(0, 0, 0)), Point(id=1, coords=(1, 1, 0))]
        model.cells = [Cell(id=0, connectivity=(0, 1), cs_id=1, mat_id=1, kind=TRUSS_LINE)]
        model.cross_sections[1] = CrossSection(
            id=1, shape=GenericSection(A=2.0, Iy=1, Iz=1, J=1, Wy=1, Wz=1, Wt=1)
        )
        model.materials[1] = Material(id=1, E=3.0, nu=0.3)
        k = element_stiffness(model)[0]
        L = math.sqrt(2.0)
        c = np.array([1.0, 1.0, 0.0]) / L
        block = (2.0 * 3.0 / L) * np.outer(c, c)
        assert np.allclose(k[:3, :3], block, atol=1e-12)
        assert np.allclose(k[:3, 6:9], -block, atol=1e-12)

    def test_two_bar_truss_symmetric_forces(self):
        model = StructuralModel(self_weight_enabled=False)
        model.points = [
            Point(id=0, coords=(-1000, 0, 0)),
            Point(id=1, coords=(1000, 0, 0)),
            Point(id=2, coords=(0, 0, -800)),
        ]
        model.points[0].constraint_mask[:] = True
        model.points[1].constraint_mask[:] = True
        model.points[2].constraint_mask[1] = True  # out-of-plane roller
        model.cells = [
            Cell(id=0, connectivity=(0, 2), cs_id=1, mat_id=1, kind=TRUSS_LINE),
            Cell(id=1, connectivity=(1, 2), cs_id=1, mat_id=1, kind=TRUSS_LINE),
        ]
        model.cross_sections[1] = CrossSection(id=1, shape=Circle(diameter=30.0))
        model.materials[1] = Material(id=1, E=E_STEEL, nu=0.2)
        model.bcs[1] = BoundaryConditionEntry(id=1, components=(0, 0, -5000.0, 0, 0, 0))
        model.points[2].bc_id = 1
        system, dm, u, disp, _ = solve_model(model)
        forces = recover_end_forces(model, disp)
        assert forces[0, 0, 0] == pytest.approx(forces[1, 0, 0], rel=1e-9)
        assert abs(forces[0, 0, 0]) > 100.0


class TestAssembly:
    def test_cantilever_equation_count(self):
        model = fp.gen_cantilever()
        model.self_weight_enabled = False
        _, dm = assemble(model)
        assert dm.n_eq == 6

    def test_orientation_point_gets_no_equations(self):
        _, dm = assemble(aimed_cantilever())
        assert dm.n_eq == 6
        assert np.all(dm.column[2] == -1)
        assert len(dm.links) == 0

    def test_self_weight_resultant(self):
        model = fp.gen_cantilever()
        system, dm = assemble(model)
        w = 7850e-9 * 9806.65 * D20_A * 1e-3  # N/mm
        total_applied_z = system.applied_loads[:, 2].sum()
        assert total_applied_z == pytest.approx(-264.777 - w * 1000.0, rel=1e-12)
        assert w * 1000.0 == pytest.approx(24.18, abs=0.01)

    def test_unsupported_model_refused(self):
        model = bar_model()
        model.points[0].constraint_mask[:] = False
        # uy and uz at point 1 hold 2 of the bar's 5 rigid motions
        with pytest.raises(SolverError, match=r"^points \[0, 1\] have a free rigid motion, "
                                              r"largest at point 0 dof uy$"):
            assemble(model)

    def test_unsupported_components_counted_and_the_first_named(self):
        model = bar_model()
        for k in range(2):  # two floating chains of 7 points
            ids = [2 + 7 * k + i for i in range(7)]
            for i, pid in enumerate(ids):
                model.points.append(Point(id=pid, coords=(100.0 * i, 50.0 * (k + 1), 0.0)))
            for a, b in zip(ids, ids[1:]):
                model.cells.append(Cell(id=a, connectivity=(a, b), cs_id=1, mat_id=1))
        model.points[3].constraint_mask[:2] = True
        with pytest.raises(SolverError) as err:
            assemble(model)
        assert str(err.value) == ("points [2, 3, 4, 5, 6, 7, 8] have a free rigid motion, "
                                  "largest at point 2 dof uz")

    def test_invalid_model_refused(self):
        model = bar_model()
        model.cells[0].connectivity = (0, 99)
        with pytest.raises(SolverError, match="^cell 0 references missing point 99$"):
            assemble(model)

    def test_zero_length_cell_refused(self):
        model = bar_model()
        model.points[1].coords[:] = model.points[0].coords
        with pytest.raises(SolverError, match="zero-length"):
            assemble(model)

    def test_moment_load_on_truss_node_refused(self):
        model = bar_model(kind=TRUSS_LINE)
        model.bcs[1] = BoundaryConditionEntry(id=1, components=(0, 0, 0, 100.0, 0, 0))
        with pytest.raises(SolverError, match="rotation-free"):
            assemble(model)

    def test_moment_load_refused_without_the_support_check(self):
        # the supports go too: only the support findings are left out
        model = bar_model(kind=TRUSS_LINE)
        model.points.masks[:] = False
        model.bcs[1] = BoundaryConditionEntry(id=1, components=(0, 0, 0, 100.0, 0, 0))
        with pytest.raises(SolverError, match=r"^moment load on rotation-free point 1 \(rx\)$"):
            assemble(model, check_supports=False)

    @pytest.mark.parametrize("case", ["zero-length", "parallel-reference", "missing-reference"])
    def test_element_stiffness_refuses_a_cell_without_a_frame(self, case):
        # no validation runs here: the guard is the solver's own
        model = bar_model(kind=BEAM_LINE)
        if case == "zero-length":
            model.points[1].coords[:] = 0.0
            message = r"^zero-length cell 0$"
        elif case == "parallel-reference":  # a reference along -x, and the bar runs along +x
            model.cross_sections[1] = CrossSection(id=1, shape=Rectangle(20.0, 30.0, "z", -1))
            message = r"^cell 0: reference direction is parallel to the element axis$"
        else:
            model.cross_sections[1] = CrossSection(id=1, shape=Rectangle(20.0, 30.0, "z", 9))
            message = r"^section reference point 9 does not exist$"
        with pytest.raises(SolverError, match=message):
            element_stiffness(model)

    def test_stiffness_symmetry(self):
        for model in (fp.gen_cantilever(fp.CantileverSpec(n_elements=4)),
                      fp.gen_leonardo(),
                      fp.gen_sphere_lattice(fp.LatticeSpec(nx=3, ny=3, nz=3))):
            system, _ = assemble(model)
            K = system.K
            asym = abs(K - K.T).max()
            assert asym <= 1e-12 * abs(K).max()

    def test_unconstrained_frame_has_six_rigid_modes(self):
        model = StructuralModel(self_weight_enabled=False)
        coords = [(0, 0, 0), (1000, 0, 0), (1000, 800, 0), (1000, 800, 600)]
        for i, xyz in enumerate(coords):
            model.points.append(Point(id=i, coords=xyz))
        for i in range(3):
            model.cells.append(Cell(id=i, connectivity=(i, i + 1), cs_id=1, mat_id=1))
        model.cross_sections[1] = CrossSection(id=1, shape=Circle(diameter=40.0))
        model.materials[1] = Material(id=1, E=E_STEEL, nu=0.2)
        system, dm = assemble(model, check_supports=False)
        assert dm.n_eq == 24
        eigs = np.abs(np.linalg.eigvalsh(system.K.toarray()))
        assert np.sum(eigs <= 1e-9 * eigs.max()) == 6


class TestDirectSolver:
    def test_one_by_one_system(self):
        from formpipe.solver import DofMap, LinearSystem

        dm = DofMap(
            point_ids=np.array([0]),
            column=np.array([[0, 1, 2, 3, 4, 5]]),
            n_eq=1,
            n_fixed=5,
            links=np.zeros((0, 2), dtype=int),
            coupling=np.zeros((0, 6, 6)),
        )
        system = LinearSystem(
            stiffness=csr_arrays(np.array([[2.0]])),
            f=np.array([4.0]),
            reaction_matrix=csr_arrays(np.zeros((5, 1))),
            reaction_rhs=np.zeros(5),
            dofmap=dm,
            applied_loads=np.zeros((1, 6)),
        )
        u, stats = solve_direct(system)
        assert u[0] == pytest.approx(2.0)
        assert stats.iterations == 0
        assert stats.relative_residual <= 1e-10

    def test_cantilever_residual(self):
        model = fp.gen_cantilever(fp.CantileverSpec(n_elements=8))
        system, _ = assemble(model)
        u, stats = solve_direct(system)
        assert stats.relative_residual <= 1e-10

    def test_fully_constrained_model_yields_zero_equations(self):
        model = bar_model(kind="beam-line")
        model.points[1].constraint_mask[:] = True
        system, dm = assemble(model)
        assert dm.n_eq == 0
        u, stats = solve_direct(system)
        assert u.size == 0
        disp = expand_displacements(dm, u)
        assert np.abs(disp).max() == 0.0

    def test_zero_load_pcg_returns_immediately(self):
        model = bar_model(kind="beam-line", force=(0.0, 0.0, 0.0))
        system, _ = assemble(model)
        u, stats = solve_pcg_ichol(system)
        assert np.abs(u).max() == 0.0
        assert stats.iterations == 0

    def test_repeated_runs_are_bit_identical(self):
        def run():
            model = fp.gen_leonardo()
            system, dm = assemble(model)
            u, _ = solve_direct(system)
            return expand_displacements(dm, u)

        first, second = run(), run()
        assert np.array_equal(first, second)

    def test_level_factor_agrees_with_superlu(self, arch_50x5x24):
        # SuperLU, which direct solves no longer use, serves as the oracle
        system, _ = assemble(arch_50x5x24)
        assert system.K.shape[0] == 6840
        u, stats = solve_direct(system)
        assert stats.ordering == "BFS_LEVELS"
        reference = spla.splu(system.K.tocsc()).solve(system.f)
        assert np.abs(u - reference).max() <= 1e-9 * np.abs(reference).max()
        assert stats.true_residual == stats.relative_residual <= 1e-10
        assert stats.backward_error <= 1e-13
        width = np.array([len(level) for level in _level_sets(system.stiffness)])
        assert stats.factor_nnz == np.sum(striped_size(width))  # the level inverses alone
        again, _ = solve_direct(system)
        assert np.array_equal(u, again)

    def test_levels_make_k_block_tridiagonal(self, arch_50x5x24):
        K = assemble(arch_50x5x24)[0].stiffness
        levels = _level_sets(K)
        order = np.concatenate(levels)
        assert np.array_equal(np.sort(order), np.arange(K.shape[0]))
        level = np.empty(K.shape[0], dtype=int)
        level[order] = np.repeat(np.arange(len(levels)), [len(lv) for lv in levels])
        rows = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
        assert np.abs(level[rows] - level[K.indices]).max() == 1

    def test_level_search_starts_at_a_path_end(self):
        # a path numbered from its middle: from vertex 0 it has 4 levels, from an end 7
        path = [5, 3, 1, 0, 2, 4, 6]
        A = 4.0 * np.eye(7)
        A[path[:-1], path[1:]] = A[path[1:], path[:-1]] = -1.0
        levels = _level_sets(csr_arrays(A))
        assert [lv.tolist() for lv in levels] in ([[p] for p in path], [[p] for p in path[::-1]])

    def test_level_factor_matches_dense_solve_across_components(self):
        A, b = components_matrix()
        K = csr_arrays(A)
        assert len(_level_sets(K)) > 20
        dense = np.linalg.solve(A, b)
        assert np.abs(_LevelCholesky(K).solve(b) - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_shifted_level_factor_matches_dense_solve(self):
        # the mechanism probe's path: K + sigma I, factored level by level
        A, b = components_matrix()
        shift = 0.75
        dense = np.linalg.solve(A + shift * np.eye(len(A)), b)
        solved = _LevelCholesky(csr_arrays(A), shift).solve(b)
        assert np.abs(solved - dense).max() <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("shift", [0.0, 0.75])
    @pytest.mark.parametrize("width", [1, 15, 16, 17, 31, 32, 33, 64, 65, 177])
    def test_striped_factor_matches_dense_solve(self, width, shift):
        # levels below, at and across stripe heights of 16 and 32 rows
        A, b = two_cliques(width)
        K = csr_arrays(A)
        assert [len(lv) for lv in _level_sets(K)] == [1, width, width]
        dense = np.linalg.solve(A + shift * np.eye(len(A)), b)
        solved = _LevelCholesky(K, shift).solve(b)
        assert np.abs(solved - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_factor_size_is_the_stored_stripes(self, arch_50x5x24):
        K = assemble(arch_50x5x24)[0].stiffness
        width = np.array([len(level) for level in _level_sets(K)])
        assert width.max() > 32
        factor = _LevelCholesky(K)
        stored = sum(stripe.size for level in factor.stripes for stripe in level)
        assert factor.nnz == stored == np.sum(striped_size(width)) < np.sum(width**2)

    def test_separate_structures_solve_as_each_alone(self):
        a = fp.gen_sphere_lattice(fp.LatticeSpec(nx=4, ny=3, nz=3))
        b = fp.gen_sphere_lattice(fp.LatticeSpec(nx=3, ny=2, nz=4))
        both = a.copy()
        first_id = int(a.points.ids.max()) + 1
        for p in b.points:
            both.points.append(Point(id=p.id + first_id, coords=p.coords + (0.0, 5000.0, 0.0),
                                     constraint_mask=p.constraint_mask, bc_id=p.bc_id))
        cell_id = int(a.cells.ids.max()) + 1
        for c in b.cells:
            both.cells.append(Cell(id=c.id + cell_id, connectivity=np.add(c.connectivity, first_id),
                                   cs_id=c.cs_id, mat_id=c.mat_id, kind=c.kind))
        _, _, _, disp, _ = solve_model(both)
        for part, rows in ((a, slice(0, len(a.points))), (b, slice(len(a.points), None))):
            alone = solve_model(part)[3]
            assert np.abs(disp[rows] - alone).max() <= 1e-9 * np.abs(alone).max()

    def test_indefinite_matrix_is_refused(self):
        system = bare_system(np.array([[1.0, 2.0], [2.0, 1.0]]), [1.0, 0.0])
        with pytest.raises(SolverError, match="^direct factorization failed") as err:
            solve_direct(system)
        assert type(err.value) is SolverError

    def test_non_finite_matrix_fails_by_name(self):
        system = bare_system(np.array([[np.inf, 1.0], [1.0, 2.0]]), [1.0, 0.0])
        with pytest.raises(SolverError, match="^no diagnosis$") as err:
            _fail(system, "no diagnosis")
        assert type(err.value) is SolverError

    def test_probe_out_of_memory_leaves_the_message(self, monkeypatch):
        # a probe that cannot allocate its factor gives no diagnosis
        system, _ = assemble(collinear_trusses())

        def no_memory(a):
            raise MemoryError

        monkeypatch.setattr(np.linalg, "cholesky", no_memory)
        with pytest.raises(SolverError, match="^PCG failed$") as err:
            _fail(system, "PCG failed")
        assert type(err.value) is SolverError

    @pytest.mark.parametrize("method", ["direct", "pcg"])
    def test_mechanism_names_offending_dof(self, method):
        # PCG meets the swinging tie's mechanism at its iteration limit
        for model, point, dofs in [(collinear_trusses(), 1, ("uy", "uz")),
                                   (swinging_tie(), 9, ("uy",))]:
            system, _ = assemble(model)
            with pytest.raises(MechanismError, match="mechanism") as err:
                solve_direct(system) if method == "direct" else solve_pcg_ichol(system)
            assert err.value.point_id == point
            assert err.value.dof in dofs


class TestMechanismLocation:
    @pytest.mark.parametrize("offset", [(0.0, 0.0, 500.0), (300.0, 200.0, 400.0)])
    @pytest.mark.parametrize("method", ["direct", "pcg"])
    def test_mechanism_located_above_dense_cap(self, arch_50x5x24, offset, method):
        # one dangling truss on a 6,840-equation model: a singular point block
        model = arch_50x5x24.copy()
        top = max(model.points, key=lambda p: p.coords[2])
        tip = max(p.id for p in model.points) + 1
        model.points.append(Point(id=tip, coords=tuple(np.asarray(top.coords) + offset)))
        cell = model.cells[0]
        model.cells.append(Cell(id=max(c.id for c in model.cells) + 1,
                                connectivity=(top.id, tip), cs_id=cell.cs_id,
                                mat_id=cell.mat_id, kind=TRUSS_LINE))
        system, _ = assemble(model)
        assert system.K.shape[0] > 1500
        with pytest.raises(MechanismError, match="mechanism") as err:
            solve_direct(system) if method == "direct" else solve_pcg_ichol(system)
        assert err.value.point_id == tip
        assert err.value.dof in ("ux", "uy", "uz")


class TestGlobalMechanism:
    @pytest.mark.parametrize("method", ["direct", "pcg"])
    def test_spin_about_support_line_located(self, method):
        # the support findings name this spin first; the probe is under test
        model, on_line = line_pinned_lattice()
        system, _ = assemble(model, check_supports=False)
        assert system.K.shape[0] == 2040
        with pytest.raises(MechanismError, match="mechanism") as err:
            solve_direct(system) if method == "direct" else solve_pcg_ichol(system)
        assert err.value.point_id is not None
        assert err.value.point_id not in on_line
        assert err.value.dof in ("ux", "uy", "uz")

    def test_well_posed_lattice_shows_no_mechanism(self):
        system, _ = assemble(fp.gen_sphere_lattice(fp.LatticeSpec(nx=40, ny=3, nz=3)))
        with pytest.raises(SolverError, match="^no mechanism here$") as err:
            _fail(system, "no mechanism here")
        assert type(err.value) is SolverError


def swinging_tie():
    """The two-beam cantilever without self-weight and a loaded point 9 tied
    by trusses to its points 1 and 2: point 9 can swing about the line
    through them, while the clamp holds every rigid motion, so ``check``
    passes the model."""
    model = fp.gen_cantilever(fp.CantileverSpec(n_elements=2))
    model.self_weight_enabled = False
    model.points.append(Point(id=9, coords=(750.0, 300.0, 400.0), bc_id=2))
    model.bcs[2] = BoundaryConditionEntry(id=2, components=(100.0, 100.0, 100.0, 0, 0, 0))
    for cid, end in ((2, 1), (3, 2)):
        model.cells.append(Cell(id=cid, connectivity=(end, 9), cs_id=2, mat_id=1,
                                kind=TRUSS_LINE))
    return model


def bare_system(K, f):
    """A LinearSystem of the SPD matrix K and load f with no model behind it;
    its DOF map numbers the equations over the slots of the first points."""
    n = K.shape[0]
    points = -(-n // 6)
    column = np.full(6 * points, -1)
    column[:n] = np.arange(n)
    dm = DofMap(
        point_ids=np.arange(points),
        column=column.reshape(points, 6),
        n_eq=n,
        n_fixed=0,
        links=np.zeros((0, 2), dtype=int),
        coupling=np.zeros((0, 6, 6)),
    )
    return LinearSystem(
        stiffness=csr_arrays(np.asarray(K, dtype=float)),
        f=np.asarray(f, dtype=float),
        reaction_matrix=csr_arrays(np.zeros((0, n))),
        reaction_rhs=np.zeros(0),
        dofmap=dm,
        applied_loads=np.zeros((points, 6)),
    )


# SPD matrix famous for breaking down incomplete Cholesky
KERSHAW = np.array([[3.0, -2, 0, 2], [-2, 3, -2, 0], [0, -2, 3, -2], [2, 0, -2, 3]])


class TestPcgSolver:
    def test_small_system_converges_fast(self):
        system = bare_system(np.array([[4.0, 1.0], [1.0, 3.0]]), [1.0, 2.0])
        u, stats = solve_pcg_ichol(system, tol=1e-12)
        assert stats.iterations <= 2
        assert np.allclose(system.K.toarray() @ u, system.f, rtol=1e-10)

    def test_matches_direct_on_cantilever(self):
        model = fp.gen_cantilever(fp.CantileverSpec(n_elements=10))
        system, _ = assemble(model)
        ud, _ = solve_direct(system)
        up, stats = solve_pcg_ichol(system, tol=1e-10)
        assert np.linalg.norm(up - ud) / np.linalg.norm(ud) <= 1e-8
        assert stats.relative_residual <= 1e-10
        assert stats.method == "pcg-jacobi"

    def test_matches_direct_on_frame_and_lattice(self):
        for model in (fp.gen_leonardo(),
                      fp.gen_sphere_lattice(fp.LatticeSpec(nx=4, ny=3, nz=3))):
            system, _ = assemble(model)
            ud, _ = solve_direct(system)
            up, _ = solve_pcg_ichol(system, tol=1e-10)
            assert np.linalg.norm(up - ud) / np.linalg.norm(ud) <= 1e-8

    def test_max_iter_exceeded_raises(self):
        model = fp.gen_leonardo()
        system, _ = assemble(model)
        with pytest.raises(ConvergenceError):
            solve_pcg_ichol(system, tol=1e-14, max_iter=1)

    def test_repeated_runs_are_bit_identical(self):
        system, _ = assemble(fp.gen_sphere_lattice(fp.LatticeSpec(nx=4, ny=3, nz=3)))
        first, _ = solve_pcg_ichol(system)
        second, _ = solve_pcg_ichol(system)
        assert np.array_equal(first, second)

    def test_reports_true_residual_and_factor(self):
        system, _ = assemble(fp.gen_leonardo())
        u, stats = solve_pcg_ichol(system, tol=1e-10)
        true = np.linalg.norm(system.K @ u - system.f) / np.linalg.norm(system.f)
        assert stats.true_residual == pytest.approx(true, rel=1e-12)
        assert stats.ordering == "NATURAL"
        assert stats.factor_nnz == system.K.shape[0]
        assert 0.0 < stats.factor_time <= stats.wall_time

    @pytest.mark.parametrize("case", ["lattice", "shifted-kershaw"])
    def test_jacobi_pcg_equals_dense_reference(self, case):
        # the same iteration on dense arrays, M^-1 r as np.linalg.solve with
        # M = diag(K): equal iteration counts and solutions
        if case == "lattice":
            system = assemble(fp.gen_sphere_lattice(fp.LatticeSpec(nx=4, ny=3, nz=3)))[0]
        else:
            f = np.random.default_rng(1).standard_normal(4)
            system = bare_system(KERSHAW + 0.45 * np.eye(4), f)
        K, f = system.K.toarray(), system.f
        M = np.diag(np.diag(K))
        x, r = np.zeros_like(f), f.copy()
        z = np.linalg.solve(M, r)
        p, rz = z.copy(), r @ z
        denom = np.sqrt(rz)
        for k in range(1, 1000):
            Ap = K @ p
            alpha = rz / (p @ Ap)
            x, r = x + alpha * p, r - alpha * Ap
            z = np.linalg.solve(M, r)
            if np.sqrt(r @ z) / denom <= 1e-10:
                break
            p, rz = z + (r @ z) / rz * p, r @ z
        u, stats = solve_pcg_ichol(system, tol=1e-10)
        assert stats.iterations == k
        assert np.linalg.norm(u - x) <= 1e-12 * np.linalg.norm(x)

    def test_kershaw_solves_without_shift(self):
        assert np.linalg.eigvalsh(KERSHAW).min() > 0
        f = np.array([1.0, -2.0, 3.0, 0.5])
        u, stats = solve_pcg_ichol(bare_system(KERSHAW, f), tol=1e-12)
        dense = np.linalg.solve(KERSHAW, f)
        assert np.linalg.norm(u - dense) <= 1e-10 * np.linalg.norm(dense)
        assert stats.iterations <= 4

    def test_missing_diagonal_gives_up_at_once(self):
        # K stores no zeros, so the collinear trusses' free uy and uz have
        # no diagonal entry: PCG stops before its first iteration and the
        # probe names the mechanism
        system, _ = assemble(collinear_trusses())
        assert np.any(system.stiffness.diagonal() == 0.0)
        with pytest.raises(MechanismError) as info:
            solve_pcg_ichol(system)
        assert info.value.point_id == 1 and info.value.dof in ("uy", "uz")

    def test_negative_diagonal_is_named(self):
        # no mechanism behind it, so the probe finds none and the message
        # names the entry; the probe's own failure is not chained to it
        system = bare_system(np.array([[4.0, 1.0], [1.0, -3.0]]), [1.0, 2.0])
        with pytest.raises(SolverError) as info:
            solve_pcg_ichol(system)
        assert type(info.value) is SolverError
        assert str(info.value) == ("Jacobi preconditioner needs a positive diagonal, "
                                   "K[1, 1] = -3")
        assert info.value.__cause__ is None and info.value.__context__ is None


class TestForcesAndEquilibrium:
    def test_cantilever_support_moment_tip_load(self):
        model = fp.gen_cantilever()
        model.self_weight_enabled = False
        _, _, _, disp, _ = solve_model(model)
        forces = recover_end_forces(model, disp)
        assert abs(forces[0, 0, 4]) == pytest.approx(264.777 * 1000.0, rel=1e-9)

    def test_cantilever_support_moment_with_self_weight(self):
        model = fp.gen_cantilever()
        _, _, _, disp, _ = solve_model(model)
        forces = recover_end_forces(model, disp)
        w = 7850e-9 * 9806.65 * D20_A * 1e-3
        expected = 264.777 * 1000.0 + w * 1000.0**2 / 2.0
        assert abs(forces[0, 0, 4]) == pytest.approx(expected, rel=1e-9)
        assert abs(forces[0, 0, 4]) == pytest.approx(276_870.0, rel=5e-5)

    def test_unloaded_far_elements_carry_nothing(self):
        # chain loaded only at the support side: free-end elements see nothing
        model = fp.gen_cantilever(fp.CantileverSpec(n_elements=3, tip_force=0.0))
        model.self_weight_enabled = False
        model.bcs[1] = BoundaryConditionEntry(id=1, components=(0, 0, -500.0, 0, 0, 0))
        model.points[1].bc_id = 1  # load right next to the support
        _, _, _, disp, _ = solve_model(model)
        forces = recover_end_forces(model, disp)
        scale = 500.0 * 1000.0  # applied force times beam length
        assert np.abs(forces[1]).max() < 1e-12 * scale
        assert np.abs(forces[2]).max() < 1e-12 * scale

    def test_element_equilibrium_under_self_weight(self):
        model = fp.gen_leonardo()
        _, _, _, disp, _ = solve_model(model)
        forces = recover_end_forces(model, disp)
        R, L, _ = cell_frames(model)
        for idx, cell in enumerate(model.cells):
            props = section_properties(model.cross_sections[cell.cs_id].shape)
            mat = model.materials[cell.mat_id]
            total = mat.density * props.A * GRAVITY * 1e-3 * L[idx]  # N, global
            p = forces[idx]
            force_sum_local = p[0, :3] + p[1, :3]
            residual = force_sum_local + R[idx] @ total
            scale = max(np.abs(p[:, :3]).max(), np.abs(R[idx] @ total).max())
            assert np.abs(residual).max() <= 1e-8 * scale

    def test_sliced_end_forces_match_the_whole_array(self, arch_50x5x24):
        # slices of 128 cells: 22 boundaries fall inside the 2,859 cells
        model = arch_50x5x24
        system, dm = assemble(model)
        disp = expand_displacements(dm, solve_direct(system)[0])
        el = _elements(model)
        m = len(el.ends)
        assert m > 2048
        u_local = disp[el.ends].reshape(m, 4, 3) @ el.R.transpose(0, 2, 1)
        whole = (el.k() @ u_local.reshape(m, 12, 1))[:, :, 0] - el.f
        assert np.array_equal(recover_end_forces(model, disp), whole.reshape(m, 2, 6))

    def test_global_equilibrium(self):
        for model in (fp.gen_cantilever(fp.CantileverSpec(n_elements=4)),
                      fp.gen_leonardo()):
            system, dm, u, disp, _ = solve_model(model)
            reactions = reaction_forces(system, u)
            applied = system.applied_loads
            coords = model.coords_array()
            force_residual = reactions[:, :3].sum(axis=0) + applied[:, :3].sum(axis=0)
            moment = np.zeros(3)
            for arr in (reactions, applied):
                moment += arr[:, 3:].sum(axis=0)
                moment += np.cross(coords, arr[:, :3]).sum(axis=0)
            scale = np.abs(applied[:, :3]).sum() or 1.0
            assert np.abs(force_residual).max() <= 1e-8 * scale
            mscale = np.abs(np.cross(coords, applied[:, :3])).sum() or 1.0
            assert np.abs(moment).max() <= 1e-8 * mscale

    def test_load_linearity(self):
        base = fp.gen_cantilever(fp.CantileverSpec(n_elements=4))
        base.self_weight_enabled = False
        _, _, _, disp0, _ = solve_model(base)
        forces0 = recover_end_forces(base, disp0)
        for alpha in (0.5, 2.0, -1.0):
            model = base.copy()
            model.bcs[1].components = alpha * model.bcs[1].components
            _, _, _, disp, _ = solve_model(model)
            forces = recover_end_forces(model, disp)
            assert np.allclose(disp, alpha * disp0, rtol=1e-12, atol=1e-300)
            assert np.allclose(forces, alpha * forces0, rtol=1e-12, atol=1e-300)

    def test_rigid_body_motion_produces_no_forces(self):
        # patch test: translation and linearized rotation lie in the nullspace
        model = fp.gen_leonardo()
        model.self_weight_enabled = False
        coords = model.coords_array()
        n = len(model.points)
        translation = np.zeros((n, 6))
        translation[:, :3] = (3.0, -7.0, 11.0)
        theta = np.array([2e-3, -1e-3, 3e-3])
        rotation = np.zeros((n, 6))
        rotation[:, :3] = np.cross(np.broadcast_to(theta, (n, 3)), coords)
        rotation[:, 3:] = theta
        scale = 210e3 * 1e4  # stiffness times motion magnitude headroom
        for field_ in (translation, rotation, translation + rotation):
            forces = recover_end_forces(model, field_)
            assert np.abs(forces).max() <= 1e-9 * scale

    def test_mesh_refinement_nodally_exact(self):
        tips = []
        for n in (1, 2, 4, 8):
            model = fp.gen_cantilever(fp.CantileverSpec(n_elements=n))
            model.self_weight_enabled = False
            _, _, _, disp, _ = solve_model(model)
            tips.append(disp[-1, 2])
        for tip in tips[1:]:
            assert tip == pytest.approx(tips[0], rel=1e-9)


class TestRigidLinks:
    def test_zero_offset_link_equals_merged_node(self):
        # two-beam bracket, shared node modelled either merged or via a link
        def bracket(linked):
            model = StructuralModel(self_weight_enabled=False)
            model.points = [
                Point(id=0, coords=(0, 0, 0)),
                Point(id=1, coords=(1000, 0, 0)),
                Point(id=2, coords=(1000, 0, 0)),
                Point(id=3, coords=(1000, 800, 0)),
            ]
            model.points[0].constraint_mask[:] = True
            second_start = 2 if linked else 1
            model.cells = [
                Cell(id=0, connectivity=(0, 1), cs_id=1, mat_id=1),
                Cell(id=1, connectivity=(second_start, 3), cs_id=1, mat_id=1),
            ]
            model.cross_sections[1] = CrossSection(id=1, shape=Circle(diameter=40.0))
            model.materials[1] = Material(id=1, E=E_STEEL, nu=0.2)
            model.bcs[1] = BoundaryConditionEntry(id=1, components=(0, 0, -2000.0, 0, 0, 0))
            model.points[3].bc_id = 1
            if linked:
                fp.make_rigid_link(model, master=1, slave=2)
            else:
                model.points = model.points.take([0, 1, 3])
            return model

        merged = bracket(linked=False)
        linked = bracket(linked=True)
        _, _, _, disp_m, _ = solve_model(merged)
        _, _, _, disp_l, _ = solve_model(linked)
        # tip displacement must agree
        assert np.allclose(disp_l[3], disp_m[2], rtol=1e-9, atol=1e-12)

    def test_eccentric_arm_transfer_moment(self):
        model = fp.gen_cantilever()
        model.self_weight_enabled = False
        # move the load off the axis via a 50 mm rigid arm
        model.points.append(Point(id=2, coords=(1000.0, 50.0, 0.0)))
        model.points[1].bc_id = 0
        model.points[2].bc_id = 1
        model.bcs[1] = BoundaryConditionEntry(id=1, components=(0, 0, -100.0, 0, 0, 0))
        fp.make_rigid_link(model, master=1, slave=2)
        system, dm, u, disp, _ = solve_model(model)
        reactions = reaction_forces(system, u)
        assert reactions[0, 2] == pytest.approx(100.0, rel=1e-9)
        # torsion reaction balances the F * 50 transfer moment
        assert reactions[0, 3] == pytest.approx(50.0 * 100.0, rel=1e-9)
        assert reactions[0, 4] == pytest.approx(-100.0 * 1000.0, rel=1e-9)

    def test_slave_displacement_follows_master(self):
        model = fp.gen_cantilever()
        model.self_weight_enabled = False
        model.points.append(Point(id=2, coords=(1000.0, 50.0, 0.0)))
        fp.make_rigid_link(model, master=1, slave=2)
        _, _, _, disp, _ = solve_model(model)
        master, slave = disp[1], disp[2]
        r = np.array([0.0, 50.0, 0.0])
        assert np.allclose(slave[:3], master[:3] + np.cross(master[3:], r), rtol=1e-12)
        assert np.allclose(slave[3:], master[3:], rtol=1e-12)

    def test_constrained_slave_rejected(self):
        model = fp.gen_cantilever()
        model.points.append(Point(id=2, coords=(500.0, 50.0, 0.0)))
        model.points[2].constraint_mask[0] = True
        message = "rigid link slave 2 may not carry support constraints"
        with pytest.raises(fp.TopologyError, match=f"^{message}$"):
            fp.make_rigid_link(model, master=1, slave=2)
        model.rigid_links.append(RigidLink(master=1, slave=2))
        assert [f.message for f in fp.validate(model).defects] == [message]
        with pytest.raises(SolverError, match=f"^{message}$"):
            build_dof_map(model)


def mixed_model():
    """Beams and trusses with rotation-free truss points, a rigid link whose
    master carries a fixed DOF, rectangles pinned by a global axis and by a
    point id, nodal loads (one on the slave) and self-weight."""
    model = StructuralModel()
    coords = [(0, 0, 0), (0, 0, 1000), (1000, 0, 1000), (1000, 0, 1100),
              (1500, 0, 0), (500, 500, 500), (1000, 800, 1100)]
    model.points = [Point(id=10 * i, coords=xyz) for i, xyz in enumerate(coords)]
    model.points[0].constraint_mask[:] = True
    model.points[2].constraint_mask[1] = True  # link master: uy fixed
    model.points[4].constraint_mask[:3] = True  # truss-only pin
    model.cross_sections[1] = CrossSection(id=1, shape=Circle(diameter=30.0))
    model.cross_sections[2] = CrossSection(
        id=2, shape=Rectangle(width=40.0, height=90.0, ref_axis="y", ref_code=-1))
    model.cross_sections[3] = CrossSection(
        id=3, shape=Rectangle(width=30.0, height=60.0, ref_axis="z", ref_code=50))
    model.materials[1] = Material(id=1, E=E_STEEL, nu=0.3, density=7850e-9)
    model.materials[2] = Material(id=2, E=70e3, nu=0.33, density=2700e-9)
    model.cells = [
        Cell(id=0, connectivity=(0, 10), cs_id=2, mat_id=1),
        Cell(id=1, connectivity=(10, 20), cs_id=3, mat_id=1),
        Cell(id=2, connectivity=(30, 60), cs_id=1, mat_id=2),
        Cell(id=3, connectivity=(30, 40), cs_id=1, mat_id=1, kind=TRUSS_LINE),
        Cell(id=4, connectivity=(50, 0), cs_id=1, mat_id=2, kind=TRUSS_LINE),
        Cell(id=5, connectivity=(50, 10), cs_id=1, mat_id=2, kind=TRUSS_LINE),
        Cell(id=6, connectivity=(50, 40), cs_id=1, mat_id=1, kind=TRUSS_LINE),
    ]
    loads = {60: (100.0, -200.0, -300.0, 1e4, 0, 0), 50: (0, 0, -500.0, 0, 0, 0),
             30: (50.0, 0, 0, 0, 0, 2e3)}
    for bc_id, (pid, comps) in enumerate(loads.items(), start=1):
        model.bcs[bc_id] = BoundaryConditionEntry(id=bc_id, components=comps)
        model.points[pid // 10].bc_id = bc_id
    fp.make_rigid_link(model, master=20, slave=30)
    return model


def given_offsets_model():
    """``mixed_model`` with a second slave of point 20, tied by an arm that
    differs from the positions and holds a negative zero."""
    model = mixed_model()
    model.points.append(Point(id=70, coords=(900.0, 0.0, 1000.0)))
    model.cells.append(Cell(id=7, connectivity=(70, 60), cs_id=1, mat_id=1))
    model.rigid_links.append(RigidLink(master=20, slave=70, offset=(-0.0, 35.0, -80.0)))
    return model


def dense_reference(model, dm):
    """Element matrices scattered into 6n slots, textbook self-weight loads and
    an explicit master-slave matrix C, with u_6n = C [u_free; u_fixed].
    Returns C^T K C, C^T F, the per-point loads F and C."""
    n = len(model.points)
    index = model.point_index()
    coords = model.coords_array()
    K6 = np.zeros((6 * n, 6 * n))
    F6 = np.zeros(6 * n)
    for cell, k in zip(model.cells, element_stiffness(model)):
        a, b = (index[pid] for pid in cell.connectivity)
        dofs = [6 * a + c for c in range(6)] + [6 * b + c for c in range(6)]
        K6[np.ix_(dofs, dofs)] += k
        # uniform load q: q L / 2 per end, plus fixed-end moments +-L^2/12 ex x q
        props = section_properties(model.cross_sections[cell.cs_id].shape)
        q = model.materials[cell.mat_id].density * props.A * GRAVITY * 1e-3
        dx = coords[b] - coords[a]
        L = np.linalg.norm(dx)
        F6[6 * a:6 * a + 3] += q * L / 2.0
        F6[6 * b:6 * b + 3] += q * L / 2.0
        if cell.kind != TRUSS_LINE:
            moment = L**2 / 12.0 * np.cross(dx / L, q)
            F6[6 * a + 3:6 * a + 6] += moment
            F6[6 * b + 3:6 * b + 6] -= moment
    for i, p in enumerate(model.points):
        if p.bc_id:
            F6[6 * i:6 * i + 6] += model.bcs[p.bc_id].components

    slaves = {link.slave: link for link in model.rigid_links}
    C = np.zeros((6 * n, dm.n_eq + dm.n_fixed))
    column = dm.column
    for i, p in enumerate(model.points):
        if p.id in slaves:
            link = slaves[p.id]
            mi = index[link.master]
            r = coords[i] - coords[mi] if link.offset is None else link.offset
            arm = np.cross(np.eye(3), r).T  # column j: e_j x r
            for comp in range(6):
                C[6 * i + comp, column[mi, comp]] = 1.0
                if comp < 3:
                    for j in range(3):
                        C[6 * i + comp, column[mi, 3 + j]] += arm[comp, j]
        else:
            for comp in range(6):
                if p.constraint_mask[comp] or 0 <= column[i, comp] < dm.n_eq:
                    C[6 * i + comp, column[i, comp]] = 1.0
    return C.T @ K6 @ C, C.T @ F6, F6.reshape(n, 6), C


class TestAssemblyReference:
    def test_mixed_model_matches_dense_reference(self):
        model = mixed_model()
        system, dm = assemble(model)
        # rotations exist exactly at beam ends and linked points
        unmapped = (dm.column < 0).any(axis=1)
        unmapped[dm.links[:, 1]] = False
        inactive = set(dm.point_ids[unmapped].tolist())
        assert inactive == {40, 50}
        assert dm.n_fixed == 10 and dm.n_eq == 42 - 10 - 6 - 6  # slots - fixed - slave - inactive
        full, rhs, applied, C = dense_reference(model, dm)
        assert np.array_equal(transformation(dm).toarray(), C)
        ne = dm.n_eq
        scale = np.abs(full).max()
        for got, want in ((system.K, full[:ne, :ne]),
                          (system.reaction_matrix.as_scipy(), full[ne:, :ne])):
            assert np.abs(got.toarray() - want).max() <= 1e-12 * scale
        fscale = np.abs(rhs).max()
        assert np.abs(system.f - rhs[:ne]).max() <= 1e-12 * fscale
        assert np.abs(system.reaction_rhs - rhs[ne:]).max() <= 1e-12 * fscale
        assert np.abs(system.applied_loads - applied).max() <= 1e-12 * fscale

    def test_pinned_rectangles_orient_their_axes(self):
        # translational block of R^T k R has eigenpairs (12 E I / L^3, axis)
        model = mixed_model()
        s = 1.0 / math.sqrt(2.0)
        stiffness = element_stiffness(model)
        for i, ey, ez in ((0, (1, 0, 0), (0, 1, 0)), (1, (0, -s, -s), (0, s, -s))):
            props = section_properties(model.cross_sections[model.cells[i].cs_id].shape)
            block = stiffness[i][:3, :3]
            bend = 12.0 * E_STEEL / 1000.0**3
            assert np.allclose(block @ ey, bend * props.Iz * np.array(ey), rtol=1e-12)
            assert np.allclose(block @ ez, bend * props.Iy * np.array(ez), rtol=1e-12)

    def test_moment_on_rotation_free_point_refused(self):
        model = mixed_model()
        model.bcs[2].components = np.array([0, 0, -500.0, 0, 0, 1.0])
        with pytest.raises(SolverError, match=r"rotation-free point 50 \(rz\)"):
            assemble(model)

    def test_chained_link_refused(self):
        model = mixed_model()
        model.rigid_links.append(RigidLink(master=30, slave=60))
        with pytest.raises(SolverError, match="both master and slave"):
            build_dof_map(model)

    def test_repeated_slave_refused(self):
        model = mixed_model()
        model.rigid_links.append(RigidLink(master=10, slave=30))
        with pytest.raises(SolverError, match="point 30 is slave of two links"):
            build_dof_map(model)

    def test_given_offsets_enter_the_transformation(self):
        model = given_offsets_model()
        system, dm = assemble(model)
        full, _, _, C = dense_reference(model, dm)
        assert np.array_equal(transformation(dm).toarray(), C)
        ne = dm.n_eq
        assert np.abs(system.K.toarray() - full[:ne, :ne]).max() <= 1e-12 * np.abs(full).max()
        u = np.random.default_rng(2).standard_normal(ne)
        want = (C[:, :ne] @ u).reshape(-1, 6)
        assert np.abs(expand_displacements(dm, u) - want).max() <= 1e-14 * np.abs(want).max()

    def test_cell_between_two_slaves_matches_dense_reference(self):
        # both ends of the element move onto master 20, through different arms
        model = given_offsets_model()
        model.cells.append(Cell(id=8, connectivity=(30, 70), cs_id=1, mat_id=1))
        system, dm = assemble(model)
        full, rhs, _, _ = dense_reference(model, dm)
        ne = dm.n_eq
        assert np.abs(system.K.toarray() - full[:ne, :ne]).max() <= 1e-12 * np.abs(full).max()
        assert np.abs(system.f - rhs[:ne]).max() <= 1e-12 * np.abs(rhs).max()


def aimed_cantilever():
    """The default cantilever with its section aimed at an unsupported
    point that nothing else uses: an orientation point."""
    model = fp.gen_cantilever()
    model.points.append(Point(id=2, coords=(0.0, 0.0, 1000.0)))
    model.cross_sections[2] = CrossSection(id=2, shape=Rectangle(20.0, 30.0, "z", 2))
    return model


def expected_columns(model):
    """The column of T each slot maps onto by itself, (n, 6), derived from
    the model alone.  A slot is fixed when its support mask says so.  A
    slave's slots, the rotations of a point that no beam or link end
    reaches, and every slot of an unloaded point that only aims a section
    map onto nothing (-1).  Free slots take 0..n_eq-1 and fixed slots
    n_eq..n_eq+n_fixed-1, each in point order, then DOF order."""
    slaves = {link.slave for link in model.rigid_links}
    linked = slaves | {link.master for link in model.rigid_links}
    cell_ends = {pid for cell in model.cells for pid in cell.connectivity}
    beam_ends = {pid for cell in model.cells if cell.kind != TRUSS_LINE
                 for pid in cell.connectivity}
    aims = {cs.shape.ref_code for cs in model.cross_sections.values()
            if isinstance(cs.shape, Rectangle) and cs.shape.ref_axis is not None
            and cs.shape.ref_code >= 0}
    free, fixed = [], []
    for i, p in enumerate(model.points):
        aims_only = p.id in aims and p.id not in cell_ends | linked and not p.bc_id
        rotates = p.id in beam_ends | linked
        for comp in range(6):
            if p.constraint_mask[comp]:
                fixed.append((i, comp))
            elif not (p.id in slaves or aims_only or (comp >= 3 and not rotates)):
                free.append((i, comp))
    column = np.full((len(model.points), 6), -1)
    for col, slot in enumerate(free + fixed):
        column[slot] = col
    return column, len(free), len(fixed)


@pytest.mark.parametrize("make", [mixed_model, given_offsets_model, aimed_cantilever])
def test_numbering_follows_the_model(make):
    # the oracle reads the model, not the map, so a consistent renumbering fails
    model = make()
    system, dm = assemble(model)
    column, n_eq, n_fixed = expected_columns(model)
    assert (dm.n_eq, dm.n_fixed) == (n_eq, n_fixed)
    assert np.array_equal(dm.column, column)
    u = np.random.default_rng(5).standard_normal(n_eq)
    rows = system.reaction_matrix @ u - system.reaction_rhs
    reactions = reaction_forces(system, u)
    fixed = column >= n_eq
    assert np.array_equal(reactions[fixed], rows[column[fixed] - n_eq])
    assert not reactions[~fixed].any()


def scipy_reduction(model, dm, applied):
    """The reduced system as scipy forms it, the reference for the numpy
    assembly: element matrices summed into K_6n, then T^T K_6n T over the
    free columns and T^T of the per-point loads."""
    k = element_stiffness(model)
    m = len(k)
    ends = model.points.positions(model.cells.ends)
    slots = (6 * ends[:, :, None] + np.arange(6)).reshape(m, 12)
    nonzero = k != 0.0
    rows = np.broadcast_to(slots[:, :, None], k.shape)[nonzero]
    cols = np.broadcast_to(slots[:, None, :], k.shape)[nonzero]
    n_slots = 6 * len(model.points)
    K6 = sp.csr_matrix((k[nonzero], (rows, cols)), shape=(n_slots, n_slots))
    T = transformation(dm)
    reduced = (T.T @ (K6 @ T[:, : dm.n_eq])).tocsr()
    reduced.sort_indices()
    return reduced, T.T @ applied.ravel()


def sorted_assembly(model, dm):
    """The reduced system as a stable sort and sum of every cell's 12x12
    entries, the reference for the block assembly's bits.  The entries come
    in the order of the cells and of their rows and columns; a stable sort
    by (row, column) keeps that order within a position, and np.bincount
    adds its terms one at a time.  Returns the CSR arrays (indptr, indices,
    data) of [K; reaction rows], [f; reaction_rhs] and the per-point loads."""
    n, n_eq, n_fixed = len(model.points), dm.n_eq, dm.n_fixed
    el = _elements(model)
    m, ends = len(el.ends), el.ends
    k = element_stiffness(model)
    link_of = np.full(n, -1)
    link_of[dm.links[:, 1]] = np.arange(len(dm.links))
    end_link = link_of[ends]
    linked = np.flatnonzero((end_link >= 0).any(axis=1))
    if len(linked):
        C = np.tile(np.eye(12), (len(linked), 1, 1))
        for end in (0, 1):
            on = end_link[linked, end] >= 0
            C[on, 6 * end : 6 * end + 6, 6 * end : 6 * end + 6] = \
                dm.coupling[end_link[linked[on], end]]
        k[linked] = C.transpose(0, 2, 1) @ k[linked] @ C
    owner = np.arange(n)
    owner[dm.links[:, 1]] = dm.links[:, 0]
    column = dm.column[owner[ends]].reshape(m, 12)
    rows = np.broadcast_to(column[:, :, None], k.shape)
    cols = np.broadcast_to(column[:, None, :], k.shape)
    keep = (k != 0.0) & (rows >= 0) & (cols >= 0) & (cols < n_eq)
    key = rows[keep] * n_eq + cols[keep]
    order = np.argsort(key, kind="stable")
    key, values = key[order], k[keep][order]
    first = np.concatenate([[True], key[1:] != key[:-1]])
    data = np.bincount(np.cumsum(first) - 1, values, int(first.sum()))
    key = key[first][data != 0.0]
    row, col = np.divmod(key, max(n_eq, 1))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=n_eq + n_fixed))])

    loads = np.zeros((n, 6))
    for i, p in enumerate(model.points):
        if p.bc_id:
            loads[i] = model.bcs[p.bc_id].components
    slots = (6 * ends[:, :, None] + np.arange(6)).ravel()
    f_global = (el.f.reshape(m, 4, 3) @ el.R).ravel()
    applied = np.bincount(slots, f_global, 6 * n).reshape(n, 6) + loads
    moved = applied.copy()
    np.add.at(moved, dm.links[:, 0], np.einsum("kji,kj->ki", dm.coupling, moved[dm.links[:, 1]]))
    own = dm.column.ravel() >= 0
    rhs = np.bincount(dm.column.ravel()[own], moved.ravel()[own], n_eq + n_fixed)
    return (indptr, col, data[data != 0.0]), rhs, applied


def closed_mobile():
    return fp.gen_leonardo(fp.LeonardoSpec(variant="closed_mobile"))


def self_linked_model():
    """``mixed_model`` with a beam from the link master 20 to its own slave
    30: all four of its point-pair blocks land on the master's."""
    model = mixed_model()
    model.cells.append(Cell(id=7, connectivity=(20, 30), cs_id=1, mat_id=1))
    return model


ORACLE_MODELS = pytest.mark.parametrize(
    "build", [fp.gen_cantilever, closed_mobile, given_offsets_model, mixed_model,
              self_linked_model, "arch"],
    ids=["cantilever", "closed_mobile", "given_offsets", "truss_only_points", "self_linked",
         "arch_50x5x24"])


class TestAssemblyOracle:
    """The block assembly against scipy's T^T K_6n T, and bit for bit
    against the stable sort and sum of the cells' entries."""

    @ORACLE_MODELS
    def test_matches_scipy_reduction(self, build, request):
        model = request.getfixturevalue("arch_50x5x24") if build == "arch" else build()
        system, dm = assemble(model)
        reference, rhs = scipy_reduction(model, dm, system.applied_loads)
        ne = dm.n_eq
        scale = np.abs(reference.data).max()
        for got, want in ((system.stiffness, reference[:ne]),
                          (system.reaction_matrix, reference[ne:])):
            assert got.shape == want.shape
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.abs(got.data - want.data).max(initial=0.0) <= 1e-14 * scale
            rows = np.repeat(np.arange(got.shape[0]), np.diff(got.indptr))
            assert np.all((np.diff(got.indices) > 0) | (np.diff(rows) > 0))
            assert np.all(got.data != 0.0)
        K = system.K
        assert abs(K - K.T).max() <= 1e-12 * scale
        fscale = np.abs(rhs).max()
        assert np.abs(system.f - rhs[:ne]).max() <= 1e-14 * fscale
        assert np.abs(system.reaction_rhs - rhs[ne:]).max(initial=0.0) <= 1e-14 * fscale

    @ORACLE_MODELS
    def test_bits_match_sorted_assembly(self, build, request):
        self.assert_bits_match_sorted_assembly(
            request.getfixturevalue("arch_50x5x24") if build == "arch" else build())

    @pytest.mark.parametrize("chunk", [1, 7])
    @ORACLE_MODELS
    def test_bits_match_sorted_assembly_in_small_chunks(self, build, chunk, request,
                                                         monkeypatch):
        # chunks of one and of seven row points put a chunk edge between
        # most ends of a cell and between a point and its neighbours; the
        # default chunk of 128 holds the smaller models whole
        model = request.getfixturevalue("arch_50x5x24") if build == "arch" else build()
        monkeypatch.setattr(solver, "_CHUNK", chunk)
        self.assert_bits_match_sorted_assembly(model)

    @staticmethod
    def assert_bits_match_sorted_assembly(model):
        system, dm = assemble(model)
        (indptr, indices, data), rhs, applied = sorted_assembly(model, dm)
        ne, at = dm.n_eq, indptr[dm.n_eq]
        for got, want in ((system.stiffness, (indptr[: ne + 1], indices[:at], data[:at])),
                          (system.reaction_matrix, (indptr[ne:] - at, indices[at:], data[at:]))):
            assert got.indptr.dtype == got.indices.dtype == np.int32
            assert np.array_equal(got.indptr, want[0])
            assert np.array_equal(got.indices, want[1])
            assert got.data.tobytes() == want[2].tobytes()
        assert system.f.tobytes() == rhs[:ne].tobytes()
        assert system.reaction_rhs.tobytes() == rhs[ne:].tobytes()
        assert system.applied_loads.tobytes() == applied.tobytes()

    def test_k_is_a_scipy_view_of_the_arrays(self):
        system, _ = assemble(fp.gen_leonardo())
        K, arrays = system.K, system.stiffness
        assert isinstance(K, sp.csr_matrix)
        for view, own in ((K.data, arrays.data), (K.indices, arrays.indices),
                          (K.indptr, arrays.indptr)):
            assert np.shares_memory(view, own)
        x = np.random.default_rng(4).standard_normal(K.shape[0])
        assert np.abs(arrays @ x - K @ x).max() <= 1e-14 * np.abs(K @ x).max()


def random_csr(rng, shape, density, empty=()):
    """A random CSR matrix of the given shape and density, with no entry in
    the rows ``empty``."""
    A = rng.standard_normal(shape) * (rng.random(shape) < density)
    A[list(empty)] = 0.0
    return csr_arrays(A)


def hub_csr(rng):
    """50 x 2100 with row 7 a hub of 2,000 entries, as a rigid-link master
    tied to many slaves gives, and up to three entries in the other rows."""
    rows = [np.full(2000, 7)]
    cols = [rng.permutation(2100)[:2000]]
    for i in range(50):
        if i != 7:
            rows.append(np.full(3, i))
            cols.append(rng.permutation(2100)[:3])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    return csr_arrays(sp.coo_matrix((rng.standard_normal(len(rows)), (rows, cols)),
                                    shape=(50, 2100)))


def assert_product_matches_scipy(A, x):
    """A @ x against scipy's CSR product, within 1e-15 of each row's sum of
    |a_ij x_j|, the scale of its rounding; a repeat product is bit-identical."""
    got = A @ x
    reference = A.as_scipy() @ x
    assert got.dtype == np.float64 and got.shape == (A.shape[0],)
    scale = abs(A.as_scipy()) @ np.abs(x)
    assert np.all(np.abs(got - reference) <= 1e-15 * scale)
    assert (A @ x).tobytes() == got.tobytes()


def arrays_in(value):
    """The numpy arrays in ``value``, itself one or nested lists and tuples
    of them."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (list, tuple)):
        return [a for v in value for a in arrays_in(v)]
    return []


class TestCsrProduct:
    """``CsrArrays @`` against scipy's CSR product, and the infinity norm
    against scipy's row sums."""

    @pytest.mark.parametrize("case", ["empty-first", "empty-middle", "empty-last", "all-empty",
                                      "0xn", "nx0", "reactions", "hub"])
    def test_matches_scipy(self, case):
        rng = np.random.default_rng(7)
        A = {
            "empty-first": lambda: random_csr(rng, (6, 9), 0.5, empty=[0]),
            "empty-middle": lambda: random_csr(rng, (6, 9), 0.5, empty=[2, 3]),
            "empty-last": lambda: random_csr(rng, (6, 9), 0.5, empty=[5]),
            "all-empty": lambda: csr_arrays(np.zeros((4, 3))),
            "0xn": lambda: csr_arrays(np.zeros((0, 5))),
            "nx0": lambda: csr_arrays(np.zeros((5, 0))),
            "reactions": lambda: assemble(fp.gen_leonardo())[0].reaction_matrix,
            "hub": lambda: hub_csr(rng),
        }[case]()
        if case == "all-empty":
            assert A.data.size == 0
        assert_product_matches_scipy(A, rng.standard_normal(A.shape[1]))

    def test_empty_rows_read_zero(self):
        A = random_csr(np.random.default_rng(3), (7, 5), 0.6, empty=[0, 3, 6])
        assert np.all((A @ np.ones(5))[[0, 3, 6]] == 0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 12), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_random_matrices_match_scipy(self, n_rows, n_cols, density, seed):
        rng = np.random.default_rng(seed)
        assert_product_matches_scipy(random_csr(rng, (n_rows, n_cols), density),
                                     rng.standard_normal(n_cols))

    @pytest.mark.parametrize("run", [1, 4, 13])
    @pytest.mark.parametrize("case", ["empty-rows", "hub", "reactions"])
    def test_runs_of_a_few_entries_match_one_run(self, case, run, monkeypatch):
        # runs of a few entries put run edges next to and between empty rows
        # and cut the rest into many runs; a hub row longer than a run is a
        # run of its own.  Each row still sums in one reduceat run, so the
        # bytes are those of a single run
        rng = np.random.default_rng(11)
        A = {
            "empty-rows": lambda: random_csr(rng, (40, 30), 0.3,
                                             empty=[0, 1, 5, 6, 7, 12, 20, 21, 38, 39]),
            "hub": lambda: hub_csr(rng),
            "reactions": lambda: assemble(fp.gen_leonardo())[0].reaction_matrix,
        }[case]()
        x = rng.standard_normal(A.shape[1])
        one = (A @ x).tobytes(), _inf_norm(A), A.diagonal().tobytes()
        monkeypatch.setattr(solver, "_RUN", run)
        short = CsrArrays(A.indptr, A.indices, A.data, A.shape)
        assert len(short._runs) > 4
        assert (short @ x).tobytes() == one[0]
        assert _inf_norm(short) == one[1]
        assert short.diagonal().tobytes() == one[2]
        assert_product_matches_scipy(short, x)
        want = np.asarray(abs(A.as_scipy()).sum(axis=1)).max(initial=0.0)
        assert abs(_inf_norm(short) - want) <= 1e-14 * want

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 12), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_inf_norm_matches_scipy(self, n_rows, n_cols, density, seed):
        # rows sum in another order than scipy's, so the last bits may differ
        A = random_csr(np.random.default_rng(seed), (n_rows, n_cols), density)
        want = np.asarray(abs(A.as_scipy()).sum(axis=1)).max(initial=0.0)
        assert abs(_inf_norm(A) - want) <= 1e-14 * want


class TestMemoryGates:
    """Traced peaks on the cleaned 50x5x24 arch: the direct factor holds
    little beyond its level inverses, PCG nothing nnz-sized beside K,
    assembly one chunk of blocks, and neither assembly nor force recovery a
    whole (m, 12, 12) stiffness."""

    def test_assembly_holds_blocks_not_triplets(self, arch_50x5x24):
        # 3.7 MB: the 6x6 blocks take 2.0 MB and the peak holds no more than
        # a slice of cells beside them; a sort of every cell's (row, column,
        # value) triplets after an (m, 12, 12) stack peaked at 8.0 MB
        assert traced_peak(assemble, arch_50x5x24) <= 5.5e6

    def test_assembly_holds_one_chunk_of_blocks(self, arch_50x5x24):
        # 2.5 MB: the returned system takes 1.0 MB, and beside it the peak
        # holds the element arrays and one chunk's blocks; filling every
        # point-pair block before keeping any took 3.7 MB
        assert traced_peak(assemble, arch_50x5x24) <= 2.9e6

    def test_pcg_holds_nothing_nnz_sized_beside_k(self, arch_50x5x24):
        # PCG holds about ten vectors of n and one run of a product at a
        # time: 0.70 MB here in runs of 16k (0.97 MB in runs of 2^15),
        # where an intp copy of K's indices, 8 bytes an entry, took 1.61 MB
        system = assemble(arch_50x5x24)[0]
        n = system.stiffness.shape[0]
        assert traced_peak(solve_pcg_ichol, system) <= 3 * 8 * solver._RUN + 10 * 8 * n

    def test_level_factor_holds_little_beyond_its_inverses(self, arch_50x5x24):
        # the stripes of the inverses take 8 nnz bytes and the peak is 1.35
        # times that; square inverses reach 1.80, and a factor that also
        # stores each C_i more
        K = assemble(arch_50x5x24)[0].stiffness
        width = np.array([len(level) for level in _level_sets(K)])
        assert traced_peak(_LevelCholesky, K) <= 1.5 * 8 * np.sum(striped_size(width))

    def test_product_holds_one_run_beside_its_output(self, arch_50x5x24):
        # after a warm-up product the matrix keeps only its run plan, a few
        # numbers a row.  A product then holds a run's gathered terms and
        # take's intp copy of its indices, 8 bytes an entry each, and its n
        # doubles of output: 0.31 MB here in runs of 16k (0.58 MB in runs
        # of 2^15), where a first product that also cached an intp copy of
        # every index took 1.13 MB
        K = assemble(arch_50x5x24)[0].stiffness
        x = np.ones(K.shape[0])
        K @ x
        n, nnz = K.shape[0], len(K.data)
        assert traced_peak(K.__matmul__, x) <= 3 * 8 * solver._RUN + 8 * n
        cached = arrays_in([v for k, v in vars(K).items() if k not in ("indptr", "indices", "data")])
        assert all(a.size < nnz for a in cached)
        assert sum(a.size for a in cached) <= 2 * n

    def test_direct_solve_holds_its_factor_and_little_more(self, arch_50x5x24):
        # beside the factor's stripes, coupling triplets and order, the solve
        # holds vectors of n and one run of a product at a time: 0.8 MB here
        system = assemble(arch_50x5x24)[0]
        factor = _LevelCholesky(system.stiffness)
        held = sum(a.nbytes for a in arrays_in([factor.stripes, factor.coupling, factor.perm]))
        del factor
        assert traced_peak(solve_direct, system) <= held + 1e6

    def test_force_recovery_grows_with_its_output(self, arch_50x5x24):
        # 2 MB for slices of 12x12 matrices, then 700 bytes per cell: less
        # than the 1,152 that one (m, 12, 12) array of doubles needs.  The
        # peak is 1.4 MB of the 4.0 MB bound here
        system, dm = assemble(arch_50x5x24)
        disp = expand_displacements(dm, solve_direct(system)[0])
        m = len(arch_50x5x24.cells)
        assert traced_peak(recover_end_forces, arch_50x5x24, disp) <= 2e6 + 700 * m
