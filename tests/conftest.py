import os
import tracemalloc

import numpy as np
import pytest

from formpipe.model import (
    BEAM_LINE,
    TRUSS_LINE,
    BoundaryConditionEntry,
    Cell,
    Circle,
    CrossSection,
    GenericSection,
    Material,
    Point,
    Rectangle,
    StructuralModel,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture
def reference_cantilever_text():
    with open(os.path.join(DATA_DIR, "reference_cantilever.vtp"), encoding="utf-8") as fh:
        return fh.read()


def traced_peak(call, *args):
    """Peak bytes that tracemalloc sees allocated during call(*args)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def assert_models_equal(a: StructuralModel, b: StructuralModel):
    assert a.comment == b.comment
    assert len(a.points) == len(b.points)
    for pa, pb in zip(a.points, b.points):
        assert pa.id == pb.id
        assert np.array_equal(pa.coords, pb.coords)
        assert np.array_equal(pa.constraint_mask, pb.constraint_mask)
        assert pa.bc_id == pb.bc_id
    assert len(a.cells) == len(b.cells)
    for ca, cb in zip(a.cells, b.cells):
        assert (ca.id, ca.connectivity, ca.cs_id, ca.mat_id, ca.kind) == (
            cb.id,
            cb.connectivity,
            cb.cs_id,
            cb.mat_id,
            cb.kind,
        )
    assert sorted(a.cross_sections) == sorted(b.cross_sections)
    for key in a.cross_sections:
        assert a.cross_sections[key].shape == b.cross_sections[key].shape
        assert a.cross_sections[key].extra == b.cross_sections[key].extra
    assert sorted(a.materials) == sorted(b.materials)
    for key in a.materials:
        ma, mb = a.materials[key], b.materials[key]
        assert (ma.E, ma.nu, ma.tAlpha, ma.density, ma.Ry, ma.extra) == (
            mb.E,
            mb.nu,
            mb.tAlpha,
            mb.density,
            mb.Ry,
            mb.extra,
        )
    assert sorted(a.bcs) == sorted(b.bcs)
    for key in a.bcs:
        assert np.array_equal(a.bcs[key].components, b.bcs[key].components)
        assert a.bcs[key].extra == b.bcs[key].extra
    assert len(a.rigid_links) == len(b.rigid_links)
    for la, lb in zip(a.rigid_links, b.rigid_links):
        assert (la.master, la.slave) == (lb.master, lb.slave)
        if la.offset is None or lb.offset is None:
            assert la.offset is None and lb.offset is None
        else:
            assert np.array_equal(la.offset, lb.offset)


def random_model(rng: np.random.Generator, n_points: int = 12, with_extras: bool = False,
                 with_trusses: bool = True, span: float = 1000.0) -> StructuralModel:
    """Random valid model with dense ids, mixed catalogs and loads."""
    model = StructuralModel(comment=f"random model {rng.integers(1_000_000)}")
    coords = rng.uniform(-span, span, size=(n_points, 3))
    for i in range(n_points):
        mask = rng.random(6) < 0.15
        model.points.append(Point(id=i, coords=coords[i], constraint_mask=mask))

    shapes = [
        Circle(diameter=float(rng.uniform(5.0, 80.0))),
        Rectangle(width=float(rng.uniform(20.0, 200.0)), height=float(rng.uniform(20.0, 200.0))),
        Rectangle(
            width=float(rng.uniform(20.0, 200.0)),
            height=float(rng.uniform(20.0, 200.0)),
            ref_axis="y",
            ref_code=-2,
        ),
        GenericSection(A=150.0, Iy=4.0e4, Iz=3.0e4, J=7.0e4, Wy=1.6e3, Wz=1.3e3, Wt=3.0e3),
    ]
    n_cs = int(rng.integers(1, len(shapes) + 1))
    for idx in range(n_cs):
        extra = (("grade", "S"),) if with_extras and idx == 0 else ()
        model.cross_sections[idx + 1] = CrossSection(id=idx + 1, shape=shapes[idx], extra=extra)

    n_mat = int(rng.integers(1, 3))
    for idx in range(n_mat):
        extra = (("source", "catalog"),) if with_extras and idx == 0 else ()
        model.materials[idx + 1] = Material(
            id=idx + 1,
            E=float(rng.uniform(5e3, 250e3)),
            nu=float(rng.uniform(0.0, 0.45)),
            tAlpha=float(rng.uniform(0.0, 2e-5)),
            density=float(rng.uniform(0.0, 9e-6)),
            Ry=float(rng.uniform(20.0, 500.0)),
            extra=extra,
        )

    n_bc = int(rng.integers(0, 3))
    for idx in range(n_bc):
        model.bcs[idx + 1] = BoundaryConditionEntry(
            id=idx + 1, components=rng.uniform(-5e3, 5e3, size=6)
        )
    for i in range(n_points):
        if n_bc and rng.random() < 0.2:
            model.points[i].bc_id = int(rng.integers(1, n_bc + 1))

    n_cells = max(1, int(rng.integers(n_points // 2, 2 * n_points)))
    cid = 0
    for _ in range(n_cells):
        a, b = rng.choice(n_points, size=2, replace=False)
        kind = TRUSS_LINE if (with_trusses and rng.random() < 0.2) else BEAM_LINE
        model.cells.append(
            Cell(
                id=cid,
                connectivity=(int(a), int(b)),
                cs_id=int(rng.integers(1, n_cs + 1)),
                mat_id=int(rng.integers(1, n_mat + 1)),
                kind=kind,
            )
        )
        cid += 1
    return model
