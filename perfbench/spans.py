"""In-process traced run: one span around every call into formpipe's public
functions, in the order ``formpipe.cli`` makes them.

A span records its name, start, end and parent; the spans of one workload
iteration share a trace id.  Spans stay in memory and are written out with
the run record when the benchmark ends.  Tracing lives in the benchmark, not
in the program: ``solver.assemble`` calls ``validate`` and
``check_support_reachability`` internally, and those inner calls are part of
the assemble span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self.trace_id = 0
        self._stack = []

    @contextmanager
    def span(self, name):
        rec = {
            "id": len(self.spans),
            "trace": self.trace_id,
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def iteration(self, trace_id):
        self.trace_id = trace_id
        return self.span("iteration")


def self_times(spans) -> dict:
    """Span id -> duration minus the time its children cover.  Children of one
    span run one after another on one thread, so they never overlap."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _parse(fp, tracer, path):
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    with tracer.span("exchange.parse_model") as sp:
        model = fp.parse_model(text)
    sp["counts"]["input_bytes"] = len(text.encode())
    return model


def _write(tracer, name, write, path, *args):
    with tracer.span(name) as sp:
        text = write(*args)
    sp["counts"]["output_bytes"] = len(text.encode())
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def traced_iteration(fp, tracer, wl, seed, model_in, cleaned, results):
    """One pass of the workload's commands in process.

    The ``gen`` span regenerates the lattice in memory only, to time
    casegen; the commands then read the same input file the CLI reads.
    Returns the solve's (model, system, u, results), or None when the
    workload does not solve.
    """
    with tracer.span("gen"):
        occupancy = None
        if wl.arch_thickness is not None:
            occupancy = tracer.call("casegen.arch_occupancy", fp.arch_occupancy,
                                    wl.nx, wl.ny, wl.nz, thickness=wl.arch_thickness)
        spec = fp.LatticeSpec(occupancy=occupancy, nx=wl.nx, ny=wl.ny, nz=wl.nz,
                              splash_fraction=0.01, seed=seed)
        tracer.call("casegen.gen_sphere_lattice", fp.gen_sphere_lattice, spec)

    if wl.soup:
        with tracer.span("check"):
            model = _parse(fp, tracer, model_in)
            report = tracer.call("model.validate", fp.validate, model)
            if report.ok:
                tracer.call("topology.check_support_reachability",
                            fp.check_support_reachability, model)

    with tracer.span("clean") as clean_span:
        model = _parse(fp, tracer, model_in)
        counts = clean_span["counts"]
        counts["points"] = len(model.points)
        counts["cells_before"] = len(model.cells)
        model, rep = tracer.call("topology.merge_duplicate_nodes",
                                 fp.merge_duplicate_nodes, model, tol=wl.merge_tol)
        counts["merged_pairs"] = len(rep.merged_point_pairs)
        model, rep = tracer.call("topology.remove_degenerate_cells",
                                 fp.remove_degenerate_cells, model, tol=wl.merge_tol)
        counts["removed_cells"] = len(rep.removed_degenerate_cells) + len(rep.removed_duplicate_cells)
        model, rep = tracer.call("topology.remove_detached_components",
                                 fp.remove_detached_components, model)
        counts["removed_components"] = len(rep.removed_components)
        model, rep = tracer.call("topology.prune_dead_arms", fp.prune_dead_arms, model, max_degree=2)
        counts["pruned_points"] = len(rep.pruned_arm_points)
        counts["cells_after"] = len(model.cells)
        _write(tracer, "exchange.write_model", fp.write_model, cleaned, model)

    if wl.solver is None:
        return None
    with tracer.span("solve") as solve_span:
        model = _parse(fp, tracer, cleaned)
        model.self_weight_enabled = True
        system, dofmap = tracer.call("solver.assemble", fp.assemble, model)
        solve_span["counts"]["n_eq"] = system.K.shape[0]
        solve_span["counts"]["nnz"] = system.K.nnz
        if wl.solver == "direct":
            u, stats = tracer.call("solver.solve_direct", fp.solve_direct, system)
        else:
            u, stats = tracer.call("solver.solve_pcg_ichol", fp.solve_pcg_ichol, system, tol=1e-10)
        solve_span["counts"]["iterations"] = stats.iterations
        disp = tracer.call("solver.expand_displacements", fp.expand_displacements, dofmap, u)
        forces = tracer.call("solver.recover_end_forces", fp.recover_end_forces, model, disp)
        reactions = tracer.call("solver.reaction_forces", fp.reaction_forces, system, u)
        res = tracer.call("resistance.build_result_set", fp.build_result_set, model, disp,
                          forces, reactions=reactions, applied_loads=system.applied_loads)
        _write(tracer, "exchange.write_results_vtk", fp.write_results_vtk, results, model, res, 1.0)
    return model, system, u, res


def true_residual(system, u) -> float:
    """||K u - f|| / ||f||, computed here rather than trusted from the solver."""
    return float(np.linalg.norm(system.K @ u - system.f) / np.linalg.norm(system.f))


def equilibrium_residual(model, res) -> float:
    """Global balance of reactions plus applied loads, forces and moments
    about the origin, relative to the applied force resultant."""
    xyz = model.coords_array()
    total = res.reactions + res.applied_loads
    force = total[:, :3].sum(axis=0)
    moment = (np.cross(xyz, total[:, :3]) + total[:, 3:]).sum(axis=0)
    applied = np.linalg.norm(res.applied_loads[:, :3].sum(axis=0))
    extent = float(np.linalg.norm(xyz.max(axis=0) - xyz.min(axis=0))) or 1.0
    return float(max(np.linalg.norm(force) / applied,
                     np.linalg.norm(moment) / (applied * extent)))
