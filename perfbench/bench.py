"""One benchmark run: set-up, the timed CLI loop, the traced run, the output
checks and the report.  ``run.py`` starts the command helper (spawn.py)
before it imports this module, which loads numpy and formpipe.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import outputs
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

SETUP_REPS = 3  # setup_s is the median of this many input builds
IMPORT_REPS = 3
COMMAND_TIMEOUT_S = 60.0  # a run must end within 180 s
MATCH_RTOL = 1e-9  # CLI results against the in-process run of the same code
PCG_RTOL = 1e-6  # PCG max ratio against a direct solve of the same model
RESIDUAL_LIMIT = 1e-6  # true and equilibrium residuals


def sha256_file(path):
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except FileNotFoundError:
        return None


def timing(samples):
    """Median with its sample count, plus the highest percentile that still
    has at least ten samples beyond it (only runs with more than 20 samples
    have one above the median)."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    n = len(samples)
    if n > 20:
        pct = int(100 * (n - 10) / n)
        out[f"p{pct}"] = statistics.quantiles(samples, n=100)[pct - 1]
    return out


def git_revision():
    """HEAD of the checkout if it is a git work tree, read without git so
    nothing outside the checkout is consulted; None otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "formpipe").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(env):
    import scipy

    def blas(config):
        dep = config["Build Dependencies"]["blas"]
        return {k: dep.get(k) for k in ("name", "version", "openblas configuration")}

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "thread_env": {k: v for k, v in sorted(env.items()) if "THREAD" in k},
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "platform": platform.platform(),
    }


class Run:
    """State of one benchmark run: the child environment, the work directory
    and the tally of operations attempted and failed."""

    def __init__(self, fp, spawner, wl, seed, work):
        self.fp = fp
        self.spawner = spawner
        self.wl = wl
        self.seed = seed
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failures = []  # one line per failed operation
        self.digests = {}  # output name -> sha256 of its first run
        self.runs_of = {}  # command name -> times run
        self.model_in = str(work / "input.vtp")
        self.cleaned = str(work / "cleaned.vtp")
        self.results = str(work / "results.vtk")
        self.input = None  # provenance of the generated input

    def fail(self, what):
        self.failures.append(what)

    def cli(self, name, argv, expect):
        self.attempted += 1
        self.runs_of[name] = self.runs_of.get(name, 0) + 1
        stdout = self.work / f"{name}.out"
        rec = self.spawner.run([sys.executable, "-m", "formpipe.cli", *argv], self.env, ROOT,
                               stdout, self.work / f"{name}.err", COMMAND_TIMEOUT_S)
        code = rec.pop("code")
        if code != expect:
            self.fail(f"{name}: exit {code}, expected {expect}")
        return rec, stdout

    def same_output(self, name, path):
        """Repeated runs of one command must write byte-identical files."""
        digest = sha256_file(path)
        first = self.digests.setdefault(name, digest)
        if digest is None or digest != first:
            self.fail(f"{name}: output {Path(path).name} differs from the first run")

    def setup(self):
        """Build the workload input SETUP_REPS times; return the wall times."""
        wl = self.wl
        times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            target = str(self.work / "lattice.vtp") if wl.soup else self.model_in
            self.cli("gen", wl.gen_argv(target, self.seed), 0)
            if wl.soup:
                with open(target, encoding="utf-8") as handle:
                    lattice = self.fp.parse_model(handle.read())
                soup = workloads.explode_to_soup(self.fp, lattice, self.seed)
                with open(self.model_in, "w", encoding="utf-8") as handle:
                    handle.write(self.fp.write_model(soup))
            times.append(time.perf_counter() - t0)
            self.same_output("input", self.model_in)
        with open(self.model_in, "rb") as handle:
            self.input = workloads.provenance(handle.read(), self.seed)
        return times

    def cli_iterations(self, seconds):
        """Run the workload's commands in a closed loop, one after another,
        until the next iteration would end past ``seconds``."""
        commands = self.wl.commands(self.model_in, self.cleaned, self.results)
        iterations = []
        t0 = time.perf_counter()
        while True:
            it = {}
            for name, argv, expect, output in commands:
                it[name], stdout = self.cli(name, argv, expect)
                if output is not None:
                    self.same_output(name, output)
                if "--format" in argv:
                    it[name]["unparsable"] = outputs.unparsable_values(stdout.read_text())
            iterations.append(it)
            elapsed = time.perf_counter() - t0
            if elapsed * (len(iterations) + 1) / len(iterations) > seconds:
                return iterations

    def import_times(self):
        times = []
        for _ in range(IMPORT_REPS):
            self.attempted += 1
            rec = self.spawner.run([sys.executable, "-c", "import formpipe"], self.env, ROOT,
                                   self.work / "import.out", self.work / "import.err",
                                   COMMAND_TIMEOUT_S)
            if rec["code"] != 0:
                self.fail(f"import formpipe: exit {rec['code']}")
            times.append(rec["wall_s"])
        return times

    def traced_iterations(self, tracer, seconds):
        """Traced in-process passes, at least one, until the next would end
        past ``seconds``.  Returns the last pass's solve."""
        t0 = time.perf_counter()
        n = 0
        while True:
            with tracer.iteration(n):
                out = spans.traced_iteration(self.fp, tracer, self.wl, self.seed, self.model_in,
                                             str(self.work / "traced_cleaned.vtp"),
                                             str(self.work / "traced_results.vtk"))
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed * (n + 1) / n > seconds:
                return out

    def check_outputs(self, solved):
        """Check the CLI's files against what they must hold.  A failed check
        fails every run of the command that wrote the file, since repeated
        runs wrote identical bytes.  Returns the values checked."""
        wl = self.wl
        fp = self.fp
        found = {}
        if wl.soup:
            try:
                with open(self.cleaned, "rb") as handle:
                    counts = workloads.piece_counts(handle.read())
            except (OSError, ValueError) as exc:
                self.fail_all("clean", f"unreadable cleaned file: {exc}")
                return found
            if counts != wl.block_counts():
                self.fail_all("clean", f"cleaned soup has {counts}, expected {wl.block_counts()}")
            return found
        model, system, u, res = solved
        found["traced_max_u_el"] = res.max_u_el
        found["traced_exceeded_count"] = int(res.exceeded.sum())
        try:
            with open(self.results, encoding="utf-8") as handle:
                ratio, disp = outputs.read_results_vtk(handle.read())
        except (OSError, ValueError) as exc:
            self.fail_all("solve", f"unreadable results: {exc}")
            return found
        max_ratio = float(ratio.max())
        max_disp = float(np.linalg.norm(disp, axis=1).max())
        found["vtk_max_u_el"] = max_ratio
        found["vtk_max_displacement_mm"] = max_disp
        if not outputs.close(max_ratio, res.max_u_el, MATCH_RTOL):
            self.fail_all("solve", f"max ratio {max_ratio!r} != traced run {res.max_u_el!r}")
        if not outputs.close(max_disp, res.max_total_displacement, MATCH_RTOL):
            self.fail_all("solve", f"max displacement {max_disp!r} != traced run "
                                   f"{res.max_total_displacement!r}")
        if wl.solver == "pcg":
            u_d, _ = fp.solve_direct(system)
            disp_d = fp.expand_displacements(system.dofmap, u_d)
            direct = fp.build_result_set(model, disp_d, fp.recover_end_forces(model, disp_d))
            found["direct_max_u_el"] = direct.max_u_el
            if not outputs.close(max_ratio, direct.max_u_el, PCG_RTOL):
                self.fail_all("solve", f"PCG max ratio {max_ratio!r} != direct {direct.max_u_el!r}")
        found["true_residual"] = spans.true_residual(system, u)
        found["equilibrium_residual"] = spans.equilibrium_residual(model, res)
        for key in ("true_residual", "equilibrium_residual"):
            if not found[key] <= RESIDUAL_LIMIT:
                self.fail_all("solve", f"{key} {found[key]!r} above {RESIDUAL_LIMIT}")
        return found

    def fail_all(self, name, why):
        for _ in range(self.runs_of.get(name, 1)):
            self.fail(f"{name}: {why}")


def end_to_end(iterations, setup_times):
    per_cmd = {}
    for it in iterations:
        for name, rec in it.items():
            per_cmd.setdefault(name, []).append(rec["wall_s"])
    stats = {"setup_s": timing(setup_times)}
    for name, walls in per_cmd.items():
        stats[f"{name}_s"] = timing(walls)
    stats["pipeline_s"] = timing([sum(r["wall_s"] for r in it.values()) for it in iterations])
    stats["peak_rss_mb"] = timing([max(r["rss_mb"] for r in it.values()) for it in iterations])
    return stats


def unparsable(iterations):
    return statistics.median(
        sum(r.get("unparsable", 0) for r in it.values()) for it in iterations)


def per_layer(tracer, iterations, import_s, found):
    """Median over traced iterations of every per-layer metric."""
    per_iter = {}
    own = spans.self_times(tracer.spans)
    for s in tracer.spans:
        acc = per_iter.setdefault(s["trace"], {"span_s": {}, "counts": {}, "self_s": {}})
        dur = s["end"] - s["start"]
        acc["span_s"][s["name"]] = acc["span_s"].get(s["name"], 0.0) + dur
        acc["self_s"][s["name"]] = acc["self_s"].get(s["name"], 0.0) + own[s["id"]]
        for key, value in s["counts"].items():
            acc["counts"][key] = acc["counts"].get(key, 0) + value

    cli_median = {name: statistics.median(it[name]["wall_s"] for it in iterations)
                  for name in iterations[0]}
    rows = []
    for trace in sorted(per_iter):
        t, c = per_iter[trace]["span_s"], per_iter[trace]["counts"]
        g = lambda name: t.get(name, 0.0)  # noqa: E731 - zero where the workload skips a layer
        commands = [name for name in ("check", "clean", "solve") if name in t]
        traced = sum(t[name] for name in commands)
        pcg_s = g("solver.solve_pcg_ichol")
        iters = c.get("iterations", 0)  # the direct solver reports 0
        rows.append({
            "casegen.gen_sphere_lattice_s": g("casegen.gen_sphere_lattice"),
            "exchange.parse_model_s": g("exchange.parse_model"),
            "exchange.input_mb": c.get("input_bytes", 0) / 1e6,
            "exchange.write_model_s": g("exchange.write_model"),
            "exchange.write_results_vtk_s": g("exchange.write_results_vtk"),
            "exchange.output_mb": c.get("output_bytes", 0) / 1e6,
            "model.validate_s": g("model.validate"),
            "model.points": c["points"],
            "model.cells": c["cells_before"],
            "topology.merge_duplicate_nodes_s": g("topology.merge_duplicate_nodes"),
            "topology.merged_pairs": c["merged_pairs"],
            "topology.remove_degenerate_cells_s": g("topology.remove_degenerate_cells"),
            "topology.removed_cells": c["removed_cells"],
            "topology.remove_detached_components_s": g("topology.remove_detached_components"),
            "topology.removed_components": c["removed_components"],
            "topology.prune_dead_arms_s": g("topology.prune_dead_arms"),
            "topology.pruned_points": c["pruned_points"],
            "topology.check_support_reachability_s": g("topology.check_support_reachability"),
            "topology.kept_cell_fraction": c["cells_after"] / c["cells_before"],
            "solver.assemble_s": g("solver.assemble"),
            "solver.n_eq": c.get("n_eq", 0),
            "solver.nnz": c.get("nnz", 0),
            "solver.solve_direct_s": g("solver.solve_direct"),
            "solver.solve_pcg_ichol_s": pcg_s,
            "solver.pcg_iterations": iters,
            "solver.pcg_s_per_iteration": pcg_s / iters if iters else 0.0,
            "solver.expand_displacements_s": g("solver.expand_displacements"),
            "solver.recover_end_forces_s": g("solver.recover_end_forces"),
            "solver.reaction_forces_s": g("solver.reaction_forces"),
            "resistance.build_result_set_s": g("resistance.build_result_set"),
            "trace.pipeline_s": traced,
            "trace.unattributed_s": per_iter[trace]["self_s"]["iteration"],
            "trace.overhead_s": traced - sum(cli_median[n] - import_s for n in commands),
        })
    metrics = {key: statistics.median(r[key] for r in rows) for key in rows[0]}
    metrics["solver.true_residual"] = found.get("true_residual", 0.0)
    metrics["solver.equilibrium_residual"] = found.get("equilibrium_residual", 0.0)
    metrics["resistance.max_u_el"] = found.get("traced_max_u_el", 0.0)
    metrics["resistance.exceeded_count"] = found.get("traced_exceeded_count", 0)
    metrics["cli.import_s"] = import_s
    for name in ("check", "clean", "solve"):
        metrics[f"cli.{name}_s"] = cli_median.get(name, 0.0)
    metrics["cli.report_unparsable_values"] = unparsable(iterations)
    layer_self = {}
    for name, value in per_iter[max(per_iter)]["self_s"].items():
        layer = name.split(".")[0] if "." in name else "unattributed" if name == "iteration" else "cli"
        layer_self[layer] = layer_self.get(layer, 0.0) + value
    return metrics, layer_self


def run_benchmark(args, spawner):
    """Run one workload as ``run.py`` parsed it; return the exit code."""
    import formpipe as fp

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        run = Run(fp, spawner, wl, args.seed, work)
        setup_times = run.setup()
        tracer = spans.Tracer()
        import_times = []
        if args.trace:
            import_times = run.import_times()
            iterations = run.cli_iterations(args.seconds / 2)
            solved = run.traced_iterations(tracer, args.seconds / 2)
        else:
            iterations = run.cli_iterations(args.seconds)
            # one reference pass of the same code in process, untimed
            solved = run.traced_iterations(tracer, 0.0) if wl.solver else None
        found = run.check_outputs(solved)
        stats = end_to_end(iterations, setup_times)
        record = {
            "workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(run.env), "input": run.input,
            "end_to_end": stats, "checks": found, "failures": run.failures,
            "iterations": iterations, "import_s": import_times,
        }
        failed = len(run.failures)
        print(f"workload {wl.name}  seed {args.seed}  input {run.input}")
        for name, st in stats.items():
            extra = "  ".join(f"{k} {v:.6g}" for k, v in st.items() if k not in ("median", "n"))
            unit = "MB" if name.endswith("_mb") else "s"
            print(f"  {name:<12} {st['median']:.6g} {unit}  (median of {st['n']}) {extra}")
        print(f"  failed_fraction {failed / run.attempted:.6g} ({failed} of {run.attempted} operations)")
        for line in run.failures:
            print(f"  FAILED {line}")
        listed = spec["per_layer"] if args.trace else spec["end_to_end"]
        if args.trace:
            metrics, layer_self = per_layer(tracer, iterations, statistics.median(import_times), found)
            record.update(per_layer=metrics, layer_self_s=layer_self, spans=tracer.spans)
            for m in listed:
                print(f"  {m['name']:<40} {metrics[m['name']]:.6g} {m['unit']}")
            print("  self time by layer (last traced iteration): " + ", ".join(
                f"{k} {v:.4g} s" for k, v in sorted(layer_self.items())))
        else:
            print(f"  cli.report_unparsable_values {unparsable(iterations)} count")
            metrics = {k: st["median"] for k, st in stats.items()}
        result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed}
        with open(OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
            json.dump(record, handle, indent=1, default=str)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed,
                      "metrics": result}))
    return 0

