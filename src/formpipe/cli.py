"""Command-line pipeline: check, clean, solve and gen subcommands composing
through exchange files.

Exit codes: 0 clean, 1 warnings only, 2 blocking defect, solver failure or
unwritable output, 3 unreadable input.  Output files are written atomically
(temp file plus rename), so a failed run never leaves a partial file behind.
Units are mm / N / MPa throughout.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys
import tempfile

from . import __version__
from .exchange import ExchangeFormatError, model_pieces, read_model, results_pieces
from .model import (DEFAULT_MERGE_TOL, DEFAULT_PCG_TOL, StructuralModel, check_pcg_options,
                    validate)
from .resistance import build_result_set, equilibrium_residual
from .topology import (
    DEFAULT_PRUNE_DEGREE,
    merge_duplicate_nodes,
    prune_dead_arms,
    remove_degenerate_cells,
    remove_detached_components,
    solvability_findings,
)

REPORT_VERSION = 1

EXIT_OK = 0
EXIT_WARNINGS = 1
EXIT_DEFECTS = 2
EXIT_UNREADABLE = 3

SOLVERS = ("direct", "pcg")


class CommandError(Exception):
    """Ends a command with ``code`` and a one-line ``error:`` message."""

    def __init__(self, message, code=EXIT_DEFECTS):
        super().__init__(message)
        self.code = code


def _read_model(path: str) -> StructuralModel:
    try:
        with open(path, "rb") as handle:
            return read_model(handle)
    except (OSError, ExchangeFormatError) as exc:
        raise CommandError(exc, EXIT_UNREADABLE) from exc


def atomic_write(path: str, pieces) -> None:
    """Write the text ``pieces``, an iterable of str, each as it is made, to
    a sibling temp file and rename it to ``path``, so failures, in the
    pieces too, leave nothing.  The file gets the mode ``open`` would give
    it under the umask.  Raises CommandError, naming the path, when the file
    cannot be written."""
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".formpipe-", suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            os.fchmod(fd, 0o666 & ~umask)
            handle.writelines(pieces)
        os.replace(tmp, path)
    except OSError as exc:
        raise CommandError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def run_clean_pipeline(model: StructuralModel, *, merge_tol=DEFAULT_MERGE_TOL,
                       prune_degree=DEFAULT_PRUNE_DEGREE):
    """merge -> degenerate removal -> detached removal -> dead-arm prune.
    The function that uses a value checks it."""
    reports = []
    model, rep = merge_duplicate_nodes(model, tol=merge_tol)
    reports.append(("merge_duplicate_nodes", rep))
    model, rep = remove_degenerate_cells(model, tol=merge_tol)
    reports.append(("remove_degenerate_cells", rep))
    model, rep = remove_detached_components(model)
    reports.append(("remove_detached_components", rep))
    model, rep = prune_dead_arms(model, max_degree=prune_degree)
    reports.append(("prune_dead_arms", rep))
    return model, reports


def run_solve_pipeline(model: StructuralModel, *, solver="direct", pcg_tol=DEFAULT_PCG_TOL,
                       pcg_max_iter=None):
    """Assemble, solve (``solver`` is direct or pcg), recover forces and
    post-process into a ResultSet.  Self-weight acts when the model's
    ``self_weight_enabled`` is set.  The PCG options are checked before
    assembly, whichever the solver."""
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    check_pcg_options(pcg_tol, pcg_max_iter)
    from . import solver as statics  # no other command needs it
    system, dofmap = statics.assemble(model)
    if solver == "pcg":
        u, stats = statics.solve_pcg_ichol(system, tol=pcg_tol, max_iter=pcg_max_iter)
    else:
        u, stats = statics.solve_direct(system)
    disp = statics.expand_displacements(dofmap, u)
    reactions, applied_loads = statics.reaction_forces(system, u), system.applied_loads
    del system  # K goes before force recovery builds its per-cell arrays
    forces = statics.recover_end_forces(model, disp)
    results = build_result_set(model, disp, forces, reactions=reactions,
                               applied_loads=applied_loads)
    return results, stats


def _emit(lines):
    """Print report lines to stdout.  A reader that has gone away (a closed
    pipe) silences the rest of the output, and the command goes on to its
    own exit code."""
    try:
        print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # later writes, and the flush at exit, go to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _report(args, records, text) -> int:
    """Print the report as ``args.format`` asks, the (key, value) ``records``
    or the ``text`` lines, and write it to ``args.report`` where given."""
    lines = text
    if args.format == "structured":
        lines = [f"formpipe_report_version {REPORT_VERSION}"]
        lines += [f"{key} {value}" for key, value in records]
    _emit(lines)
    if args.report:
        atomic_write(args.report, ["\n".join(lines) + "\n"])
    return EXIT_OK


# Per repair report list: structured record key and text summary
_REPAIRS = (
    ("merged_point_pairs", "merged_pairs", "{} point pair(s) merged"),
    ("removed_degenerate_cells", "removed_degenerate", "{} degenerate cell(s) removed"),
    ("removed_duplicate_cells", "removed_duplicates", "{} duplicate cell(s) removed"),
    ("removed_components", "removed_components",
     "{} detached component(s) removed (cells: {sizes})"),
    ("pruned_arm_points", "pruned_points", "{} arm point(s) pruned"),
)


def _clean_records(reports, cells_before, cells_after):
    records = []
    for name, rep in reports:
        records += [(f"{name}.{key}", len(getattr(rep, attr))) for attr, key, _ in _REPAIRS]
        records.append((f"{name}.element_removal_fraction", rep.element_removal_fraction))
    total = (cells_before - cells_after) / cells_before if cells_before else 0.0
    return records + [("cells_before", cells_before), ("cells_after", cells_after),
                      ("total_element_removal_fraction", total)]


def _clean_text(reports, cells_before, cells_after):
    lines = []
    for name, rep in reports:
        sizes = ", ".join(str(n) for n, _ in rep.removed_components)
        parts = [text.format(len(getattr(rep, attr)), sizes=sizes)
                 for attr, _, text in _REPAIRS if len(getattr(rep, attr))]
        lines.append(f"{name}: " + ("; ".join(parts) or "no changes"))
    lines.append(f"cells: {cells_before} -> {cells_after}")
    return lines


def cmd_check(args) -> int:
    model = _read_model(args.input)

    report = validate(model)
    unsolvable = solvability_findings(model) if report.ok else []
    lines = [f"defect [{f.kind}]: {f.message}" for f in report.defects]
    lines += [f"warning [{f.kind}]: {f.message}" for f in report.warnings]
    lines += [f"defect [{f.kind}]: {f.message}" for f in unsolvable]
    if not lines:
        lines.append("model is clean")
    _emit(lines)
    if report.defects or unsolvable:
        return EXIT_DEFECTS
    if report.warnings:
        return EXIT_WARNINGS
    return EXIT_OK


def cmd_clean(args) -> int:
    model = _read_model(args.input)

    cells_before = len(model.cells)
    try:
        model, reports = run_clean_pipeline(model, merge_tol=args.merge_tol,
                                            prune_degree=args.prune_degree)
        pieces = model_pieces(model)
    except ValueError as exc:
        raise CommandError(exc) from exc
    cells_after = len(model.cells)
    atomic_write(args.output, pieces)
    return _report(args, _clean_records(reports, cells_before, cells_after),
                   _clean_text(reports, cells_before, cells_after))


def _solve_values(model, results, stats, equilibrium) -> dict:
    """The values of both solve report formats by record key, in record order."""
    return {
        "solver_method": stats.method,
        "solver_iterations": stats.iterations,
        "solver_relative_residual": stats.relative_residual,
        "solver_wall_time_s": stats.wall_time,
        "solver_true_residual": stats.true_residual,
        "solver_backward_error": stats.backward_error,
        "solver_equilibrium_residual": equilibrium,
        "solver_ordering": stats.ordering,
        "solver_factor_nnz": stats.factor_nnz,
        "solver_factor_time_s": stats.factor_time,
        "self_weight": int(model.self_weight_enabled),
        "max_u_el": results.max_u_el,
        "max_total_displacement_mm": results.max_total_displacement,
        "exceeded_count": int(results.exceeded.sum()),
        "cell_count": len(results.u_el),
    }


# the text solve report, a line per entry, formatted from ``_solve_values``
_SOLVE_TEXT = (
    "solved with {solver_method}: {solver_iterations} iteration(s), "
    "residual {solver_relative_residual:.3e}, {solver_wall_time_s:.3f} s",
    "true residual |Ku-f|/|f| = {solver_true_residual:.3e}",
    "backward error |Ku-f|/(|K||u|+|f|) = {solver_backward_error:.3e}",
    "equilibrium residual (reactions + loads) = {solver_equilibrium_residual:.3e}",
    "factor: {solver_factor_nnz} entries, {solver_ordering} ordering, "
    "{solver_factor_time_s:.3f} s",
    "max resistance ratio u_el = {max_u_el:.6g}",
    "max total displacement = {max_total_displacement_mm:.6g} mm",
    "elements above the elastic limit: {exceeded_count} of {cell_count}",
)


def cmd_solve(args) -> int:
    from .solver import SolverError
    model = _read_model(args.input)
    model.self_weight_enabled = not args.no_self_weight

    try:
        results, stats = run_solve_pipeline(model, solver=args.solver, pcg_tol=args.pcg_tol,
                                            pcg_max_iter=args.pcg_max_iter)
        pieces = results_pieces(model, results, args.deform_scale)
    except (ValueError, SolverError) as exc:
        raise CommandError(exc) from exc
    atomic_write(args.output, pieces)

    values = _solve_values(model, results, stats, equilibrium_residual(model, results))
    return _report(args, values.items(), [line.format(**values) for line in _SOLVE_TEXT])


def cmd_gen(args) -> int:
    from .casegen import (CantileverSpec, LatticeSpec, LeonardoSpec, arch_occupancy,
                          gen_cantilever, gen_leonardo, gen_sphere_lattice)
    spec_type, generate = {"cantilever": (CantileverSpec, gen_cantilever),
                           "leonardo": (LeonardoSpec, gen_leonardo),
                           "lattice": (LatticeSpec, gen_sphere_lattice)}[args.case]
    given = vars(args)  # the options given: a spec gives the others their defaults
    try:
        spec = spec_type(**{f.name: given[f.name] for f in dataclasses.fields(spec_type)
                            if f.name in given})
        if args.case == "lattice" and given.get("shape") == "arch":
            thickness = {"thickness": args.thickness} if "thickness" in given else {}
            spec = dataclasses.replace(spec, occupancy=arch_occupancy(
                spec.nx, spec.ny, spec.nz, **thickness))
        model = generate(spec)
    except ValueError as exc:
        raise CommandError(exc) from exc
    except MemoryError as exc:
        raise CommandError(f"out of memory: {exc}") from exc
    atomic_write(args.output, model_pieces(model))
    _emit([f"wrote {args.case} model: {len(model.points)} points, {len(model.cells)} cells"])
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose every error, its subcommands' included, is
    one ``error:`` line on stderr and exit 2, without the usage block.  An
    argument that reads as a negative number, exponent form included
    (``-1e+16``, ``-1.5e3``, ``-.5``), is a value, not an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="formpipe",
        description="Structural exchange-file pipeline (units: mm, N, MPa).",
    )
    parser.add_argument("--version", action="version", version=f"formpipe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse, validate and check solvability")
    p_check.add_argument("input")
    p_check.set_defaults(func=cmd_check)

    p_clean = sub.add_parser("clean", help="run the topology repair pipeline")
    p_clean.add_argument("input")
    p_clean.add_argument("output")
    p_clean.add_argument("--merge-tol", type=float, default=DEFAULT_MERGE_TOL,
                         help="merge tolerance in mm")
    p_clean.add_argument("--prune-degree", type=int, default=DEFAULT_PRUNE_DEGREE,
                         help="max incident cells for dead-arm peeling")
    p_clean.add_argument("--report", default=None, help="also write the report to this path")
    p_clean.add_argument("--format", choices=("text", "structured"), default="text")
    p_clean.set_defaults(func=cmd_clean)

    p_solve = sub.add_parser("solve", help="linear statics plus resistance ratios")
    p_solve.add_argument("input")
    p_solve.add_argument("output", help="legacy VTK results file")
    p_solve.add_argument("--solver", choices=SOLVERS, default="direct")
    p_solve.add_argument("--pcg-tol", type=float, default=DEFAULT_PCG_TOL)
    p_solve.add_argument("--pcg-max-iter", type=int, default=None)
    p_solve.add_argument("--deform-scale", type=float, default=1.0)
    p_solve.add_argument("--no-self-weight", action="store_true", help="skip gravity line loads")
    p_solve.add_argument("--report", default=None, help="also write the summary to this path")
    p_solve.add_argument("--format", choices=("text", "structured"), default="text")
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("gen", help="generate a benchmark model",
                           argument_default=argparse.SUPPRESS)
    p_gen.add_argument("case", choices=("cantilever", "leonardo", "lattice"))
    p_gen.add_argument("output")
    for option in ("--length", "--diameter", "--tip-force", "--span", "--height", "--thickness",
                   "--splash-fraction"):
        p_gen.add_argument(option, type=float)
    for option in ("--n-elements", "--n-segments", "--nx", "--ny", "--nz", "--seed"):
        p_gen.add_argument(option, type=int)
    p_gen.add_argument("--variant")
    p_gen.add_argument("--shape", choices=("full", "arch"))
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
