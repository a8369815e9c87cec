#!/usr/bin/env python3
"""formpipe benchmark: the real CLI timed as users run it, plus a traced
in-process run that times each layer.

    python3 perfbench/run.py --workload arch_direct --seed 0 --seconds 30 --trace 0

Run from the repository root.  The CLI runs from ``src`` (``python -m
formpipe.cli`` with ``src`` on PYTHONPATH), one command at a time.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
reports the per-layer metrics of the traced run.  Either way it checks the
outputs, prints every metric by name with its unit, writes a run record under
``perfbench/out/`` and prints one JSON object as the last line of standard
output.  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import spawn

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "formpipe" / "cli.py").is_file():
        print(f"error: no formpipe sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    # Set before numpy loads and passed to every subprocess, so no process of
    # the run starts more BLAS/OpenMP threads than there are cores.
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = nproc
    # The command helper starts while this process is still small: see spawn.py.
    with spawn.Spawner() as spawner:
        sys.path.insert(0, str(SRC))
        import bench

        return bench.run_benchmark(args, spawner)


if __name__ == "__main__":
    sys.exit(main())
