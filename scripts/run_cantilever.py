#!/usr/bin/env python3
"""Solve the benchmark cantilever and print the headline numbers against
their closed-form values."""

import math

import formpipe as fp
from formpipe.cli import run_solve_pipeline


def main():
    spec = fp.CantileverSpec()
    model = fp.gen_cantilever(spec)
    results, stats = run_solve_pipeline(model)

    A = math.pi * spec.diameter**2 / 4.0
    I = math.pi * spec.diameter**4 / 64.0
    W = math.pi * spec.diameter**3 / 32.0
    w = 7850e-9 * 9806.65 * A * 1e-3
    L = spec.length
    M = spec.tip_force * L + w * L**2 / 2.0
    tip = spec.tip_force * L**3 / (3 * 210e3 * I) + w * L**4 / (8 * 210e3 * I)

    print(f"solver: {stats.method}, residual {stats.relative_residual:.2e}")
    print(f"max u_el        : {results.max_u_el:.6f}   (closed form {M / W / 300.0:.6f})")
    print(f"tip deflection  : {results.max_total_displacement:.4f} mm (closed form {tip:.4f})")
    print(f"support moment  : {abs(results.end_forces[0, 0, 4]):.1f} N*mm (closed form {M:.1f})")
    print(f"classification  : {fp.classify(results.max_u_el)}")


if __name__ == "__main__":
    main()
