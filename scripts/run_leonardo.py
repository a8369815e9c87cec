#!/usr/bin/env python3
"""Compare the three self-supporting arch variants: displacement, peak
resistance ratio and the horizontal reaction at the second support."""

import formpipe as fp
from formpipe.cli import run_solve_pipeline


def main():
    print(f"{'variant':<15}{'max disp [mm]':>15}{'max u_el':>12}{'H reaction [N]':>17}")
    for variant in ("open", "closed", "closed_mobile"):
        model = fp.gen_leonardo(fp.LeonardoSpec(variant=variant))
        results, _ = run_solve_pipeline(model)
        support = len(model.points) - 1
        print(
            f"{variant:<15}{results.max_total_displacement:>15.2f}"
            f"{results.max_u_el:>12.4f}{results.reactions[support, 0]:>17.2f}"
        )


if __name__ == "__main__":
    main()
