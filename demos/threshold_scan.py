#!/usr/bin/env python3
"""Where do the closed-form bounds start to work?

Scans dimensions and prints the two volume constants, their ratio, and the
optimized per-step success bound.  The ratio A/B crosses 1 at d = 31 (below
that no intensity makes the bound positive) and the success bound clears
0.892 at d = 45 (enough to dominate supercritical site percolation).
"""

import argparse
import sys

from hardspheres import bounds


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim-min", type=int, default=28)
    ap.add_argument("--dim-max", type=int, default=50)
    ap.add_argument("--threshold", type=float, default=bounds.DEFAULT_THRESHOLD)
    args = ap.parse_args()

    try:
        rows = bounds.scan_dimensions(args.dim_min, args.dim_max, args.threshold)
        min_d = bounds.min_dimension(args.threshold)
    except ValueError as exc:
        sys.exit(f"error: {exc}")
    print(f"{'d':>4} {'A':>12} {'B':>12} {'A/B':>10} "
          f"{'lambda*':>12} {'F(lambda*)':>11} {'G(lambda*)':>11}")
    for r in rows:
        lam = "-" if r.lambda_star is None else f"{r.lambda_star:.4e}"
        F = "-" if r.F_star is None else f"{r.F_star:.7f}"
        G = "-" if r.exact_G_star is None else f"{r.exact_G_star:.7f}"
        mark = " <-- clears threshold" if r.passes_threshold else ""
        print(f"{r.d:>4} {r.A:>12.4e} {r.B:>12.4e} {r.ratio:>10.4f} "
              f"{lam:>12} {F:>11} {G:>11}{mark}")

    print()
    print(f"first dimension with F(lambda*) >= {args.threshold}: {min_d}")
    print("the ratio A/B first exceeds 1 at d = 31; below that the success")
    print("bound 1 - lambda*B - exp(-lambda*A) is negative for every lambda.")


if __name__ == "__main__":
    main()
