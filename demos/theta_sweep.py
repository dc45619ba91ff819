#!/usr/bin/env python3
"""Sweep the site-percolation openness p across the critical window.

Estimates theta(p), the chance that the origin's open cluster reaches the
window boundary, on the decorated hexagonal site graph.  The sweep uses one
shared uniform field per trial, so theta rises monotonically in p and the
curves are directly comparable.  Site percolation on this graph goes
critical near p = 0.7, safely below 0.892^2 = 0.7957.
"""

import argparse
import sys

from hardspheres.percolation2d import estimate_theta_coupled


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--radius", type=float, default=60.0)
    ap.add_argument("--trials", type=int, default=400)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--p", type=float, nargs="*",
                    default=[0.55, 0.6, 0.65, 0.7, 0.75, 0.7957, 0.85, 0.9])
    args = ap.parse_args()

    try:
        ests = estimate_theta_coupled(args.p, args.radius, args.trials, args.seed)
    except ValueError as exc:
        sys.exit(f"error: {exc}")
    print(f"radius {args.radius:g}, {args.trials} trials, seed {args.seed}")
    print(f"{'p':>8} {'theta_hat':>10} {'std_err':>9}  bar")
    for est in ests:
        bar = "#" * round(50 * est.theta_hat)
        print(f"{est.p:>8.4f} {est.theta_hat:>10.4f} {est.std_error:>9.4f}  {bar}")
    print()
    print("theta(0.7957) > 0 is the supercritical margin the sphere")
    print("construction leans on: its per-step success bound exceeds")
    print("0.892, and 0.892^2 beats the site threshold on this graph.")


if __name__ == "__main__":
    main()
