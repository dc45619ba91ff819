#!/usr/bin/env python3
"""Grow one layer of tangent spheres and narrate every exploration step.

Each step picks a Poisson point in the step region of the chosen lattice
vertex, radius-matches it to touch its parent sphere, and keeps it only if
its isolation ball holds no other point.  The run ends when the growth
rules find no admissible vertex, the lattice rim interferes, or the step
budget runs out.
"""

import argparse
import math
import sys

import numpy as np

from hardspheres import bounds
from hardspheres.construction import (
    ConstructionError,
    ConstructionParams,
    assemble_gamma,
    cluster_components,
    run_layer,
    verify_hard_sphere,
)
from hardspheres.poisson import RegistryError


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=31)
    ap.add_argument("--lam", type=float, default=None,
                    help="Poisson intensity (default: 12 * lambda*(dim))")
    ap.add_argument("--cells-C", type=float, default=16.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--max-steps", type=int, default=200)
    args = ap.parse_args()

    try:
        lam = args.lam
        if lam is None:
            star = bounds.lambda_star(args.dim)
            if star is None:
                raise ValueError(f"no lambda* at d={args.dim}; give --lam explicitly")
            lam = 12.0 * star
        params = ConstructionParams(
            d=args.dim, C=args.cells_C, lam=lam, max_steps=args.max_steps
        )
        state = run_layer(params, args.seed)
        gamma = assemble_gamma(params, [state])
        report = verify_hard_sphere(gamma)
        labels = cluster_components(gamma)
    except (ValueError, RegistryError, ConstructionError) as exc:
        sys.exit(f"error: {exc}")

    print(f"d={args.dim}, lambda={lam:.6g}, C={args.cells_C:g}, "
          f"seed={args.seed}")
    for step, e in enumerate(state.log):
        bits = [f"step {step:>3}", f"{e.kind:>4} {e.vertex:>5}",
                f"{e.rule:>7}", f"{e.case:>14}", f"[{e.mode}]"]
        if e.outcome == "good":
            s = state.spheres[e.vertex]
            tang = ""
            if s.parent is not None:
                p = state.spheres[s.parent]
                gap = math.dist(s.center, p.center) - s.radius - p.radius
                tang = f" tangency residual {abs(gap):.2e}"
            bits.append(f"radius {e.radius:.6f}{tang}")
        print("  ".join(bits))
    print(f"stop: {state.stopped_reason}")
    print(f"{gamma.n_constructed} constructed spheres, "
          f"{len(gamma.vertex) - gamma.n_constructed} leftover points, "
          f"{gamma.n_stream_leftovers} stream-only leftovers")
    print(f"hard-sphere check: {'pass' if report.passed else 'FAIL'} "
          f"({report.n_pairs_checked} close pairs)")
    if len(labels):
        members = np.flatnonzero(labels == 0)
        mid = gamma.centers[members].mean(axis=0)
        reach = max(math.dist(mid, gamma.centers[i]) + gamma.radii[i] for i in members)
        print(f"largest tangency cluster: {len(members)} spheres "
              f"({np.count_nonzero(gamma.vertex[members] >= 0)} constructed) "
              f"within radius {reach:.3f}")


if __name__ == "__main__":
    main()
