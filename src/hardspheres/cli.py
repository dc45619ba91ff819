"""Command-line interface.

Subcommands: bounds-scan (closed-form dimension thresholds), simulate
(run the exploration and dump spheres/steps), perc2d (site percolation
theta estimate), verify (seeded Monte Carlo self-checks).  Every command
emits a manifest with version, config, seed, RNG algorithm, and wall time;
all CSV floats carry 17 significant digits.

Exit codes: 0 success, 2 usage error, 3 invariant violation,
4 statistical-check failure, 5 the run cannot be realized exactly (the
registry refuses a region or the construction breaks an invariant).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
import time

import numpy as np

from . import __version__, bounds, geometry
from .construction import (
    ConstructionError,
    ConstructionParams,
    assemble_gamma,
    cluster_components,
    run_layer,
    run_multilayer,
    verify_hard_sphere,
)
from .percolation2d import estimate_theta
from .poisson import RegistryError, sampler_consistency_check
from .rngutil import RNG_ALGORITHM, derive_seed

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VIOLATION = 3
EXIT_STAT_FAIL = 4
EXIT_CANNOT_REALIZE = 5

SEED_ENV_VAR = "HARDSPHERES_SEED"


class UsageError(Exception):
    pass


def f17(x: float) -> str:
    return format(float(x), ".17g")


def _default_seed() -> int:
    return int(os.environ.get(SEED_ENV_VAR, "0"))


def _manifest(command: str, config: dict, seed: int, t0: float) -> dict:
    return {
        "version": __version__,
        "command": command,
        "config": config,
        "seed": seed,
        "rng_algorithm": RNG_ALGORITHM,
        "wall_time_seconds": time.perf_counter() - t0,
    }


def _emit_json(doc: dict, out: str | None):
    text = json.dumps(doc, indent=2, sort_keys=True, default=_jsonable) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _jsonable(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


# -- bounds-scan --------------------------------------------------------


def cmd_bounds_scan(args) -> int:
    if not 11 <= args.dim_min <= args.dim_max:
        raise UsageError(
            f"need 11 <= dim-min <= dim-max, got {args.dim_min}..{args.dim_max}"
        )
    t0 = time.perf_counter()
    rows = [bounds.bounds_report(d) for d in range(args.dim_min, args.dim_max + 1)]
    min_d = bounds.min_dimension(args.threshold)
    config = {
        "dim_min": args.dim_min,
        "dim_max": args.dim_max,
        "threshold": args.threshold,
        "format": args.format,
    }
    man = _manifest("bounds-scan", config, seed=0, t0=t0)
    man["min_dimension"] = min_d
    if args.format == "csv":
        fields = [
            "d",
            "A",
            "B",
            "ratio",
            "lambda_star",
            "F_star",
            "G_star",
            "passes_threshold",
        ]
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(fields)
        for r in rows:
            writer.writerow(
                [
                    r.d,
                    f17(r.A),
                    f17(r.B),
                    f17(r.ratio),
                    "" if r.lambda_star is None else f17(r.lambda_star),
                    "" if r.F_star is None else f17(r.F_star),
                    "" if r.exact_G_star is None else f17(r.exact_G_star),
                    int(r.passes_threshold),
                ]
            )
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(buf.getvalue())
            _emit_json(man, args.out + ".manifest.json")
        else:
            sys.stdout.write(buf.getvalue())
            sys.stderr.write(json.dumps(man, sort_keys=True) + "\n")
    else:
        doc = {
            "manifest": man,
            "results": [dataclasses.asdict(r) for r in rows],
        }
        _emit_json(doc, args.out)
    print(f"min dimension at threshold {args.threshold}: {min_d}", file=sys.stderr)
    return EXIT_OK


# -- simulate -----------------------------------------------------------


def _resolve_lambda(spec: str, d: int) -> float:
    if spec != "auto":
        lam = float(spec)
        if lam < 0:
            raise UsageError("lambda must be >= 0")
        return lam
    if d < bounds.MIN_DIMENSION_SUPPORTED:
        raise UsageError(f"auto lambda needs d >= {bounds.MIN_DIMENSION_SUPPORTED}")
    lam = bounds.lambda_star(d)
    if lam is None:
        raise UsageError(
            f"auto lambda needs the volume ratio above 1, which fails at d={d}; "
            "use d >= 31 or give --lambda explicitly"
        )
    return lam


def _resolve_C(spec: str, d: int, seed: int) -> float:
    if spec != "auto":
        C = float(spec)
        if C <= 0:
            raise UsageError("cells-C must be > 0")
        return C
    r_max = geometry.step_layer_radii(geometry.RADIUS_MAX)[2]
    try:
        C = geometry.search_overlap_constant(d - 2, r_max, seed=derive_seed(seed, 5))
    except RuntimeError as exc:
        raise UsageError(f"{exc}; pass --cells-C explicitly") from exc
    return float(C)


def _sphere_lines(gamma):
    """One line per sphere: ``layer|vertex|kind|radius|coords``, the layer
    vector comma-joined, floats as ``%.17g`` (the same digits as f17).
    Lines are yielded one at a time, so a file receives them without the
    whole text being held in memory."""
    if not gamma.spheres:
        return
    d = len(gamma.spheres[0].center)
    row = "%s|%s|%s|%.17g|" + " ".join(["%.17g"] * d) + "\n"
    layers: dict = {}
    for s in gamma.spheres:
        layer = layers.get(s.layer)
        if layer is None:
            layer = layers[s.layer] = ",".join(str(v) for v in s.layer)
        yield row % (layer, s.vertex, s.kind, s.radius, *s.center.tolist())


def _step_log_csv(states) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf,
        fieldnames=[
            "layer",
            "step",
            "vertex",
            "kind",
            "rule",
            "case",
            "candidates",
            "mode",
            "outcome",
            "radius",
        ],
    )
    writer.writeheader()
    for state in states:
        layer = ",".join(str(v) for v in state.layer_vec)
        for entry in state.log:
            row = entry.to_row()
            if row["radius"] != "":
                row["radius"] = f17(row["radius"])
            row["layer"] = layer
            writer.writerow(row)
    return buf.getvalue()


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    seed = args.seed if args.seed is not None else _default_seed()
    lam = _resolve_lambda(args.lam, args.dim)
    C = _resolve_C(args.cells_C, args.dim, seed)
    params = ConstructionParams(
        d=args.dim,
        C=C,
        lam=lam,
        eta=args.eta,
        lattice_radius=args.lattice_radius,
        max_steps=args.max_steps,
    )
    if args.layers < 1:
        raise UsageError("layers must be >= 1")
    vecs = [(k,) + (0,) * (args.dim - 3) for k in range(args.layers)]
    gamma = run_multilayer(params, seed, vecs)
    report = verify_hard_sphere(gamma, tol=1e-9)
    clusters = cluster_components(gamma, touch_tol=1e-9)
    states = gamma.layer_states
    config = {
        "dim": args.dim,
        "lambda": lam,
        "lambda_spec": args.lam,
        "C": C,
        "C_spec": args.cells_C,
        "eta": args.eta,
        "layers": args.layers,
        "lattice_radius": args.lattice_radius,
        "max_steps": args.max_steps,
        "out": args.out,
    }
    man = _manifest("simulate", config, seed, t0)
    man["stop_reasons"] = {
        ",".join(map(str, st.layer_vec)): st.stopped_reason for st in states
    }
    man["counts"] = {
        "constructed": len(gamma.constructed),
        "leftovers": len(gamma.leftovers),
        "stream_leftovers": gamma.n_stream_leftovers,
        "steps": sum(len(st.log) for st in states),
        "clusters": len(clusters),
        "largest_cluster": clusters[0].size if clusters else 0,
    }
    man["registry_metrics"] = [st.registry.metrics() for st in states]
    man["hard_sphere"] = {
        "passed": report.passed,
        "pairs_checked": report.n_pairs_checked,
        "violations": list(report.violations),
    }
    man["annotations"] = gamma.annotations
    steps_text = _step_log_csv(states)
    if args.out:
        with open(args.out + ".spheres.txt", "w") as fh:
            fh.writelines(_sphere_lines(gamma))
        with open(args.out + ".steps.csv", "w") as fh:
            fh.write(steps_text)
        _emit_json(man, args.out + ".manifest.json")
    else:
        man["spheres"] = "".join(_sphere_lines(gamma))
        man["step_log"] = steps_text
        _emit_json(man, None)
    if not report.passed:
        print(
            f"hard-sphere violations: {len(report.violations)}", file=sys.stderr
        )
        return EXIT_VIOLATION
    return EXIT_OK


# -- perc2d -------------------------------------------------------------


def cmd_perc2d(args) -> int:
    t0 = time.perf_counter()
    seed = args.seed if args.seed is not None else _default_seed()
    if not 0.0 <= args.p <= 1.0:
        raise UsageError("p must lie in [0, 1]")
    est = estimate_theta(args.p, args.radius, args.trials, seed)
    config = {
        "p": args.p,
        "radius": args.radius,
        "trials": args.trials,
    }
    man = _manifest("perc2d", config, seed, t0)
    doc = {"manifest": man, "theta": est.to_dict()}
    _emit_json(doc, args.out)
    return EXIT_OK


# -- verify -------------------------------------------------------------


def _verify_geometry(budget: int, seed: int, d: int):
    checks = []
    rng_seed = derive_seed(seed, 21)
    # Cell volume: MC hit rate inside bounding ball vs the closed form.
    cell = geometry.Cell((0.0, 0.0), 0.01, np.zeros(d - 2), 2.0)
    est = geometry.mc_region_volume(cell, cell.bounding_ball(), budget, rng_seed)
    err = abs(est.value - cell.volume())
    checks.append(
        {
            "name": f"cell-volume-d{d}",
            "passed": bool(err <= 4.0 * est.std_error + 1e-30),
            "estimate": est.value,
            "expected": cell.volume(),
            "std_error": est.std_error,
        }
    )
    # Thin-slab ball sections and step regions: MC volume within brackets.
    for R in (1.3, 1.5, 1.7):
        lo, hi = geometry.cylinder_section_bracket(d, R)
        region = geometry.Intersection(
            (
                geometry.Cell((1.0, 0.0), 0.01, np.zeros(d - 2), 4.0),
                geometry.Ball(np.zeros(d), R),
            )
        )
        bounding = geometry.Cell(
            (1.0, 0.0), 0.01, np.zeros(d - 2), geometry.shell_radii(R)[1]
        )
        est = geometry.mc_region_volume(
            region, bounding, budget, derive_seed(seed, 22, int(R * 10))
        )
        checks.append(
            {
                "name": f"slab-section-d{d}-R{R}",
                "passed": bool(
                    lo - 4.0 * est.std_error <= est.value <= hi + 4.0 * est.std_error
                ),
                "estimate": est.value,
                "bracket": [lo, hi],
                "std_error": est.std_error,
            }
        )
    for r in (0.65, 0.75, 0.85):
        lo, hi = geometry.step_volume_bracket(d, r)
        parent = np.zeros(d)
        parent[0] = -1.0
        region = geometry.Intersection(
            (
                geometry.Cell((0.0, 0.0), 0.01, np.zeros(d - 2), 8.0),
                geometry.Annulus(
                    parent, r + geometry.MU - geometry.DELTA, r + geometry.MU + geometry.DELTA
                ),
            )
        )
        bound_layer = geometry.step_layer_radii(r)[2]
        bounding = geometry.Cell((0.0, 0.0), 0.01, np.zeros(d - 2), bound_layer)
        est = geometry.mc_region_volume(
            region, bounding, budget, derive_seed(seed, 23, int(r * 100))
        )
        checks.append(
            {
                "name": f"step-region-d{d}-r{r}",
                "passed": bool(
                    lo - 4.0 * est.std_error <= est.value <= hi + 4.0 * est.std_error
                ),
                "estimate": est.value,
                "bracket": [lo, hi],
                "std_error": est.std_error,
            }
        )
    return checks


def _verify_isolation(budget: int, seed: int, d: int):
    region = geometry.Ball(np.zeros(d), 1.0)
    away = np.zeros(d)
    away[0] = 3.0
    lam = 1.0
    r = 0.5
    iso = bounds.mc_isolated_check(
        region, lam, r, trials=budget, seed=derive_seed(seed, 31)
    )
    cond = bounds.mc_conditional_isolated_check(
        region,
        geometry.Ball(away, 1.0),
        lam,
        r,
        trials=budget,
        seed=derive_seed(seed, 32),
    )
    return [
        {
            "name": f"isolated-bound-d{d}",
            "passed": iso.passed,
            "empirical": iso.empirical,
            "reference": iso.reference,
            "std_error": iso.std_error,
        },
        {
            "name": f"conditional-isolation-d{d}",
            "passed": cond.passed,
            "empirical": cond.empirical,
            "reference": cond.reference,
            "std_error": cond.std_error,
        },
    ]


def _verify_sampler(budget: int, seed: int, d: int, lam: float):
    result = sampler_consistency_check(d, lam, n_seeds=budget, seed=seed)
    return [
        {
            "name": f"lazy-vs-oracle-chi2-d{d}",
            "passed": result["passed"],
            "min_p_value": result["min_p_value"],
            "worst_projection": result["worst_projection"],
            "n_tests": result["n_tests"],
            "n_seeds": result["n_seeds"],
        }
    ]


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    seed = args.seed if args.seed is not None else _default_seed()
    if args.suite == "geometry":
        d = args.dim if args.dim is not None else 11
        budget = args.budget if args.budget is not None else 200_000
        checks = _verify_geometry(budget, seed, d)
    elif args.suite == "isolation":
        d = args.dim if args.dim is not None else 2
        budget = args.budget if args.budget is not None else 100_000
        checks = _verify_isolation(budget, seed, d)
    elif args.suite == "sampler":
        d = args.dim if args.dim is not None else 2
        budget = args.budget if args.budget is not None else 2_000
        checks = _verify_sampler(budget, seed, d, lam=3.0)
    else:  # argparse choices make this unreachable
        raise UsageError(f"unknown suite {args.suite!r}")
    config = {"suite": args.suite, "budget": budget, "dim": d}
    man = _manifest("verify", config, seed, t0)
    passed = all(c["passed"] for c in checks)
    doc = {"manifest": man, "checks": checks, "passed": passed}
    _emit_json(doc, args.out)
    return EXIT_OK if passed else EXIT_STAT_FAIL


# -- parser -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardspheres",
        description="Tangent hard-sphere cluster simulator and bound verifier.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("bounds-scan", help="closed-form threshold scan")
    p_scan.add_argument("--dim-min", type=int, default=11)
    p_scan.add_argument("--dim-max", type=int, default=60)
    p_scan.add_argument("--threshold", type=float, default=bounds.DEFAULT_THRESHOLD)
    p_scan.add_argument("--out", default=None)
    p_scan.add_argument("--format", choices=["json", "csv"], default="json")
    p_scan.set_defaults(func=cmd_bounds_scan)

    p_sim = sub.add_parser("simulate", help="run the layered exploration")
    p_sim.add_argument("--dim", type=int, required=True)
    p_sim.add_argument("--lambda", dest="lam", default="auto")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--cells-C", dest="cells_C", default="auto")
    p_sim.add_argument("--eta", type=float, default=0.0)
    p_sim.add_argument("--layers", type=int, default=1)
    p_sim.add_argument("--lattice-radius", type=float, default=12.0)
    p_sim.add_argument("--max-steps", type=int, default=100_000)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_perc = sub.add_parser("perc2d", help="site percolation theta estimate")
    p_perc.add_argument("--p", type=float, required=True)
    p_perc.add_argument("--radius", type=float, default=100.0)
    p_perc.add_argument("--trials", type=int, default=1000)
    p_perc.add_argument("--seed", type=int, default=None)
    p_perc.add_argument("--out", default=None)
    p_perc.set_defaults(func=cmd_perc2d)

    p_ver = sub.add_parser("verify", help="seeded Monte Carlo self-checks")
    p_ver.add_argument("suite", choices=["geometry", "isolation", "sampler"])
    p_ver.add_argument("--budget", type=int, default=None)
    p_ver.add_argument("--dim", type=int, default=None)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RegistryError, ConstructionError) as exc:
        print(f"error: cannot realize this run exactly: {exc}", file=sys.stderr)
        return EXIT_CANNOT_REALIZE


if __name__ == "__main__":
    sys.exit(main())
