"""Command-line interface.

Subcommands: bounds-scan (closed-form dimension thresholds), simulate
(run the exploration and dump spheres/steps), perc2d (site percolation
theta estimate), verify (seeded Monte Carlo self-checks).  Every command
emits a manifest with version, config, seed, RNG algorithm, and wall time;
all CSV floats carry 17 significant digits.

Exit codes: 0 success, 2 usage error (a ValueError: a value outside the
range the library function that uses it accepts, an output path that cannot
be written, or a verify --budget too small for its check to decide
anything), 3 invariant violation, 4 statistical-check failure, 5 the run
cannot be realized exactly (the registry refuses a region or the
construction breaks an invariant), 6 a worker process died before it
returned its results.  The CLI checks no range itself: the library
refuses a bad value before any lattice, registry or Monte Carlo work, and
output paths are checked before that.
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

from . import __version__, bounds, checks, g17
from .construction import (
    ConstructionError,
    ConstructionParams,
    cluster_components,
    run_multilayer,
    verify_hard_sphere,
)
from .percolation2d import estimate_theta
from .poisson import RegistryError
from .rngutil import RNG_ALGORITHM

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VIOLATION = 3
EXIT_STAT_FAIL = 4
EXIT_CANNOT_REALIZE = 5
EXIT_WORKER_LOST = 6

SEED_ENV_VAR = "HARDSPHERES_SEED"


def f17(x: float) -> str:
    return format(float(x), ".17g")


def _default_seed() -> int:
    text = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {text!r}") from None


def _manifest(command: str, config: dict, seed: int) -> dict:
    return {
        "version": __version__,
        "command": command,
        "config": config,
        "seed": seed,
        "rng_algorithm": RNG_ALGORITHM,
    }


def _stamp(man: dict, t0: float):
    """Set the manifest's wall time since t0; called after all of the
    command's other work, just before the manifest is written."""
    man["wall_time_seconds"] = time.perf_counter() - t0


def _since(t: float) -> tuple:
    """(now, seconds from t to now) on the perf_counter clock."""
    now = time.perf_counter()
    return now, now - t


def _check_writable(*paths: str):
    """Refuse, before any work, output paths that cannot be opened for
    writing.  A file the probe creates is removed again."""
    for path in paths:
        existed = os.path.exists(path)
        try:
            with open(path, "a"):
                pass
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc.strerror}") from exc
        if not existed:
            os.remove(path)


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
    if args.out:
        extra = [args.out + ".manifest.json"] if args.format == "csv" else []
        _check_writable(args.out, *extra)
    t0 = time.perf_counter()
    rows = bounds.scan_dimensions(args.dim_min, args.dim_max, args.threshold)
    min_d = bounds.min_dimension(args.threshold)
    config = {
        "dim_min": args.dim_min,
        "dim_max": args.dim_max,
        "threshold": args.threshold,
        "format": args.format,
    }
    man = _manifest("bounds-scan", config, seed=0)
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
            _stamp(man, t0)
            _emit_json(man, args.out + ".manifest.json")
        else:
            sys.stdout.write(buf.getvalue())
            _stamp(man, t0)
            sys.stderr.write(json.dumps(man, sort_keys=True) + "\n")
    else:
        doc = {
            "manifest": man,
            "results": [dataclasses.asdict(r) for r in rows],
        }
        _stamp(man, t0)
        _emit_json(doc, args.out)
    print(f"min dimension at threshold {args.threshold}: {min_d}", file=sys.stderr)
    return EXIT_OK


# -- simulate -----------------------------------------------------------


def _resolve_lambda(spec: str, d: int) -> float:
    if spec != "auto":
        return float(spec)
    lam = bounds.lambda_star(d)
    if lam is None:
        raise ValueError(
            f"auto lambda needs the volume ratio above 1, which fails at d={d}; "
            "use d >= 31 or give --lambda explicitly"
        )
    return lam


def _resolve_C(spec: str, d: int) -> float:
    if spec != "auto":
        return float(spec)
    try:
        return checks.searched_C(d)
    except RuntimeError as exc:
        raise ValueError(f"{exc}; pass --cells-C explicitly") from exc


# Bytes of g17 columns per block of the spheres file (at least one row):
# 142 rows at d = 45, 204 at d = 31.  glibc gives large temporaries back to
# the kernel when a block frees them (it unmaps them or trims its heap), so
# the next block faults their pages in again: 1,024-row blocks took 9-12 k
# minor faults per 3-step d = 45 run.  The temporaries of blocks this small
# stay in the heap and are reused.
SPHERE_BLOCK_BYTES = 1 << 18


def _sphere_blocks(gamma):
    """The spheres file as ASCII blocks of whole lines, one line per sphere:
    ``layer|vertex|kind|radius|coords``, the layer vector comma-joined,
    floats as ``%.17g`` (the same digits as f17).  Each block is formatted
    from gamma's columns by one g17_text call and yielded at once, so a
    file receives it without the whole text being held."""
    centers, radii = gamma.centers, gamma.radii
    n, d = centers.shape
    block = max(1, SPHERE_BLOCK_BYTES // ((d + 1) * g17.WIDTH))
    seps = np.full(d + 1, ord(" "), dtype=np.uint8)
    seps[0], seps[-1] = ord("|"), ord("\n")
    layers = [",".join(str(v) for v in vec) for vec in gamma.layers]
    # A leftover's head depends on its layer alone; only the constructed
    # rows (few, and first in each layer) are formatted one by one.
    leftover_heads = np.array([f"{layer}|-1|leftover|" for layer in layers], dtype=bytes)
    values = np.empty((min(block, n), d + 1))
    for start in range(0, n, block):
        stop = min(start + block, n)
        layer, vertex = gamma.layer[start:stop], gamma.vertex[start:stop]
        built = np.flatnonzero(vertex >= 0)
        built_heads = np.array(
            [
                f"{layers[k]}|{v}|constructed|"
                for k, v in zip(layer[built].tolist(), vertex[built].tolist())
            ],
            dtype=bytes,
        )
        head = leftover_heads[layer].astype(np.result_type(leftover_heads, built_heads))
        head[built] = built_heads
        rows, width = stop - start, head.itemsize
        values[:rows, 0] = radii[start:stop]
        values[:rows, 1:] = centers[start:stop]
        text = np.empty((rows, width + (d + 1) * g17.WIDTH), dtype=np.uint8)
        text[:, :width] = head.view(np.uint8).reshape(rows, width)
        fields = text[:, width:].reshape(rows, d + 1, g17.WIDTH)
        fields[:] = g17.g17_text(values[:rows])
        fields[:, :, -1] = seps
        yield text.tobytes().translate(None, b"\0")


def _step_log_csv(gamma) -> str:
    """The steps file: one row per step, numbered from 0 in each layer.
    csv writes None as an empty cell."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        "layer step vertex kind rule case candidates mode outcome radius "
        "mass_lower mass_upper".split()
    )
    for vec, run in zip(gamma.layers, gamma.runs):
        layer = ",".join(str(v) for v in vec)
        for step, e in enumerate(run.log):
            radius = None if e.radius is None else f17(e.radius)
            writer.writerow([
                layer, step, e.vertex, e.kind, e.rule, e.case, e.candidates,
                e.mode, e.outcome, radius, f17(e.mass_lower), f17(e.mass_upper),
            ])
    return buf.getvalue()


# The files ``simulate --out PREFIX`` writes, by suffix.
SIMULATE_OUTPUTS = (".spheres.txt", ".steps.csv", ".manifest.json")


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    seed = args.seed if args.seed is not None else _default_seed()
    if args.out:
        _check_writable(*(args.out + ext for ext in SIMULATE_OUTPUTS))
    lam = _resolve_lambda(args.lam, args.dim)
    C = _resolve_C(args.cells_C, args.dim)
    params = ConstructionParams(
        d=args.dim,
        C=C,
        lam=lam,
        eta=args.eta,
        lattice_radius=args.lattice_radius,
        max_steps=args.max_steps,
    )
    vecs = [(k,) + (0,) * (args.dim - 3) for k in range(args.layers)]
    t = time.perf_counter()
    gamma = run_multilayer(params, seed, vecs)
    t, layers_s = _since(t)
    report = verify_hard_sphere(gamma)
    t, verify_s = _since(t)
    cluster_sizes = np.bincount(cluster_components(gamma))
    t, clusters_s = _since(t)
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
    man = _manifest("simulate", config, seed)
    man["stop_reasons"] = {
        ",".join(map(str, vec)): run.stopped_reason for vec, run in zip(gamma.layers, gamma.runs)
    }
    man["counts"] = {
        "constructed": gamma.n_constructed,
        "leftovers": len(gamma.vertex) - gamma.n_constructed,
        "stream_leftovers": gamma.n_stream_leftovers,
        "steps": sum(len(run.log) for run in gamma.runs),
        "clusters": len(cluster_sizes),
        "largest_cluster": int(cluster_sizes[0]) if len(cluster_sizes) else 0,
    }
    man["registry_metrics"] = [run.metrics for run in gamma.runs]
    man["hard_sphere"] = {
        "passed": report.passed,
        "pairs_checked": report.n_pairs_checked,
        "violations": list(report.violations),
    }
    man["annotations"] = gamma.annotations
    t = time.perf_counter()
    steps_text = _step_log_csv(gamma)
    if args.out:
        spheres, steps, manifest = (args.out + ext for ext in SIMULATE_OUTPUTS)
        with open(spheres, "wb") as fh:
            fh.writelines(_sphere_blocks(gamma))
        with open(steps, "w") as fh:
            fh.write(steps_text)
    else:
        manifest = None
        man["spheres"] = b"".join(_sphere_blocks(gamma)).decode()
        man["step_log"] = steps_text
    # Disjoint phases of the run, so their sum is at most the wall time.
    man["timings"] = {
        "layers_s": layers_s,
        "verify_s": verify_s,
        "clusters_s": clusters_s,
        "write_s": _since(t)[1],
    }
    _stamp(man, t0)
    _emit_json(man, manifest)
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
    if args.out:
        _check_writable(args.out)
    # estimate_theta refuses a bad p, radius or trial count before any work
    est = estimate_theta(args.p, args.radius, args.trials, seed)
    config = {
        "p": args.p,
        "radius": args.radius,
        "trials": args.trials,
    }
    man = _manifest("perc2d", config, seed)
    doc = {"manifest": man, "theta": est.to_dict()}
    _stamp(man, t0)
    _emit_json(doc, args.out)
    return EXIT_OK


# -- verify -------------------------------------------------------------


# suite -> (default dim, default budget, check); each check returns the
# result rows the verify document lists.
VERIFY_SUITES = {
    "geometry": (11, 200_000, checks.geometry_suite),
    "isolation": (2, 100_000, checks.isolation_pair),
    "sampler": (2, 2_000, checks.sampler_consistency),
}


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    seed = args.seed if args.seed is not None else _default_seed()
    if args.out:
        _check_writable(args.out)
    default_dim, default_budget, check = VERIFY_SUITES[args.suite]
    d = args.dim if args.dim is not None else default_dim
    budget = args.budget if args.budget is not None else default_budget
    try:
        rows = check(d, budget, seed)
    except checks.TooFewSamples as exc:
        raise ValueError(f"{exc}; raise --budget") from exc
    config = {"suite": args.suite, "budget": budget, "dim": d}
    man = _manifest("verify", config, seed)
    # Only the sampler battery splits its work over processes.
    man["workers"] = checks.sampler_workers(budget) if args.suite == "sampler" else 1
    passed = all(c["passed"] for c in rows)
    doc = {"manifest": man, "checks": rows, "passed": passed}
    _stamp(man, t0)
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
    p_ver.add_argument("suite", choices=list(VERIFY_SUITES))
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RegistryError, ConstructionError) as exc:
        print(f"error: cannot realize this run exactly: {exc}", file=sys.stderr)
        return EXIT_CANNOT_REALIZE
    except checks.WorkerLost as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER_LOST


if __name__ == "__main__":
    sys.exit(main())
