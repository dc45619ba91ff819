#!/usr/bin/env python3
"""Benchmark of the ``hardspheres`` command, driven in-process through
``cli.main(argv)`` from one process with no threads: a closed loop with a
single caller, the way batch jobs use it.

Run from the repository root:

    python3 bench/run.py --workload d45_layer --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25 --trace 0

One run sets the workload up ``SETUP_REPEATS`` times, then repeats its argv
for about ``--seconds``, checking every output.  The reference task of
``reference.py`` runs before and after each set-up and argv, and the timed
end-to-end metrics are scaled to the reference speed (see README).
``--trace 1`` adds one traced set-up and argv after the untraced ones and
reports per-layer metrics instead of end-to-end ones.  A readable report
precedes the result, which is the last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3
# The measuring loop plans no further than this, whatever --seconds says, so
# that every run ends well inside three minutes.
MEASURE_CAP_S = 100.0

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
# Per-layer metrics in report order; every traced run prints all of them,
# with zeros for the layers its workload never enters.
PER_LAYER = (
    ("geometry.sample.calls", "count"),
    ("geometry.sample.points", "count"),
    ("geometry.sample.normals", "count"),
    ("geometry.sample.bytes", "bytes"),
    ("geometry.sample.s", "s"),
    ("geometry.contains.calls", "count"),
    ("geometry.contains.points", "count"),
    ("geometry.contains.s", "s"),
    ("geometry.regions_disjoint.calls", "count"),
    ("geometry.regions_disjoint.s", "s"),
    ("geometry.search_overlap_constant.s", "s"),
    ("poisson.pick.stored.calls", "count"),
    ("poisson.pick.stored.s", "s"),
    ("poisson.pick.streamed.calls", "count"),
    ("poisson.pick.streamed.s", "s"),
    ("poisson.pick.saturated.calls", "count"),
    ("poisson.pick.saturated.s", "s"),
    ("poisson.materialize.calls", "count"),
    ("poisson.materialize.s", "s"),
    ("poisson.collect.calls", "count"),
    ("poisson.collect.s", "s"),
    ("poisson.points_in_ball.calls", "count"),
    ("poisson.points_in_ball.s", "s"),
    ("poisson.streamed_candidates", "count"),
    ("poisson.regenerated_candidates", "count"),
    ("poisson.stream_batches", "count"),
    ("poisson.stream_replays", "count"),
    ("poisson.regen_ratio", "ratio"),
    ("poisson.records", "count"),
    ("poisson.peak_stored_points", "count"),
    ("poisson.consistency_counts_lazy.s", "s"),
    ("poisson.consistency_counts_oracle.s", "s"),
    ("construction.steps", "count"),
    ("construction.good_rate", "ratio"),
    ("construction.explore_step.s", "s"),
    ("construction.choose_next_vertex.calls", "count"),
    ("construction.choose_next_vertex.s", "s"),
    ("construction.run_multilayer.s", "s"),
    ("construction.assemble_gamma.s", "s"),
    ("construction.verify_hard_sphere.s", "s"),
    ("construction.verify.pairs", "count"),
    ("construction.cluster_components.s", "s"),
    ("cli.simulate.s", "s"),
    ("cli.perc2d.s", "s"),
    ("cli.verify.s", "s"),
    ("cli.output_bytes", "bytes"),
    ("hexlattice.build_lattice.calls", "count"),
    ("hexlattice.build_lattice.s", "s"),
    ("hexlattice.vertices", "count"),
    ("percolation2d.build_site_graph.s", "s"),
    ("percolation2d.sample_config.s", "s"),
    ("percolation2d.origin_cluster.s", "s"),
    ("percolation2d.sites_visited", "count"),
    ("trace.run_s", "s"),
    ("trace.overhead", "ratio"),
    ("bench.wall_run_s", "s"),
    ("bench.reference_s", "s"),
)
WORKLOAD_NAMES = ("d45_layer", "d31_layers", "perc2d_r100", "verify_sampler")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--program-seed",
        type=int,
        default=None,
        help="run the workload's argv at this program seed instead of the one "
        "--seed selects (to check a claim on a seed it was not tuned on)",
    )
    args = p.parse_args(argv)
    if args.seed < 0 or (args.program_seed is not None and args.program_seed < 0):
        p.error("seeds must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def import_program(root: Path):
    """Imports hardspheres from the checkout's src/ and nowhere else;
    returns the import time in seconds."""
    src = root / "src"
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import hardspheres.cli  # noqa: F401

    elapsed = time.perf_counter() - t0
    where = Path(sys.modules["hardspheres"].__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"hardspheres imported from {where}, not from {src}")
    return elapsed


# -- provenance ---------------------------------------------------------------


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit_of(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def host_block() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# -- determinism ledger ------------------------------------------------------


class Ledger:
    """Fingerprints of earlier runs, keyed by argv, program seed and
    source digest, kept in the checkout.  Same source and seed must give
    the same fingerprint; another source may differ, which is reported."""

    def __init__(self, path: Path):
        self.path = path
        try:
            self.data = json.loads(path.read_text())
        except (OSError, ValueError):
            self.data = {}

    def compare(self, argv, seed, source, fingerprint):
        """Returns (problems, other sources whose fingerprint differs)."""
        seen = self.data.setdefault(argv, {}).setdefault(str(seed), {})
        problems = []
        if source in seen and seen[source] != fingerprint:
            problems.append(
                f"fingerprint differs from an earlier run of the same source and seed: "
                f"{diff(seen[source], fingerprint)}"
            )
        changed = sorted(s[:12] for s, fp in seen.items() if s != source and fp != fingerprint)
        seen.setdefault(source, fingerprint)
        return problems, changed

    def save(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def diff(a: dict, b: dict) -> str:
    return ", ".join(f"{k}: {a.get(k)} != {b.get(k)}" for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k))


# -- one argv -----------------------------------------------------------------


def one_line(exc: BaseException) -> str:
    text = " ".join(str(exc).split())
    return f"{type(exc).__name__}: {text}"[:300]


def guarded(fn, *args) -> list:
    """Problems that ``fn(*args)`` returns; an exception it raises is one
    problem, its traceback goes to stderr."""
    try:
        return fn(*args)
    except Exception as exc:
        traceback.print_exc()
        return [one_line(exc)]


def run_argv(cli, argv):
    """Exit code of ``cli.main(argv)``; the program's stdout goes to stderr
    so that the benchmark's own last line stays last."""
    with contextlib.redirect_stdout(sys.stderr):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argv this way
            return exc.code if isinstance(exc.code, int) else 2


def attempt(wl, cli, program_seed, out: Path) -> dict:
    """One timed argv plus its checks.  Any exception that escapes the
    program is a failed operation with a one-line message."""
    from workloads import Outcome

    gc.collect()
    wall = None
    t0 = time.perf_counter()
    try:
        rc = run_argv(cli, wl.argv(program_seed, out))
        wall = time.perf_counter() - t0
        outcome = wl.check(rc, out)
    except Exception as exc:
        if wall is None:
            wall = time.perf_counter() - t0
        traceback.print_exc()
        outcome = Outcome(problems=[one_line(exc)])
    finally:
        for path in out.parent.glob(out.name + "*"):
            path.unlink()
    return {"wall": wall, "outcome": outcome}


def warm_up(wl, cli, work: Path) -> list:
    from hardspheres import construction

    # Every set-up repeat builds the lattice again, so all do the same work.
    construction._LATTICE_CACHE.clear()
    try:
        rc = run_argv(cli, wl.warm_argv(work / "warm"))
    finally:
        for path in work.glob("warm*"):
            path.unlink()
    return [] if rc == cli.EXIT_OK else [f"warm-up exit code {rc}"]


def set_up(wl, cli, program_seed, work: Path) -> tuple:
    """One set-up repeat: the workload's one-off work and a warm-up argv.
    Returns (seconds, problems)."""
    t0 = time.perf_counter()
    problems = guarded(wl.prepare, program_seed) + guarded(warm_up, wl, cli, work)
    return time.perf_counter() - t0, problems


def measure(wl, cli, program_seed, seconds, work: Path, ref_before: float) -> list:
    """Repeats the argv while the next one is expected to end before
    ``seconds``; runs it at least once.  Each run carries the mean of the
    reference times before and after it as ``ref``."""
    from reference import reference_s

    runs = []
    t0 = time.perf_counter()
    while True:
        run = attempt(wl, cli, program_seed, work / f"run{len(runs)}")
        ref_after = reference_s()
        run["ref"] = (ref_before + ref_after) / 2
        ref_before = ref_after
        runs.append(run)
        spent = time.perf_counter() - t0
        expected = spent + statistics.median(r["wall"] + ref_after for r in runs)
        if expected >= min(seconds, MEASURE_CAP_S):
            return runs


def scaled(seconds: float, ref: float) -> float:
    """``seconds`` of wall time at the reference speed: as if the reference
    had taken ``REF_S``."""
    from reference import REF_S

    return seconds * REF_S / ref


# -- per-layer metrics ---------------------------------------------------------


def layer_metrics(tracer, outcome, traced_wall, untraced_run_s, reference) -> dict:
    regs = [r.metrics() for r in tracer.registries]
    streamed = sum(r["streamed_candidates_total"] for r in regs)
    regenerated = tracer.counts.get("poisson.regenerated_candidates", 0)
    fp = outcome.fingerprint
    special = {
        "geometry.sample.bytes": 8 * tracer.counts.get("geometry.sample.normals", 0),
        "poisson.streamed_candidates": streamed,
        "poisson.stream_replays": sum(r["stream_replays"] for r in regs),
        "poisson.regen_ratio": regenerated / streamed if streamed else 0.0,
        "poisson.records": sum(r["records"] for r in regs),
        "poisson.peak_stored_points": max((r["peak_stored_points"] for r in regs), default=0),
        "construction.steps": fp.get("steps", 0),
        "construction.good_rate": fp["good"] / fp["steps"] if fp.get("steps") else 0.0,
        "cli.output_bytes": outcome.output_bytes,
        "trace.run_s": traced_wall,
        "trace.overhead": traced_wall / untraced_run_s - 1.0,
        "bench.wall_run_s": untraced_run_s,
        "bench.reference_s": reference,
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in special:
            value = special[name]
        elif name.endswith(".calls"):
            value = tracer.stats.get(name[: -len(".calls")], [0, 0.0])[0]
        elif name.endswith(".s"):
            value = tracer.stats.get(name[: -len(".s")], [0, 0.0])[1]
        else:
            value = tracer.counts.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out


# -- one workload ---------------------------------------------------------------


def run_workload(args, root: Path) -> int:
    try:
        import_s = import_program(root)
    except ImportError as exc:
        print(f"error: cannot import the program: {one_line(exc)}", file=sys.stderr)
        return 2
    from hardspheres import cli
    from reference import REF_S, reference_s
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    program_seed = args.program_seed if args.program_seed is not None else wl.program_seed(args.seed)
    source = source_digest(root)
    work = BENCH_DIR / ".work" / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        reference_s()  # its own first-call costs stay out of the figures
        refs = [reference_s()]
        setups = []
        for _ in range(SETUP_REPEATS):
            setups.append(set_up(wl, cli, program_seed, work))
            refs.append(reference_s())
        runs = measure(wl, cli, program_seed, args.seconds, work, refs[-1])
        traced = None
        if args.trace:
            # The traced pass: the workload's one-off work and one argv; the
            # warm-up argv stays out of the per-layer counts.
            tracer = Tracer()
            with tracer:
                setups.append((0.0, guarded(wl.prepare, program_seed)))
                traced = attempt(wl, cli, program_seed, work / "traced")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.parent.rmdir()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks and determinism.
    problems = [f"set-up: {p}" for _, ps in setups for p in ps]
    ops = [r["outcome"] for r in runs] + ([traced["outcome"]] if traced else [])
    failed = sum(1 for _, ps in setups if ps) + sum(1 for o in ops if o.problems)
    attempted = len(setups) + len(ops)
    for i, o in enumerate(ops):
        problems += [f"argv {i}: {p}" for p in o.problems]
    good = [o for o in ops if not o.problems]
    changed_since = []
    if good:
        first = good[0].fingerprint
        for i, o in enumerate(good[1:], 1):
            if o.fingerprint != first:
                failed += 1
                problems.append(f"argv {i} differs from argv 0 at the same seed: {diff(first, o.fingerprint)}")
        ledger = Ledger(BENCH_DIR / ".state" / "fingerprints.json")
        argv_key = " ".join(wl.argv(program_seed, Path("<out>")))
        ledger_problems, changed_since = ledger.compare(argv_key, program_seed, source, first)
        failed += bool(ledger_problems)
        problems += ledger_problems
        ledger.save()

    walls = [r["wall"] for r in runs]
    wall_run_s = statistics.median(walls)
    run_s = statistics.median(scaled(r["wall"], r["ref"]) for r in runs)
    work_per_s = statistics.median(r["outcome"].work / scaled(r["wall"], r["ref"]) for r in runs)
    # The import ran before any reference; the first one stands for it.
    setup_s = scaled(import_s, refs[0]) + statistics.median(
        scaled(s, (before + after) / 2)
        for (s, _), before, after in zip(setups[:SETUP_REPEATS], refs, refs[1:])
    )
    reference = statistics.median(refs + [r["ref"] for r in runs])
    e2e = {
        "setup_s": setup_s,
        "run_s": run_s,
        "work_per_s": work_per_s,
        "peak_rss_mb": peak_rss_mb,
    }
    report = {
        "workload": wl.name,
        "why": wl.why,
        "bench_seed": args.seed,
        "program_seed": program_seed,
        "argv": ["hardspheres"] + wl.argv(program_seed, Path("<out>")),
        "host": host_block(),
        "commit": commit_of(root),
        "source_sha256": source,
        "import_s": import_s,
        "setup_repeats_s": [s for s, _ in setups[:SETUP_REPEATS]],
        "argv_walls_s": walls,
        "wall_run_s": wall_run_s,
        "reference_s": {"median": reference, "nominal": REF_S, "around_argvs": [r["ref"] for r in runs]},
        f"{wl.unit}_per_s": work_per_s,
        "error_rate": failed / attempted,
        "fingerprint": good[0].fingerprint if good else None,
        "fingerprint_differs_from_sources": changed_since,
        "problems": problems,
        "end_to_end": e2e,
    }
    if traced:
        metrics = layer_metrics(tracer, traced["outcome"], traced["wall"], wall_run_s, reference)
        report["per_layer"] = {k: v["value"] for k, v in metrics.items()}
        report["tracing_overhead"] = metrics["trace.overhead"]["value"]
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps(report, indent=1))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


# -- every workload ----------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process, one after the other, so that peak
    memory and warm caches stay per workload."""
    rows = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.program_seed is not None:
            cmd += ["--program-seed", str(args.program_seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        rows[name] = json.loads(lines[-1])
        report = json.loads("\n".join(lines[:-1]))
        print(f"== {name}  correct={rows[name]['correct']}  error_rate={report['error_rate']:.3g}")
        for metric, m in rows[name]["metrics"].items():
            print(f"   {metric:42s} {m['value']:>16.6g} {m['unit']}")
        if args.trace:
            print(f"   tracing overhead {report['tracing_overhead']:+.1%}")
        for p in report["problems"]:
            print(f"   problem: {p}")
    result = {
        "correct": all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": {f"{n}.{k}": v for n, r in rows.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, Path.cwd())


if __name__ == "__main__":
    sys.exit(main())
