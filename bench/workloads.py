"""The four benchmark workloads: one fixed ``hardspheres`` argv each, the
one-off set-up it needs, and the checks its output must pass.

A check holds under any change that keeps the law of the process, not only
the bytes; the sha256 digests and counters beside it are the determinism
record, compared between runs by ``run.py``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from hardspheres import bounds, cli, geometry
from hardspheres.rngutil import derive_seed

SIGMAS = 4.0


@dataclass
class Outcome:
    """What one argv produced: units of work done, the determinism record,
    and every failed check as a one-line message."""

    work: float = 0.0
    fingerprint: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    output_bytes: int = 0


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Workload:
    name = ""
    why = ""
    unit = ""  # what work_per_s counts
    seed = 0  # canonical program seed
    # True when the benchmark seed moves the program seed.  Only workloads
    # whose work per argv does not depend on the program seed can follow it
    # and still give a steady figure (see README).
    seeded = False

    def program_seed(self, bench_seed: int) -> int:
        return self.seed + bench_seed if self.seeded else self.seed

    def prepare(self, program_seed: int) -> list:
        """One-off work the argv needs before it can run; returns problems."""
        return []

    def argv(self, program_seed: int, out: Path) -> list:
        raise NotImplementedError

    def warm_argv(self, out: Path) -> list:
        """A small argv of the same command, run during set-up."""
        raise NotImplementedError

    def check(self, rc: int, out: Path) -> Outcome:
        raise NotImplementedError


class Simulate(Workload):
    unit = "steps"
    dim = 0
    lattice_radius = "12"
    extra: tuple = ()

    def lam_spec(self) -> str:
        return "auto"

    def _simulate(self, *rest) -> list:
        return [
            "simulate", "--dim", str(self.dim), "--lambda", self.lam_spec(), "--cells-C", "16",
            "--lattice-radius", self.lattice_radius, *rest,
        ]

    def argv(self, program_seed, out):
        return self._simulate(*self.extra, "--seed", str(program_seed), "--out", str(out))

    def warm_argv(self, out):
        # One step of the same command: builds the lattice and takes numpy's
        # first-call paths.
        return self._simulate("--max-steps", "1", "--seed", "0", "--out", str(out))

    def check(self, rc, out):
        res = Outcome()
        if rc != cli.EXIT_OK:
            res.problems.append(f"exit code {rc}")
            return res
        paths = [Path(f"{out}.{ext}") for ext in ("spheres.txt", "steps.csv", "manifest.json")]
        res.output_bytes = sum(p.stat().st_size for p in paths)
        man = json.loads(paths[2].read_text())
        with open(paths[1], newline="") as fh:
            rows = list(csv.DictReader(fh))
        steps = len(rows)
        good = sum(1 for r in rows if r["outcome"] == "good")
        regs = man["registry_metrics"]
        res.work = steps
        res.fingerprint = {
            "spheres_sha256": sha256_file(paths[0]),
            "steps_sha256": sha256_file(paths[1]),
            "steps": steps,
            "good": good,
            "records": sum(r["records"] for r in regs),
            "streamed_candidates_total": sum(r["streamed_candidates_total"] for r in regs),
            "stream_replays": sum(r["stream_replays"] for r in regs),
        }
        if not man["hard_sphere"]["passed"]:
            res.problems.append("hard_sphere.passed is false")
        if steps != man["counts"]["steps"]:
            res.problems.append(f"steps file has {steps} rows, manifest says {man['counts']['steps']}")
        res.problems += self.check_rate(steps, good, man)
        return res

    def check_rate(self, steps, good, man) -> list:
        return []


class D45Layer(Simulate):
    name = "d45_layer"
    why = (
        "first 3 steps of the paper's d=45 layer at lambda*: streamed registry "
        "tier and geometry sampling dominate (~0.27M streamed candidates, 3 replays)"
    )
    seed = 7
    dim = 45
    extra = ("--max-steps", "3")

    def prepare(self, program_seed):
        # The overlap-constant search `--cells-C auto` would run; the argv
        # passes its result, 16, explicitly.
        r_max = geometry.step_layer_radii(geometry.RADIUS_MAX)[2]
        C = geometry.search_overlap_constant(
            self.dim - 2, r_max, seed=derive_seed(program_seed, 5)
        )
        return [] if C == 16 else [f"overlap-constant search gave C={C}, argv uses 16"]

    def check_rate(self, steps, good, man):
        # Criterion 9's test: good rate >= G(lambda*) - 4 sigma.
        rate = good / steps
        G = bounds.exact_success_bound(man["config"]["lambda"], self.dim)
        sigma = math.sqrt(rate * (1.0 - rate) / steps)
        if rate >= G - SIGMAS * sigma:
            return []
        return [f"good rate {rate:.4f} < G {G:.4f} - 4 sigma ({sigma:.4f})"]


class D31Layers(Simulate):
    name = "d31_layers"
    why = (
        "four d=31 layers at 12 lambda*, lattice radius 6: stored and saturated "
        "tiers, record scans, assembly, verification, 27 MB of output; no streaming"
    )
    seed = 71
    dim = 31
    lattice_radius = "6"
    extra = ("--layers", "4")

    def __init__(self):
        self.lam = None

    def prepare(self, program_seed):
        self.lam = 12.0 * bounds.lambda_star(self.dim)
        return []

    def lam_spec(self):
        return repr(self.lam)


class Perc2d(Workload):
    name = "perc2d_r100"
    why = (
        "site percolation at p=0.7957, radius 100, 250 trials: hexlattice and "
        "percolation2d only, no registry or geometry"
    )
    unit = "trials"
    seed = 80
    seeded = True
    trials = 250

    def argv(self, program_seed, out):
        return [
            "perc2d", "--p", "0.7957", "--radius", "100",
            "--trials", str(self.trials), "--seed", str(program_seed), "--out", str(out),
        ]

    def warm_argv(self, out):
        return [
            "perc2d", "--p", "0.7957", "--radius", "10", "--trials", "10",
            "--seed", "0", "--out", str(out),
        ]

    def check(self, rc, out):
        res = Outcome()
        if rc != cli.EXIT_OK:
            res.problems.append(f"exit code {rc}")
            return res
        res.output_bytes = out.stat().st_size
        theta = json.loads(out.read_text())["theta"]
        res.work = theta["trials"]
        res.fingerprint = {"theta_sha256": sha256_json(theta), "theta_hat": theta["theta_hat"]}
        # Criterion 8: the origin cluster reaches the rim with positive
        # probability at 4 sigma.
        if not theta["theta_hat"] - SIGMAS * theta["std_error"] > 0.0:
            res.problems.append(
                f"theta {theta['theta_hat']} - 4 sigma ({theta['std_error']}) is not > 0"
            )
        return res


class VerifySampler(Workload):
    name = "verify_sampler"
    why = (
        "500 tiny d=2 registries through the lazy-vs-oracle chi-squared gate: "
        "per-call overhead dominates instead of bulk sampling"
    )
    unit = "seeds"
    seed = 60
    seeded = True
    budget = 500

    def argv(self, program_seed, out):
        return [
            "verify", "sampler", "--budget", str(self.budget),
            "--seed", str(program_seed), "--out", str(out),
        ]

    def warm_argv(self, out):
        return ["verify", "sampler", "--budget", "400", "--seed", "0", "--out", str(out)]

    def check(self, rc, out):
        res = Outcome()
        if rc not in (cli.EXIT_OK, cli.EXIT_STAT_FAIL):
            res.problems.append(f"exit code {rc}")
            return res
        res.output_bytes = out.stat().st_size
        doc = json.loads(out.read_text())
        res.work = doc["manifest"]["config"]["budget"]
        res.fingerprint = {"checks_sha256": sha256_json(doc["checks"])}
        if not doc["passed"] or rc != cli.EXIT_OK:
            res.problems.append(f"sampler chi-squared gate failed: {doc['checks']}")
        return res


WORKLOADS = {w.name: w for w in (D45Layer(), D31Layers(), Perc2d(), VerifySampler())}
