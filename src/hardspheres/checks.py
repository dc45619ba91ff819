"""Seeded Monte Carlo checks of the facts the percolation argument rests on,
one function per check.

The step region keeps volume at least A (``step_regions``; the slab
sections of ``slab_sections`` check the bracket it is built from, and
``overlap_constant`` the closed form that sets the cell radius C), and a
picked center is isolated with probability at least
exp(-lam B) - exp(-lam vol), also given an empty disjoint region
(``isolation_pair``: the conditioned run draws from derive_seed(seed, 32),
the unconditioned one from derive_seed(seed, 31)), and the lazy registry
realizes the Poisson law (``sampler_consistency``, a chi-squared battery
over poisson's planar script).  Each function builds its regions, derives
its seeds from one seed, runs the Monte Carlo and returns result rows
``{"name", "passed", ...}``.  ``hardspheres verify`` emits these rows, and
acceptance criteria 3-6 assert that every row passed.  A check whose
budget is too small to decide anything raises TooFewSamples instead of
failing.
"""

from __future__ import annotations

import math
import os
from typing import Optional

import numpy as np

from . import geometry, poisson
from .bounds import isolated_bound
from .geometry import (
    DELTA,
    EPS,
    MU,
    RADIUS_MAX,
    Annulus,
    Ball,
    Cell,
    Intersection,
    Region,
    cylinder_section_bracket,
    exact_volume,
    mc_region_volume,
    shell_radii,
    step_layer_radii,
    step_volume_bracket,
    step_volume_lower_bound,
)
from .rngutil import derive_seed, generator

STEP_RADII = (0.65, 0.75, 0.85)  # parent radii across [RADIUS_MIN, RADIUS_MAX]
# The volume checks draw batches of 2^18 points, 2 MiB per dimension, so
# d = 64 holds 128 MiB per batch.  Below d = 3 a cell has no layer ball to
# cut.
GEOMETRY_DIMS = (3, 64)
# Each isolation trial realizes the process on a box of volume 6 * 3^(d-1)
# at lam = 1, in chunks of 4096 trials: about 80 MB of coordinates at
# d = 5, and 3.6 times that at d = 6.  A chunk peaks at 1.65 times its
# coordinates at d = 5 (tracemalloc; 2.2 at d = 3, where the per-point
# index arrays weigh more against the coordinates), and a 100,000-trial
# run at d = 5 at 175 MB RSS, interpreter included.
MAX_ISOLATION_DIM = 5
# Fewer conditioned trials than this give a rate of a handful of 0/1
# outcomes, which the 4-sigma comparison cannot judge.
MIN_CONDITIONED_TRIALS = 100
# The largest layer radius of a step region (at the largest parent radius):
# the ball radius the overlap constant C must hold a third of.
R_MAX_LAYER = step_layer_radii(RADIUS_MAX)[2]
# The chi-squared battery tests these projections of the planar script's
# joint count law.  The full 10-tuple is too fine to test directly (at 1e4
# samples nearly every tuple is unique, so any pooled table degenerates);
# equality of the joint law implies equality of every projection, so a
# fixed battery of marginals, the grand total, and strongly overlapping
# pairs is what a sample of this size can actually falsify.
_SCRIPT_PAIRS = ((0, 1), (0, 2), (0, 8), (1, 5), (3, 6), (4, 9))
_ALPHA = 1e-3  # familywise significance of the battery
_MIN_POOLED = 25
# Below this many seeds the battery is refused up front.  At lam = 3 the
# pooled tables of seeds 0-20 first became all testable at 333 to 460 seeds
# (median 403); a seed that needs more is refused by its degenerate
# projection instead.
MIN_CONSISTENCY_SEEDS = 400
# A chunk of the battery's counting holds at least this many seeds when
# the budget allows it: a lazy seed costs about 1.2 ms (500 took 0.58-0.76 s
# in-process on a 2-core Xeon), so a 50-seed chunk counts for about 60 ms,
# against about 8 ms to fork a pool of two workers and join it.
_MIN_CHUNK_SEEDS = 50


class TooFewSamples(ValueError):
    """A Monte Carlo check has too few samples to decide anything."""


class WorkerLost(RuntimeError):
    """A worker process died before it returned its results."""


def searched_C(d: int) -> float:
    """The overlap constant C of a run in dimension d: the searched layer
    radius of the (d-2)-ball cells."""
    if d < 3:
        raise ValueError(f"construction needs d >= 3, got {d}")
    return float(geometry.search_overlap_constant(d - 2, R_MAX_LAYER))


def _estimate(name: str, region: Region, bounding: Region, n: int, seed: int):
    """mc_region_volume of ``region`` against ``bounding``.  Every region
    here covers a share of its bounding region strictly between 0 and 1, so
    0 or n hits say that n is too small for a standard error: TooFewSamples."""
    est = mc_region_volume(region, bounding, n, seed)
    if est.hits in (0, n):
        raise TooFewSamples(
            f"{name}: {est.hits} of {n} samples hit, so the standard error is "
            "0 and the 4-sigma test decides nothing"
        )
    return est


def _bracket_row(name: str, est, lo: float, hi: float) -> dict:
    se = est.std_error
    return {
        "name": name,
        "passed": bool(lo - 4.0 * se <= est.value <= hi + 4.0 * se),
        "estimate": est.value,
        "bracket": [lo, hi],
        "std_error": se,
    }


def _agreement_row(name: str, value: float, se: float, expected: float) -> dict:
    return {
        "name": name,
        "passed": bool(abs(value - expected) <= 4.0 * se),
        "estimate": value,
        "expected": expected,
        "std_error": se,
    }


def cell_volume(d: int, n: int, seed: int) -> list:
    """Hit rate of a cell inside a bounding cell of twice its volume
    against the closed-form cell volume, within 4 standard errors."""
    m = d - 2
    cell = Cell((0.0, 0.0), EPS, np.zeros(m), 2.0)
    # Each factor of the bounding cell has sqrt(2) times the cell's volume,
    # so the cell fills half of it at every d.
    bounding = Cell((0.0, 0.0), EPS * 2.0**0.25, np.zeros(m), 2.0 * 2.0 ** (0.5 / m))
    name = f"cell-volume-d{d}"
    est = _estimate(name, cell, bounding, n, derive_seed(seed, 21))
    return [_agreement_row(name, est.value, est.std_error, exact_volume(cell))]


def overlap_constant(d: int, n: int, seed: int) -> list:
    """The boundary case that fixes the searched C: the hit rate of
    B(0, c) in B(x, R), |x| = c = C - R in the (d-2)-dimensional layer, at
    R the largest layer radius of a step region, against
    ``geometry.boundary_fraction``, within 4 standard errors."""
    C = searched_C(d)
    m = d - 2
    c = C - R_MAX_LAYER
    x = np.zeros(m)
    x[0] = c
    ball = Ball(x, R_MAX_LAYER)
    name = f"overlap-constant-d{d}"
    est = _estimate(name, Ball(np.zeros(m), c), ball, n, derive_seed(seed, 22))
    vol = ball.volume()
    share = geometry.boundary_fraction(m, c, R_MAX_LAYER)
    row = _agreement_row(name, est.value / vol, est.std_error / vol, share)
    row["cells_C"] = C
    return [row]


def slab_sections(d: int, n: int, seed: int) -> list:
    """Volume of a ball of radius R cut by the thin cell slab at planar
    distance 1, inside ``cylinder_section_bracket`` +- 4 sigma, for each R
    in 1.3, 1.5 and 1.7 (criterion 4)."""
    rows = []
    for R in (1.3, 1.5, 1.7):
        region = Intersection(
            (Cell((1.0, 0.0), EPS, np.zeros(d - 2), 4.0), Ball(np.zeros(d), R))
        )
        bounding = Cell((1.0, 0.0), EPS, np.zeros(d - 2), shell_radii(R)[1])
        name = f"slab-section-d{d}-R{R}"
        est = _estimate(name, region, bounding, n, derive_seed(seed, d, int(R * 10)))
        rows.append(_bracket_row(name, est, *cylinder_section_bracket(d, R)))
    return rows


def step_regions(d: int, n: int, seed: int) -> list:
    """Step-region volume for the worst admissible parent (an adjacent
    vertex whose layer offset sits at the rim of a cell of the searched
    C), for each parent radius in STEP_RADII: inside
    ``step_volume_bracket`` +- 4 sigma and, for d >= 11, at least the
    ``step_volume_lower_bound`` floor - 4 sigma (criterion 3)."""
    C = searched_C(d)
    parent = np.zeros(d)
    parent[0] = -1.0
    parent[2] = C
    cell = Cell((0.0, 0.0), EPS, np.zeros(d - 2), C)
    floor = step_volume_lower_bound(d) if d >= 11 else None
    rows = []
    for r in STEP_RADII:
        region = Intersection((cell, Annulus(parent, r + MU - DELTA, r + MU + DELTA)))
        bounding = Cell((0.0, 0.0), EPS, parent[2:], step_layer_radii(r)[2])
        name = f"step-region-d{d}-r{r}"
        est = _estimate(name, region, bounding, n, derive_seed(seed, int(r * 100)))
        row = _bracket_row(name, est, *step_volume_bracket(d, r))
        row["cells_C"] = C
        if floor is not None:
            row["floor"] = floor
            row["passed"] = row["passed"] and bool(
                est.value >= floor - 4.0 * est.std_error
            )
        rows.append(row)
    return rows


def geometry_suite(d: int, n: int, seed: int) -> list:
    """Cell volume, overlap constant, slab sections and step regions in
    dimension d, n samples each; d must lie in GEOMETRY_DIMS."""
    lo, hi = GEOMETRY_DIMS
    if not lo <= d <= hi:
        raise ValueError(
            f"the geometry checks need {lo} <= dim <= {hi} "
            f"(a batch of 2^18 points holds 2 MiB per dimension), got {d}"
        )
    return (
        cell_volume(d, n, seed)
        + overlap_constant(d, n, seed)
        + slab_sections(d, n, seed)
        + step_regions(d, n, seed)
    )


def _bounding_box(regions, pad: float):
    dims = {reg.dim for reg in regions}
    if len(dims) != 1:
        raise ValueError(f"mixed dimensions: {dims}")
    d = dims.pop()
    lo = np.full(d, np.inf)
    hi = np.full(d, -np.inf)
    for reg in regions:
        if not hasattr(reg, "bounding_ball"):
            raise ValueError(f"{type(reg).__name__} has no bounding ball")
        b = reg.bounding_ball()
        lo = np.minimum(lo, b.center - b.radius - pad)
        hi = np.maximum(hi, b.center + b.radius + pad)
    return lo, hi


def _isolation_trials(
    region: Region,
    lam: float,
    r: float,
    trials: int,
    seed: int,
    condition_empty: Optional[Region] = None,
):
    """Brute-force isolation experiment.

    Each trial realizes a Poisson(lam) process on a box covering the
    r-inflated region (and the conditioning region if given), picks a
    uniform point of the process inside ``region`` when one exists, and
    records whether no other point lies within distance r.  Returns
    (success_indicators, kept_mask) as arrays over trials, where kept is
    False for trials rejected by the conditioning.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    extra = [condition_empty] if condition_empty is not None else []
    lo, hi = _bounding_box([region, *extra], pad=r)
    box_vol = float(np.prod(hi - lo))
    d = lo.shape[0]
    rng = generator(seed)

    success = np.zeros(trials, dtype=bool)
    kept = np.ones(trials, dtype=bool)
    done = 0
    while done < trials:
        t = min(4096, trials - done)
        counts = rng.poisson(lam * box_vol, size=t)
        total = int(counts.sum())
        pts = rng.random((total, d))
        pts *= hi - lo
        pts += lo
        keys = rng.random(total)
        offsets = np.zeros(t + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])

        if condition_empty is not None and total:
            # A trial is rejected when one of its points lies in the zone.
            in_z = np.flatnonzero(condition_empty.contains(pts))
            kept[done + np.searchsorted(offsets, in_z, side="right") - 1] = False

        # Uniform member pick per trial: the first point at the trial's
        # largest random key, a non-member's key being -1, so a trial whose
        # largest key is -1 has no member.  Then each point is tested
        # against its own trial's pick, ROW_BLOCK points at a time.
        if total:
            keys[~region.contains(pts)] = -1.0
            filled = np.flatnonzero(counts)
            best = np.full(t, -1.0)
            best[filled] = np.maximum.reduceat(keys, offsets[filled])
            at = np.flatnonzero(keys == np.repeat(best, counts))
            owner, first = np.unique(
                np.searchsorted(offsets, at, side="right") - 1, return_index=True
            )
            pick = np.zeros(t, dtype=np.int64)
            pick[owner] = at[first]
            pick_of = np.repeat(pick, counts)
            crowded = np.zeros(t, dtype=bool)
            for s in range(0, total, geometry.ROW_BLOCK):
                j = pick_of[s : s + geometry.ROW_BLOCK]
                dist2 = np.sum((pts[s : s + geometry.ROW_BLOCK] - pts[j]) ** 2, axis=1)
                close = np.flatnonzero(dist2 <= r * r) + s
                close = close[close != pick_of[close]]  # the pick itself
                crowded[np.searchsorted(offsets, close, side="right") - 1] = True
            success[done : done + t] = (best >= 0.0) & ~crowded
        done += t
        del pts, keys  # before the next chunk allocates its own
    return success, kept


def isolation_pair(d: int, trials: int, seed: int) -> list:
    """Isolation of a pick in the unit ball at lam = 1, r = 0.5 (criterion
    5).  The run conditioned on an empty unit ball at distance 3 draws from
    derive_seed(seed, 32) and goes first, so a budget that keeps fewer than
    MIN_CONDITIONED_TRIALS of its trials is TooFewSamples before any other
    work.  The unconditioned rate, from derive_seed(seed, 31), is checked
    against ``isolated_bound`` and is the conditioned rate's reference, each
    within 4 standard errors.  d must lie in [1, MAX_ISOLATION_DIM]."""
    if not 1 <= d <= MAX_ISOLATION_DIM:
        raise ValueError(
            f"the isolation check needs 1 <= dim <= {MAX_ISOLATION_DIM} "
            f"(a trial realizes 6 * 3^(dim-1) points on average), got {d}"
        )
    region = Ball(np.zeros(d), 1.0)
    away = np.zeros(d)
    away[0] = 3.0
    success_c, kept = _isolation_trials(
        region, 1.0, 0.5, trials, derive_seed(seed, 32), Ball(away, 1.0)
    )
    n_c = int(np.count_nonzero(kept))
    if n_c < MIN_CONDITIONED_TRIALS:
        raise TooFewSamples(
            f"{n_c} of {trials} trials survived the conditioning, fewer than "
            f"the {MIN_CONDITIONED_TRIALS} the check needs"
        )
    success_u, _ = _isolation_trials(region, 1.0, 0.5, trials, derive_seed(seed, 31))
    p_u = float(np.mean(success_u))
    p_c = float(np.mean(success_c[kept]))
    var_u = p_u * (1.0 - p_u) / trials
    se_u = math.sqrt(var_u)
    se_c = math.sqrt(var_u + p_c * (1.0 - p_c) / n_c)
    return [
        {
            "name": f"{name}-d{d}",
            "passed": p >= ref - 4.0 * se,
            "empirical": p,
            "reference": ref,
            "std_error": se,
        }
        for name, p, ref, se in (
            ("isolated-bound", p_u, isolated_bound(1.0, d, 0.5, region.volume()), se_u),
            ("conditional-isolation", p_c, p_u, se_c),
        )
    ]


def _chi2_two_sample(vals_a, vals_b):
    """Two-sample chi-squared on categorical values, pooling categories
    rarer than _MIN_POOLED combined.  The commonest value (the first in
    sorted order on a tie) always keeps its own category, so the table has
    two columns unless every value is the same.  Returns (chi2, p, dof,
    n_categories), or None when the table is degenerate.

    The statistic and p-value are scipy's chi2_contingency's, float for
    float: the same expected table, Yates' correction at one degree of
    freedom, and the p-value from the chdtrc call its chi2.sf makes.
    scipy's stats subpackage itself is not imported; it loads about 490
    modules and 99 MB."""
    from collections import Counter

    from scipy.special import chdtrc

    ca, cb = Counter(vals_a), Counter(vals_b)
    keys = sorted(set(ca) | set(cb))
    top = max(keys, key=lambda k: ca[k] + cb[k], default=None)
    main = [k for k in keys if ca[k] + cb[k] >= _MIN_POOLED or k == top]
    rest = [k for k in keys if k not in main]
    observed = np.array(
        [[c[k] for k in main] + ([sum(c[k] for k in rest)] if rest else []) for c in (ca, cb)],
        dtype=np.float64,
    )
    n_cat = observed.shape[1]
    if n_cat < 2 or min(observed.sum(axis=1)) == 0:
        return None
    expected = observed.sum(axis=1, keepdims=True) * observed.sum(axis=0, keepdims=True)
    expected /= observed.sum()
    dof = n_cat - 1
    if dof == 1:
        diff = expected - observed
        observed = observed + np.minimum(0.5, np.abs(diff)) * np.sign(diff)
    stat = float(((observed - expected) ** 2 / expected).sum())
    return stat, float(chdtrc(dof, stat)), dof, n_cat


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the host cannot tell."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _chunks_per_half(n_seeds: int) -> int:
    """One chunk of seeds per usable CPU, each of at least _MIN_CHUNK_SEEDS
    seeds when there are that many."""
    return max(1, min(_usable_cpus(), n_seeds // _MIN_CHUNK_SEEDS))


def sampler_workers(n_seeds: int) -> int:
    """The number of processes ``sampler_consistency`` counts n_seeds seeds
    with: the usable CPUs, capped by the number of chunks, where fork is
    available and this process runs no other thread; 1 (this process)
    otherwise.  Fork copies only the calling thread, so a lock that another
    thread held would stay held in the worker for good."""
    import multiprocessing
    import threading

    if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
        return 1
    return min(_usable_cpus(), 2 * _chunks_per_half(n_seeds))


def _count_chunk(d: int, seed: int, tag: int, start: int, stop: int) -> list:
    """Count vectors of seeds start..stop-1 of one half of the battery: tag
    41 counts through the lazy registry, tag 42 on the oracle.  The counting
    function is looked up at call time, so a forked worker calls whatever
    ``poisson`` holds under its name."""
    if tag == 41:
        count = poisson.consistency_counts_lazy
    else:
        count = poisson.consistency_counts_oracle
    return [count(d, 3.0, derive_seed(seed, tag, i)) for i in range(start, stop)]


def _battery_counts(d: int, n_seeds: int, seed: int) -> tuple:
    """(lazy, oracle) count arrays, one row per seed in seed order.  Each
    half (tag 41 the lazy registry, tag 42 the oracle) is split into
    contiguous chunks of seeds; the chunks run in sampler_workers(n_seeds)
    processes made by fork, or in this process when that is 1.  The lazy
    chunks are mapped first and the oracle chunks only once they all
    returned, so a lazy count that raises starts no oracle work.  Each
    count depends on its seed alone, so the arrays are the same either way.
    An exception raised in a worker is raised here; a worker that dies is
    WorkerLost.  The pool is shut down, and its workers joined, on every
    path."""
    parts = _chunks_per_half(n_seeds)
    size, extra = divmod(n_seeds, parts)  # the first `extra` chunks take one more
    ends = [i * size + min(i, extra) for i in range(parts + 1)]
    halves = [[(d, seed, tag, a, b) for a, b in zip(ends, ends[1:])] for tag in (41, 42)]
    workers = sampler_workers(n_seeds)
    if workers == 1:
        chunks = [[_count_chunk(*job) for job in jobs] for jobs in halves]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        try:
            chunks = [list(pool.map(_count_chunk, *zip(*jobs))) for jobs in halves]
        except BrokenProcessPool as exc:
            raise WorkerLost(
                "a worker process of the chi-squared battery died before "
                "returning its counts"
            ) from exc
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    return tuple(np.array([row for chunk in part for row in chunk]) for part in chunks)


def sampler_consistency(d: int, n_seeds: int, seed: int) -> list:
    """The lazy registry's joint count law on poisson's planar script at
    lam = 3 against the one-sample oracle's (criterion 6): chi-squared over
    every marginal count, the grand total and the _SCRIPT_PAIRS, at
    familywise significance _ALPHA (Bonferroni).  The script's dimension is
    checked first.  Fewer than MIN_CONSISTENCY_SEEDS seeds, or a degenerate
    projection (too few populated categories to test), is TooFewSamples,
    not a pass.  Seed i of the lazy half draws from derive_seed(seed, 41, i)
    and of the oracle half from derive_seed(seed, 42, i), whichever process
    counts it (``_battery_counts``)."""
    poisson.consistency_regions(d)
    if n_seeds < MIN_CONSISTENCY_SEEDS:
        raise TooFewSamples(
            f"the chi-squared table needs at least {MIN_CONSISTENCY_SEEDS} seeds, "
            f"got {n_seeds}"
        )
    lazy, oracle = _battery_counts(d, n_seeds, seed)
    tests = [(f"n{j + 1}", lazy[:, j], oracle[:, j]) for j in range(lazy.shape[1])]
    tests.append(("total", lazy.sum(axis=1), oracle.sum(axis=1)))
    tests += [
        (f"n{i + 1}&n{j + 1}", zip(lazy[:, i], lazy[:, j]), zip(oracle[:, i], oracle[:, j]))
        for i, j in _SCRIPT_PAIRS
    ]
    worst = None
    for name, va, vb in tests:
        out = _chi2_two_sample(va, vb)
        if out is None:
            raise TooFewSamples(
                f"count law projection {name} is degenerate at {n_seeds} seeds"
            )
        if worst is None or out[1] < worst[1]:
            worst = (name, out[1])
    return [
        {
            "name": f"lazy-vs-oracle-chi2-d{d}",
            "passed": bool(worst[1] >= _ALPHA / len(tests)),
            "min_p_value": worst[1],
            "worst_projection": worst[0],
            "n_tests": len(tests),
            "n_seeds": n_seeds,
        }
    ]
