"""Layered exploration that grows clusters of tangent hard spheres.

One layer lives in the slab R^2 x B_{d-2}(z, C).  Exploration walks the
decorated hexagonal lattice in its canonical order: step 0 tries to open
the origin site by picking a Poisson point in its cell, every later step
grows from the unique good neighbor v of the chosen vertex w by picking a
point y_w in the step region

    S = W(w) intersect {x : r_v + MU - DELTA <= |x - x_v| <= r_v + MU + DELTA}

and giving it radius r_w = |x_v - y_w| - r_v, which makes the new sphere
exactly tangent to its parent.  A vertex only becomes good if the isolation
ball B(y_w, r_w + eta) holds no other Poisson point.  Distinct layers use
independent registries at spacing L = 2(C + MU + DELTA + 1), wide enough
that their spheres keep a surface gap of at least 2.

The radius window [MU - DELTA, MU + DELTA] and the cell radius EPS are
constants of :mod:`hardspheres.geometry`, not run parameters: the step
volume brackets that pick_in_region's vol_lower and the bounds rest on
are computed from them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import geometry
from .geometry import (
    Annulus,
    Ball,
    Cell,
    DELTA,
    EPS,
    Intersection,
    MU,
    RADIUS_MAX,
    RADIUS_MIN,
    StepShell,
    region_contains_ball,
    step_volume_bracket,
)
from .hexlattice import KIND_SITE, StarLattice, build_lattice
from .percolation2d import UnionFind
from .poisson import RegionRegistry, RegistryError, max_materialize
from .rngutil import derive_seed

UNEXPLORED = 0
GOOD = 1
BAD = 2

STOP_RULE_III = "rule-iii"
STOP_BUDGET = "step-budget"
STOP_TRUNCATION = "lattice-truncation"

# Annulus membership tolerance: a candidate belongs to the step region when
# the implied radius lies within this slack of the window; the radius is
# then clamped to the closed window.
MEMBERSHIP_TOL = 1e-12
# An implied radius farther out than this is a geometry bug, not roundoff.
RADIUS_BUG_TOL = 1e-9
# Surface-gap slack of the report: spheres overlap when their gap is below
# -CONTACT_TOL and touch when it is within CONTACT_TOL.
CONTACT_TOL = 1e-9
# The lattice is built in full before the first step.  Radius 200 holds
# about 60,000 vertices and builds in about a second; the vertex count grows
# with the square of the radius, so larger radii are refused up front.
MAX_LATTICE_RADIUS = 200.0
# The overlap search returns at most 2^20.  A layer coordinate of that size
# has float64 spacing 2^-32, about 2.3e-10, below CONTACT_TOL; far above it
# tangency cannot be resolved, and near 1.3e154 a cell's C^2 overflows.
MAX_LAYER_RADIUS = 2.0**20

_LAYER_SEED_TAG = 11


class ConstructionError(RuntimeError):
    pass


@dataclass(frozen=True)
class ConstructionParams:
    """Run parameters: C is the layer-ball radius, lam the Poisson
    intensity, eta the isolation margin.  The radius window and the cell
    radius EPS are geometry's constants (2*(MU + DELTA + EPS) < sqrt(3)
    keeps spheres at non-adjacent vertices apart), and the layer spacing L
    follows from C."""

    d: int
    C: float
    lam: float
    eta: float = 0.0
    lattice_radius: float = 12.0
    max_steps: int = 100_000

    def __post_init__(self):
        if self.d < 3:
            raise ValueError(f"construction needs d >= 3, got {self.d}")
        if not 0 < self.C < math.inf:
            raise ValueError(f"layer radius C must be finite and > 0, got {self.C}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        try:
            cell_volume = self.cell((0.0, 0.0), np.zeros(self.d - 2)).volume()
        except OverflowError:
            cell_volume = math.inf
        if not cell_volume < math.inf:
            raise ValueError(
                f"layer radius C = {self.C:g} is too large at d = {self.d}: "
                "a cell's volume overflows"
            )
        if self.C > MAX_LAYER_RADIUS:
            raise ValueError(
                f"layer radius C = {self.C:g} exceeds {MAX_LAYER_RADIUS:g}: "
                "float64 layer coordinates could not resolve tangency"
            )
        if not 0.0 <= self.eta < RADIUS_MIN:
            raise ValueError(
                f"eta must lie in [0, {RADIUS_MIN}); the parent "
                "center would otherwise break every isolation check"
            )
        # Every isolation ball is materialized, so above this intensity the
        # registry refuses step 0's, B(y0, MU + eta).
        mass = self.lam * geometry.ball_volume(self.d, MU + self.eta)
        if mass > max_materialize(self.d):
            raise ValueError(
                f"lambda = {self.lam:g} is too large at d = {self.d}: an "
                f"isolation ball would hold {mass:.3e} points on average, above "
                f"the registry's materialization cap {max_materialize(self.d):.3e}"
            )
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not 2.0 <= self.lattice_radius <= MAX_LATTICE_RADIUS:
            raise ValueError(
                f"lattice_radius must lie in [2, {MAX_LATTICE_RADIUS:g}], "
                f"got {self.lattice_radius}"
            )

    @property
    def L(self) -> float:
        """Layer spacing: spheres of distinct layers keep a gap of 2."""
        return 2.0 * (self.C + MU + DELTA + 1.0)

    def layer_center(self, layer_vec) -> np.ndarray:
        vec = np.asarray(layer_vec, dtype=float).reshape(-1)
        if vec.shape[0] != self.d - 2:
            raise ValueError(
                f"layer vector must have {self.d - 2} entries, got {vec.shape[0]}"
            )
        return vec * self.L

    def cell(self, planar_center, layer_center) -> Cell:
        return Cell(planar_center, EPS, layer_center, self.C)


@dataclass(frozen=True)
class SphereRecord:
    """A constructed sphere as its layer's exploration keeps it."""

    center: np.ndarray
    radius: float
    vertex: int  # lattice vertex id
    point_id: tuple
    parent: Optional[int]  # the good neighbor it grew from; None at step 0


@dataclass
class StepLog:
    vertex: int
    kind: str  # "site" | "bond"
    rule: str  # "step0" | "rule-i" | "rule-ii"
    case: str  # "empty" | "isolation-fail" | "good"
    candidates: Optional[int]
    mode: str
    mass_lower: float  # the pick's mass bracket, PickResult.mass_lower/_upper
    mass_upper: float
    radius: Optional[float] = None
    good_neighbors: int = 0
    bad_neighbors: int = 0

    @property
    def outcome(self) -> str:
        return "good" if self.case == "good" else "bad"


class ExplorationState:
    """Mutable per-layer exploration state."""

    def __init__(
        self,
        params: ConstructionParams,
        lattice: StarLattice,
        registry: RegionRegistry,
        layer_vec,
    ):
        self.params = params
        self.lattice = lattice
        self.registry = registry
        self.layer_vec = tuple(int(v) for v in np.asarray(layer_vec).reshape(-1))
        self.layer_center = params.layer_center(self.layer_vec)
        self.status = np.zeros(lattice.n_vertices, dtype=np.int8)
        self.spheres: dict = {}  # vertex id -> SphereRecord, in step order
        self.frontier: set = set()
        self.log: list = []  # one StepLog per step; its length is the step count
        self.stopped_reason: Optional[str] = None
        self.failed_picks: list = []  # (point_id, coords) of non-good picks

    def mark_good(self, sphere: SphereRecord):
        vertex = sphere.vertex
        self.status[vertex] = GOOD
        self.spheres[vertex] = sphere
        self.frontier.discard(vertex)
        for nb in self.lattice.neighbors[vertex]:
            if self.status[nb] == UNEXPLORED:
                self.frontier.add(nb)

    def mark_bad(self, vertex: int):
        self.status[vertex] = BAD
        self.frontier.discard(vertex)

    def neighbor_counts(self, vertex: int) -> tuple:
        """(good, bad, unexplored, missing) over the vertex's neighborhood."""
        good = bad = unexplored = 0
        for nb in self.lattice.neighbors[vertex]:
            s = self.status[nb]
            if s == GOOD:
                good += 1
            elif s == BAD:
                bad += 1
            else:
                unexplored += 1
        missing = self.lattice.full_degree(vertex) - len(
            self.lattice.neighbors[vertex]
        )
        return good, bad, unexplored, missing


def _isolated(
    state: ExplorationState, center: np.ndarray, radius: float, own_id: tuple
) -> bool:
    """True if B(center, radius + eta) holds no process point besides the
    picked one.  The ball is materialized, so the answer is exact and the
    crowding points (if any) become part of the realized configuration."""
    ball_pts = state.registry.points_in_ball(center, radius + state.params.eta)
    return all(pid == own_id for pid in ball_pts.ids)


def choose_next_vertex(state: ExplorationState):
    """Next vertex to explore, by the two growth rules.

    Rule (i): the first unexplored site (in canonical order) whose bonds are
    one good and two unexplored.  Rule (ii): the first unexplored bond with
    one good site and one unexplored site.  Neither: stop.  A candidate with
    missing neighbors (lattice rim) stops the run as truncated, because the
    rules cannot be evaluated faithfully there.

    Returns ("explore", vertex, rule) or ("stop", reason).
    """
    ordered = sorted(state.frontier)
    for want_site, rule, need_unexplored in (
        (True, "rule-i", 2),
        (False, "rule-ii", 1),
    ):
        for v in ordered:
            if (state.lattice.kinds[v] == KIND_SITE) != want_site:
                continue
            good, bad, unexplored, missing = state.neighbor_counts(v)
            if good != 1 or bad != 0:
                continue
            if missing:
                return ("stop", STOP_TRUNCATION)
            if unexplored == need_unexplored:
                return ("explore", v, rule)
    return ("stop", STOP_RULE_III)


def step_region(
    params: ConstructionParams,
    planar_center: np.ndarray,
    layer_center: np.ndarray,
    parent_center: np.ndarray,
    parent_radius: float,
):
    """(region, bounding, vol_lower) for the step from a parent sphere into
    the cell at planar_center.  The bounding region is the StepShell of the
    annulus over the product that replaces the cell's layer ball by the
    slice of the annulus' outer sphere that can meet the cell at all; the
    registry chooses the pick's tier from that product's mass."""
    cell = params.cell(planar_center, layer_center)
    annulus = Annulus(
        parent_center,
        parent_radius + MU - DELTA - MEMBERSHIP_TOL,
        parent_radius + MU + DELTA + MEMBERSHIP_TOL,
    )
    region = Intersection((cell, annulus))
    bound_layer = math.sqrt(annulus.outer**2 - (1.0 - 2.0 * EPS) ** 2)
    bounding = StepShell(
        Cell(planar_center, EPS, parent_center[2:], bound_layer), annulus
    )
    vol_lower = max(0.0, step_volume_bracket(params.d, parent_radius)[0])
    return region, bounding, vol_lower


def explore_step(state: ExplorationState, w: int, rule: str):
    """Explore vertex w, chosen by ``rule``.  Step 0 opens the origin site:
    it picks a point in the origin cell and gives it radius MU.  Every later
    step grows from w's unique good neighbor v, picking a point in the step
    region around v's sphere and making the new sphere tangent to it.
    Either way the sphere is kept only if its isolation ball holds no other
    point."""
    lattice = state.lattice
    if rule == "step0":
        if w != 0 or state.status[w] != UNEXPLORED or state.log:
            raise ConstructionError("step0 must run first, on an unexplored origin")
        good = bad = 0
        parent = None
        region = bounding = state.params.cell(lattice.positions[w], state.layer_center)
        vol_lower = region.volume()
    else:
        good, bad, unexplored, missing = state.neighbor_counts(w)
        if good != 1 or bad != 0 or missing != 0:
            raise ConstructionError(
                f"vertex {w} chosen with {good} good / {bad} bad / {missing} "
                "missing neighbors; the growth rules require exactly one good, "
                "none bad, none missing"
            )
        parent = next(nb for nb in lattice.neighbors[w] if state.status[nb] == GOOD)
        parent_sphere = state.spheres[parent]
        region, bounding, vol_lower = step_region(
            state.params,
            lattice.positions[w],
            state.layer_center,
            parent_sphere.center,
            parent_sphere.radius,
        )
    result = state.registry.pick_in_region(region, bounding, vol_lower)
    entry = StepLog(
        vertex=w,
        kind=lattice.kind_name(w),
        rule=rule,
        case="empty",
        candidates=result.n_members,
        mode=result.mode,
        mass_lower=result.mass_lower,
        mass_upper=result.mass_upper,
        good_neighbors=good,
        bad_neighbors=bad,
    )
    if result.status == "picked":
        y_w = result.coords
        if parent is None:
            r_w = MU
        else:
            r_raw = float(math.dist(parent_sphere.center, y_w)) - parent_sphere.radius
            if not RADIUS_MIN - RADIUS_BUG_TOL <= r_raw <= RADIUS_MAX + RADIUS_BUG_TOL:
                raise ConstructionError(
                    f"implied radius {r_raw} outside [{RADIUS_MIN}, {RADIUS_MAX}] "
                    "beyond roundoff; annulus membership is broken"
                )
            r_w = min(max(r_raw, RADIUS_MIN), RADIUS_MAX)
        if _isolated(state, y_w, r_w, result.point_id):
            sphere = SphereRecord(
                center=y_w,
                radius=r_w,
                vertex=w,
                point_id=result.point_id,
                parent=parent,
            )
            state.mark_good(sphere)
            entry.case = "good"
            entry.radius = r_w
        else:
            state.failed_picks.append((result.point_id, y_w))
            entry.case = "isolation-fail"

    if entry.case != "good":
        state.mark_bad(w)
        # A failed bond abandons the site behind it: that site can now
        # never satisfy rule (i), so close it out explicitly.
        if lattice.kinds[w] != KIND_SITE:
            for nb in lattice.neighbors[w]:
                if state.status[nb] == UNEXPLORED:
                    state.mark_bad(nb)
    state.log.append(entry)


_LATTICE_CACHE: dict = {}


def _lattice(radius: float) -> StarLattice:
    key = float(radius)
    if key not in _LATTICE_CACHE:
        _LATTICE_CACHE[key] = build_lattice(key)
    return _LATTICE_CACHE[key]


def run_layer(params: ConstructionParams, seed: int, layer_vec=None, index: int = 0):
    """Explore one layer to its stop; returns (state, constructed spheres).

    A RegistryError or ConstructionError of a step is raised again, of the
    same type, with the layer ``index``, the step number and the vertex
    leading its message."""
    if layer_vec is None:
        layer_vec = (0,) * (params.d - 2)
    lattice = _lattice(params.lattice_radius)
    registry = RegionRegistry(params.d, params.lam, seed)
    state = ExplorationState(params, lattice, registry, layer_vec)
    choice = ("explore", 0, "step0")
    while choice[0] == "explore":
        _, vertex, rule = choice
        try:
            explore_step(state, vertex, rule)
        except (RegistryError, ConstructionError) as exc:
            raise type(exc)(
                f"layer {index}, step {len(state.log)}, vertex {vertex}: {exc}"
            ) from exc
        choice = choose_next_vertex(state)
        if choice[0] == "explore" and len(state.log) >= params.max_steps:
            choice = ("stop", STOP_BUDGET)
    state.stopped_reason = choice[1]
    return state, list(state.spheres.values())


@dataclass(frozen=True)
class GammaProcess:
    """The assembled sphere process as read-only columns, one row per
    sphere: each layer's constructed tangent spheres, then a sphere at
    every enumerated unconsumed Poisson point of that layer (a leftover).
    A leftover has radius 0 unless the eta post-pass grew it."""

    centers: np.ndarray  # (n, d)
    radii: np.ndarray  # (n,)
    vertex: np.ndarray  # (n,) lattice vertex id, -1 for a leftover
    layer: np.ndarray  # (n,) index into layers
    point_ids: np.ndarray  # (n, 2) (record id, local index) of the point
    layers: tuple  # layer vectors
    n_stream_leftovers: int  # realized but unenumerated (replay-only) points
    layer_states: tuple
    annotations: dict

    def __post_init__(self):
        for col in (self.centers, self.radii, self.vertex, self.layer, self.point_ids):
            col.flags.writeable = False

    @property
    def n_constructed(self) -> int:
        return int(np.count_nonzero(self.vertex >= 0))

    @functools.cached_property
    def pairs(self):
        """_contact_pairs of the spheres at CONTACT_TOL, computed once: the
        hard-sphere check and the cluster search ask for the same pairs."""
        pairs = _contact_pairs(self.centers, self.radii, CONTACT_TOL)
        for arr in pairs:
            arr.flags.writeable = False
        return pairs


def _layer_rows(state, d: int):
    """One layer's rows as (centers, radii, vertex, point_ids) columns, with
    its count of unlisted stream points: the constructed spheres in step
    order, then the leftovers in point-id order.  The leftovers are the
    points the records hold, less the consumed ones, plus the failed picks
    that surfaced from streams, each once."""
    reg = state.registry
    spheres = list(state.spheres.values())
    realized = reg.realized_points()
    # Record r holds the rows first[r]:first[r + 1]; a streamed record none.
    first = np.searchsorted(realized.ids[:, 0], np.arange(len(reg.records) + 1))
    n_held = np.diff(first)
    consumed = np.array([s.point_id for s in spheres], dtype=np.intp).reshape(-1, 2)
    held = consumed[:, 1] < n_held[consumed[:, 0]]
    keep = np.ones(len(realized.ids), dtype=bool)
    keep[first[consumed[held, 0]] + consumed[held, 1]] = False
    # Streamed points exist only as replayable counts; the ones whose
    # coordinates did surface (consumed centers, failed picks) are
    # accounted here, the rest are reported as a count.
    surfaced = set(map(tuple, consumed[~held].tolist()))
    extra_ids, extra_coords = [], []
    for pid, coords in state.failed_picks:
        if pid[1] >= n_held[pid[0]] and pid not in surfaced:
            surfaced.add(pid)
            extra_ids.append(pid)
            extra_coords.append(coords)
    ids, coords = realized.ids, realized.coords
    rows = np.flatnonzero(keep)
    if extra_ids:
        rows = np.concatenate((rows, len(ids) + np.arange(len(extra_ids))))
        ids = np.concatenate((ids, np.array(extra_ids, dtype=np.intp)))
        coords = np.concatenate((coords, extra_coords))
        rows = rows[np.lexsort((ids[rows, 1], ids[rows, 0]))]
    n = len(spheres)
    radii = np.zeros(n + rows.size)
    radii[:n] = [s.radius for s in spheres]
    vertex = np.full(n + rows.size, -1, dtype=np.intp)
    vertex[:n] = [s.vertex for s in spheres]
    columns = (
        np.concatenate((np.reshape([s.center for s in spheres], (n, d)), coords[rows])),
        radii,
        vertex,
        np.concatenate((consumed, ids[rows])),
    )
    streamed_fresh = sum(rec.n_fresh for rec in reg.records if rec.mode == "streamed")
    return columns, streamed_fresh - len(surfaced)


def assemble_gamma(params: ConstructionParams, states) -> GammaProcess:
    """Merge layer runs into one process: each layer's constructed spheres,
    then its leftovers in point-id order.  Streamed points are realized but
    not stored; they are reported by count and stay out of the columns
    (documented restriction of the finite simulation)."""
    layers = [_layer_rows(state, params.d) for state in states]
    centers, radii, vertex, point_ids = (
        np.concatenate([columns[k] for columns, _ in layers]) for k in range(4)
    )
    layer = np.repeat(np.arange(len(states)), [len(columns[1]) for columns, _ in layers])
    n_stream_leftovers = sum(n for _, n in layers)
    annotations = {}
    if params.eta > 0:
        annotations = _reassign_leftover_radii(
            centers, radii, np.flatnonzero(vertex < 0), layer, point_ids, states
        )
    return GammaProcess(
        centers=centers,
        radii=radii,
        vertex=vertex,
        layer=layer,
        point_ids=point_ids,
        layers=tuple(st.layer_vec for st in states),
        n_stream_leftovers=n_stream_leftovers,
        layer_states=tuple(states),
        annotations=annotations,
    )


def _reassign_leftover_radii(centers, radii, leftovers, layer, point_ids, states) -> dict:
    """Positive-radii post-pass: a leftover at z grows to half the distance
    to the nearest other sphere surface, but only when the ball of that
    diameter is provably inside one realized record, so nothing unseen can
    be closer.  Grown radii are written into ``radii``; unresolvable
    leftovers keep radius 0.  Returns the two counts for the manifest."""
    from scipy.spatial import cKDTree

    positive = radii > 0
    pos_centers, pos_radii = centers[positive], radii[positive]
    left_tree = cKDTree(centers[leftovers]) if len(leftovers) > 1 else None
    n_resolved = 0
    n_truncated = 0
    for k in leftovers.tolist():
        z = centers[k]
        dist = math.inf
        if len(pos_radii):
            gaps = np.linalg.norm(pos_centers - z, axis=1) - pos_radii
            dist = float(gaps.min())
        if left_tree is not None:
            d_near = left_tree.query(z, k=2)[0][1]  # [0] is z itself
            dist = min(dist, float(d_near))
        reg = states[layer[k]].registry
        covered = any(
            rec.mode in ("stored", "streamed")
            and region_contains_ball(rec.region, z, dist)
            for rec in reg.records
        )
        if not covered or not math.isfinite(dist) or dist <= 0:
            n_truncated += 1
            continue
        # Streamed points are not in the columns; replaying the covering
        # records inside B(z, dist) closes that gap exactly.
        own = tuple(point_ids[k].tolist())
        near = reg.collect(Ball(z, dist))
        for pid, coords in zip(near.ids, near.coords):
            if pid == own:
                continue
            dist = min(dist, float(math.dist(coords, z)))
        n_resolved += 1
        radii[k] = dist / 2.0
    return {
        "leftovers_grown": n_resolved,
        "leftovers_window_truncated": n_truncated,
    }


def run_multilayer(params: ConstructionParams, seed: int, layers) -> GammaProcess:
    """Independent layer runs at the given integer layer vectors, merged
    into one GammaProcess."""
    vecs = [tuple(int(x) for x in np.asarray(v).reshape(-1)) for v in layers]
    if not vecs:
        raise ValueError("need at least one layer vector")
    if len(set(vecs)) != len(vecs):
        raise ValueError("layer vectors must be distinct")
    for v in vecs:
        if len(v) != params.d - 2:
            raise ValueError(
                f"layer vectors need {params.d - 2} entries, got {len(v)}"
            )
    states = []
    for i, vec in enumerate(vecs):
        child = derive_seed(seed, _LAYER_SEED_TAG, i)
        state, _ = run_layer(params, child, vec, i)
        states.append(state)
    gamma = assemble_gamma(params, states)
    _assert_interlayer_gaps(gamma)
    return gamma


def _assert_interlayer_gaps(gamma: GammaProcess):
    """Constructed spheres of different layers must keep surface gaps >= 2;
    that is what the layer spacing L was chosen for.  The first pair, in
    layer and sphere order, whose gap math.dist(x_a, x_b) - r_a - r_b falls
    below 2 - 1e-9 is reported.  numpy's distance settles every pair but
    those within _dist_below's tie band of the bound: the gap rounds
    monotonically in the distance, and near the bound the distance exceeds
    both radii, so the band also covers the two subtractions."""
    centers, radii = gamma.centers, gamma.radii
    constructed = gamma.vertex >= 0
    groups = [
        (gamma.layers[k], np.flatnonzero(constructed & (gamma.layer == k)))
        for k in sorted(range(len(gamma.layers)), key=gamma.layers.__getitem__)
    ]
    bound = 2.0 - 1e-9
    for a, (vec_a, rows_a) in enumerate(groups):
        for vec_b, rows_b in groups[a + 1 :]:
            x_b, r_b = centers[rows_b], radii[rows_b]
            for i in rows_a.tolist():
                diff = x_b - centers[i]
                dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
                near = dist - radii[i] - r_b < bound + _TIE_REL * dist + _TIE_ABS
                for j in rows_b[near].tolist():
                    exact = math.dist(centers[i], centers[j]) - float(radii[i]) - float(radii[j])
                    if exact < bound:
                        raise ConstructionError(
                            f"inter-layer surface gap {exact} < 2 between "
                            f"layers {vec_a} and {vec_b}"
                        )


@dataclass(frozen=True)
class HardSphereReport:
    n_pairs_checked: int
    violations: tuple  # (i, j, deficit)
    passed: bool


# A distance summed by numpy or cKDTree differs from math.dist by a few
# ulps (about d/2 relative ulps from the summed squares), or by up to
# ~1e-160 absolute once squares underflow.  Pairs this close to a threshold
# are re-decided by math.dist, so every decision is the one math.dist makes.
_TIE_REL = 1e-12
_TIE_ABS = 1e-150


def _contact_pairs(centers: np.ndarray, radii: np.ndarray, slack: float):
    """Pairs (i, j), i < j, with |x_i - x_j| <= r_i + r_j + slack, as index
    arrays (I, J) in lexicographic order.  Two zero-radius spheres can
    never satisfy that (distinct points, slack at tolerance scale), so only
    positive-radius spheres seed the queries.  Their query radius is
    widened by _TIE_REL, so that the tree's own rounding cannot drop a pair
    whose math.dist lies exactly on a threshold."""
    from scipy.spatial import cKDTree

    n = len(radii)
    positive = np.flatnonzero(radii > 0)
    if positive.size == 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    tree = cKDTree(centers)
    r_max = float(radii.max())
    near = tree.query_ball_point(
        centers[positive], r=(radii[positive] + r_max + slack) * (1.0 + _TIE_REL)
    )
    lengths = np.fromiter(map(len, near), dtype=np.intp, count=len(near))
    I = np.repeat(positive, lengths)
    J = np.fromiter(
        itertools.chain.from_iterable(near), dtype=np.intp, count=int(lengths.sum())
    )
    keep = I != J
    I, J = I[keep], J[keep]
    keys = np.unique(np.minimum(I, J) * n + np.maximum(I, J))
    return keys // n, keys % n


def _dist_below(centers, I, J, thresh, strict: bool) -> np.ndarray:
    """Per pair, whether math.dist(x_i, x_j) < thresh (strict) or <= thresh."""
    diff = centers[I]
    diff -= centers[J]
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    below = dist < thresh if strict else dist <= thresh
    unsure = ~(np.abs(dist - thresh) > _TIE_REL * dist + _TIE_ABS)
    for k in np.flatnonzero(unsure):
        exact = math.dist(centers[I[k]], centers[J[k]])
        below[k] = exact < thresh[k] if strict else exact <= thresh[k]
    return below


def verify_hard_sphere(gamma: GammaProcess) -> HardSphereReport:
    """Check |x_i - x_j| >= r_i + r_j - CONTACT_TOL for all pairs that could
    touch."""
    centers, radii = gamma.centers, gamma.radii
    if len(radii) < 2:
        return HardSphereReport(0, (), True)
    I, J = gamma.pairs
    need = radii[I] + radii[J]
    violations = []
    overlap = _dist_below(centers, I, J, need - CONTACT_TOL, strict=True)
    for k in np.flatnonzero(overlap):
        i, j = int(I[k]), int(J[k])
        dist = float(math.dist(centers[i], centers[j]))
        violations.append((i, j, float(need[k] - dist)))
    return HardSphereReport(
        n_pairs_checked=len(I),
        violations=tuple(violations),
        passed=not violations,
    )


def cluster_components(gamma: GammaProcess) -> np.ndarray:
    """Connected components of the tangency graph (spheres touch when the
    surface gap is within CONTACT_TOL) as one label per sphere: components
    are numbered largest first, ties broken by their lowest index, so
    np.bincount(labels) lists the sizes in that order."""
    centers, radii = gamma.centers, gamma.radii
    I, J = gamma.pairs
    touch = _dist_below(centers, I, J, radii[I] + radii[J] + CONTACT_TOL, strict=False)
    I, J = I[touch], J[touch]
    # Only spheres with a touching pair are unioned; every other sphere is
    # its own root.
    linked = np.unique(np.concatenate((I, J)))
    uf = UnionFind(linked.size)
    for i, j in zip(np.searchsorted(linked, I).tolist(), np.searchsorted(linked, J).tolist()):
        uf.union(i, j)
    root = np.arange(len(radii))
    root[linked] = linked[[uf.find(k) for k in range(linked.size)]]
    # first: each component's lowest index, the first row holding its root
    _, first, component, sizes = np.unique(
        root, return_index=True, return_inverse=True, return_counts=True
    )
    rank = np.empty_like(first)
    rank[np.lexsort((first, -sizes))] = np.arange(first.size)
    return rank[component]
