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

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

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
    region_contains_ball,
    step_volume_bracket,
)
from .hexlattice import KIND_SITE, StarLattice, build_lattice
from .percolation2d import UnionFind
from .poisson import RegionRegistry
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

_LAYER_SEED_TAG = 11
_TRIAL_SEED_TAG = 13


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
    store_cap: Optional[float] = None
    stream_cap: Optional[float] = None

    def __post_init__(self):
        if self.d < 3:
            raise ValueError(f"construction needs d >= 3, got {self.d}")
        if self.C <= 0:
            raise ValueError(f"layer radius C must be > 0, got {self.C}")
        if self.lam < 0:
            raise ValueError(f"intensity must be >= 0, got {self.lam}")
        if not 0.0 <= self.eta < RADIUS_MIN:
            raise ValueError(
                f"eta must lie in [0, {RADIUS_MIN}); the parent "
                "center would otherwise break every isolation check"
            )
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.lattice_radius < 2:
            raise ValueError("lattice_radius must be >= 2")

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
    center: np.ndarray
    radius: float
    vertex: int  # lattice vertex id, -1 for leftovers
    layer: tuple
    kind: str  # "constructed" | "leftover"
    point_id: Optional[tuple] = None
    parent: Optional[int] = None
    annotation: str = ""


@dataclass
class StepLog:
    step: int
    vertex: int
    kind: str  # "site" | "bond"
    rule: str  # "step0" | "rule-i" | "rule-ii"
    case: str  # "empty" | "isolation-fail" | "good"
    candidates: Optional[int]
    mode: str
    outcome: str  # "good" | "bad"
    radius: Optional[float] = None
    good_neighbors: int = 0
    bad_neighbors: int = 0

    def to_row(self) -> dict:
        return {
            "step": self.step,
            "vertex": self.vertex,
            "kind": self.kind,
            "rule": self.rule,
            "case": self.case,
            "candidates": "" if self.candidates is None else self.candidates,
            "mode": self.mode,
            "outcome": self.outcome,
            "radius": "" if self.radius is None else self.radius,
        }


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
        self.spheres: list = []
        self.vertex_sphere: dict = {}  # vertex id -> index into spheres
        self.frontier: set = set()
        self.log: list = []
        self.n_explored = 0
        self.stopped_reason: Optional[str] = None
        self.pending: Optional[tuple] = None  # (vertex, rule)
        self.consumed_ids: set = set()
        self.failed_picks: list = []  # (point_id, coords) of non-good picks

    def mark_good(self, vertex: int, sphere_index: int):
        self.status[vertex] = GOOD
        self.vertex_sphere[vertex] = sphere_index
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

    Returns ("explore", vertex, rule), ("stop", reason); also records the
    choice in state.pending.
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
                state.pending = None
                return ("stop", STOP_TRUNCATION)
            if unexplored == need_unexplored:
                state.pending = (v, rule)
                return ("explore", v, rule)
    state.pending = None
    return ("stop", STOP_RULE_III)


def step_region(
    params: ConstructionParams,
    planar_center: np.ndarray,
    layer_center: np.ndarray,
    parent_center: np.ndarray,
    parent_radius: float,
):
    """(region, bounding, vol_lower) for the step from a parent sphere into
    the cell at planar_center.  The bounding product replaces the cell's
    layer ball by the slice of the annulus' outer sphere that can meet the
    cell at all."""
    cell = params.cell(planar_center, layer_center)
    annulus = Annulus(
        parent_center,
        parent_radius + MU - DELTA - MEMBERSHIP_TOL,
        parent_radius + MU + DELTA + MEMBERSHIP_TOL,
    )
    region = Intersection((cell, annulus))
    outer = parent_radius + MU + DELTA + MEMBERSHIP_TOL
    bound_layer = math.sqrt(outer**2 - (1.0 - 2.0 * EPS) ** 2)
    bounding = Cell(planar_center, EPS, parent_center[2:], bound_layer)
    vol_lower = max(0.0, step_volume_bracket(params.d, parent_radius)[0])
    return region, bounding, vol_lower


def explore_step(state: ExplorationState) -> ExplorationState:
    """Explore the pending vertex.  Step 0 opens the origin site: it picks
    a point in the origin cell and gives it radius MU.  Every later step
    grows from the vertex's unique good neighbor v, picking a point in the
    step region around v's sphere and making the new sphere tangent to it.
    Either way the sphere is kept only if its isolation ball holds no other
    point."""
    if state.pending is None:
        raise ConstructionError("no pending vertex; call choose_next_vertex first")
    w, rule = state.pending
    state.pending = None
    lattice = state.lattice
    if rule == "step0":
        if w != 0 or state.status[w] != UNEXPLORED or state.n_explored != 0:
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
        parent_sphere = state.spheres[state.vertex_sphere[parent]]
        region, bounding, vol_lower = step_region(
            state.params,
            lattice.positions[w],
            state.layer_center,
            parent_sphere.center,
            parent_sphere.radius,
        )
    result = state.registry.pick_in_region(region, bounding, vol_lower)
    entry = StepLog(
        step=state.n_explored,
        vertex=w,
        kind=lattice.kind_name(w),
        rule=rule,
        case="empty",
        candidates=result.n_members,
        mode=result.mode,
        outcome="bad",
        good_neighbors=good,
        bad_neighbors=bad,
    )
    state.n_explored += 1

    outcome_good = False
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
                layer=state.layer_vec,
                kind="constructed",
                point_id=result.point_id,
                parent=parent,
            )
            state.spheres.append(sphere)
            state.consumed_ids.add(result.point_id)
            state.mark_good(w, len(state.spheres) - 1)
            entry.case = "good"
            entry.outcome = "good"
            entry.radius = r_w
            outcome_good = True
        else:
            state.failed_picks.append((result.point_id, y_w))
            entry.case = "isolation-fail"

    if not outcome_good:
        state.mark_bad(w)
        # A failed bond abandons the site behind it: that site can now
        # never satisfy rule (i), so close it out explicitly.
        if lattice.kinds[w] != KIND_SITE:
            for nb in lattice.neighbors[w]:
                if state.status[nb] == UNEXPLORED:
                    state.mark_bad(nb)
    state.log.append(entry)
    return state


_LATTICE_CACHE: dict = {}


def _lattice(radius: float) -> StarLattice:
    key = float(radius)
    if key not in _LATTICE_CACHE:
        _LATTICE_CACHE[key] = build_lattice(key)
    return _LATTICE_CACHE[key]


def run_layer(params: ConstructionParams, seed: int, layer_vec=None):
    """Explore one layer to its stop; returns (state, constructed spheres)."""
    if layer_vec is None:
        layer_vec = (0,) * (params.d - 2)
    lattice = _lattice(params.lattice_radius)
    registry_kwargs = {}
    if params.store_cap is not None:
        registry_kwargs["store_cap"] = params.store_cap
    if params.stream_cap is not None:
        registry_kwargs["stream_cap"] = params.stream_cap
    registry = RegionRegistry(params.d, params.lam, seed, **registry_kwargs)
    state = ExplorationState(params, lattice, registry, layer_vec)
    state.pending = (0, "step0")
    while state.pending is not None:
        explore_step(state)
        choice = choose_next_vertex(state)
        if choice[0] == "stop":
            state.stopped_reason = choice[1]
        elif state.n_explored >= params.max_steps:
            state.pending = None
            state.stopped_reason = STOP_BUDGET
    return state, list(state.spheres)


def rescan_stop(state: ExplorationState) -> bool:
    """Asserts rule-(iii) stop correctness: no vertex matching rule (i) or
    (ii) anywhere in the lattice, and none at the rim where a match could
    not have been evaluated.  Returns True when the stop is sound."""
    if state.stopped_reason != STOP_RULE_III:
        raise ConstructionError("rescan only applies to rule-iii stops")
    lat = state.lattice
    for v in range(lat.n_vertices):
        if state.status[v] != UNEXPLORED:
            continue
        good, bad, unexplored, missing = state.neighbor_counts(v)
        if good != 1 or bad != 0:
            continue
        if missing:
            return False  # should have stopped as lattice-truncation instead
        need = 2 if lat.kinds[v] == KIND_SITE else 1
        if unexplored == need:
            return False
    return True


@dataclass(frozen=True)
class GammaProcess:
    """The assembled sphere process: constructed tangent spheres plus a
    zero-radius sphere at every enumerated unconsumed Poisson point."""

    spheres: tuple
    window: tuple  # (mode, region) pairs covering everything enumerated
    n_stream_leftovers: int  # realized but unenumerated (replay-only) points
    layer_states: tuple
    annotations: dict
    # centers() and contact pairs per slack, computed once for the report
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def constructed(self) -> tuple:
        return tuple(s for s in self.spheres if s.kind == "constructed")

    @property
    def leftovers(self) -> tuple:
        return tuple(s for s in self.spheres if s.kind == "leftover")

    def centers(self) -> np.ndarray:
        """(n, d) sphere centers, built once and read-only."""
        if "centers" not in self._memo:
            if not self.spheres:
                centers = np.empty((0, 0))
            else:
                centers = np.asarray([s.center for s in self.spheres])
            centers.flags.writeable = False
            self._memo["centers"] = centers
        return self._memo["centers"]

    def radii(self) -> np.ndarray:
        return np.asarray([s.radius for s in self.spheres])


def assemble_gamma(params: ConstructionParams, states) -> GammaProcess:
    """Merge layer runs into one process.  Streamed points are realized but
    not stored; they are reported by count and stay out of the sphere list
    (documented restriction of the finite simulation)."""
    spheres: list = []
    window: list = []
    n_stream_leftovers = 0
    for state in states:
        spheres.extend(state.spheres)
        reg = state.registry
        listed: dict = {}
        realized = reg.realized_points()
        for pid, coords in zip(realized.ids, realized.coords):
            listed[pid] = coords
        for pid, coords in state.failed_picks:
            listed.setdefault(pid, coords)
        for pid in state.consumed_ids:
            listed.pop(pid, None)
        for pid in sorted(listed):
            spheres.append(
                SphereRecord(
                    center=listed[pid],
                    radius=0.0,
                    vertex=-1,
                    layer=state.layer_vec,
                    kind="leftover",
                    point_id=pid,
                )
            )
        # Streamed points exist only as replayable counts; the ones whose
        # coordinates did surface (consumed centers, failed picks) are
        # accounted above, the rest are reported as a count.
        streamed_fresh = 0
        for rec in reg.records:
            window.append((rec.mode, rec.region))
            if rec.mode == "streamed":
                streamed_fresh += rec.n_fresh
        surfaced = {
            pid
            for pid in set(state.consumed_ids) | {p for p, _ in state.failed_picks}
            if reg.records[pid[0]].mode == "streamed"
        }
        n_stream_leftovers += streamed_fresh - len(surfaced)
    annotations = {}
    if params.eta > 0:
        spheres, notes = _reassign_leftover_radii(params, spheres, states)
        annotations.update(notes)
    return GammaProcess(
        spheres=tuple(spheres),
        window=tuple(window),
        n_stream_leftovers=n_stream_leftovers,
        layer_states=tuple(states),
        annotations=annotations,
    )


def _reassign_leftover_radii(params: ConstructionParams, spheres, states):
    """Positive-radii post-pass: a leftover at z grows to half the distance
    to the nearest other sphere surface, but only when the ball of that
    diameter is provably inside one realized record, so nothing unseen can
    be closer.  Unresolvable leftovers keep radius 0 and an annotation."""
    registries = {tuple(st.layer_vec): st.registry for st in states}
    positive = [s for s in spheres if s.radius > 0]
    pos_centers = np.asarray([s.center for s in positive])
    pos_radii = np.asarray([s.radius for s in positive])
    left_centers = np.asarray(
        [s.center for s in spheres if s.kind == "leftover"]
    )
    left_tree = cKDTree(left_centers) if len(left_centers) > 1 else None
    out = []
    n_resolved = 0
    n_truncated = 0
    for s in spheres:
        if s.kind != "leftover":
            out.append(s)
            continue
        dist = math.inf
        if len(positive):
            gaps = np.linalg.norm(pos_centers - s.center, axis=1) - pos_radii
            dist = float(gaps.min())
        if left_tree is not None:
            d_near = left_tree.query(s.center, k=2)[0][1]  # [0] is s itself
            dist = min(dist, float(d_near))
        reg = registries[tuple(s.layer)]
        covered = any(
            rec.mode in ("stored", "streamed")
            and region_contains_ball(rec.region, s.center, dist)
            for rec in reg.records
        )
        if not covered or not math.isfinite(dist) or dist <= 0:
            n_truncated += 1
            out.append(
                SphereRecord(
                    center=s.center,
                    radius=0.0,
                    vertex=s.vertex,
                    layer=s.layer,
                    kind="leftover",
                    point_id=s.point_id,
                    annotation="window-truncated",
                )
            )
            continue
        # Streamed points are not in the sphere list; replaying the covering
        # records inside B(z, dist) closes that gap exactly.
        near = reg.collect(Ball(s.center, dist))
        for pid, coords in zip(near.ids, near.coords):
            if pid == s.point_id:
                continue
            dist = min(dist, float(math.dist(coords, s.center)))
        n_resolved += 1
        out.append(
            SphereRecord(
                center=s.center,
                radius=dist / 2.0,
                vertex=s.vertex,
                layer=s.layer,
                kind="leftover",
                point_id=s.point_id,
                annotation="grown",
            )
        )
    return out, {
        "leftovers_grown": n_resolved,
        "leftovers_window_truncated": n_truncated,
    }


def run_multilayer(params: ConstructionParams, seed: int, layers) -> GammaProcess:
    """Independent layer runs at the given integer layer vectors, merged
    into one GammaProcess."""
    vecs = [tuple(int(x) for x in np.asarray(v).reshape(-1)) for v in layers]
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
        state, _ = run_layer(params, child, vec)
        states.append(state)
    gamma = assemble_gamma(params, states)
    _assert_interlayer_gaps(params, gamma)
    return gamma


def _assert_interlayer_gaps(params: ConstructionParams, gamma: GammaProcess):
    """Constructed spheres of different layers must keep surface gaps >= 2;
    that is what the layer spacing L was chosen for."""
    by_layer: dict = {}
    for s in gamma.constructed:
        by_layer.setdefault(s.layer, []).append(s)
    layers = sorted(by_layer)
    for a in range(len(layers)):
        for b in range(a + 1, len(layers)):
            for sa in by_layer[layers[a]]:
                for sb in by_layer[layers[b]]:
                    gap = (
                        float(math.dist(sa.center, sb.center))
                        - sa.radius
                        - sb.radius
                    )
                    if gap < 2.0 - 1e-9:
                        raise ConstructionError(
                            f"inter-layer surface gap {gap} < 2 between "
                            f"layers {layers[a]} and {layers[b]}"
                        )


@dataclass(frozen=True)
class HardSphereReport:
    n_spheres: int
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


def _gamma_contact_pairs(gamma: GammaProcess, slack: float):
    """_contact_pairs of gamma's spheres, computed once per slack: the
    hard-sphere check and the cluster search ask for the same pairs."""
    key = ("pairs", slack)
    if key not in gamma._memo:
        pairs = _contact_pairs(gamma.centers(), gamma.radii(), slack)
        for arr in pairs:
            arr.flags.writeable = False
        gamma._memo[key] = pairs
    return gamma._memo[key]


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


def verify_hard_sphere(gamma: GammaProcess, tol: float = 1e-9) -> HardSphereReport:
    """Check |x_i - x_j| >= r_i + r_j - tol for all pairs that could touch."""
    if tol <= 0:
        raise ValueError("tol must be > 0")
    n = len(gamma.spheres)
    if n < 2:
        return HardSphereReport(n, 0, (), True)
    centers = gamma.centers()
    radii = gamma.radii()
    I, J = _gamma_contact_pairs(gamma, tol)
    need = radii[I] + radii[J]
    violations = []
    for k in np.flatnonzero(_dist_below(centers, I, J, need - tol, strict=True)):
        i, j = int(I[k]), int(J[k])
        dist = float(math.dist(centers[i], centers[j]))
        violations.append((i, j, float(need[k] - dist)))
    return HardSphereReport(
        n_spheres=n,
        n_pairs_checked=len(I),
        violations=tuple(violations),
        passed=not violations,
    )


@dataclass(frozen=True)
class Cluster:
    members: tuple  # indices into gamma.spheres
    size: int
    n_constructed: int
    bounding_radius: float


def cluster_components(gamma: GammaProcess, touch_tol: float = 1e-9):
    """Connected components of the tangency graph (spheres touch when the
    surface gap is within touch_tol), largest first."""
    if touch_tol <= 0:
        raise ValueError("touch_tol must be > 0")
    n = len(gamma.spheres)
    if n == 0:
        return []
    centers = gamma.centers()
    radii = gamma.radii()
    I, J = _gamma_contact_pairs(gamma, touch_tol)
    touch = _dist_below(centers, I, J, radii[I] + radii[J] + touch_tol, strict=False)
    uf = UnionFind(n)
    for i, j in zip(I[touch].tolist(), J[touch].tolist()):
        uf.union(i, j)
    groups: dict = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    clusters = []
    for members in groups.values():
        if len(members) == 1:
            # The mean of one center is that center, at distance 0.0.
            reach = 0.0 + radii[members[0]]
        else:
            pts = centers[members]
            mid = pts.mean(axis=0)
            reach = max(
                float(math.dist(mid, centers[i])) + radii[i] for i in members
            )
        clusters.append(
            Cluster(
                members=tuple(members),
                size=len(members),
                n_constructed=sum(
                    1 for i in members if gamma.spheres[i].kind == "constructed"
                ),
                bounding_radius=reach,
            )
        )
    clusters.sort(key=lambda c: (-c.size, c.members))
    return clusters


@dataclass(frozen=True)
class SuccessRateReport:
    rate: float
    std_error: float
    per_step: tuple  # (step, explored, good)
    per_kind: dict  # kind -> (explored, good)
    n_explored: int
    n_good: int


def empirical_success_rate(
    params: ConstructionParams, trials: int, seed: int
) -> SuccessRateReport:
    """Good-rate over repeated single-layer runs, stratified by step index
    and vertex kind."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    by_step: dict = {}
    by_kind: dict = {"site": [0, 0], "bond": [0, 0]}
    for t in range(trials):
        child = derive_seed(seed, _TRIAL_SEED_TAG, t)
        state, _ = run_layer(params, child)
        for entry in state.log:
            step_bin = by_step.setdefault(entry.step, [0, 0])
            step_bin[0] += 1
            by_kind[entry.kind][0] += 1
            if entry.outcome == "good":
                step_bin[1] += 1
                by_kind[entry.kind][1] += 1
    n = sum(v[0] for v in by_step.values())
    g = sum(v[1] for v in by_step.values())
    rate = g / n if n else 0.0
    se = math.sqrt(rate * (1.0 - rate) / n) if n else 0.0
    return SuccessRateReport(
        rate=rate,
        std_error=se,
        per_step=tuple((s, v[0], v[1]) for s, v in sorted(by_step.items())),
        per_kind={k: (v[0], v[1]) for k, v in by_kind.items()},
        n_explored=n,
        n_good=g,
    )
