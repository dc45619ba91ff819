"""Layer exploration: growth rules, tangency, leftovers, and assembly."""

import dataclasses
import functools
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from hardspheres import construction
from hardspheres.bounds import lambda_star
from hardspheres.construction import (
    BAD,
    CONTACT_TOL,
    GOOD,
    MAX_LAYER_RADIUS,
    ConstructionError,
    ConstructionParams,
    ExplorationState,
    GammaProcess,
    STOP_BUDGET,
    STOP_RULE_III,
    STOP_TRUNCATION,
    UNEXPLORED,
    assemble_gamma,
    cluster_components,
    explore_step,
    run_layer,
    run_multilayer,
    step_region,
    verify_hard_sphere,
)
from hardspheres.geometry import (
    DELTA,
    Ball,
    EPS,
    MU,
    Cell,
    Intersection,
    RADIUS_MAX,
    RADIUS_MIN,
    StepShell,
    ball_volume,
    region_contains_ball,
    step_layer_radii,
    step_volume_bracket,
)
from hardspheres.hexlattice import KIND_SITE
from hardspheres.poisson import (
    DEFAULT_STORE_CAP,
    DEFAULT_STREAM_CAP,
    SATURATION_MIN_MASS,
    RegionRegistry,
    RegistryError,
    max_materialize,
)
from hardspheres.rngutil import derive_seed
from registry_snapshot import realized_points, registry_snapshot
from test_report_path import brute_contact_pairs

LAM31 = 12.0 * lambda_star(31)


def rescan_stop(state) -> bool:
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


def params31(**kw):
    return ConstructionParams(d=31, C=16.0, lam=LAM31, **kw)


def test_params_validation():
    with pytest.raises(ValueError):
        ConstructionParams(d=2, C=4.0, lam=1.0)
    for bad in (0.0, math.nan, math.inf, 1e300):
        with pytest.raises(ValueError):
            ConstructionParams(d=3, C=bad, lam=1.0)
    ConstructionParams(d=3, C=MAX_LAYER_RADIUS, lam=1.0)
    for bad in (-1.0, math.nan, math.inf, 1e300):
        with pytest.raises(ValueError):
            ConstructionParams(d=5, C=4.0, lam=bad)
    with pytest.raises(ValueError):
        ConstructionParams(d=5, C=4.0, lam=1.0, eta=0.65)
    with pytest.raises(ValueError):
        ConstructionParams(d=5, C=4.0, lam=1.0, eta=-0.1)
    with pytest.raises(ValueError):
        ConstructionParams(d=5, C=4.0, lam=1.0, max_steps=0)
    with pytest.raises(ValueError):
        ConstructionParams(d=5, C=4.0, lam=1.0, lattice_radius=1.9)
    # the step geometry is fixed, not a run parameter
    for name in ("mu", "delta", "eps", "L"):
        with pytest.raises(TypeError):
            ConstructionParams(d=5, C=4.0, lam=1.0, **{name: 1.0})


def test_step_geometry_constants_keep_the_lattice_margin():
    # spheres at non-adjacent vertices stay apart, and every radius is > 0
    assert 2 * (MU + DELTA + EPS) < math.sqrt(3)
    assert MU - DELTA > 0


def test_layer_spacing():
    p = ConstructionParams(d=5, C=8.0, lam=1.0)
    assert p.L == pytest.approx(19.7, abs=1e-12)  # 2 * (8 + 0.85 + 1)
    center = p.layer_center((1, 0, 0))
    assert np.allclose(center, [19.7, 0.0, 0.0])
    with pytest.raises(ValueError):
        p.layer_center((1, 0))


def test_cell_helper():
    p = ConstructionParams(d=5, C=4.0, lam=1.0)
    cell = p.cell(np.array([2.0, 0.0]), np.zeros(3))
    assert isinstance(cell, Cell)
    assert cell.eps == EPS
    assert cell.layer_radius == p.C
    assert cell.dim == 5


def test_step_region_contract():
    p = ConstructionParams(d=5, C=4.0, lam=1.0)
    parent = np.zeros(5)
    r_v = 0.75
    region, bounding, vol_lower = step_region(
        p, np.array([1.0, 0.0]), np.zeros(3), parent, r_v
    )
    assert isinstance(region, Intersection)
    assert isinstance(bounding, StepShell)
    want_layer = step_layer_radii(r_v)[2]
    assert bounding.cell.layer_radius == pytest.approx(want_layer, abs=1e-9)
    assert vol_lower == max(0.0, step_volume_bracket(5, r_v)[0])
    assert vol_lower <= bounding.volume() < bounding.cell.volume()
    rng = np.random.default_rng(0)
    cand = bounding.cell.sample(4000, rng)
    keep = cand[region.contains(cand)]
    assert len(keep) > 0
    dist = np.linalg.norm(keep - parent, axis=1)
    assert np.all(dist >= r_v + 0.65 - 1e-9)
    assert np.all(dist <= r_v + 0.85 + 1e-9)
    # membership in the region implies membership in its bounding shell
    assert np.all(bounding.contains(keep))


def test_step_bracket_cannot_fall_between_tiers():
    # A step too heavy to stream (shell mass above the stream cap) has
    # m_lo = shell mass / ratio above the saturation floor while ratio <
    # cap / floor, so the registry never refuses a construction step for
    # landing between the sea and the stream tiers.
    limit = DEFAULT_STREAM_CAP / SATURATION_MIN_MASS
    worst = 0.0
    for d in range(11, 101):
        p = ConstructionParams(d=d, C=16.0, lam=1.0)
        for r in np.linspace(RADIUS_MIN, RADIUS_MAX, 21):
            _, bounding, vol_lower = step_region(
                p, np.array([1.0, 0.0]), np.zeros(d - 2), np.zeros(d), r
            )
            worst = max(worst, bounding.volume() / vol_lower)
    assert worst < limit
    assert worst == pytest.approx(16.94, abs=0.01)  # d = 100, r = RADIUS_MIN


TIERS = ("stored", "streamed", "saturated")


class _Tier(Exception):
    pass


def test_step_tier_follows_the_step_mass_bracket(monkeypatch):
    """A step is stored when its shell's mass m_hi is at most the store
    cap, a sea pick ("saturated") when its lower mass m_lo reaches the
    saturation floor, and streamed otherwise; at lambda* every dimension
    from 11 to 100 lands in one of the three."""

    def tier(name):
        def chosen(*args, **kwargs):
            raise _Tier(name)

        return chosen

    monkeypatch.setattr(RegionRegistry, "materialize", tier("stored"))
    monkeypatch.setattr(RegionRegistry, "_pick_streamed", tier("streamed"))
    monkeypatch.setattr(RegionRegistry, "_pick_sea", tier("saturated"))

    def rule(m_lo, m_hi):
        if m_hi <= DEFAULT_STORE_CAP:
            return "stored"
        if m_lo >= SATURATION_MIN_MASS:
            return "saturated"
        assert m_hi <= DEFAULT_STREAM_CAP
        return "streamed"

    tiers = set()
    for d in (11, 31, 45, 60, 100):
        lam = lambda_star(d)
        if lam is None:
            # d = 11 has no lambda*: put the store cap at the middle step
            mid = step_region(
                ConstructionParams(d=d, C=16.0, lam=1.0),
                np.array([1.0, 0.0]), np.zeros(d - 2), np.zeros(d), MU,
            )[1]
            lam = DEFAULT_STORE_CAP / mid.volume()
        p = ConstructionParams(d=d, C=16.0, lam=lam)
        for r in np.linspace(RADIUS_MIN, RADIUS_MAX, 9):
            for offset in (1.0 - EPS, 1.0, 1.0 + EPS):
                region, shell, vol_lower = step_region(
                    p, np.array([offset, 0.0]), np.zeros(d - 2), np.zeros(d), r
                )
                want = rule(lam * vol_lower, lam * shell.volume())
                reg = RegionRegistry(d, lam, 0)
                with pytest.raises(_Tier) as got:
                    reg.pick_in_region(region, shell, vol_lower)
                assert str(got.value) == want
                counts = {t: reg.metrics()[f"{t}_picks"] for t in TIERS}
                assert counts == {t: int(t == want) for t in TIERS}
                tiers.add(want)
    assert tiers == set(TIERS)


def test_step0_cases():
    p5 = ConstructionParams(d=5, C=4.0, lam=5.0)
    st = run_layer(p5, 1)
    assert st.log[0].case == "empty"
    assert st.log[0].outcome == "bad"
    assert st.spheres == {}
    assert st.stopped_reason == STOP_RULE_III

    st = run_layer(p5, 0)
    assert st.log[0].case == "isolation-fail"
    assert st.spheres == {}
    assert len(st.failed_picks) == 1

    p11 = ConstructionParams(d=11, C=6.0, lam=0.1)
    st = run_layer(p11, 0)
    spheres = list(st.spheres.values())
    assert st.log[0].case == "good"
    assert len(spheres) >= 1
    assert spheres[0].vertex == 0
    assert spheres[0].radius == MU
    assert spheres[0].parent is None


def test_step0_only_on_a_fresh_layer():
    st = run_layer(ConstructionParams(d=11, C=6.0, lam=0.1), 0)
    with pytest.raises(ConstructionError, match="step0 must run first"):
        explore_step(st, 0, "step0")
    # the step count alone refuses it too, with the origin unexplored
    st.status[0] = UNEXPLORED
    with pytest.raises(ConstructionError, match="step0 must run first"):
        explore_step(st, 0, "step0")


def test_growth_rule_guard_refuses_before_any_pick():
    st = run_layer(ConstructionParams(d=11, C=6.0, lam=0.1), 0)
    lattice = st.lattice
    w = next(
        v
        for v in range(lattice.n_vertices)
        if st.status[v] == UNEXPLORED
        and all(st.status[nb] != GOOD for nb in lattice.neighbors[v])
    )
    rule = "rule-i" if lattice.kinds[w] == KIND_SITE else "rule-ii"
    log, status, n_records = list(st.log), st.status.copy(), len(st.registry.records)
    with pytest.raises(
        ConstructionError, match="growth rules require exactly one good, none bad, none missing"
    ):
        explore_step(st, w, rule)
    assert st.log == log
    assert np.array_equal(st.status, status)
    assert len(st.registry.records) == n_records


def test_rule_trace_sparse_regime():
    # at lam = 0.1 the origin cell is rich but every step annulus is almost
    # surely empty: the canonical trace is step0 good, then the three origin
    # bonds each explored by rule (ii) and going bad
    p11 = ConstructionParams(d=11, C=6.0, lam=0.1)
    st = run_layer(p11, 0)
    assert [e.rule for e in st.log] == ["step0", "rule-ii", "rule-ii", "rule-ii"]
    assert [e.kind for e in st.log] == ["site", "bond", "bond", "bond"]
    bonds = sorted(st.lattice.neighbors[0])
    assert [e.vertex for e in st.log[1:]] == bonds
    assert st.stopped_reason == STOP_RULE_III
    assert rescan_stop(st)
    assert len(st.spheres) == 1


def test_bad_bond_propagates_to_site():
    p11 = ConstructionParams(d=11, C=6.0, lam=0.1)
    st = run_layer(p11, 0)
    explored = {e.vertex for e in st.log}
    for bond in st.lattice.neighbors[0]:
        assert st.log[[e.vertex for e in st.log].index(bond)].outcome == "bad"
        for site in st.lattice.neighbors[bond]:
            if site == 0:
                continue
            # the site behind a failed bond is closed without exploration
            assert st.status[site] == BAD
            assert site not in explored


def first_run(run, wanted):
    """run(seed) at the first program seed from 0 whose outcome passes
    ``wanted``.  Rule-iii stops are part of the construction at d = 31, so
    a test that needs a grown cluster picks its seed by this rule instead
    of pinning one realization."""
    for seed in range(20):
        out = run(seed)
        if wanted(out):
            return out
    raise AssertionError("no program seed in 0..19 gives the run this test needs")


def test_grown_cluster_invariants():
    # the first layer that reaches the lattice rim
    st = first_run(
        lambda seed: run_layer(params31(), seed),
        lambda st: st.stopped_reason == STOP_TRUNCATION,
    )
    spheres = list(st.spheres.values())
    assert len(spheres) > 20
    by_vertex = {s.vertex: s for s in spheres}
    for s in spheres:
        assert RADIUS_MIN - 1e-12 <= s.radius <= RADIUS_MAX + 1e-12
        if s.parent is None:
            assert s.radius == 0.75
            continue
        par = by_vertex[s.parent]
        gap = math.dist(s.center, par.center) - s.radius - par.radius
        assert abs(gap) <= 1e-9  # tangent to the parent, not just separate
    for e in st.log:
        if e.rule == "step0":
            continue
        assert e.good_neighbors == 1
        assert e.bad_neighbors == 0
        assert (e.rule == "rule-i") == (e.kind == "site")
    assert st.log[1].rule == "rule-ii"  # origin neighbors are bonds


def test_rule_i_follows_good_bond():
    st = run_layer(params31(), 1)
    good_so_far = {0}
    seen_rule_i = False
    for e in st.log[1:]:
        if e.rule == "rule-i":
            seen_rule_i = True
            nbs = st.lattice.neighbors[e.vertex]
            assert sum(1 for nb in nbs if nb in good_so_far) == 1
        if e.outcome == "good":
            good_so_far.add(e.vertex)
    assert seen_rule_i


def test_run_layer_deterministic():
    st1, st2 = run_layer(params31(), 0), run_layer(params31(), 0)
    sp1, sp2 = list(st1.spheres.values()), list(st2.spheres.values())
    assert len(sp1) == len(sp2)
    assert np.array_equal(
        np.asarray([s.center for s in sp1]), np.asarray([s.center for s in sp2])
    )
    assert [s.radius for s in sp1] == [s.radius for s in sp2]
    assert st1.log == st2.log
    assert registry_snapshot(st1.registry) == registry_snapshot(st2.registry)


def test_budget_stop():
    st = run_layer(params31(max_steps=3), 0)
    assert st.stopped_reason == STOP_BUDGET
    assert len(st.log) == 3
    with pytest.raises(ConstructionError):
        rescan_stop(st)


def test_truncation_stop_at_minimal_lattice():
    st = run_layer(params31(lattice_radius=2.0), 0)
    assert st.stopped_reason == STOP_TRUNCATION
    # the rim is one good site away from the origin at this radius
    assert len(st.spheres) == 2


def test_multilayer_gap_and_validation():
    p = params31(eta=0.1)
    layers = [(0,) * 29, (1,) + (0,) * 28]
    # the first run whose two layers both construct spheres
    gamma = first_run(
        lambda seed: run_multilayer(p, seed, layers),
        lambda g: set(g.layer[g.vertex >= 0].tolist()) == {0, 1},
    )
    assert gamma.layers == tuple(layers)
    constructed = gamma.vertex >= 0
    sa, sb = (np.flatnonzero(constructed & (gamma.layer == k)) for k in (0, 1))
    assert sa.size and sb.size  # both layers produced spheres
    for k in (0, 1):
        ids = [tuple(pid) for pid in gamma.point_ids[~constructed & (gamma.layer == k)].tolist()]
        assert ids == sorted(ids)  # each layer's leftovers in ascending id order
    x, r = gamma.centers, gamma.radii
    for i in sa:
        for j in sb:
            gap = math.dist(x[i], x[j]) - r[i] - r[j]
            assert gap >= 2.0 - 1e-9
    with pytest.raises(ValueError):
        run_multilayer(p, 0, [(0,) * 29, (0,) * 29])
    with pytest.raises(ValueError):
        run_multilayer(p, 0, [(0,) * 5])
    with pytest.raises(ValueError, match="need at least one layer vector"):
        run_multilayer(p, 0, [])


def test_a_returned_gamma_holds_no_registry_state_or_lattice(monkeypatch):
    made = []

    def tracked(make):
        def wrapper(*args, **kwargs):
            obj = make(*args, **kwargs)
            made.append(weakref.ref(obj))
            return obj

        return wrapper

    for name in ("RegionRegistry", "ExplorationState", "build_lattice"):
        monkeypatch.setattr(construction, name, tracked(getattr(construction, name)))
    layers = [(0,) * 29, (1,) + (0,) * 28, (0, 1) + (0,) * 27]
    gamma = run_multilayer(params31(eta=0.1), 2, layers)
    gc.collect()
    assert len(made) == 3 * len(layers)
    assert [ref() for ref in made] == [None] * len(made)
    assert len(gamma.runs) == len(layers) and gamma.annotations["leftovers_grown"] > 0
    assert "layer_states" not in {f.name for f in dataclasses.fields(GammaProcess)}


def test_picked_coordinates_own_their_data():
    # a view of one row would keep the member array or sample block it
    # came from alive for as long as the sphere or failed pick
    st = run_layer(ConstructionParams(d=45, C=16.0, lam=lambda_star(45), lattice_radius=12), 7)
    picks = st.registry.picks
    assert min(picks.values()) > 0 and st.failed_picks, picks
    assert [s.point_id for s in st.spheres.values() if s.center.base is not None] == []
    assert [pid for pid, coords in st.failed_picks if coords.base is not None] == []


def test_intensity_that_every_isolation_test_refuses():
    # step 0's isolation ball is B(y0, MU + eta), and the registry refuses
    # to materialize one whose expected count tops max_materialize, so the
    # params refuse that intensity up front
    lam_max = max_materialize(5) / ball_volume(5, MU + 0.1)
    ConstructionParams(d=5, C=4.0, lam=lam_max * (1 - 1e-9), eta=0.1)
    with pytest.raises(ValueError, match="materialization cap"):
        ConstructionParams(d=5, C=4.0, lam=lam_max * (1 + 1e-9), eta=0.1)
    reg = RegionRegistry(5, lam_max * (1 + 1e-9), seed=0)
    with pytest.raises(RegistryError, match="materialization cap"):
        reg.points_in_ball(np.zeros(5), MU + 0.1)


def layer_runs(params, seed, layers):
    """The finished layer states that run_multilayer(params, seed, layers)
    assembles."""
    return [
        run_layer(params, derive_seed(seed, construction._LAYER_SEED_TAG, i), vec, i)
        for i, vec in enumerate(layers)
    ]


def test_assembly_bookkeeping():
    p = ConstructionParams(d=5, C=4.0, lam=5.0)
    [state] = layer_runs(p, 0, [(0, 0, 0)])
    gamma = assemble_gamma(p, [state])
    spheres = state.spheres.values()
    consumed = {s.point_id for s in spheres}
    assert len(consumed) == len(spheres)
    left = gamma.vertex == -1
    leftover_ids = [tuple(pid) for pid in gamma.point_ids[left].tolist()]
    assert len(set(leftover_ids)) == len(leftover_ids)
    assert not set(leftover_ids) & consumed
    assert np.all(gamma.radii[left] == 0.0)
    # each layer lists its constructed spheres first, in exploration order
    n = gamma.n_constructed
    assert n == len(spheres) and not left[:n].any()
    assert gamma.vertex[:n].tolist() == [s.vertex for s in spheres]
    assert np.array_equal(gamma.radii[:n], [s.radius for s in spheres])
    assert [tuple(pid) for pid in gamma.point_ids[:n].tolist()] == [
        s.point_id for s in spheres
    ]
    assert np.all(gamma.layer == 0) and gamma.layers == ((0, 0, 0),)
    assert gamma.annotations == {}  # eta = 0: no post-pass
    assert gamma.n_stream_leftovers == 0  # everything fit in the stored tier


def test_stream_leftovers_counted_not_listed(monkeypatch):
    # a small store cap pushes step-region picks into the streamed tier;
    # their fresh points are then reported by count only
    monkeypatch.setattr(
        construction, "RegionRegistry", functools.partial(RegionRegistry, store_cap=4.0)
    )
    [state] = layer_runs(params31(), 2, [(0,) * 29])
    gamma = assemble_gamma(params31(), [state])
    streamed_rids = {
        rid
        for rid, rec in enumerate(state.registry.records)
        if rec.mode == "streamed"
    }
    assert streamed_rids
    assert gamma.n_stream_leftovers > 0
    consumed = {s.point_id for s in state.spheres.values()}
    surfaced = {pid for pid, _ in state.failed_picks} | consumed
    left = gamma.vertex == -1
    leftover_ids = [tuple(pid) for pid in gamma.point_ids[left].tolist()]
    assert leftover_ids == sorted(leftover_ids)  # one layer: ascending ids
    rows = {pid: k for k, pid in zip(np.flatnonzero(left).tolist(), leftover_ids)}
    assert len(rows) == len(leftover_ids)
    for pid in leftover_ids:
        if pid[0] in streamed_rids:
            assert pid in surfaced  # only surfaced stream points listed
    # and the converse: every failed pick that was not consumed is listed
    # exactly once, with its own coordinates
    failed = [(pid, xy) for pid, xy in state.failed_picks if pid not in consumed]
    assert any(pid[0] in streamed_rids for pid, _ in failed)
    for pid, xy in failed:
        assert leftover_ids.count(pid) == 1
        assert np.array_equal(gamma.centers[rows[pid]], xy)


def cross_layer_reassign_leftover_radii(centers, radii, leftovers, layer, point_ids, states) -> dict:
    """The eta post-pass as it ran over the rows of all layers at once, the
    reference for assemble_gamma's per-layer one: each leftover looks for
    its nearest sphere and point in every layer, and for a covering record
    in its own."""
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


def dict_assembly(params, states):
    """The reference assembly, point by point: each layer's realized and
    failed-pick points in a dict keyed by point id, less the consumed ones,
    listed in sorted id order, then the eta post-pass over all layers at
    once.  Returns assemble_gamma's columns, the stream leftover count and
    the annotations."""
    centers, radii, vertex, point_ids, n_rows = [], [], [], [], []
    n_stream_leftovers = 0
    for state in states:
        reg = state.registry
        realized = realized_points(reg)
        listed = dict(zip(realized.ids, realized.coords))
        for pid, coords in state.failed_picks:
            listed.setdefault(pid, coords)
        spheres = state.spheres.values()
        consumed = {s.point_id for s in spheres}
        for pid in consumed:
            listed.pop(pid, None)
        left = sorted(listed)
        centers += [s.center for s in spheres] + [listed[pid] for pid in left]
        radii += [s.radius for s in spheres] + [0.0] * len(left)
        vertex += [s.vertex for s in spheres] + [-1] * len(left)
        point_ids += [s.point_id for s in spheres] + left
        n_rows.append(len(spheres) + len(left))
        streamed_fresh = sum(rec.n_fresh for rec in reg.records if rec.mode == "streamed")
        surfaced = {
            pid
            for pid in consumed | {p for p, _ in state.failed_picks}
            if reg.records[pid[0]].mode == "streamed"
        }
        n_stream_leftovers += streamed_fresh - len(surfaced)
    centers = np.asarray(centers, dtype=float).reshape(-1, params.d)
    radii = np.asarray(radii, dtype=float)
    vertex = np.asarray(vertex, dtype=np.intp)
    layer = np.repeat(np.arange(len(states)), n_rows)
    point_ids = np.asarray(point_ids, dtype=np.intp).reshape(-1, 2)
    annotations = {}
    if params.eta > 0:
        annotations = cross_layer_reassign_leftover_radii(
            centers, radii, np.flatnonzero(vertex < 0), layer, point_ids, states
        )
    columns = dict(
        centers=centers, radii=radii, vertex=vertex, layer=layer, point_ids=point_ids
    )
    return columns, n_stream_leftovers, annotations


def small_store(monkeypatch):
    monkeypatch.setattr(
        construction, "RegionRegistry", functools.partial(RegionRegistry, store_cap=4.0)
    )


@pytest.mark.parametrize(
    "params, seed, n_layers, setup",
    [
        (ConstructionParams(d=5, C=4.0, lam=5.0), 0, 1, None),  # stored tier only
        # failed picks from streamed records, as in
        # test_stream_leftovers_counted_not_listed
        (params31(), 2, 1, small_store),
        (params31(), 0, 2, None),
        # the eta post-pass per layer against the reference over all layers
        (params31(eta=0.1), 2, 2, None),
        (params31(eta=0.3), 0, 3, None),
        (ConstructionParams(d=31, C=16.0, lam=lambda_star(31), eta=0.1), 0, 2, None),
    ],
    ids=[
        "d5-stored", "d31-streamed", "d31-two-layers", "d31-eta", "d31-eta-three-layers",
        "d31-lambda-star-eta",
    ],
)
def test_columnar_assembly_matches_the_dict_assembly(monkeypatch, params, seed, n_layers, setup):
    if setup is not None:
        setup(monkeypatch)
    layers = [(k,) + (0,) * (params.d - 3) for k in range(n_layers)]
    states = layer_runs(params, seed, layers)
    gamma = assemble_gamma(params, states)
    want, n_stream_leftovers, annotations = dict_assembly(params, states)
    for name in ("centers", "radii", "vertex", "layer", "point_ids"):
        got = getattr(gamma, name)
        assert got.dtype == want[name].dtype and got.tobytes() == want[name].tobytes(), name
    assert gamma.n_stream_leftovers == n_stream_leftovers
    assert gamma.annotations == annotations
    if params.eta > 0:
        assert annotations["leftovers_grown"] > 0  # some radii were grown


def test_columnar_assembly_lists_a_repicked_stream_point_once(monkeypatch):
    # A streamed point can be picked again by a later step whose region
    # reaches it: it fails twice, or fails and is then consumed.
    small_store(monkeypatch)
    p = params31()
    [state] = layer_runs(p, 2, [(0,) * 29])
    streamed = [rec.mode == "streamed" for rec in state.registry.records]
    failed = next(f for f in state.failed_picks if streamed[f[0][0]])
    sphere = next(s for s in state.spheres.values() if streamed[s.point_id[0]])
    state.failed_picks += [failed, (sphere.point_id, sphere.center)]
    gamma = assemble_gamma(p, [state])
    want, n_stream_leftovers, _ = dict_assembly(p, [state])
    assert gamma.centers.tobytes() == want["centers"].tobytes()
    assert np.array_equal(gamma.point_ids, want["point_ids"])
    assert gamma.n_stream_leftovers == n_stream_leftovers


def test_assemble_gamma_allocates_about_one_copy():
    # the four d = 31 layers of the bench's d31_layers argv (12 lambda*,
    # lattice radius 6, seed 71, eta 0): assembly sizes each column once and
    # fills it from the records, so its peak is about the columns it returns
    p = params31(lattice_radius=6.0)
    states = layer_runs(p, 71, [(k,) + (0,) * 28 for k in range(4)])
    tracemalloc.start()
    try:
        gamma = assemble_gamma(p, states)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    names = ("centers", "radii", "vertex", "layer", "point_ids")
    columns = sum(getattr(gamma, name).nbytes for name in names)
    assert columns > 5e6  # leftovers of every layer dominate
    assert peak <= 1.1 * columns, (peak, columns)


def test_eta_postpass_grows_leftovers():
    p = params31(eta=0.1)
    gamma = run_multilayer(p, 2, [(0,) * 29, (1,) + (0,) * 28])
    left = gamma.vertex == -1
    grown = np.count_nonzero(gamma.radii[left] > 0.0)
    truncated = np.count_nonzero(gamma.radii[left] == 0.0)
    assert grown + truncated == np.count_nonzero(left)
    assert gamma.annotations["leftovers_grown"] == grown
    assert gamma.annotations["leftovers_window_truncated"] == truncated
    assert grown  # this seed resolves some leftovers
    # a grown leftover overlaps no other sphere
    for k in np.flatnonzero(left & (gamma.radii > 0)):
        others = np.delete(np.arange(len(gamma.radii)), k)
        gaps = np.linalg.norm(gamma.centers[others] - gamma.centers[k], axis=1)
        assert gamma.radii[k] <= np.min(gaps - gamma.radii[others]) + 1e-12
    report = verify_hard_sphere(gamma)
    assert report.passed, report.violations
    want = brute_contact_pairs(gamma.centers, gamma.radii, CONTACT_TOL)
    assert report.n_pairs_checked == len(want[0])


def line_gamma(xs, radii, vertex):
    """Spheres on the first axis of R^3, all in one layer."""
    n = len(xs)
    centers = np.zeros((n, 3))
    centers[:, 0] = xs
    return GammaProcess(
        centers=centers,
        radii=np.asarray(radii, dtype=float),
        vertex=np.asarray(vertex),
        layer=np.zeros(n, dtype=np.intp),
        point_ids=np.stack([np.zeros(n, dtype=np.intp), np.arange(n)], axis=1),
        layers=((0,),),
        n_stream_leftovers=0,
        runs=(),
        annotations={},
    )


def test_verify_hard_sphere_flags_overlap():
    bad = line_gamma([0.0, 1.5], [1.0, 1.0], [0, 1])
    report = verify_hard_sphere(bad)
    assert not report.passed
    assert len(report.violations) == 1
    i, j, deficit = report.violations[0]
    assert (i, j) == (0, 1)
    assert deficit == pytest.approx(0.5, abs=1e-12)


def test_cluster_components_crafted():
    gamma = line_gamma([0.0, 2.0, 10.0, 20.0], [1.0, 1.0, 1.0, 0.0], [0, 1, 2, -1])
    labels = cluster_components(gamma)
    assert labels.tolist() == [0, 0, 1, 2]
    assert np.bincount(labels).tolist() == [2, 1, 1]
    n_constructed = [np.count_nonzero(gamma.vertex[labels == c] >= 0) for c in range(3)]
    assert n_constructed == [2, 1, 0]
    members = np.flatnonzero(labels == 0)
    mid = gamma.centers[members].mean(axis=0)
    reach = max(math.dist(mid, gamma.centers[i]) + gamma.radii[i] for i in members)
    assert reach == pytest.approx(2.0, abs=1e-12)
    # a lone sphere ahead of the pair: size ranks first, then lowest index
    gamma = line_gamma([10.0, 0.0, 2.0, 20.0, 30.0], [1.0, 1.0, 1.0, 0.0, 1.0], [0, 1, 2, -1, 3])
    assert cluster_components(gamma).tolist() == [1, 0, 0, 2, 3]


def test_cluster_components_real_run():
    st = run_layer(params31(), 1)
    gamma = assemble_gamma(params31(), [st])
    labels = cluster_components(gamma)
    sizes = np.bincount(labels)
    assert sizes.tolist() == sorted(sizes, reverse=True)
    assert sizes.sum() == len(gamma.radii) and sizes.min() >= 1
    # every constructed sphere is tangent to its parent, so they are one
    # component and it leads the list
    assert np.count_nonzero(gamma.vertex[labels == 0] >= 0) == len(st.spheres)
