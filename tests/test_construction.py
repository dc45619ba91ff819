"""Layer exploration: growth rules, tangency, leftovers, and assembly."""

import math

import numpy as np
import pytest

from hardspheres import hexlattice
from hardspheres.bounds import lambda_star
from hardspheres.construction import (
    BAD,
    ConstructionError,
    ConstructionParams,
    GammaProcess,
    SphereRecord,
    STOP_BUDGET,
    STOP_RULE_III,
    STOP_TRUNCATION,
    UNEXPLORED,
    assemble_gamma,
    cluster_components,
    empirical_success_rate,
    explore_step,
    rescan_stop,
    run_layer,
    run_multilayer,
    step_region,
    verify_hard_sphere,
)
from hardspheres.geometry import (
    DELTA,
    EPS,
    MU,
    Cell,
    Intersection,
    RADIUS_MAX,
    RADIUS_MIN,
    step_layer_radii,
    step_volume_bracket,
)
from hardspheres.hexlattice import KIND_SITE

LAM31 = 12.0 * lambda_star(31)


def params31(**kw):
    return ConstructionParams(d=31, C=16.0, lam=LAM31, **kw)


def test_params_validation():
    with pytest.raises(ValueError):
        ConstructionParams(d=2, C=4.0, lam=1.0)
    with pytest.raises(ValueError):
        ConstructionParams(d=5, C=0.0, lam=1.0)
    with pytest.raises(ValueError):
        ConstructionParams(d=5, C=4.0, lam=-1.0)
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
    assert 2 * (MU + DELTA + EPS) < hexlattice.MIN_NONADJACENT_DISTANCE
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
    assert isinstance(bounding, Cell)
    want_layer = step_layer_radii(r_v)[2]
    assert bounding.layer_radius == pytest.approx(want_layer, abs=1e-9)
    assert vol_lower == max(0.0, step_volume_bracket(5, r_v)[0])
    rng = np.random.default_rng(0)
    cand = bounding.sample(4000, rng)
    keep = cand[region.contains(cand)]
    assert len(keep) > 0
    dist = np.linalg.norm(keep - parent, axis=1)
    assert np.all(dist >= r_v + 0.65 - 1e-9)
    assert np.all(dist <= r_v + 0.85 + 1e-9)
    # membership in the region implies membership in its bounding product
    assert np.all(bounding.contains(keep))


def test_step0_cases():
    p5 = ConstructionParams(d=5, C=4.0, lam=5.0)
    st, spheres = run_layer(p5, 1)
    assert st.log[0].case == "empty"
    assert st.log[0].outcome == "bad"
    assert spheres == []
    assert st.stopped_reason == STOP_RULE_III

    st, spheres = run_layer(p5, 0)
    assert st.log[0].case == "isolation-fail"
    assert spheres == []
    assert len(st.failed_picks) == 1

    p11 = ConstructionParams(d=11, C=6.0, lam=0.1)
    st, spheres = run_layer(p11, 0)
    assert st.log[0].case == "good"
    assert len(spheres) >= 1
    assert spheres[0].vertex == 0
    assert spheres[0].radius == MU
    assert spheres[0].parent is None


def test_step0_only_on_a_fresh_layer():
    st, _ = run_layer(ConstructionParams(d=11, C=6.0, lam=0.1), 0)
    st.pending = (0, "step0")
    with pytest.raises(ConstructionError, match="step0 must run first"):
        explore_step(st)
    # the step count alone refuses it too, with the origin unexplored
    st.status[0] = UNEXPLORED
    st.pending = (0, "step0")
    with pytest.raises(ConstructionError, match="step0 must run first"):
        explore_step(st)


def test_rule_trace_sparse_regime():
    # at lam = 0.1 the origin cell is rich but every step annulus is almost
    # surely empty: the canonical trace is step0 good, then the three origin
    # bonds each explored by rule (ii) and going bad
    p11 = ConstructionParams(d=11, C=6.0, lam=0.1)
    st, spheres = run_layer(p11, 0)
    assert [e.rule for e in st.log] == ["step0", "rule-ii", "rule-ii", "rule-ii"]
    assert [e.kind for e in st.log] == ["site", "bond", "bond", "bond"]
    bonds = sorted(st.lattice.neighbors[0])
    assert [e.vertex for e in st.log[1:]] == bonds
    assert st.stopped_reason == STOP_RULE_III
    assert rescan_stop(st)
    assert len(spheres) == 1


def test_bad_bond_propagates_to_site():
    p11 = ConstructionParams(d=11, C=6.0, lam=0.1)
    st, _ = run_layer(p11, 0)
    explored = {e.vertex for e in st.log}
    for bond in st.lattice.neighbors[0]:
        assert st.log[[e.vertex for e in st.log].index(bond)].outcome == "bad"
        for site in st.lattice.neighbors[bond]:
            if site == 0:
                continue
            # the site behind a failed bond is closed without exploration
            assert st.status[site] == BAD
            assert site not in explored


def test_grown_cluster_invariants():
    st, spheres = run_layer(params31(), 1)
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
    st, _ = run_layer(params31(), 1)
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
    st1, sp1 = run_layer(params31(), 0)
    st2, sp2 = run_layer(params31(), 0)
    assert len(sp1) == len(sp2)
    assert np.array_equal(
        np.asarray([s.center for s in sp1]), np.asarray([s.center for s in sp2])
    )
    assert [s.radius for s in sp1] == [s.radius for s in sp2]
    assert [e.to_row() for e in st1.log] == [e.to_row() for e in st2.log]
    assert st1.registry.dump() == st2.registry.dump()


def test_budget_stop():
    st, _ = run_layer(params31(max_steps=3), 0)
    assert st.stopped_reason == STOP_BUDGET
    assert st.n_explored == 3
    assert len(st.log) == 3
    with pytest.raises(ConstructionError):
        rescan_stop(st)


def test_truncation_stop_at_minimal_lattice():
    st, spheres = run_layer(params31(lattice_radius=2.0), 0)
    assert st.stopped_reason == STOP_TRUNCATION
    # the rim is one good site away from the origin at this radius
    assert len(spheres) == 2


def test_multilayer_gap_and_validation():
    p = params31(eta=0.1)
    layers = [(0,) * 29, (1,) + (0,) * 28]
    gamma = run_multilayer(p, 2, layers)
    by_layer = {}
    for s in gamma.constructed:
        by_layer.setdefault(s.layer, []).append(s)
    assert len(by_layer) == 2  # both layers produced spheres
    (la, sa), (lb, sb) = sorted(by_layer.items())
    for x in sa:
        for y in sb:
            gap = math.dist(x.center, y.center) - x.radius - y.radius
            assert gap >= 2.0 - 1e-9
    with pytest.raises(ValueError):
        run_multilayer(p, 0, [(0,) * 29, (0,) * 29])
    with pytest.raises(ValueError):
        run_multilayer(p, 0, [(0,) * 5])


def test_assembly_bookkeeping():
    p = ConstructionParams(d=5, C=4.0, lam=5.0)
    gamma = run_multilayer(p, 0, [(0, 0, 0)])
    state = gamma.layer_states[0]
    leftover_ids = [s.point_id for s in gamma.leftovers]
    assert len(set(leftover_ids)) == len(leftover_ids)
    for s in gamma.leftovers:
        assert s.point_id not in state.consumed_ids
        assert s.radius == 0.0
        assert s.vertex == -1
    for s in gamma.constructed:
        assert s.point_id in state.consumed_ids
    assert gamma.annotations == {}  # eta = 0: no post-pass
    assert gamma.n_stream_leftovers == 0  # everything fit in the stored tier
    assert all(mode in ("stored", "streamed", "saturated")
               for mode, _ in gamma.window)


def test_stream_leftovers_counted_not_listed():
    # a small store cap pushes step-region picks into the streamed tier;
    # their fresh points are then reported by count only
    p = params31(store_cap=4.0)
    gamma = run_multilayer(p, 2, [(0,) * 29])
    state = gamma.layer_states[0]
    streamed_rids = {
        rid
        for rid, rec in enumerate(state.registry.records)
        if rec.mode == "streamed"
    }
    assert streamed_rids
    assert gamma.n_stream_leftovers > 0
    surfaced = {pid for pid, _ in state.failed_picks} | state.consumed_ids
    for s in gamma.leftovers:
        if s.point_id[0] in streamed_rids:
            assert s.point_id in surfaced  # only surfaced stream points listed


def test_eta_postpass_grows_leftovers():
    p = params31(eta=0.1)
    gamma = run_multilayer(p, 2, [(0,) * 29, (1,) + (0,) * 28])
    grown = [s for s in gamma.leftovers if s.annotation == "grown"]
    truncated = [s for s in gamma.leftovers if s.annotation == "window-truncated"]
    assert len(grown) + len(truncated) == len(gamma.leftovers)
    assert gamma.annotations["leftovers_grown"] == len(grown)
    assert gamma.annotations["leftovers_window_truncated"] == len(truncated)
    assert grown  # this seed resolves some leftovers
    for s in grown:
        assert s.radius > 0.0
    for s in truncated:
        assert s.radius == 0.0
    report = verify_hard_sphere(gamma)
    assert report.passed, report.violations
    assert report.n_pairs_checked > 0


def test_verify_hard_sphere_flags_overlap():
    def rec(x, r, kind="constructed"):
        return SphereRecord(
            center=np.array([x, 0.0, 0.0]),
            radius=r,
            vertex=-1,
            layer=(0,),
            kind=kind,
        )

    bad = GammaProcess(
        spheres=(rec(0.0, 1.0), rec(1.5, 1.0)),
        window=(),
        n_stream_leftovers=0,
        layer_states=(),
        annotations={},
    )
    report = verify_hard_sphere(bad)
    assert not report.passed
    assert len(report.violations) == 1
    i, j, deficit = report.violations[0]
    assert (i, j) == (0, 1)
    assert deficit == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        verify_hard_sphere(bad, tol=0.0)


def test_cluster_components_crafted():
    def rec(x, r, kind="constructed"):
        return SphereRecord(
            center=np.array([x, 0.0, 0.0]),
            radius=r,
            vertex=-1,
            layer=(0,),
            kind=kind,
        )

    gamma = GammaProcess(
        spheres=(rec(0.0, 1.0), rec(2.0, 1.0), rec(10.0, 1.0),
                 rec(20.0, 0.0, kind="leftover")),
        window=(),
        n_stream_leftovers=0,
        layer_states=(),
        annotations={},
    )
    clusters = cluster_components(gamma)
    assert [c.size for c in clusters] == [2, 1, 1]
    assert clusters[0].members == (0, 1)
    assert clusters[0].n_constructed == 2
    assert clusters[0].bounding_radius == pytest.approx(2.0, abs=1e-12)
    assert {c.n_constructed for c in clusters[1:]} == {1, 0}
    with pytest.raises(ValueError):
        cluster_components(gamma, touch_tol=0.0)


def test_cluster_components_real_run():
    st, spheres = run_layer(params31(), 1)
    gamma = assemble_gamma(params31(), [st])
    clusters = cluster_components(gamma)
    sizes = [c.size for c in clusters]
    assert sizes == sorted(sizes, reverse=True)
    assert sum(sizes) == len(gamma.spheres)
    # every constructed sphere is tangent to its parent, so they are one
    # component and it leads the list
    assert clusters[0].n_constructed == len(spheres)


def test_empirical_success_rate():
    p11 = ConstructionParams(d=11, C=6.0, lam=0.1)
    rep = empirical_success_rate(p11, trials=10, seed=0)
    assert rep.n_explored == sum(n for _, n, _ in rep.per_step)
    assert rep.n_good == sum(g for _, _, g in rep.per_step)
    assert rep.n_explored == sum(n for n, _ in rep.per_kind.values())
    assert rep.n_good == sum(g for _, g in rep.per_kind.values())
    assert rep.rate == pytest.approx(rep.n_good / rep.n_explored)
    want_se = math.sqrt(rep.rate * (1 - rep.rate) / rep.n_explored)
    assert rep.std_error == pytest.approx(want_se)
    assert rep.per_step[0][0] == 0
    assert rep.per_step[0][1] == 10  # step 0 runs in every trial
    with pytest.raises(ValueError):
        empirical_success_rate(p11, trials=0, seed=0)
