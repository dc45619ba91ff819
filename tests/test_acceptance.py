"""Acceptance gate: nine criteria, one printed pass/fail line each.

Criteria 1-2 are closed-form and exact; 3-6 and 8 are seeded Monte Carlo
checks at 4 sigma (chi-squared at alpha = 1e-3 for criterion 6); 7 and 9
are property suites over real runs.  Each test prints one line; the
conftest hook echoes all lines in the terminal summary.
"""

import math
import time

import numpy as np
import pytest

from hardspheres import bounds
from hardspheres.construction import (
    ConstructionParams,
    assemble_gamma,
    run_layer,
    verify_hard_sphere,
)
from hardspheres.geometry import (
    Annulus,
    Ball,
    Cell,
    DELTA,
    Intersection,
    MU,
    RADIUS_MAX,
    RADIUS_MIN,
    cylinder_section_bracket,
    mc_region_volume,
    search_overlap_constant,
    shell_radii,
    step_layer_radii,
    step_volume_lower_bound,
)
from hardspheres.percolation2d import estimate_theta
from hardspheres.poisson import sampler_consistency_check
from hardspheres.rngutil import derive_seed
from registry_snapshot import registry_snapshot

REPORT_LINES = []


def report(num: int, ok: bool, detail: str):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    REPORT_LINES.append(line)
    print(line)
    assert ok, line


def searched_C(layer_dim: int, tag: int) -> float:
    r_max = step_layer_radii(RADIUS_MAX)[2]
    return float(
        search_overlap_constant(layer_dim, r_max, seed=derive_seed(tag, 5))
    )


def test_criterion_1_dimension_thresholds():
    t0 = time.perf_counter()
    ratio_ok = bounds.ratio_AB(31) > 1.0 and bounds.ratio_AB(30) <= 1.0
    f45 = bounds.success_lower_bound(bounds.lambda_star(45), 45)
    f44 = bounds.success_lower_bound(bounds.lambda_star(44), 44)
    first45 = f45 >= 0.892 and f44 < 0.892
    min_d_ok = bounds.min_dimension(0.892) == 45
    dt = time.perf_counter() - t0
    report(
        1,
        ratio_ok and first45 and min_d_ok and dt < 1.0,
        f"A/B>1 first at d=31, F(lambda*)>=0.892 first at d=45 "
        f"(F45={f45:.6f}, F44={f44:.6f}, {dt * 1000:.0f}ms)",
    )


def test_criterion_2_ratio_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for d in range(11, 201):
        direct = bounds.ratio_AB(d)
        closed = bounds.ratio_closed_form(d)
        worst = max(worst, abs(direct - closed) / abs(closed))
    dt = time.perf_counter() - t0
    report(
        2,
        worst <= 1e-12 and dt < 1.0,
        f"A/B == 1e-4*d*(1.2^((d-2)/2)-1)/(6*0.85^d): worst rel err "
        f"{worst:.2e} over d in [11,200] ({dt * 1000:.0f}ms)",
    )


def test_criterion_3_step_volume_floor():
    d = 11
    C = searched_C(d - 2, 30)
    floor = step_volume_lower_bound(d)
    ok = True
    margins = []
    for r in (0.65, 0.75, 0.85):
        # worst admissible parent: adjacent vertex, layer offset at the rim
        parent = np.zeros(d)
        parent[0] = -1.0
        parent[2] = C
        cell = Cell((0.0, 0.0), 0.01, np.zeros(d - 2), C)
        ann = Annulus(parent, r + MU - DELTA, r + MU + DELTA)
        bounding = Cell((0.0, 0.0), 0.01, parent[2:], step_layer_radii(r)[2])
        est = mc_region_volume(
            Intersection((cell, ann)),
            bounding,
            1_000_000,
            derive_seed(30, int(r * 100)),
        )
        ok = ok and est.value >= floor - 4.0 * est.std_error
        margins.append(f"r={r}: {est.value:.3e}>= {floor:.3e}-4*{est.std_error:.1e}")
    report(3, ok, f"step volumes at d=11, C={C:g}: " + "; ".join(margins))


def test_criterion_4_slab_section_bracket():
    n_pass = 0
    cases = []
    for d in (11, 13):
        for R in (1.3, 1.5, 1.7):
            lo, hi = cylinder_section_bracket(d, R)
            region = Intersection(
                (Cell((1.0, 0.0), 0.01, np.zeros(d - 2), 4.0),
                 Ball(np.zeros(d), R))
            )
            bounding = Cell((1.0, 0.0), 0.01, np.zeros(d - 2), shell_radii(R)[1])
            est = mc_region_volume(
                region, bounding, 1_000_000, derive_seed(40, d, int(R * 10))
            )
            inside = (
                lo - 4.0 * est.std_error
                <= est.value
                <= hi + 4.0 * est.std_error
            )
            n_pass += inside
            if not inside:
                cases.append(f"d={d},R={R}: {est.value:.3e} not in "
                             f"[{lo:.3e},{hi:.3e}]")
    report(
        4,
        n_pass == 6,
        f"{n_pass}/6 ball-section volumes inside bracket +-4sigma "
        "(d in {11,13}, R in {1.3,1.5,1.7}, 1e6 samples each)"
        + ("; " + "; ".join(cases) if cases else ""),
    )


def test_criterion_5_isolation_bounds():
    iso = bounds.mc_isolated_check(
        Ball(np.zeros(2), 1.0), 1.0, 0.5, trials=100_000, seed=derive_seed(50, 1)
    )
    cond = bounds.mc_conditional_isolated_check(
        Ball(np.zeros(2), 1.0),
        Ball(np.array([3.0, 0.0]), 1.0),
        1.0,
        0.5,
        trials=100_000,
        seed=derive_seed(50, 2),
    )
    report(
        5,
        iso.passed and cond.passed,
        f"isolation {iso.empirical:.4f} >= closed form {iso.reference:.4f} "
        f"- 4sigma; empty-zone conditioned {cond.empirical:.4f} >= "
        f"unconditioned {cond.reference:.4f} - 4sigma (1e5 trials each)",
    )


@pytest.mark.slow
def test_criterion_6_sampler_vs_oracle():
    out = sampler_consistency_check(2, 3.0, n_seeds=10_000, seed=60)
    report(
        6,
        out["passed"],
        f"lazy sampler matches brute-force oracle: {out['n_tests']} count-law "
        f"projections, min p={out['min_p_value']:.4f} "
        f"(worst {out['worst_projection']}) at familywise alpha="
        f"{out['alpha']:g}, {out['n_seeds']} seeds",
    )


def _invariant_sweep(params, tag: int, n_runs: int) -> dict:
    c = {"viol": 0, "radius": 0, "tangency": 0, "discipline": 0,
         "replay": 0, "spheres": 0, "steps": 0}
    for t in range(n_runs):
        s = derive_seed(tag, t)
        st1, sp1 = run_layer(params, s)
        st2, sp2 = run_layer(params, s)
        same = (
            len(sp1) == len(sp2)
            and all(
                np.array_equal(a.center, b.center) and a.radius == b.radius
                for a, b in zip(sp1, sp2)
            )
            and [e.to_row() for e in st1.log] == [e.to_row() for e in st2.log]
            and registry_snapshot(st1.registry) == registry_snapshot(st2.registry)
        )
        c["replay"] += 0 if same else 1
        gamma = assemble_gamma(params, [st1])
        c["viol"] += len(verify_hard_sphere(gamma).violations)
        by_vertex = {sp.vertex: sp for sp in sp1}
        for sp in sp1:
            c["spheres"] += 1
            if not RADIUS_MIN - 1e-12 <= sp.radius <= RADIUS_MAX + 1e-12:
                c["radius"] += 1
            if sp.parent is not None:
                par = by_vertex[sp.parent]
                gap = math.dist(sp.center, par.center) - sp.radius - par.radius
                if abs(gap) > 1e-9:
                    c["tangency"] += 1
        for e in st1.log:
            c["steps"] += 1
            if e.rule != "step0" and (
                e.good_neighbors != 1 or e.bad_neighbors != 0
            ):
                c["discipline"] += 1
    return c


@pytest.mark.slow
def test_criterion_7_construction_invariants():
    # At d=5, lam=5 the isolation ball carries mass ~6.2, so step0 almost
    # never succeeds and the runs end leftover-only: the hard-sphere and
    # replay clauses are exercised, the radius/tangency clauses are not.
    # A second aggregate at d=31 with 12*lambda*(31) grows real clusters so
    # every clause bites; criterion 9 repeats that at d=45 scale.
    low = _invariant_sweep(ConstructionParams(d=5, C=4.0, lam=5.0), 70, 100)
    high = _invariant_sweep(
        ConstructionParams(d=31, C=16.0, lam=12.0 * bounds.lambda_star(31)),
        71,
        25,
    )
    bad = {
        k: low[k] + high[k]
        for k in ("viol", "radius", "tangency", "discipline", "replay")
    }
    ok = not any(bad.values()) and high["spheres"] > 100
    report(
        7,
        ok,
        f"d=5,lam=5 x100 runs: {low['steps']} steps, {low['spheres']} "
        f"spheres; d=31,12lambda* x25 runs: {high['steps']} steps, "
        f"{high['spheres']} spheres; violations={bad['viol']}, radius-out="
        f"{bad['radius']}, tangency>1e-9={bad['tangency']}, discipline="
        f"{bad['discipline']}, replay-mismatch={bad['replay']}",
    )


def test_criterion_8_supercritical_theta():
    p = 0.892**2
    est = estimate_theta(p, 100.0, 1000, derive_seed(80, 0))
    ok = est.theta_hat - 4.0 * est.std_error > 0.0
    report(
        8,
        ok,
        f"theta({p:.5f}) = {est.theta_hat:.4f} +- {est.std_error:.4f} > 0 "
        f"at 4 sigma (radius 100, 1000 trials)",
    )


@pytest.mark.slow
def test_criterion_9_full_dimension_smoke():
    d = 45
    C = searched_C(d - 2, 90)
    lam = bounds.lambda_star(d)
    params = ConstructionParams(d=d, C=C, lam=lam, max_steps=120)
    st, spheres = run_layer(params, 7)
    st2, spheres2 = run_layer(params, 7)
    steps = len(st.log)
    peak = st.registry.metrics()["peak_stored_points"]
    n_good = sum(1 for e in st.log if e.outcome == "good")
    rate = n_good / steps
    G = bounds.exact_success_bound(lam, d)
    sigma = math.sqrt(rate * (1.0 - rate) / steps)

    replay_ok = (
        len(spheres) == len(spheres2)
        and all(
            np.array_equal(a.center, b.center) and a.radius == b.radius
            for a, b in zip(spheres, spheres2)
        )
        and [e.to_row() for e in st.log] == [e.to_row() for e in st2.log]
    )
    r1 = st.registry.realized_points()
    r2 = st2.registry.realized_points()
    replay_ok = replay_ok and r1.ids == r2.ids and np.array_equal(
        r1.coords, r2.coords
    )

    gamma = assemble_gamma(params, [st])
    hs = verify_hard_sphere(gamma)
    by_vertex = {sp.vertex: sp for sp in spheres}
    tangency_ok = all(
        abs(
            math.dist(sp.center, by_vertex[sp.parent].center)
            - sp.radius
            - by_vertex[sp.parent].radius
        )
        <= 1e-9
        for sp in spheres
        if sp.parent is not None
    )
    radii_ok = all(
        RADIUS_MIN - 1e-12 <= sp.radius <= RADIUS_MAX + 1e-12 for sp in spheres
    )
    discipline_ok = all(
        e.good_neighbors == 1 and e.bad_neighbors == 0
        for e in st.log
        if e.rule != "step0"
    )
    ok = (
        steps >= 100
        and peak <= 1_000_000
        and hs.passed
        and tangency_ok
        and radii_ok
        and discipline_ok
        and replay_ok
        and rate >= G - 4.0 * sigma
    )
    report(
        9,
        ok,
        f"d=45, lam=lambda*(45), C={C:g}: {steps} steps, good rate "
        f"{rate:.4f} >= G(lambda*)={G:.4f} - 4*{sigma:.4f}, peak stored "
        f"points {peak} <= 1e6, hard-sphere pass={hs.passed}, "
        f"replay identical={replay_ok}",
    )
