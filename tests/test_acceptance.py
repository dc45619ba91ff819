"""Acceptance gate: nine criteria, one printed pass/fail line each.

Criteria 1-2 are closed-form and exact; 3-6 and 8 are seeded Monte Carlo
checks at 4 sigma (chi-squared at alpha = 1e-3 for criterion 6); 7 and 9
are property suites over real runs.  Each test prints one line; the
conftest hook echoes all lines in the terminal summary.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

from hardspheres import bounds, checks
from hardspheres.construction import (
    ConstructionParams,
    assemble_gamma,
    run_layer,
    verify_hard_sphere,
)
from hardspheres.geometry import RADIUS_MAX, RADIUS_MIN
from hardspheres.percolation2d import estimate_theta
from hardspheres.rngutil import derive_seed
from paper_bounds import ratio_closed_form, success_lower_bound
from registry_snapshot import registry_snapshot

REPORT_LINES = []


def report(num: int, ok: bool, detail: str):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    REPORT_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_1_dimension_thresholds():
    t0 = time.perf_counter()
    ratio_ok = bounds.ratio_AB(31) > 1.0 and bounds.ratio_AB(30) <= 1.0
    f45 = success_lower_bound(bounds.lambda_star(45), 45)
    f44 = success_lower_bound(bounds.lambda_star(44), 44)
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
        closed = ratio_closed_form(d)
        worst = max(worst, abs(direct - closed) / abs(closed))
    dt = time.perf_counter() - t0
    report(
        2,
        worst <= 1e-12 and dt < 1.0,
        f"A/B == 1e-4*d*(1.2^((d-2)/2)-1)/(6*0.85^d): worst rel err "
        f"{worst:.2e} over d in [11,200] ({dt * 1000:.0f}ms)",
    )


def test_criterion_3_step_volume_floor():
    (overlap,) = checks.overlap_constant(11, 1_000_000, 30)
    rows = checks.step_regions(11, 1_000_000, 30)
    floor = rows[0]["floor"]
    margins = [
        f"r={r}: {row['estimate']:.3e}>= {floor:.3e}-4*{row['std_error']:.1e}"
        for r, row in zip(checks.STEP_RADII, rows)
    ]
    report(
        3,
        overlap["passed"] and all(row["passed"] for row in rows),
        f"step volumes at d=11, C={rows[0]['cells_C']:g} (boundary share "
        f"{overlap['estimate']:.4f} vs exact {overlap['expected']:.4f} "
        f"+-4*{overlap['std_error']:.1e}): " + "; ".join(margins),
    )


def test_criterion_4_slab_section_bracket():
    rows = [row for d in (11, 13) for row in checks.slab_sections(d, 1_000_000, 40)]
    failed = [
        f"{row['name']}: {row['estimate']:.3e} not in "
        f"[{row['bracket'][0]:.3e},{row['bracket'][1]:.3e}]"
        for row in rows
        if not row["passed"]
    ]
    report(
        4,
        not failed,
        f"{len(rows) - len(failed)}/6 ball-section volumes inside bracket +-4sigma "
        "(d in {11,13}, R in {1.3,1.5,1.7}, 1e6 samples each)"
        + ("; " + "; ".join(failed) if failed else ""),
    )


def test_criterion_5_isolation_bounds():
    iso, cond = checks.isolation_pair(2, 100_000, 50)
    report(
        5,
        iso["passed"] and cond["passed"],
        f"isolation {iso['empirical']:.4f} >= closed form {iso['reference']:.4f} "
        f"- 4sigma; empty-zone conditioned {cond['empirical']:.4f} >= "
        f"unconditioned {cond['reference']:.4f} - 4sigma (1e5 trials each)",
    )


@pytest.mark.slow
def test_criterion_6_sampler_vs_oracle():
    (out,) = checks.sampler_consistency(2, 10_000, 60)
    report(
        6,
        out["passed"],
        f"lazy sampler matches brute-force oracle: {out['n_tests']} count-law "
        f"projections, min p={out['min_p_value']:.4f} "
        f"(worst {out['worst_projection']}) at familywise alpha="
        f"{checks._ALPHA:g}, {out['n_seeds']} seeds",
    )


FAULTS = ("viol", "radius", "tangency", "discipline", "replay")


def _layer_invariants(params, seed: int):
    """Run one layer twice and count hard-sphere violations, radii outside
    the window, parent gaps above 1e-9, steps that broke the one-good,
    no-bad neighbour discipline, and replays that differ from the first
    run.  Returns (first run's state, counts)."""
    st1, st2 = run_layer(params, seed), run_layer(params, seed)
    sp1, sp2 = list(st1.spheres.values()), list(st2.spheres.values())
    same = (
        len(sp1) == len(sp2)
        and all(
            np.array_equal(a.center, b.center) and a.radius == b.radius
            for a, b in zip(sp1, sp2)
        )
        and st1.log == st2.log
        and registry_snapshot(st1.registry) == registry_snapshot(st2.registry)
    )
    by_vertex = {sp.vertex: sp for sp in sp1}
    c = Counter(
        replay=0 if same else 1,
        viol=len(verify_hard_sphere(assemble_gamma(params, [st1])).violations),
        spheres=len(sp1),
        steps=len(st1.log),
        radius=sum(
            not RADIUS_MIN - 1e-12 <= sp.radius <= RADIUS_MAX + 1e-12 for sp in sp1
        ),
        tangency=sum(
            abs(math.dist(sp.center, by_vertex[sp.parent].center)
                - sp.radius - by_vertex[sp.parent].radius) > 1e-9
            for sp in sp1
            if sp.parent is not None
        ),
        discipline=sum(
            e.rule != "step0" and (e.good_neighbors != 1 or e.bad_neighbors != 0)
            for e in st1.log
        ),
    )
    return st1, c


def _invariant_sweep(params, tag: int, n_runs: int) -> Counter:
    runs = (_layer_invariants(params, derive_seed(tag, t))[1] for t in range(n_runs))
    return sum(runs, Counter())


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
    bad = {k: low[k] + high[k] for k in FAULTS}
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
    C = checks.searched_C(d)
    lam = bounds.lambda_star(d)
    params = ConstructionParams(d=d, C=C, lam=lam, max_steps=120)
    st, c = _layer_invariants(params, 7)
    steps = c["steps"]
    metrics = st.registry.metrics()
    peak = metrics["peak_stored_points"]
    n_good = sum(1 for e in st.log if e.outcome == "good")
    rate = n_good / steps
    G = bounds.exact_success_bound(lam, d)
    sigma = math.sqrt(rate * (1.0 - rate) / steps)
    ok = (
        steps >= 100
        and peak <= 1_000_000
        and not any(c[k] for k in FAULTS)
        and rate >= G - 4.0 * sigma
    )
    report(
        9,
        ok,
        f"d=45, lam=lambda*(45), C={C:g}: {steps} steps, good rate "
        f"{rate:.4f} >= G(lambda*)={G:.4f} - 4*{sigma:.4f}, peak stored "
        f"points {peak} <= 1e6, q_max {metrics['q_max']:.2g}, hard-sphere "
        f"pass={c['viol'] == 0}, replay identical={c['replay'] == 0}",
    )
