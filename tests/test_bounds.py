"""Dimension bounds: constants, ratio identity, thresholds, isolation MC."""

import math
import time

import numpy as np
import pytest

from hardspheres.bounds import (
    DEFAULT_THRESHOLD,
    MAX_DIMENSION_SUPPORTED,
    MIN_DIMENSION_SUPPORTED,
    bounds_report,
    constants_AB,
    exact_success_bound,
    isolated_bound,
    lambda_star,
    log_constants_AB,
    min_dimension,
    ratio_AB,
    scan_dimensions,
)
from hardspheres import checks
from hardspheres.checks import (
    MIN_CONDITIONED_TRIALS,
    TooFewSamples,
    _isolation_trials,
    isolation_pair,
)
from hardspheres.geometry import Ball, Cell, Intersection, unit_ball_volume
from paper_bounds import ratio_closed_form, success_lower_bound


def test_constants_AB_frozen_at_45():
    A, B = constants_AB(45)
    assert math.isclose(A, 1.0601211968676106e-12, rel_tol=1e-15)
    assert math.isclose(B, 1.9074510101781248e-14, rel_tol=1e-15)
    # B is the volume of the largest admissible sphere
    assert math.isclose(B, unit_ball_volume(45) * 0.85**45, rel_tol=1e-14)


def test_constants_AB_definition():
    # A = pi eps^2 omega_{d-2}/3 (1.2^((d-2)/2) - 1) with eps = 0.01
    for d in (11, 31, 45, 100):
        A, B = constants_AB(d)
        m = d - 2
        expect = (
            math.pi * 1e-4 * unit_ball_volume(m) / 3.0 * (1.2 ** (m / 2.0) - 1.0)
        )
        assert math.isclose(A, expect, rel_tol=1e-13)
        assert math.isclose(B, unit_ball_volume(d) * 0.85**d, rel_tol=1e-13)


def test_log_constants_match_linear():
    for d in (11, 45, 200, 350):
        la, lb = log_constants_AB(d)
        if d <= 200:
            A, B = constants_AB(d)
            assert math.isclose(math.exp(la), A, rel_tol=1e-12)
            assert math.isclose(math.exp(lb), B, rel_tol=1e-12)
        assert la > lb or d < 31


def test_B_underflow_leaves_G_star_exact():
    # from d = 421 omega_d * 0.85^d rounds to 0.0, its correctly rounded
    # value; G at lambda* from the linear constants still agrees with the
    # report's ratio form, and the log constants stay finite
    assert constants_AB(420)[1] > 0.0
    for d in range(31, MAX_DIMENSION_SUPPORTED + 1):
        G = exact_success_bound(lambda_star(d), d)
        assert math.isclose(G, bounds_report(d).exact_G_star, rel_tol=1e-12), d
        if d >= 421:
            assert constants_AB(d)[1] == 0.0, d
            assert all(math.isfinite(x) for x in log_constants_AB(d)), d


def test_ratio_identity_closed_form():
    # the simplified ratio expression agrees to 1e-12 relative on [11, 200]
    t0 = time.perf_counter()
    for d in range(11, 201):
        r = ratio_AB(d)
        rc = ratio_closed_form(d)
        assert abs(r - rc) <= 1e-12 * abs(rc), f"d={d}"
    assert time.perf_counter() - t0 < 1.0


def test_ratio_crosses_one_at_31():
    assert ratio_AB(30) <= 1.0
    assert ratio_AB(31) > 1.0
    assert min_dimension(0.0) == 31


def test_threshold_crossing_at_45():
    assert min_dimension(0.892) == 45
    r44 = bounds_report(44, 0.892)
    r45 = bounds_report(45, 0.892)
    assert not r44.passes_threshold
    assert r45.passes_threshold
    assert math.isclose(r44.F_star, 0.8873788027933394, rel_tol=1e-14)
    assert math.isclose(r45.F_star, 0.9097161693966154, rel_tol=1e-14)


def test_lambda_star_frozen_and_stationary():
    lam = lambda_star(45)
    assert math.isclose(lam, 3789930467390.0293, rel_tol=1e-14)
    assert lambda_star(30) is None
    # lambda_star maximizes F: nudging either way cannot increase it
    for d in (35, 45, 60):
        ls = lambda_star(d)
        f0 = success_lower_bound(ls, d)
        assert success_lower_bound(ls * (1 + 1e-4), d) <= f0
        assert success_lower_bound(ls * (1 - 1e-4), d) <= f0
        rep = bounds_report(d)
        assert math.isclose(rep.F_star, f0, rel_tol=1e-12)


def test_exact_bound_dominates_linearized():
    # G(lam) >= F(lam) pointwise (1 - x <= exp(-x))
    for d in (31, 45, 60):
        for lam in (0.5 * lambda_star(d), lambda_star(d), 2 * lambda_star(d)):
            assert exact_success_bound(lam, d) >= success_lower_bound(lam, d)
    rep = bounds_report(45)
    assert rep.exact_G_star >= rep.F_star
    assert math.isclose(rep.exact_G_star, 0.9122673247840074, rel_tol=1e-13)


def test_bounds_report_below_ratio_one():
    rep = bounds_report(20)
    assert rep.lambda_star is None
    assert rep.F_star is None
    assert rep.exact_G_star is None
    assert not rep.passes_threshold
    assert rep.ratio <= 1.0


def test_scan_dimensions_rows():
    rows = scan_dimensions(30, 32, 0.0)
    assert [r.d for r in rows] == [30, 31, 32]
    assert rows[0].lambda_star is None
    assert rows[1].lambda_star is not None
    for lo, hi in ((40, 30), (10, 30), (11, 451)):
        with pytest.raises(ValueError, match=f"got {lo}..{hi}$"):
            scan_dimensions(lo, hi)
    assert MIN_DIMENSION_SUPPORTED == 11


@pytest.mark.parametrize("threshold", [-0.1, 1.5, math.nan, math.inf])
def test_min_dimension_refuses_a_threshold_outside_the_unit_interval(threshold):
    with pytest.raises(ValueError, match=r"threshold must lie in \[0, 1\]"):
        min_dimension(threshold)


def test_every_supported_dimension_evaluates():
    rows = scan_dimensions(MIN_DIMENSION_SUPPORTED, MAX_DIMENSION_SUPPORTED)
    assert len(rows) == MAX_DIMENSION_SUPPORTED - MIN_DIMENSION_SUPPORTED + 1
    for row in rows:
        assert row.A > 0, row.d
        if row.d >= 31:
            assert math.isfinite(row.lambda_star) and row.lambda_star > 0, row.d
            assert math.isfinite(row.F_star) and math.isfinite(row.exact_G_star), row.d
    # below 11 A has no lower bound; above 450 lambda_star overflows
    for d in (MIN_DIMENSION_SUPPORTED - 1, MAX_DIMENSION_SUPPORTED + 1):
        with pytest.raises(ValueError, match=f"needs 11 <= d <= 450, got d={d}$"):
            lambda_star(d)
    for f in (constants_AB, log_constants_AB):
        with pytest.raises(ValueError, match="^need d >= 11, got 10$"):
            f(10)
        with pytest.raises(ValueError, match="^need d <= 450, got 451$"):
            f(451)
    assert DEFAULT_THRESHOLD == 0.892


def test_isolated_bound_frozen_value():
    # exp(-pi/4) - exp(-10); independent closed form
    got = isolated_bound(1.0, 2, 0.5, 10.0)
    assert math.isclose(got, 0.45589272783623375, rel_tol=1e-15)
    assert math.isclose(
        got, math.exp(-math.pi / 4.0) - math.exp(-10.0), rel_tol=1e-15
    )
    assert isolated_bound(0.0, 2, 0.5, 10.0) == 0.0
    with pytest.raises(ValueError):
        isolated_bound(-1.0, 2, 0.5, 10.0)
    with pytest.raises(ValueError):
        isolated_bound(1.0, 2, -0.5, 10.0)


def test_mc_isolated_check_passes_bound():
    iso, _ = isolation_pair(2, 20_000, 8)
    assert iso["passed"]
    assert math.isclose(iso["reference"], 0.412724209502224, rel_tol=1e-12)
    # the bound is not tight (boundary effects help), so empirical sits above
    assert iso["empirical"] >= iso["reference"]


def _rate(success):
    p = float(np.mean(success))
    return p, math.sqrt(p * (1.0 - p) / success.size)


def test_mc_isolated_check_on_cell():
    # degenerate planar cell region
    cell = Cell(np.zeros(2), 0.6, np.empty(0), 1.0)
    success, kept = _isolation_trials(cell, lam=1.5, r=0.4, trials=20_000, seed=9)
    assert kept.all()
    p, se = _rate(success)
    assert p >= isolated_bound(1.5, 2, 0.4, cell.volume()) - 4 * se


def test_mc_conditional_isolated_check():
    region = Ball(np.zeros(2), 1.0)
    empty_zone = Ball(np.array([3.0, 0.0]), 1.0)
    success_u, _ = _isolation_trials(region, lam=1.0, r=0.5, trials=20_000, seed=10)
    success_c, kept = _isolation_trials(
        region, lam=1.0, r=0.5, trials=20_000, seed=11, condition_empty=empty_zone
    )
    # conditioning on emptiness elsewhere keeps a decent share of trials
    assert np.count_nonzero(kept) > 500
    (p_u, se_u), (p_c, se_c) = _rate(success_u), _rate(success_c[kept])
    assert p_c >= p_u - 4 * math.hypot(se_u, se_c)


def test_conditional_isolation_refuses_a_region_without_a_bounding_ball():
    b = Ball(np.zeros(2), 1.0)
    away = Intersection((Ball(np.array([3.0, 0.0]), 1.0),))
    with pytest.raises(ValueError, match="^Intersection has no bounding ball$"):
        _isolation_trials(b, lam=1.0, r=0.5, trials=5, seed=0, condition_empty=away)


def test_isolation_checks_need_a_trial():
    b = Ball(np.zeros(2), 1.0)
    with pytest.raises(ValueError, match="trials >= 1"):
        _isolation_trials(b, lam=1.0, r=0.5, trials=0, seed=0)
    with pytest.raises(ValueError, match="trials >= 1"):
        isolation_pair(2, 0, 0)


def test_conditioning_that_rejects_every_trial_is_refused():
    with pytest.raises(
        TooFewSamples,
        match=f"^0 of 5 trials survived the conditioning, fewer than the "
        f"{MIN_CONDITIONED_TRIALS} the check needs$",
    ):
        isolation_pair(2, 5, 0)


def test_isolation_pair_runs_each_experiment_once(monkeypatch):
    calls = []
    trials = checks._isolation_trials

    def counted(*args, **kwargs):
        calls.append(args)
        return trials(*args, **kwargs)

    monkeypatch.setattr(checks, "_isolation_trials", counted)
    # 226 of 5,000 trials survive the conditioning (2,000 would keep 90)
    assert all(row["passed"] for row in isolation_pair(2, 5_000, 0))
    assert len(calls) == 2
    calls.clear()
    # a refused budget stops after the conditioned run
    with pytest.raises(TooFewSamples, match="^1 of 20 trials survived"):
        isolation_pair(2, 20, 0)
    assert len(calls) == 1


def reference_isolation_trials(region, lam, r, trials, seed, condition_empty=None):
    """``_isolation_trials`` as a per-trial loop over the same draws: the
    pick is the first point at the trial's largest key among members."""
    extra = [condition_empty] if condition_empty is not None else []
    lo, hi = checks._bounding_box([region, *extra], pad=r)
    rng = np.random.Generator(np.random.Philox(seed))
    success, kept = [], []
    done = 0
    while done < trials:
        t = min(4096, trials - done)
        counts = rng.poisson(lam * float(np.prod(hi - lo)), size=t)
        pts = rng.random((int(counts.sum()), lo.shape[0])) * (hi - lo) + lo
        keys = rng.random(pts.shape[0])
        start = 0
        for c in counts:
            own, key = pts[start : start + c], keys[start : start + c]
            start += c
            kept.append(condition_empty is None or not condition_empty.contains(own).any())
            members = np.flatnonzero(region.contains(own))
            if members.size == 0:
                success.append(False)
                continue
            j = members[np.argmax(key[members])]
            dist2 = np.sum((own - own[j]) ** 2, axis=1)
            success.append(np.count_nonzero(dist2 <= r * r) == 1)
        done += t
    return np.asarray(success), np.asarray(kept)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_isolation_trials_match_a_per_trial_loop(d):
    region = Ball(np.zeros(d), 1.0)
    away = np.zeros(d)
    away[0] = 3.0
    for zone in (None, Ball(away, 1.0)):
        got = _isolation_trials(region, 1.0, 0.5, 5_000, 3, zone)
        want = reference_isolation_trials(region, 1.0, 0.5, 5_000, 3, zone)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert 0 < np.count_nonzero(got[0]) < 5_000
