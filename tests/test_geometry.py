"""Geometry primitives: volumes, regions, brackets, and MC estimation."""

import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate, special

from hardspheres import checks
from hardspheres.checks import R_MAX_LAYER
from hardspheres.cli import VERIFY_SUITES
from hardspheres.construction import ConstructionParams, step_region
from hardspheres.geometry import (
    EPS,
    MU,
    DELTA,
    RADIUS_MAX,
    RADIUS_MIN,
    STEP_RINGS,
    Annulus,
    Ball,
    Cell,
    Difference,
    Intersection,
    ball_volume,
    boundary_fraction,
    cylinder_section_bracket,
    exact_volume,
    log_unit_ball_volume,
    mc_region_volume,
    region_contains_ball,
    region_lower_distance,
    regions_disjoint,
    sample_in_ball,
    search_overlap_constant,
    shell_radii,
    step_layer_radii,
    step_volume_bracket,
    step_volume_lower_bound,
    unit_ball_volume,
)
from hardspheres.checks import TooFewSamples
from hardspheres.rngutil import derive_seed, generator


def region_contains(region, point) -> bool:
    """Membership of a single point."""
    return bool(region.contains(np.asarray(point, dtype=float)[None, :])[0])


def step_volume_profile(r: float, d: int) -> float:
    """Normalized lower-bound profile shell_lo^(d-2)/3 - core_hi^(d-2) for
    the step-region volume at parent radius r.  Increasing on the radius
    window for d >= 11, which is where the dimension-independent bound
    comes from.
    """
    if d < 11:
        raise ValueError(f"profile is only monotone for d >= 11, got {d}")
    shell_lo, core_hi, _ = step_layer_radii(r)
    m = d - 2
    return shell_lo**m / 3.0 - core_hi**m


def test_unit_ball_volume_known_values():
    assert unit_ball_volume(0) == 1.0
    assert abs(unit_ball_volume(1) - 2.0) < 1e-15
    assert abs(unit_ball_volume(2) - math.pi) < 1e-15
    assert abs(unit_ball_volume(3) - 4.0 * math.pi / 3.0) < 1e-15
    # Gamma-function route, frozen
    assert abs(unit_ball_volume(11) - 1.8841038793898994) < 1e-15
    assert abs(unit_ball_volume(45) - 2.86155261391081e-11) < 1e-24


def test_unit_ball_volume_recurrence():
    # v_d = v_{d-2} * 2 pi / d
    for d in range(2, 80):
        expect = unit_ball_volume(d - 2) * 2.0 * math.pi / d
        assert abs(unit_ball_volume(d) - expect) <= 1e-14 * expect


def test_log_unit_ball_volume_matches_direct():
    for d in (1, 2, 7, 45, 200, 299):
        assert math.isclose(
            math.exp(log_unit_ball_volume(d)), unit_ball_volume(d), rel_tol=1e-12
        )
    # beyond the gamma overflow cutoff the log route must still work
    v = unit_ball_volume(400)
    assert 0.0 < v < 1e-100


def test_ball_volume_scaling_and_validation():
    assert math.isclose(ball_volume(3, 2.0), unit_ball_volume(3) * 8.0, rel_tol=1e-15)
    with pytest.raises(ValueError):
        ball_volume(3, -0.1)
    with pytest.raises(ValueError):
        unit_ball_volume(-1)


def test_sample_in_ball_inside_and_seeded():
    rng = generator(11, 0)
    pts = sample_in_ball(np.array([1.0, -2.0, 0.5]), 1.7, 4000, rng)
    assert pts.shape == (4000, 3)
    d = np.linalg.norm(pts - np.array([1.0, -2.0, 0.5]), axis=1)
    assert np.all(d <= 1.7 + 1e-12)
    # fills the ball, not just the center
    assert d.max() > 1.6
    pts2 = sample_in_ball(np.array([1.0, -2.0, 0.5]), 1.7, 4000, generator(11, 0))
    assert np.array_equal(pts, pts2)


def test_ball_region_membership():
    b = Ball(np.zeros(2), 1.0)
    assert b.dim == 2
    assert region_contains(b, [1.0, 0.0])
    assert not region_contains(b, [1.0 + 1e-9, 0.0])
    assert math.isclose(b.volume(), math.pi, rel_tol=1e-15)


def test_cell_region_product_structure():
    c = Cell(np.array([1.0, 2.0]), 0.01, np.array([0.0, 0.0, 3.0]), 2.0)
    assert c.dim == 5
    assert math.isclose(
        c.volume(),
        math.pi * 0.01**2 * unit_ball_volume(3) * 2.0**3,
        rel_tol=1e-15,
    )
    rng = generator(3, 1)
    pts = c.sample(3000, rng)
    planar = np.linalg.norm(pts[:, :2] - np.array([1.0, 2.0]), axis=1)
    layer = np.linalg.norm(pts[:, 2:] - np.array([0.0, 0.0, 3.0]), axis=1)
    assert np.all(planar <= 0.01 + 1e-15)
    assert np.all(layer <= 2.0 + 1e-12)
    assert np.all(c.contains(pts))
    # membership separates the two factors
    assert not region_contains(c, [1.02, 2.0, 0.0, 0.0, 3.0])
    assert not region_contains(c, [1.0, 2.0, 0.0, 0.0, 5.5])
    bb = c.bounding_ball()
    assert np.all(bb.contains(pts))
    assert math.isclose(bb.radius, math.hypot(0.01, 2.0), rel_tol=1e-15)


def test_cell_degenerates_to_disc():
    c = Cell(np.zeros(2), 0.35, np.empty(0), 7.0)
    assert c.dim == 2
    assert math.isclose(c.volume(), math.pi * 0.35**2, rel_tol=1e-15)
    assert region_contains(c, [0.34, 0.0])
    assert not region_contains(c, [0.36, 0.0])


def test_annulus_membership_and_sampling():
    a = Annulus(np.zeros(4), 0.8, 1.3)
    with pytest.raises(ValueError):
        Annulus(np.zeros(4), 1.3, 0.8)
    rng = generator(5, 0)
    pts = a.sample(3000, rng)
    rho = np.linalg.norm(pts, axis=1)
    assert np.all(rho >= 0.8 - 1e-12)
    assert np.all(rho <= 1.3 + 1e-12)
    assert math.isclose(
        a.volume(), unit_ball_volume(4) * (1.3**4 - 0.8**4), rel_tol=1e-15
    )
    # radial law check: P(rho^4 <= t) uniform on [0.8^4, 1.3^4]
    u = (rho**4 - 0.8**4) / (1.3**4 - 0.8**4)
    assert abs(u.mean() - 0.5) < 4.0 / math.sqrt(12 * 3000)


def test_intersection_and_difference_membership():
    b1 = Ball(np.zeros(2), 1.0)
    b2 = Ball(np.array([1.0, 0.0]), 1.0)
    inter = Intersection((b1, b2))
    diff = Difference(b1, (b2,))
    assert region_contains(inter, [0.5, 0.0])
    assert not region_contains(inter, [-0.5, 0.0])
    assert region_contains(diff, [-0.5, 0.0])
    assert not region_contains(diff, [0.5, 0.0])
    assert exact_volume(inter) is None
    assert exact_volume(diff) is None
    assert math.isclose(exact_volume(b1), math.pi, rel_tol=1e-15)
    with pytest.raises(ValueError):
        Intersection(())
    with pytest.raises(ValueError):
        Intersection((b1, Ball(np.zeros(3), 1.0)))


def test_region_contains_ball_certificates():
    b = Ball(np.zeros(3), 2.0)
    assert region_contains_ball(b, [1.0, 0.0, 0.0], 1.0)
    assert not region_contains_ball(b, [1.0, 0.0, 0.0], 1.0 + 1e-12)
    c = Cell(np.zeros(2), 0.5, np.array([0.0]), 3.0)
    assert region_contains_ball(c, [0.1, 0.0, 1.0], 0.4)
    assert not region_contains_ball(c, [0.2, 0.0, 1.0], 0.4)
    assert not region_contains_ball(c, [0.0, 0.0, 2.7], 0.4)
    a = Annulus(np.zeros(2), 1.0, 2.0)
    assert region_contains_ball(a, [1.5, 0.0], 0.5)
    assert not region_contains_ball(a, [1.5, 0.0], 0.51)
    inter = Intersection((b, Annulus(np.zeros(3), 0.5, 1.8)))
    assert region_contains_ball(inter, [1.0, 0.0, 0.0], 0.3)
    assert not region_contains_ball(inter, [1.0, 0.0, 0.0], 0.6)


def test_region_lower_distance_product_exactness():
    # two product cells separated in both factors: distance decomposes
    c1 = Cell(np.zeros(2), 0.1, np.zeros(3), 1.0)
    c2 = Cell(np.array([3.0, 0.0]), 0.1, np.array([0.0, 0.0, 4.0]), 1.0)
    expect = math.hypot(3.0 - 0.2, 4.0 - 2.0)
    assert math.isclose(region_lower_distance(c1, c2), expect, rel_tol=1e-15)
    assert math.isclose(region_lower_distance(c2, c1), expect, rel_tol=1e-15)
    # layer overlap leaves only the planar gap
    c3 = Cell(np.array([3.0, 0.0]), 0.1, np.zeros(3), 1.0)
    assert math.isclose(region_lower_distance(c1, c3), 2.8, rel_tol=1e-15)


def test_region_lower_distance_never_overestimates():
    # certified distance <= actual distance between any sampled pair
    rng = generator(17, 0)
    c = Cell(np.zeros(2), 0.3, np.zeros(2), 1.5)
    shapes = [
        Ball(np.array([2.0, 0.0, 0.0, 1.0]), 0.7),
        Cell(np.array([1.5, 1.5]), 0.2, np.array([2.0, 0.0]), 0.5),
        Annulus(np.array([0.0, 3.0, 0.0, 0.0]), 0.5, 1.0),
    ]
    pc = c.sample(400, rng)
    for other in shapes:
        lo = region_lower_distance(c, other)
        po = other.sample(400, rng)
        actual = np.linalg.norm(pc[:, None, :] - po[None, :, :], axis=2).min()
        assert lo <= actual + 1e-12


def test_regions_disjoint_flags():
    c1 = Cell(np.zeros(2), 0.01, np.zeros(3), 2.0)
    c2 = Cell(np.array([1.0, 0.0]), 0.01, np.zeros(3), 2.0)
    assert regions_disjoint(c1, c2)  # planar discs 1 apart, radius 0.01
    assert not regions_disjoint(c1, c1)
    ball_inside_column = Ball(np.array([0.0, 0.0, 0.0, 0.0, 0.5]), 0.75)
    assert not regions_disjoint(c1, ball_inside_column)
    # bounding balls overlap here, but the true regions do not
    assert regions_disjoint(c2, ball_inside_column)


def test_shell_radii_frozen_and_monotone():
    r1, r2 = shell_radii(1.5)
    assert math.isclose(r1, 1.0998181667894016, rel_tol=1e-15)
    assert math.isclose(r2, 1.1356055653262713, rel_tol=1e-15)
    # defining identities: r1^2 = R^2 - (1+2eps)^2, r2^2 = R^2 - (1-2eps)^2
    assert math.isclose(r1 * r1, 1.5**2 - (1 + 2 * EPS) ** 2, rel_tol=1e-14)
    assert math.isclose(r2 * r2, 1.5**2 - (1 - 2 * EPS) ** 2, rel_tol=1e-14)
    with pytest.raises(ValueError):
        shell_radii(1.0)  # slab does not reach the sphere


def test_cylinder_section_bracket_frozen():
    lo, hi = cylinder_section_bracket(11, 1.5)
    assert math.isclose(lo, 0.0008132691160835986, rel_tol=1e-15)
    assert math.isclose(hi, 0.0032547313217906066, rel_tol=1e-15)
    # bracket = disc area times inner/outer section ball volumes (1/3 inner)
    r1, r2 = shell_radii(1.5)
    base = math.pi * EPS**2
    assert math.isclose(lo, base * unit_ball_volume(9) * r1**9 / 3.0, rel_tol=1e-14)
    assert math.isclose(hi, base * unit_ball_volume(9) * r2**9, rel_tol=1e-14)
    assert lo < hi


def test_step_layer_radii_identities():
    shell_lo, core_hi, bound = step_layer_radii(0.85)
    assert math.isclose(shell_lo, 1.3600000000000003, rel_tol=1e-15)
    assert math.isclose(core_hi, 1.1356055653262713, rel_tol=1e-15)
    assert math.isclose(bound, 1.3891004283348274, rel_tol=1e-15)
    # defining identities at r = 0.85
    assert math.isclose(
        shell_lo**2, (0.85 + MU + DELTA) ** 2 - (1 + 2 * EPS) ** 2, rel_tol=1e-14
    )
    assert math.isclose(
        core_hi**2, (0.85 + MU - DELTA) ** 2 - (1 - 2 * EPS) ** 2, rel_tol=1e-14
    )
    assert math.isclose(
        bound**2, (0.85 + MU + DELTA) ** 2 - (1 - 2 * EPS) ** 2, rel_tol=1e-14
    )
    assert core_hi < shell_lo < bound
    with pytest.raises(ValueError):
        step_layer_radii(0.5)


def test_step_volume_bracket_orders():
    for d in (11, 31, 45):
        for r in (RADIUS_MIN, MU, RADIUS_MAX):
            lo, hi = step_volume_bracket(d, r)
            assert lo < hi
            assert hi > 0
    lo45, hi45 = step_volume_bracket(45, 0.75)
    assert math.isclose(lo45, 1.732537494671769e-10, rel_tol=1e-15)
    assert math.isclose(hi45, 1.5668566169644754e-09, rel_tol=1e-15)


def test_step_volume_lower_bound_is_worst_case():
    # the bound must hold for every radius in the window
    for d in (11, 20, 45):
        b = step_volume_lower_bound(d)
        assert b > 0
        for r in np.linspace(RADIUS_MIN, RADIUS_MAX, 9):
            lo, _ = step_volume_bracket(d, float(r))
            assert lo >= b - 1e-18
    assert math.isclose(
        step_volume_lower_bound(45), 1.0601211968676106e-12, rel_tol=1e-15
    )
    with pytest.raises(ValueError):
        step_volume_lower_bound(10)


def test_mc_region_volume_against_closed_forms():
    # planar disc inside a square-free bounding ball
    disc = Ball(np.zeros(2), 0.7)
    est = mc_region_volume(disc, Ball(np.zeros(2), 1.0), 200_000, seed=5)
    assert abs(est.value - math.pi * 0.49) <= 4 * est.std_error
    assert est.std_error < 0.01
    # 5-d product cell inside its bounding ball
    cell = Cell(np.zeros(2), 0.5, np.zeros(3), 1.0)
    est2 = mc_region_volume(cell, cell.bounding_ball(), 200_000, seed=6)
    assert abs(est2.value - cell.volume()) <= 4 * est2.std_error
    # exact-cover case has zero variance
    est3 = mc_region_volume(disc, disc, 10_000, seed=7)
    assert est3.value == pytest.approx(math.pi * 0.49, rel=1e-12)
    assert est3.std_error == 0.0


SHELL_CASES = [
    (r, offset) for r in (RADIUS_MIN, MU, RADIUS_MAX) for offset in (1.0 - EPS, 1.0 + EPS)
]


@pytest.mark.parametrize("d", [3, 5, 45, 100])
def test_step_shell_bounds_samples_and_volume(d):
    """The step region lies in its shell, and the shell in its cell; the
    shell's draws pass its own test, spread over the rings by area_k W_k and
    within a ring's layer shell by volume, and its closed-form volume
    agrees with hit-or-miss against the cell."""
    from scipy.stats import chisquare

    params = ConstructionParams(d=d, C=16.0, lam=1.0)
    alpha = 1e-3 / (2 * 4 * len(SHELL_CASES))  # Bonferroni over every d
    n = 20_000
    for i, (r, offset) in enumerate(SHELL_CASES):
        region, shell, _ = step_region(
            params, np.array([offset, 0.0]), np.zeros(d - 2), np.zeros(d), r
        )
        cell = shell.cell
        rng = generator(d, i)
        pts = cell.sample(n, rng)
        in_region = region.contains(pts)
        in_shell = shell.contains(pts)
        assert in_region.any() and not in_shell.all()
        assert np.all(in_shell[in_region])
        draws = shell.sample(n, rng)
        assert np.all(shell.contains(draws))
        assert np.all(cell.contains(draws))

        est = mc_region_volume(shell, cell, 100_000, seed=derive_seed(d, i, 1))
        assert abs(est.value - shell.volume()) <= 4 * est.std_error

        ring = shell._rings(draws[:, :2])
        share = shell._area * (shell._hi - shell._lo)
        got = np.bincount(ring, minlength=STEP_RINGS)
        assert chisquare(got, n * share / share.sum()).pvalue >= alpha
        rho = np.linalg.norm(draws[:, 2:] - cell.layer_center, axis=1) / shell._g_max
        lo, hi = shell._lo[ring], shell._hi[ring]
        t = (rho ** (d - 2) - lo) / (hi - lo)
        deciles = np.bincount(np.clip((10 * t).astype(int), 0, 9), minlength=10)
        assert chisquare(deciles).pvalue >= alpha


def test_mc_region_volume_deterministic():
    reg = Annulus(np.zeros(3), 0.5, 0.9)
    a = mc_region_volume(reg, Ball(np.zeros(3), 0.9), 50_000, seed=9)
    b = mc_region_volume(reg, Ball(np.zeros(3), 0.9), 50_000, seed=9)
    assert a.value == b.value
    assert a.std_error == b.std_error


def test_step_volume_profile_monotone_on_window():
    rs = np.linspace(RADIUS_MIN, RADIUS_MAX, 17)
    vals = [step_volume_profile(float(r), 11) for r in rs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # bracket lower entry is the profile times the cell base area
    base = math.pi * EPS**2 * unit_ball_volume(9)
    lo, _ = step_volume_bracket(11, 0.7)
    assert math.isclose(lo, base * step_volume_profile(0.7, 11), rel_tol=1e-14)
    with pytest.raises(ValueError):
        step_volume_profile(0.7, 9)


def overlap_estimate(dim, C, R, x_dist, n, seed):
    """Hit-or-miss estimate of vol(B(0, C) & B(x, R)) against B(x, R), with
    |x| = x_dist: the overlap fraction search_overlap_constant certifies."""
    x = np.zeros(dim)
    x[0] = x_dist
    return mc_region_volume(Ball(np.zeros(dim), C), Ball(x, R), n, seed)


def test_overlap_fraction_limits():
    # ball fully inside the origin ball
    est = overlap_estimate(3, C=4.0, R=1.0, x_dist=0.0, n=20_000, seed=21)
    assert est.hits == est.n_samples and est.std_error == 0.0
    # disjoint balls
    assert overlap_estimate(3, C=1.0, R=1.0, x_dist=5.0, n=20_000, seed=21).hits == 0
    # genuine partial overlap
    est = overlap_estimate(3, C=2.0, R=2.0, x_dist=2.0, n=40_000, seed=21)
    assert 0 < est.hits < est.n_samples
    assert est.std_error > 0.0


def test_search_overlap_constant_certifies_target():
    C = search_overlap_constant(3, R_max=1.4, seed=2)
    assert isinstance(C, int) and C >= 1
    assert C & (C - 1) == 0  # power of two
    # the boundary case the search certifies, re-checked with a fresh seed
    c_eff = C - 1.4
    n = 200_000
    p = overlap_estimate(3, c_eff, 1.4, c_eff, n=n, seed=977).hits / n
    assert p - 4 * math.sqrt(p * (1 - p) / n) >= 1.0 / 3.0
    # determinism
    assert C == search_overlap_constant(3, R_max=1.4, seed=2)


def _boundary_integral(dim, c, R):
    """The boundary share of boundary_fraction's docstring, by adaptive
    quadrature of its integral over [0, min(1, 2c/R)]."""
    a = 0.5 * (dim - 1)
    k = R / (2.0 * c)

    def integrand(s):
        return dim * s ** (dim - 1) * 0.5 * special.betainc(a, 0.5, 1.0 - (s * k) ** 2)

    with warnings.catch_warnings():
        # quad warns when roundoff stops it short of epsabs; its result is
        # still far inside the 1e-12 the test asks for
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, _ = integrate.quad(
            integrand, 0.0, min(1.0, 1.0 / k), epsabs=1e-15, epsrel=1e-14, limit=200
        )
    return value


def test_boundary_fraction_matches_quadrature_wherever_the_search_looks():
    worst = 0.0
    for dim in range(1, 451):
        for k in range(1, 21):
            c = (1 << k) - R_MAX_LAYER
            share = boundary_fraction(dim, c, R_MAX_LAYER)
            worst = max(worst, abs(share - _boundary_integral(dim, c, R_MAX_LAYER)))
            if share >= 1.0 / 3.0:
                break
    assert worst <= 1e-12


def test_boundary_fraction_closed_cases():
    # B(0, c) inside B(x, R) once 2c <= R; at dim 1 the share is 1/2 beyond
    assert boundary_fraction(5, 0.5, 1.0) == 0.5**5
    assert boundary_fraction(1, 0.3, 1.0) == 0.3
    assert math.isclose(boundary_fraction(1, 3.0, 1.0), 0.5, rel_tol=1e-14)
    # a vanishing ball keeps half its volume on the flat boundary
    assert math.isclose(boundary_fraction(20, 1e6, 1.0), 0.5, rel_tol=1e-5)


def test_searched_C_where_the_repository_runs():
    Cs = [checks.searched_C(d) for d in (3, 5, 11, 31, 45, 60, 100)]
    assert Cs == [2.0, 4.0, 8.0, 16.0, 16.0, 16.0, 32.0]
    # d = 7: the boundary share at C = 4 clears 1/3 by less than 1%, and
    # still no seed moves C
    assert {search_overlap_constant(5, R_MAX_LAYER, seed=s) for s in (0, 7, 99)} == {4}


def test_searched_C_is_cheap_at_d100():
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        C = checks.searched_C(100)
        elapsed = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert C == 32.0
    assert peak < 1 << 20
    assert elapsed < 0.5


@pytest.mark.parametrize("d", [3, 11, 45, 100])
def test_overlap_constant_row_agrees_with_monte_carlo(d):
    (row,) = checks.overlap_constant(d, 200_000, 0)
    assert row["passed"], row
    assert row["cells_C"] == checks.searched_C(d)


DEFAULT_GEOMETRY_BUDGET = VERIFY_SUITES["geometry"][1]


@pytest.mark.parametrize("d", [3, 11, 45])
def test_cell_volume_row_fails_on_a_volume_10_percent_off(monkeypatch, d):
    (row,) = checks.cell_volume(d, DEFAULT_GEOMETRY_BUDGET, 0)
    assert row["passed"], row
    monkeypatch.setattr(checks, "exact_volume", lambda region: 1.1 * region.volume())
    (row,) = checks.cell_volume(d, DEFAULT_GEOMETRY_BUDGET, 0)
    assert not row["passed"], row


def test_a_row_with_all_or_no_hits_is_too_few_samples():
    with pytest.raises(TooFewSamples, match="^cell-volume-d3: 1 of 1 samples hit"):
        checks.cell_volume(3, 1, 0)
    with pytest.raises(TooFewSamples, match="^slab-section-d3-R1.3: 10 of 10 samples"):
        checks.slab_sections(3, 10, 0)
