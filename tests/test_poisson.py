"""Lazy Poisson registry: tiers, ownership, replay, and oracle agreement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardspheres import cli, poisson
from hardspheres.construction import ConstructionParams, step_region
from hardspheres.geometry import (
    EPS,
    RADIUS_MAX,
    RADIUS_MIN,
    Ball,
    Cell,
    Intersection,
    regions_disjoint,
)
from hardspheres.checks import (
    _ALPHA,
    MIN_CONSISTENCY_SEEDS,
    _chi2_two_sample,
    sampler_consistency,
)
from hardspheres.poisson import (
    SATURATION_MIN_MASS,
    PointSet,
    RegionRegistry,
    RegistryError,
    consistency_counts_lazy,
    consistency_counts_oracle,
    max_materialize,
    mecke_coin,
)
from hardspheres.rngutil import derive_seed, generator
from registry_snapshot import registry_dump


def ball2(x, y, r):
    return Ball(np.array([x, y], dtype=float), r)


def test_materialize_caches_realization():
    # a repeat is a new record, but the first keeps the realization: it
    # owns every candidate the repeat draws
    reg = RegionRegistry(2, 2.0, seed=1)
    b = ball2(0, 0, 0.9)
    first = reg.materialize(b)
    second = reg.materialize(b)
    assert first.ids == second.ids
    assert np.array_equal(first.coords, second.coords)
    assert [r.n_fresh for r in reg.records] == [len(first), 0]
    m = reg.metrics()
    assert m["records"] == 2
    assert m["stored_points"] == len(first)
    assert m["peak_stored_points"] == m["stored_points"]


def test_materialize_points_lie_in_region():
    reg = RegionRegistry(3, 5.0, seed=2)
    b = Ball(np.array([1.0, 0.0, -1.0]), 0.8)
    pts = reg.materialize(b)
    if len(pts):
        assert np.all(b.contains(pts.coords))
    # ids are (record_id, index) pairs
    for rid, idx in pts.ids:
        assert rid == 0
        assert 0 <= idx


def test_materialize_requires_exact_volume():
    reg = RegionRegistry(2, 1.0, seed=3)
    b = ball2(0, 0, 1.0)
    with pytest.raises(RegistryError):
        reg.materialize(Intersection((b, ball2(0.5, 0, 1.0))))


def test_materialize_mass_cap():
    # pinned first: a larger cap would let the region below be drawn
    assert max_materialize(2) == 5_368_709
    reg = RegionRegistry(2, 1e6, seed=3)
    with pytest.raises(RegistryError, match="materialization cap 5.369e"):
        reg.materialize(ball2(0, 0, 1.4))  # mass = 1.96 pi 1e6 ~ 1.15 caps
    assert reg.records == []


def test_dimension_mismatch():
    reg = RegionRegistry(2, 1.0, seed=0)
    with pytest.raises(RegistryError):
        reg.materialize(Ball(np.zeros(3), 1.0))


@pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
def test_intensity_must_be_finite_and_nonnegative(lam):
    with pytest.raises(ValueError):
        RegionRegistry(2, lam, seed=0)


def test_ownership_thinning_no_duplicates():
    reg = RegionRegistry(2, 6.0, seed=4)
    b1 = ball2(0, 0, 1.0)
    b2 = ball2(0.6, 0, 1.0)
    p1 = reg.materialize(b1)
    reg.materialize(b2)
    rec2 = reg.records[1]
    # the second record keeps only points outside the first region
    if rec2.n_fresh:
        assert not np.any(b1.contains(rec2.coords))
    # collecting over a cover counts each point exactly once
    cover = ball2(0.3, 0, 2.0)
    got = reg.collect(cover)
    assert len(got) == len(p1) + rec2.n_fresh
    assert len(set(got.ids)) == len(got)
    rows = {tuple(c) for c in got.coords}
    assert len(rows) == len(got)


def test_mean_count_matches_intensity_stored():
    lam, r, n = 2.0, 0.9, 400
    mass = lam * math.pi * r * r
    total = 0
    for s in range(n):
        reg = RegionRegistry(2, lam, seed=derive_seed(100, s))
        total += len(reg.materialize(ball2(0, 0, r)))
    mean = total / n
    assert abs(mean - mass) <= 4.0 * math.sqrt(mass / n)


def test_streamed_pick_and_replay():
    # store cap below the mass forces the streamed tier
    reg = RegionRegistry(2, 3.0, seed=5, store_cap=4.0)
    b = ball2(0, 0, 0.8)
    res = reg.pick_in_region(b, b, b.volume())
    assert res.mode == "streamed"
    if res.status == "picked":
        assert b.contains(res.coords[None, :])[0]
        rid, idx = res.point_id
        assert reg.records[rid].mode == "streamed"
    # replayed collects are identical, bit for bit
    c1 = reg.collect(b)
    c2 = reg.collect(b)
    assert c1.ids == c2.ids
    assert np.array_equal(c1.coords, c2.coords)
    assert len(c1) == res.n_members
    m = reg.metrics()
    assert m["streamed_candidates_total"] >= res.n_members
    assert m["stream_replays"] >= 2
    # streams never store coordinates
    assert reg.records[0].coords is None or reg.records[0].coords.size == 0


def test_streamed_mean_count():
    lam, r, n = 3.0, 0.8, 300
    mass = lam * math.pi * r * r
    total = 0
    for s in range(n):
        reg = RegionRegistry(2, lam, seed=derive_seed(200, s), store_cap=0.5)
        res = reg.pick_in_region(ball2(0, 0, r), ball2(0, 0, r), math.pi * r * r * lam / lam)
        total += res.n_members
    mean = total / n
    assert abs(mean - mass) <= 4.0 * math.sqrt(mass / n)


def test_stream_sees_earlier_stored_points():
    # a stored region realized first keeps its points; an overlapping
    # streamed pick must count them as members rather than redraw them
    hits = 0
    for s in range(60):
        reg = RegionRegistry(2, 4.0, seed=derive_seed(300, s), store_cap=3.0)
        inner = ball2(0, 0, 0.45)
        stored = reg.materialize(inner)  # mass ~ 2.5, stored tier
        outer = ball2(0, 0, 0.9)
        res = reg.pick_in_region(outer, outer, outer.volume())
        assert res.mode == "streamed"
        assert res.n_members >= len(stored)
        collected = reg.collect(inner)
        assert collected.ids == stored.ids
        assert np.array_equal(collected.coords, stored.coords)
        hits += len(stored)
    assert hits > 0  # the scenario actually exercised stored points


def test_pick_stored_tier_and_empty_status():
    reg = RegionRegistry(2, 1.0, seed=6)
    tiny = ball2(0, 0, 1e-4)
    res = reg.pick_in_region(tiny, tiny, tiny.volume())
    assert res.status == "empty"
    assert res.mode == "stored"
    assert res.n_members == 0
    big = ball2(0, 0, 1.5)
    res2 = reg.pick_in_region(big, big, big.volume())
    if res2.status == "picked":
        assert big.contains(res2.coords[None, :])[0]
        assert res2.n_members >= 1


def test_pick_bracket_validation():
    reg = RegionRegistry(2, 1.0, seed=7)
    b = ball2(0, 0, 1.0)
    with pytest.raises(RegistryError):
        reg.pick_in_region(b, b, b.volume() * 2.0)  # lower > upper
    with pytest.raises(RegistryError):
        reg.pick_in_region(b, b, -1.0)
    with pytest.raises(RegistryError):
        reg.pick_in_region(b, Intersection((b,)), 0.0)  # no exact volume


def test_uniform_choice_permutation_invariant():
    coords = np.array([[0.3, 0.1], [-0.2, 0.4], [0.0, 0.0], [0.5, -0.5]])
    pts = PointSet(ids=((0, 0), (0, 1), (0, 2), (0, 3)), coords=coords)
    perm = [2, 0, 3, 1]
    pts_shuffled = PointSet(
        ids=tuple((0, i) for i in perm), coords=coords[perm]
    )
    a = RegionRegistry(2, 1.0, seed=9).uniform_choice(pts)
    b = RegionRegistry(2, 1.0, seed=9).uniform_choice(pts_shuffled)
    assert np.array_equal(a[1], b[1])  # same coordinates chosen
    with pytest.raises(RegistryError):
        RegionRegistry(2, 1.0, seed=9).uniform_choice(
            PointSet(ids=(), coords=np.empty((0, 2)))
        )


# Few distinct values, so that first coordinates tie, whole rows repeat, and
# -0.0 meets 0.0.
_TIE_VALUES = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda d: st.lists(st.lists(_TIE_VALUES, min_size=d, max_size=d), min_size=1, max_size=40)
    ),
    st.integers(0, 2**32 - 1),
    st.randoms(use_true_random=False),
)
def test_uniform_choice_is_the_lexsort_rank(rows, seed, random):
    coords = np.array(rows)
    n = len(rows)
    pts = PointSet(ids=tuple((0, i) for i in range(n)), coords=coords)
    j = int(RegionRegistry(2, 1.0, seed=seed).rng.integers(n))
    want = int(np.lexsort(coords.T[::-1])[j])
    pid, got = RegionRegistry(2, 1.0, seed=seed).uniform_choice(pts)
    assert pid == (0, want)
    assert got.tobytes() == coords[want].tobytes()
    perm = list(range(n))
    random.shuffle(perm)
    shuffled = PointSet(ids=tuple((0, i) for i in perm), coords=coords[perm])
    _, again = RegionRegistry(2, 1.0, seed=seed).uniform_choice(shuffled)
    assert np.array_equal(again, got)  # equal rows, up to the sign of a zero


def test_saturated_pick_basics():
    reg = RegionRegistry(2, 1.0, seed=10, store_cap=5.0, stream_cap=10.0)
    big = Ball(np.zeros(2), 40.0)  # mass ~ 5027 >= 4096
    res = reg.pick_in_region(big, big, big.volume())
    assert res.status == "picked"
    assert res.mode == "saturated"
    assert big.contains(res.coords[None, :])[0]
    assert res.n_members is None  # count never realized
    # the pick is a determined point now
    got = reg.collect(ball2(float(res.coords[0]), float(res.coords[1]), 0.1))
    assert res.point_id in got.ids
    m = reg.metrics()
    assert m["stored_points"] == 1
    assert m["sea_candidates"] == poisson._SEA_FIRST_ROWS  # every row lands


def test_sea_pick_draws_a_full_block_after_a_missed_first_block(monkeypatch):
    bounding = Ball(np.zeros(2), 40.0)
    zone = Ball(np.zeros(2), 39.0)  # mass ~ 4778 >= 4096
    contains = Ball.contains

    def first_block_misses(self, pts):
        inside = contains(self, pts)
        if self is zone and len(pts) == poisson._SEA_FIRST_ROWS:
            inside[:] = False
        return inside

    monkeypatch.setattr(Ball, "contains", first_block_misses)
    reg = RegionRegistry(2, 1.0, seed=10, store_cap=5.0, stream_cap=10.0)
    res = reg.pick_in_region(zone, bounding, zone.volume())
    assert res.mode == "saturated"
    assert contains(zone, res.coords[None, :])[0]
    drawn = poisson._SEA_FIRST_ROWS + poisson._SEA_BLOCK_ROWS
    assert reg.metrics()["sea_candidates"] == drawn


def test_saturated_requires_mass_floor():
    reg = RegionRegistry(2, 1.0, seed=11, store_cap=5.0, stream_cap=10.0)
    mid = Ball(np.zeros(2), 10.0)  # mass ~ 314: too heavy to stream, too light
    with pytest.raises(RegistryError):
        reg.pick_in_region(mid, mid, mid.volume())


def test_saturated_refuses_overlap_with_determined():
    reg = RegionRegistry(2, 1.0, seed=12, store_cap=5.0, stream_cap=10.0)
    seeded = reg.materialize(ball2(0, 0, 1.0))
    assert len(seeded) > 0  # this seed realizes points
    big = Ball(np.zeros(2), 40.0)
    with pytest.raises(RegistryError):
        reg.pick_in_region(big, big, big.volume())


def test_saturated_zones_cannot_overlap():
    reg = RegionRegistry(2, 1.0, seed=13, store_cap=5.0, stream_cap=10.0)
    b1 = Ball(np.zeros(2), 40.0)
    b2 = Ball(np.array([10.0, 0.0]), 40.0)
    reg.pick_in_region(b1, b1, b1.volume())
    with pytest.raises(RegistryError):
        reg.pick_in_region(b2, b2, b2.volume())


def _thin_cell(x):
    """A d = 3 cell whose bounding ball (radius about 5) meets that of the
    cell one unit away, while the two discs lie 0.98 apart in the plane."""
    return Cell(np.array([x, 0.0]), 0.01, np.zeros(1), 5.0)


def _saturating_registry(seed):
    # lam * vol(_thin_cell) is about 6283 >= SATURATION_MIN_MASS
    return RegionRegistry(3, 2e6, seed=seed, store_cap=5.0, stream_cap=10.0)


def test_saturated_zones_apart_in_the_plane_are_both_picked():
    reg = _saturating_registry(15)
    for x in (0.0, 1.0):
        cell = _thin_cell(x)
        res = reg.pick_in_region(cell, cell, cell.volume())
        assert res.status == "picked" and res.mode == "saturated"
        assert cell.contains(res.coords[None, :])[0]
    assert [r.mode for r in reg.records] == ["saturated", "saturated"]


def test_realization_apart_from_a_saturated_zone_is_not_charged():
    reg = _saturating_registry(16)
    cell = _thin_cell(0.0)
    reg.pick_in_region(cell, cell, cell.volume())
    # inside the cell's bounding ball, but 0.39 from the cell
    reg.materialize(Ball(np.array([0.5, 0.0, 0.0]), 0.1))
    assert reg.metrics()["q_max"] == 0.0
    inside = Ball(np.array([0.0, 0.0, 1.0]), 5e-5)
    reg.materialize(inside)
    q = 2e6 * inside.volume() / reg.records[0].mass_lower
    assert reg.metrics()["q_max"] == pytest.approx(q, rel=1e-12)


def test_a_new_record_scans_each_earlier_record_once(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append(b)
        return regions_disjoint(a, b)

    monkeypatch.setattr(poisson, "regions_disjoint", counting)
    reg = RegionRegistry(2, 2.0, seed=17)
    for k in range(6):
        calls.clear()
        reg.materialize(ball2(0.5 * k, 0.0, 0.4))
        assert len(calls) == k
    # a repeated region collects without a new record
    calls.clear()
    reg.materialize(ball2(0.0, 0.0, 0.4))
    assert len(calls) == 6


def test_a_stored_pick_scans_each_record_once_and_replays_each_stream_once(
    monkeypatch,
):
    calls = []
    replays = []
    replay = RegionRegistry._replay

    def counting(a, b):
        calls.append(b)
        return regions_disjoint(a, b)

    def counting_replay(self, rec):
        replays.append(rec.rid)
        return replay(self, rec)

    monkeypatch.setattr(poisson, "regions_disjoint", counting)
    monkeypatch.setattr(RegionRegistry, "_replay", counting_replay)
    reg = RegionRegistry(2, 4.0, seed=18, store_cap=3.0)
    for x in (0.0, 3.0):  # two streams; only the first reaches the pick
        b = ball2(x, 0.0, 0.9)
        assert reg.pick_in_region(b, b, b.volume()).mode == "streamed"
    reg.materialize(ball2(0.6, 0.5, 0.3))  # a stored record that reaches it
    k = len(reg.records)
    calls.clear()
    replays.clear()
    bounding = ball2(0.6, 0.0, 0.35)
    region = Intersection((bounding, ball2(0.5, 0.0, 0.3)))
    res = reg.pick_in_region(region, bounding, 0.0)
    assert res.mode == "stored"
    assert len(calls) == k
    assert replays == [0]
    # the members are exactly the region's collect, ids in order
    members = reg.collect(region)
    assert res.n_members == len(members) > 0
    assert res.point_id in members.ids
    assert np.array_equal(res.coords, members.coords[members.ids.index(res.point_id)])


def test_a_stored_pick_with_nothing_found_is_empty():
    region = Intersection((ball2(0.0, 0.0, 0.5), ball2(0.3, 0.0, 0.5)))
    # nothing realized in bounding at all
    reg = RegionRegistry(2, 0.0, seed=19)
    res = reg.pick_in_region(region, ball2(0.0, 0.0, 0.5), 0.0)
    assert (res.status, res.mode, res.n_members) == ("empty", "stored", 0)
    assert len(reg.collect(ball2(0.0, 0.0, 0.5))) == 0
    # points in bounding, none of them in the region
    reg = RegionRegistry(2, 2.0, seed=20)
    bounding = ball2(0.0, 0.0, 1.0)
    tiny = Intersection((bounding, ball2(0.0, 0.0, 1e-6)))
    res = reg.pick_in_region(tiny, bounding, 0.0)
    assert len(reg.collect(bounding)) > 0
    assert (res.status, res.mode, res.n_members) == ("empty", "stored", 0)


def test_saturated_q_is_a_diagnostic():
    reg = RegionRegistry(2, 1.0, seed=14, store_cap=5.0, stream_cap=10.0)
    big = Ball(np.zeros(2), 40.0)
    reg.pick_in_region(big, big, big.volume())
    reg.materialize(Ball(np.array([5.0, 5.0]), 1e-3))
    q = reg.records[0].realized_mass_in_zone / reg.records[0].mass_lower
    assert reg.metrics()["q_max"] == q <= 1e-9
    # a realization 2500 times as heavy proceeds: the Mecke coin makes it
    # exact, and q_max only reports it
    reg.materialize(Ball(np.array([-5.0, 5.0]), 0.05))
    assert reg.metrics()["q_max"] == pytest.approx(2501 * q, rel=1e-12)


def _stream_into_a_sea():
    reg = RegionRegistry(2, 1.0, seed=13, store_cap=5.0, stream_cap=1e5)
    big = Ball(np.zeros(2), 40.0)
    reg.pick_in_region(big, big, big.volume())
    mid = Ball(np.array([10.0, 0.0]), 10.0)  # mass ~ 314, streamed
    reg.pick_in_region(mid, mid, 0.0)


def _two_overlapping_seas():
    reg = RegionRegistry(2, 1.0, seed=13, store_cap=5.0, stream_cap=10.0)
    for x in (0.0, 10.0):
        b = Ball(np.array([x, 0.0]), 40.0)
        reg.pick_in_region(b, b, b.volume())


def _sea_over_determined_points():
    reg = RegionRegistry(2, 1.0, seed=12, store_cap=5.0, stream_cap=10.0)
    assert len(reg.materialize(ball2(0, 0, 1.0))) > 0
    big = Ball(np.zeros(2), 40.0)
    reg.pick_in_region(big, big, big.volume())


@pytest.mark.parametrize(
    "scenario, message",
    [
        (_stream_into_a_sea, "a streamed record would reach saturated record 0"),
        (_two_overlapping_seas, "overlapping saturated zones are not supported"),
        (_sea_over_determined_points, "saturated pick over a region that already holds"),
    ],
)
def test_sea_refusals_exit_5_with_one_line(monkeypatch, capsys, scenario, message):
    """The three realizations a sea zone still refuses end a run with exit
    code 5 and a one-line message."""
    monkeypatch.setattr(cli, "run_multilayer", lambda *args: scenario())
    argv = ["simulate", "--dim", "5", "--lambda", "5.0", "--cells-C", "4.0"]
    assert cli.main(argv) == cli.EXIT_CANNOT_REALIZE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot realize this run exactly: {message}")
    assert err.count("\n") == 1 and err.endswith("\n")


def _sea_then_heavy_realization(seed, stream_cap):
    """A sea pick in a ball of mass 5027 (lam = 1), then a stored ball of
    mass 3848 inside it: the coin's bound cannot settle, so it counts the
    unrealized mass of about 1179 exactly."""
    reg = RegionRegistry(2, 1.0, seed=seed, store_cap=5.0, stream_cap=stream_cap)
    big = Ball(np.zeros(2), 40.0)
    reg.pick_in_region(big, big, big.volume())
    inner = reg.materialize(Ball(np.zeros(2), 35.0))
    return reg, inner


def test_a_heavy_realization_in_a_sea_zone_takes_the_exact_coin():
    # each exact count draws about 5027 candidates of the zone's ball, and
    # most proposals are rejected: K' / (j + K') is about 1179 / 5027
    rejections = 0
    for seed in range(21, 26):
        reg, inner = _sea_then_heavy_realization(seed, 1e4)
        m = reg.metrics()
        assert m["coin_candidates"] > 4000 * (1 + m["coin_rejections"])
        rejections += m["coin_rejections"]
    assert rejections >= 5
    reg, inner = _sea_then_heavy_realization(21, 1e4)
    sea, rec = reg.records
    # inner holds the stored points and, when it landed there, the pick
    assert sea.zone_points == rec.n_fresh == len(inner) - rec.region.contains(sea.coords)[0]
    again, _ = _sea_then_heavy_realization(21, 1e4)
    assert registry_dump(again) == registry_dump(reg)
    # the same exact count past the stream cap is refused
    with pytest.raises(RegistryError, match="Mecke coin of saturated record 0"):
        _sea_then_heavy_realization(21, 1e3)


def test_saturation_floor_makes_emptiness_impossible():
    # a saturated zone skips the count draw because P(empty) is exactly 0.0
    assert math.exp(-SATURATION_MIN_MASS) == 0.0


def three_tier_registry(seed):
    """A stored record, a streamed one and a saturated pick far from both,
    with the caps of test_saturated_pick_basics."""
    reg = RegionRegistry(2, 3.0, seed=seed, store_cap=5.0, stream_cap=10.0)
    stored = reg.materialize(ball2(2, 2, 1.0))
    near = ball2(0, 0, 0.8)
    res = reg.pick_in_region(near, near, near.volume())
    big = ball2(100, 0, 40.0)  # mass ~ 15080 >= 4096
    sat = reg.pick_in_region(big, big, big.volume())
    assert [r.mode for r in reg.records] == ["stored", "streamed", "saturated"]
    assert sat.status == "picked" and sat.point_id == (2, 0)
    return reg, stored, res, sat


def test_realized_points_inventory():
    reg, stored, res, sat = three_tier_registry(15)
    inv = reg.realized_points()
    # stream candidates are replay-derived: only stored coords and the
    # saturated pick are inventory, in record order
    assert inv.ids.dtype == np.intp
    assert inv.ids.tolist() == [list(pid) for pid in stored.ids + ((2, 0),)]
    assert np.array_equal(inv.coords, np.vstack([stored.coords, sat.coords]))
    if res.status == "picked":
        assert list(res.point_id) not in inv.ids.tolist()
    # a region holding points of all three tiers collects each tier's own
    streamed = reg.collect(ball2(0, 0, 0.8))
    assert len(stored) > 0 and len(streamed) > 0
    everything = reg.collect(ball2(50, 0, 100.0))
    assert list(everything.ids) == sorted(everything.ids)
    assert everything.ids == stored.ids + streamed.ids + ((2, 0),)
    assert np.array_equal(
        everything.coords, np.vstack([stored.coords, streamed.coords, sat.coords])
    )


def test_dump_stable_and_labeled():
    reg, _, _, sat = three_tier_registry(16)
    d1 = registry_dump(reg)
    d2 = registry_dump(reg)
    assert d1 == d2
    assert d1.startswith("# poisson registry dim=2")
    assert "stored" in d1
    assert "streamed" in d1
    lines = d1.splitlines()
    assert lines[-2].startswith("r 2 saturated ") and lines[-2].endswith(" fresh=0")
    assert lines[-1] == "p 2 0 " + " ".join(f"{x:.17g}" for x in sat.coords)


def test_consistency_script_shapes():
    lazy = consistency_counts_lazy(2, 3.0, seed=21)
    oracle = consistency_counts_oracle(2, 3.0, seed=21)
    assert len(lazy) == 10
    assert len(oracle) == 10
    assert all(isinstance(c, int) and c >= 0 for c in lazy)
    # q09 contains q01 entirely, so its count dominates on every draw
    for s in range(30):
        t = consistency_counts_lazy(2, 3.0, seed=derive_seed(7, s))
        assert t[8] >= t[0]
    with pytest.raises(ValueError):
        consistency_counts_lazy(3, 3.0, seed=0)


def test_consistency_means_agree():
    n = 150
    lazy = np.array(
        [consistency_counts_lazy(2, 3.0, derive_seed(8, i)) for i in range(n)]
    )
    oracle = np.array(
        [consistency_counts_oracle(2, 3.0, derive_seed(9, i)) for i in range(n)]
    )
    for j in range(10):
        diff = lazy[:, j].mean() - oracle[:, j].mean()
        se = math.sqrt((lazy[:, j].var() + oracle[:, j].var()) / n)
        assert abs(diff) <= 5.0 * se + 1e-12, f"query {j + 1}"


def test_sampler_consistency_check_passes():
    (out,) = sampler_consistency(2, MIN_CONSISTENCY_SEEDS, 0)
    assert out["passed"]
    assert out["n_tests"] == 17
    assert out["min_p_value"] >= _ALPHA / 17
    with pytest.raises(ValueError, match="needs at least 400 seeds, got 399"):
        sampler_consistency(2, MIN_CONSISTENCY_SEEDS - 1, 0)


def test_chi2_keeps_the_commonest_value_as_a_category():
    # every value is rarer than _MIN_POOLED, yet the table keeps two columns
    values = list(range(40))
    assert _chi2_two_sample(values, values)[3] == 2
    assert _chi2_two_sample([1] * 30, [1] * 30) is None


def _two_steps_into_one_cell(through_cell: bool, seed: int) -> tuple:
    """Two d = 3 steps into the cell at (1, 0), from a parent of radius
    RADIUS_MIN and then from a parent of radius RADIUS_MAX whose step
    region overlaps the first's.  Through the shells' cells, the first
    step stores its bounding region and the second streams it, finding the
    first's points among its members; through the StepShells themselves,
    the first streams and the second stores.  Returns the pick counts, the
    counts of three later collects and where the picks landed (1 inside a
    test region, 0 outside, -1 empty)."""
    params = ConstructionParams(d=3, C=16.0, lam=1e5)
    planar = np.array([1.0, 0.0])
    # the cell masses are 71 and 87, the shell masses 18.1 and 16.2: each
    # cap falls between the steps
    if through_cell:
        store_cap, modes = 75.0, ["stored", "streamed"]
    else:
        store_cap, modes = 17.0, ["streamed", "stored"]
    reg = RegionRegistry(3, params.lam, seed, store_cap=store_cap)
    steps = []
    for parent, r in ((np.zeros(3), RADIUS_MIN), (np.array([2.0, 0.0, 0.3]), RADIUS_MAX)):
        region, shell, vol_lower = step_region(params, planar, np.zeros(1), parent, r)
        res = reg.pick_in_region(region, shell.cell if through_cell else shell, vol_lower)
        steps.append((region, res))
    (reg_a, pick_a), (reg_b, pick_b) = steps
    assert [r.mode for r in reg.records] == modes
    below = Cell(planar, EPS, np.array([-1.0]), 1.0)  # layer coordinate <= 0
    above = Cell(planar, EPS, np.array([1.0]), 1.0)
    later = [
        len(reg.collect(Intersection(parts)))
        for parts in ((reg_a, reg_b), (reg_a, below), (reg_b, above))
    ]
    landed = [
        -1 if res.status == "empty" else int(where.contains(res.coords)[0])
        for res, where in ((pick_a, below), (pick_b, reg_a))
    ]
    return (pick_a.n_members, pick_b.n_members, *later, *landed)


def test_step_shell_picks_have_the_law_of_cell_picks():
    """Over 1000 seeds each, picks through the StepShell and picks through
    its cell agree in law, by two-sample chi-squared tests (Bonferroni over
    the projections): the member counts of each step, stored one way and
    streamed the other, the counts of later collects inside the step
    regions, and where the picks land."""
    n = 1000
    shell = [_two_steps_into_one_cell(False, derive_seed(18, 1, i)) for i in range(n)]
    cell = [_two_steps_into_one_cell(True, derive_seed(18, 2, i)) for i in range(n)]
    projections = list(zip(*shell)), list(zip(*cell))
    alpha = 1e-3 / len(projections[0])
    for j, (a, b) in enumerate(zip(*projections)):
        out = _chi2_two_sample(a, b)
        assert out is not None, f"projection {j} is degenerate"
        assert out[1] >= alpha, f"projection {j}: p = {out[1]:.3g}"


# -- the Mecke coin -------------------------------------------------------
#
# A 1-D sea: a Poisson(1) process on S = [0, 6], a uniform point of it
# picked, then A = [0, 3] realized.  The rest of the process puts k points
# in A with probability proportional to Poisson(3)(k) E[1/(k + K + 1)],
# K ~ Poisson(3): mean 2.51, where realizing A as fresh Poisson gives 3.0.

COIN_S, COIN_A = 6.0, 3.0


def _brute_force_count_in_a(rng) -> int:
    while True:
        x = rng.random(rng.poisson(COIN_S)) * COIN_S
        if len(x):
            break
    rest = np.delete(x, rng.integers(len(x)))
    return int(np.count_nonzero(rest < COIN_A))


def _unrealized_counts(rng):
    """One auxiliary realization of S less A, in two batches: Poisson
    points of S thinned to [3, 6]."""
    x = rng.random(rng.poisson(COIN_S)) * COIN_S
    for half in np.array_split(x, 2):
        yield int(np.count_nonzero(half >= COIN_A))


def _sea_count_in_a(rng, coin) -> int:
    while True:
        j = int(rng.poisson(COIN_A))
        if coin(j, COIN_S - COIN_A, rng, _unrealized_counts):
            return j


def test_mecke_coin_gives_the_law_of_a_uniform_pick():
    """Against a brute-force oracle at a mass where the bound never
    settles, so that every coin with j > 0 draws K' exactly: the count in A
    through the coin has the oracle's law by a two-sample chi-squared test,
    and the same test rejects accepting every realization."""
    n = 4000
    brute = [_brute_force_count_in_a(generator(31, 1, i)) for i in range(n)]
    sea = [_sea_count_in_a(generator(31, 2, i), mecke_coin) for i in range(n)]
    fresh = [_sea_count_in_a(generator(31, 3, i), lambda *a: True) for i in range(n)]
    assert abs(np.mean(brute) - 2.51) < 0.1 and abs(np.mean(fresh) - 3.0) < 0.1
    assert _chi2_two_sample(sea, brute)[1] >= 1e-3
    assert _chi2_two_sample(fresh, brute)[1] < 1e-6


class _FixedU:
    """A stand-in generator whose uniform is always u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_mecke_coin_settles_by_the_bound_or_draws_exactly():
    drawn = []

    def counts(rng):
        drawn.append(None)
        yield 10**9

    # j = 0 accepts without a draw
    assert mecke_coin(0, 1.0, None, counts) and not drawn
    # t = 1000 at mu_lo = 4096: P(K' <= t) < exp(-1686), below 2^-1074
    assert mecke_coin(1, 4096.0, _FixedU(1000 / 1001), counts) and not drawn
    # t = 2500 is not settled (the bound is exp(-362)), nor is any t >= mu_lo
    for u in (2500 / 2501, 5000 / 5001):
        assert mecke_coin(1, 4096.0, _FixedU(u), counts)
    assert len(drawn) == 2
    # an auxiliary count of 0 is redrawn (K' >= 1); one in (0, t] rejects
    rounds = iter([[0, 0], [2], [1, 5]])
    assert not mecke_coin(2, 3.0, _FixedU(0.5), lambda rng: next(rounds))
    assert next(rounds) == [1, 5]


# -- sea picks against streamed picks ---------------------------------------

SEA_LAMBDA = 3e5
SEA_BOUNDING = Ball(np.zeros(3), 0.25)  # mass 19,635
SEA_REGION = Intersection((SEA_BOUNDING, Ball(np.array([0.1, 0.0, 0.0]), 0.25)))
SEA_INNER = Ball(np.array([0.05, 0.0, 0.0]), 0.2)  # inside both parts: mass 10,053
SEA_FIXED = Ball(np.array([0.1, 0.05, 0.0]), 0.015)  # inside the region


def _sea_or_streamed_step(sea: bool, seed: int) -> tuple:
    """One d = 3 pick in SEA_REGION: a sea pick when given SEA_INNER's
    volume as its lower bound, streamed when given 0.  Then the isolation
    ball of radius 0.015 around the pick and a fixed ball inside the
    region are materialized, each proposing points inside the zone.
    Returns the octant the pick landed in (around SEA_INNER's center),
    whether it lies in SEA_INNER, the isolation ball's other points, their
    collect inside the region, and the fixed ball's count."""
    reg = RegionRegistry(3, SEA_LAMBDA, seed)
    res = reg.pick_in_region(SEA_REGION, SEA_BOUNDING, SEA_INNER.volume() if sea else 0.0)
    assert res.status == "picked" and res.mode == ("saturated" if sea else "streamed")
    y = res.coords
    iso = Ball(y, 0.015)
    octant = int(np.packbits(y > SEA_INNER.center, bitorder="little")[0])
    return (
        octant,
        int(SEA_INNER.contains(y[None, :])[0]),
        len(reg.materialize(iso)) - 1,
        len(reg.collect(Intersection((SEA_REGION, iso)))) - 1,
        len(reg.materialize(SEA_FIXED)),
    )


@pytest.mark.slow
def test_sea_picks_have_the_law_of_streamed_picks():
    """Over 400 seeds each, sea picks and streamed picks of the same step
    agree in law, by two-sample chi-squared tests (Bonferroni over the
    projections): where the pick lands and the counts of the later
    isolation-ball and collect queries inside the zone."""
    n = 400
    sea = [_sea_or_streamed_step(True, derive_seed(19, 1, i)) for i in range(n)]
    streamed = [_sea_or_streamed_step(False, derive_seed(19, 2, i)) for i in range(n)]
    projections = list(zip(*sea)), list(zip(*streamed))
    alpha = 1e-3 / len(projections[0])
    for j, (a, b) in enumerate(zip(*projections)):
        out = _chi2_two_sample(a, b)
        assert out is not None, f"projection {j} is degenerate"
        assert out[1] >= alpha, f"projection {j}: p = {out[1]:.3g}"
