"""Stream replays on the calling thread, and the row-block samplers.

The samplers must reproduce the reference formulas below byte for byte
(Gaussian directions normalized by np.linalg.norm, temporaries per step,
hstack of the cell's two factors), and every replay must yield exactly the
batches that re-deriving each batch from the record's Philox key and
re-filtering it would.  The references are frozen on purpose: the golden
digests depend on these bytes, so they must not follow later edits of
geometry.py or poisson.py.  Picks meant to stream pass vol_lower = 0.0:
their lower mass would otherwise reach SATURATION_MIN_MASS and make them
sea picks.
"""

import math
import sys
import threading
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardspheres import geometry, poisson
from hardspheres.geometry import ROW_BLOCK, Annulus, Ball, Cell, exact_volume
from hardspheres.poisson import (
    STREAM_BATCH,
    RegionRegistry,
    consistency_counts_lazy,
)
from hardspheres.rngutil import generator


# -- frozen reference samplers ---------------------------------------------


def ref_sample_in_ball(center, radius, n, rng):
    center = np.asarray(center, dtype=float)
    d = center.shape[0]
    g = rng.standard_normal((n, d))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    u = rng.random((n, 1))
    return center + g / norms * (radius * u ** (1.0 / d))


def ref_cell_sample(cell, n, rng):
    planar = ref_sample_in_ball(cell.planar_center, cell.eps, n, rng)
    if cell.layer_center.shape[0] == 0:
        return planar
    layer = ref_sample_in_ball(cell.layer_center, cell.layer_radius, n, rng)
    return np.hstack([planar, layer])


def ref_annulus_sample(ann, n, rng):
    d = ann.dim
    g = rng.standard_normal((n, d))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    u = rng.random((n, 1))
    lo, hi = ann.inner**d, ann.outer**d
    rho = (lo + u * (hi - lo)) ** (1.0 / d)
    return ann.center + g / norms * rho


def batch_rng(registry, rec, b):
    """The generator of batch b of a streamed record: the record's stream
    jumped by b blocks of 2**128 draws."""
    stream = generator(registry.seed, 2, rec.rid)
    return np.random.Generator(stream.bit_generator.jumped(b))


def ref_replay(registry, rec):
    """A streamed record's batches re-derived from their keys and
    re-filtered against the earlier records."""
    for b, done in enumerate(range(0, rec.n_candidates, STREAM_BATCH)):
        k = min(STREAM_BATCH, rec.n_candidates - done)
        pts = rec.region.sample(k, batch_rng(registry, rec, b))
        keep = np.ones(k, dtype=bool)
        for rid in rec.filter_ids:
            keep &= ~registry.records[rid].region.contains(pts)
        yield done, pts, keep


# -- samplers ----------------------------------------------------------------


def _regions(d):
    """(name, region, frozen sampler taking (n, rng)); at d = 2 the cell is
    a bare planar disc."""
    c = np.linspace(-1.0, 2.0, d)
    ball = Ball(c, 1.7)
    annulus = Annulus(c, 0.4, 1.3)
    cell = Cell(c[:2], 0.01, c[2:], 16.0)
    return [
        ("ball", ball, lambda n, rng: ref_sample_in_ball(c, 1.7, n, rng)),
        ("annulus", annulus, lambda n, rng: ref_annulus_sample(annulus, n, rng)),
        ("cell", cell, lambda n, rng: ref_cell_sample(cell, n, rng)),
    ]


@pytest.mark.parametrize(
    "n", [1, 7, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, STREAM_BATCH + 1]
)
@pytest.mark.parametrize("d", [2, 3, 31, 45])
def test_samplers_match_frozen_formulas(d, n):
    for name, region, ref in _regions(d):
        rng_new = generator(5, d, n)
        rng_ref = generator(5, d, n)
        got = region.sample(n, rng_new)
        want = ref(n, rng_ref)
        assert got.shape == want.shape == (n, d), name
        assert got.dtype == want.dtype == np.float64, name
        assert got.flags.c_contiguous, name
        assert got.tobytes() == want.tobytes(), name
        # the same draws were consumed, so later draws match too
        assert rng_new.random() == rng_ref.random(), name


@pytest.mark.parametrize("n", [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 5])
def test_in_place_squared_distances_match_the_formula(n):
    rng = generator(8, n)
    pts = rng.normal(size=(n, 45))
    center = rng.normal(size=45)
    for p, c in ((pts, center), (pts[:, 2:], center[2:]), (pts[:, :2], center[:2])):
        want = np.sum((p - c) ** 2, axis=1)
        assert geometry._squared_distances(p, c).tobytes() == want.tobytes()
    # membership decided on those distances, with points on both sides
    r = float(np.median(np.sqrt(np.sum((pts - center) ** 2, axis=1))))
    ball, annulus = Ball(center, r), Annulus(center, 0.5 * r, r)
    cell = Cell(center[:2], 1.0, center[2:], r)
    d2 = np.sum((pts - center) ** 2, axis=1)
    assert np.array_equal(ball.contains(pts), d2 <= r**2)
    assert np.array_equal(annulus.contains(pts), (d2 >= 0.25 * r**2) & (d2 <= r**2))
    want = (np.sum((pts[:, :2] - center[:2]) ** 2, axis=1) <= 1.0) & (
        np.sum((pts[:, 2:] - center[2:]) ** 2, axis=1) <= r**2
    )
    assert np.array_equal(cell.contains(pts), want)


def test_overlap_fraction_matches_frozen_formula():
    n, dim, C, R, x_dist = 2 * ROW_BLOCK + 3, 43, 15.2, 1.3, 15.2
    rng = np.random.Generator(np.random.Philox(4))
    x = np.zeros(dim)
    x[0] = x_dist
    pts = ref_sample_in_ball(x, R, n, rng)
    hits = np.count_nonzero(np.sum(pts * pts, axis=1) <= C * C)
    # the overlap search's estimate: B(0, C) against B(x, R)
    est = geometry.mc_region_volume(Ball(np.zeros(dim), C), Ball(x, R), n, seed=4)
    assert est.hits == hits


# -- replays ------------------------------------------------------------------


def _two_streams():
    """Two overlapping streamed balls in d = 3, each over STREAM_BATCH
    candidates; the second is filtered by the first."""
    reg = RegionRegistry(3, 2.5e5, 77, store_cap=500.0)
    a = Ball(np.array([0.0, 0.0, 0.0]), 0.5)
    b = Ball(np.array([0.35, 0.1, 0.0]), 0.55)
    reg.pick_in_region(a, a, 0.0)
    reg.pick_in_region(b, b, 0.0)
    first, second = reg.records
    assert first.mode == second.mode == "streamed"
    assert second.n_candidates > 2 * STREAM_BATCH
    assert second.filter_ids == (0,)
    return reg


def _batches(replay):
    return [
        (start, pts.tobytes(), fresh.dtype, fresh.tobytes())
        for start, pts, fresh in replay
    ]


def test_checkpointed_replay_matches_rederived_stream():
    reg = _two_streams()
    rec = reg.records[1]
    want = _batches(ref_replay(reg, rec))
    assert _batches(reg._replay(rec)) == want
    assert _batches(reg._replay(rec)) == want
    # a fresh mask really drops the candidates the first stream owns
    assert rec.n_fresh < rec.n_candidates


def test_batches_are_keyed_by_philox_jumps():
    """Batch b is drawn from the record's stream jumped by b blocks and
    filtered against the earlier records; batch 0 is the start of the
    unjumped stream, so single-batch streams keep their bytes."""
    reg = _two_streams()
    rec = reg.records[1]
    owner = reg.records[0].region
    got = list(reg._replay(rec))
    assert len(got) == 3
    for b, (start, pts, fresh) in enumerate(got):
        k = pts.shape[0]
        assert start == b * STREAM_BATCH
        jumped = np.random.Generator(generator(77, 2, 1).bit_generator.jumped(b))
        want = rec.region.sample(k, jumped)
        assert pts.tobytes() == want.tobytes()
        assert fresh.tobytes() == (~owner.contains(want)).tobytes()
    k0 = got[0][1].shape[0]
    assert got[0][1].tobytes() == rec.region.sample(k0, generator(77, 2, 1)).tobytes()


def test_interleaved_replays_do_not_disturb_each_other():
    reg = _two_streams()
    rec = reg.records[1]
    want = _batches(ref_replay(reg, rec))
    one, two = reg._replay(rec), reg._replay(rec)
    got_one, got_two = [], []
    for b1, b2 in zip(one, two):
        got_one.append(b1)
        got_two.append(b2)
    assert _batches(got_one) == _batches(got_two) == want


def _bare_record(reg, region, n_candidates, filter_ids=()):
    """A streamed record appended to a registry by hand."""
    rid = len(reg.records)
    rec = poisson._Record(rid, region, "streamed")
    rec.stream_key = generator(reg.seed, 2, rid).bit_generator.state["state"]["key"]
    rec.n_candidates = n_candidates
    rec.filter_ids = filter_ids
    reg.records.append(rec)
    return rec


@pytest.mark.parametrize(
    "n_candidates, closed_after",
    [
        (0, None),
        (1000, None),
        (STREAM_BATCH, None),
        (STREAM_BATCH + 5, None),
        (2 * STREAM_BATCH, None),
        (3 * STREAM_BATCH + 17, None),
        (4 * STREAM_BATCH, 1),
    ],
)
def test_replays_match_rederived_stream(n_candidates, closed_after):
    """Full replays, also after an earlier replay was closed after
    ``closed_after`` batches, yield the re-derived stream."""
    reg = RegionRegistry(3, 1.0, 11)
    owner = _bare_record(reg, Ball(np.array([0.5, 0.0, 0.0]), 0.8), 10)
    rec = _bare_record(reg, Ball(np.zeros(3), 1.0), n_candidates, (owner.rid,))
    want = _batches(ref_replay(reg, rec))
    assert len(want) == -(-n_candidates // STREAM_BATCH)
    if closed_after:
        replay = reg._replay(rec)
        assert _batches(islice(replay, closed_after)) == want[:closed_after]
        replay.close()
    assert _batches(reg._replay(rec)) == want
    assert _batches(reg._replay(rec)) == want
    if n_candidates:
        fresh = np.concatenate([np.frombuffer(f, dtype=bool) for *_, f in want])
        assert 0 < np.count_nonzero(fresh) < n_candidates


def test_interleaved_pooled_replays_do_not_disturb_each_other():
    reg = RegionRegistry(3, 1.0, 12)
    a = _bare_record(reg, Ball(np.zeros(3), 1.0), 3 * STREAM_BATCH + 1)
    b = _bare_record(reg, Cell(np.zeros(2), 0.5, np.zeros(1), 1.0), 2 * STREAM_BATCH + 9)
    want_a = _batches(ref_replay(reg, a))
    want_b = _batches(ref_replay(reg, b))
    list(reg._replay(a))  # a has been replayed once, b not yet
    replays = [reg._replay(a), reg._replay(b), reg._replay(a), reg._replay(b)]
    got = [[] for _ in replays]
    for _ in range(len(want_a)):  # one round past b's last batch
        for replay, out in zip(replays, got):
            batch = next(replay, None)
            if batch is not None:
                out.append(batch)
    assert _batches(got[0]) == _batches(got[2]) == want_a
    assert _batches(got[1]) == _batches(got[3]) == want_b


def test_replays_on_several_threads_keep_one_generator_per_thread():
    """Four caller threads, each with its own registry, replay under a short
    switch interval; keyed_generator keeps one generator per thread, and a
    generator shared by mistake between threads would mix their batches."""
    cases = []
    for seed in range(4):
        reg = RegionRegistry(3, 1.0, 20 + seed)
        rec = _bare_record(reg, Ball(np.full(3, 0.1 * seed), 1.0), 3 * STREAM_BATCH + seed)
        cases.append((reg, rec, _batches(ref_replay(reg, rec))))
    results = [None] * len(cases)

    def work(i):
        reg, rec, _ = cases[i]
        results[i] = [_batches(reg._replay(rec)) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for (_, _, want), got in zip(cases, results):
        assert got == [want] * 3


def test_replay_starts_no_thread(monkeypatch):
    """A replay of several batches draws each one on the calling thread and
    starts no thread, as bench/run.py's single-caller loop assumes."""
    drawn_on = []
    sample = Ball.sample

    def logged(self, *args, **kwargs):
        drawn_on.append(threading.current_thread())
        return sample(self, *args, **kwargs)

    monkeypatch.setattr(Ball, "sample", logged)
    reg = RegionRegistry(3, 1.0, 13)
    rec = _bare_record(reg, Ball(np.zeros(3), 1.0), 3 * STREAM_BATCH + 1)
    before = set(threading.enumerate())
    assert len(list(reg._replay(rec))) == 4
    assert set(threading.enumerate()) == before
    assert drawn_on == [threading.current_thread()] * 4


def _source(point_id):
    """Where a picked point comes from: "earlier" (the stored record 0) or
    the index of its stream batch."""
    rid, i = point_id
    return "earlier" if rid == 0 else i // STREAM_BATCH


def test_streamed_pick_is_one_replay_choosing_batch_by_batch():
    """A streamed pick replays its stream once.  Its choice starts as a
    uniform earlier member; a batch with c members, bringing the count to
    T, takes over when the registry's draw j out of T falls below c, with
    member j of the batch."""
    sources = set()
    for seed in range(6):
        reg = RegionRegistry(3, 3e5, seed, store_cap=500.0)
        bounding = Ball(np.zeros(3), 0.5)
        region = Ball(np.array([0.1, 0.0, 0.0]), 0.35)
        earlier = reg.materialize(Ball(np.array([0.3, 0.0, 0.0]), 0.05))
        rng = np.random.Generator(np.random.Philox(0))
        rng.bit_generator.state = reg.rng.bit_generator.state
        res = reg.pick_in_region(region, bounding, 0.0)
        rec = reg.records[1]
        assert rec.n_candidates == rng.poisson(3e5 * bounding.volume())
        assert rec.n_candidates > 2 * STREAM_BATCH
        total = len(earlier)
        j = int(rng.integers(total))
        want = earlier.ids[j], earlier.coords[j]
        for start, pts, fresh in ref_replay(reg, rec):
            inside = np.flatnonzero(fresh & region.contains(pts))
            if inside.size:
                total += inside.size
                j = int(rng.integers(total))
                if j < inside.size:
                    want = (1, start + int(inside[j])), pts[inside[j]]
        assert res.n_members == total
        assert res.point_id == want[0]
        assert res.coords.tobytes() == want[1].tobytes()
        assert reg.metrics()["stream_replays"] == 1
        sources.add(_source(res.point_id))
    assert len(sources) >= 2


def test_streamed_pick_takes_each_batch_by_its_share_of_members(monkeypatch):
    """Over 200 seeds, the source of a streamed pick (the earlier stored
    members or one of three stream batches) follows each source's share of
    the members, by a chi-squared test."""
    from scipy.stats import chisquare

    lam = 2.0e5  # about 2.4 batches of candidates in the bounding disc
    bounding = Ball(np.zeros(2), 0.5)
    region = Ball(np.array([0.1, 0.0]), 0.35)
    members = []
    replay = RegionRegistry._replay

    def counting(registry, rec):
        for batch in replay(registry, rec):
            _, pts, fresh = batch
            members.append(int(np.count_nonzero(fresh & region.contains(pts))))
            yield batch

    monkeypatch.setattr(RegionRegistry, "_replay", counting)
    labels = ["earlier", 0, 1, 2]
    observed = np.zeros(len(labels))
    expected = np.zeros(len(labels))
    for seed in range(200):
        reg = RegionRegistry(2, lam, seed, store_cap=500.0)
        members[:] = [len(reg.materialize(Ball(np.array([0.2, 0.0]), 0.1)))]
        res = reg.pick_in_region(region, bounding, 0.0)
        assert len(members) == len(labels) and res.n_members == sum(members)
        observed[labels.index(_source(res.point_id))] += 1
        expected += np.array(members) / res.n_members
    assert expected.min() >= 5
    assert chisquare(observed, expected).pvalue >= 1e-3


def test_traced_replay_signature_keeps_consistency_counts(monkeypatch):
    seeds = (0, 1, 2, 3)
    plain = [consistency_counts_lazy(2, 40.0, s) for s in seeds]
    original = RegionRegistry._replay
    batches = []

    def wrapper(registry, rec):
        for batch in original(registry, rec):
            batches.append(batch[1].shape[0])
            yield batch

    monkeypatch.setattr(RegionRegistry, "_replay", wrapper)
    assert [consistency_counts_lazy(2, 40.0, s) for s in seeds] == plain
    assert batches


# -- law ----------------------------------------------------------------------

LAW_LAMBDA = 3e5
LAW_SEEDS = range(30)
# Eight disjoint sub-balls of the streamed ball, one per octant; the stored
# ball owns part of the two at x, y > 0, so they straddle two records.
LAW_SUB_BALLS = [
    Ball(np.array([x, y, z]), 0.1)
    for x in (-0.22, 0.22)
    for y in (-0.22, 0.22)
    for z in (-0.15, 0.15)
]


def _law_registry(seed):
    """A stored ball, then a streamed ball of at least three batches that
    overlaps it, in d = 3."""
    reg = RegionRegistry(3, LAW_LAMBDA, seed, store_cap=500.0)
    reg.materialize(Ball(np.array([0.3, 0.25, 0.0]), 0.15))
    stream = Ball(np.zeros(3), 0.5)
    reg.pick_in_region(stream, stream, 0.0)
    rec = reg.records[1]
    assert rec.mode == "streamed" and rec.filter_ids == (0,)
    assert rec.n_candidates > 2 * STREAM_BATCH
    return reg


def test_streamed_counts_follow_the_poisson_law():
    """Over 30 seeds, the points a registry holds in each sub-ball are
    Poisson(lam * vol), independently across the disjoint sub-balls.  Each
    sub-ball's total is checked by a z-score, and the spread of all counts
    by the index of dispersion, each at 4 sigma.  Overlapping batches, or a
    batch that repeats another's draws, would inflate the spread."""
    counts = np.array(
        [[len(reg.collect(sub)) for sub in LAW_SUB_BALLS]
         for reg in map(_law_registry, LAW_SEEDS)],
        dtype=float,
    )
    n = len(LAW_SEEDS)
    mu = LAW_LAMBDA * LAW_SUB_BALLS[0].volume()
    z_totals = (counts.sum(axis=0) - n * mu) / math.sqrt(n * mu)
    assert np.all(np.abs(z_totals) < 4.0), z_totals
    # (x - mu)^2 / mu has mean 1 and variance 2 + 1/mu under Poisson(mu)
    dispersion = np.sum((counts - mu) ** 2) / mu
    z_spread = (dispersion - counts.size) / math.sqrt(counts.size * (2.0 + 1.0 / mu))
    assert abs(z_spread) < 4.0, z_spread


# -- metrics -------------------------------------------------------------------


def test_q_max_metric():
    reg = _two_streams()
    assert reg.metrics()["q_max"] == 0.0  # nothing saturates
    reg = RegionRegistry(2, 1.0, seed=14, store_cap=5.0, stream_cap=10.0)
    assert reg.metrics()["q_max"] == 0.0
    big = Ball(np.zeros(2), 40.0)
    reg.pick_in_region(big, big, big.volume())
    assert reg.metrics()["q_max"] == 0.0
    small = Ball(np.array([5.0, 5.0]), 1e-3)
    reg.materialize(small)
    q = small.volume() / big.volume()
    assert reg.metrics()["q_max"] == pytest.approx(q, rel=1e-12)
    reg.materialize(Ball(np.array([-5.0, 5.0]), 2e-4))
    assert reg.metrics()["q_max"] > q


# -- property test -------------------------------------------------------------

_coord = st.floats(-0.4, 0.4, allow_nan=False)
_query = st.tuples(
    st.sampled_from(["ball", "cell"]),
    st.tuples(_coord, _coord, _coord),
    st.floats(0.15, 0.45),
    st.booleans(),  # pick (streamed above the store cap) or materialize
)


def _make(kind, center, size):
    center = np.asarray(center, dtype=float)
    if kind == "ball":
        return Ball(center, size)
    return Cell(center[:2], size, center[2:], size)


def _shrunk(kind, center, size):
    return _make(kind, np.asarray(center) + size / 4.0, size / 2.0)


def _key_set(points):
    return {(pid, row.tobytes()) for pid, row in zip(points.ids, points.coords)}


@settings(max_examples=20, deadline=None)
@given(queries=st.lists(_query, min_size=3, max_size=8), seed=st.integers(0, 2**16))
def test_query_sequences_keep_points_unique_and_stable(queries, seed):
    reg = RegionRegistry(3, 3000.0, seed, store_cap=40.0)
    for kind, center, size, pick in queries:
        region = _make(kind, center, size)
        if pick:
            reg.pick_in_region(region, region, exact_volume(region))
        else:
            reg.materialize(region)
    cover = Ball(np.zeros(3), 2.0)
    everything = reg.collect(cover)
    assert len(set(everything.ids)) == len(everything.ids)
    assert len(np.unique(everything.coords, axis=0)) == len(everything)
    for kind, center, size, _ in queries:
        region = _make(kind, center, size)
        inner = _shrunk(kind, center, size)
        first = reg.collect(inner)
        second = reg.collect(inner)
        assert first.ids == second.ids
        assert first.coords.tobytes() == second.coords.tobytes()
        outer = reg.materialize(region)
        assert _key_set(first) <= _key_set(outer)
    if any(pick for *_, pick in queries):
        assert any(r.mode == "streamed" for r in reg.records)
