"""Checkpointed stream replays and the in-place ball sampler.

The samplers must reproduce the reference formulas below byte for byte
(Gaussian directions normalized by np.linalg.norm, temporaries per step,
hstack of the cell's two factors), and a replay restored from pass-1
checkpoints must yield exactly the batches that re-deriving the record's
substream and re-filtering it would.  The references are frozen on
purpose: the golden digests depend on these bytes, so they must not follow
later edits of geometry.py or poisson.py.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardspheres import poisson
from hardspheres.geometry import Annulus, Ball, Cell, exact_volume
from hardspheres.poisson import (
    STREAM_BATCH,
    RegionRegistry,
    consistency_counts_lazy,
)
from hardspheres.rngutil import generator

# Philox state arrays: counter (4), key (2) and buffer (4) uint64 words.
PHILOX_STATE_BYTES = 80


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


def ref_replay(registry, rec):
    """A streamed record's batches re-derived from its seed path and
    re-filtered against the earlier records, as before checkpoints."""
    rng = generator(*rec.stream_seed_path)
    done = 0
    while done < rec.n_candidates:
        k = min(STREAM_BATCH, rec.n_candidates - done)
        pts = rec.region.sample(k, rng)
        keep = np.ones(k, dtype=bool)
        for rid in rec.filter_ids:
            keep &= ~registry.records[rid].region.contains(pts)
        yield done, pts, keep
        done += k


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


@pytest.mark.parametrize("n", [1, 7, STREAM_BATCH + 1])
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


# -- checkpointed replays ------------------------------------------------------


def _two_streams():
    """Two overlapping streamed balls in d = 3, each over STREAM_BATCH
    candidates; the second is filtered by the first."""
    reg = RegionRegistry(3, 2.5e5, 77, store_cap=500.0)
    a = Ball(np.array([0.0, 0.0, 0.0]), 0.5)
    b = Ball(np.array([0.35, 0.1, 0.0]), 0.55)
    reg.pick_in_region(a, a, exact_volume(a))
    reg.pick_in_region(b, b, exact_volume(b))
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
    assert len(rec.stream_checkpoints) == math.ceil(rec.n_candidates / STREAM_BATCH)
    want = _batches(ref_replay(reg, rec))
    assert _batches(reg._replay(rec)) == want
    assert _batches(reg._replay(rec)) == want
    # a fresh mask really drops the candidates the first stream owns
    assert rec.n_fresh < rec.n_candidates


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


def test_abandoned_first_replay_leaves_no_checkpoints():
    reg = RegionRegistry(3, 1.0, 3)
    region = Ball(np.zeros(3), 1.0)
    rec = poisson._Record(0, region, "streamed", region)
    rec.stream_seed_path = (3, 2, 0)
    rec.n_candidates = 2 * STREAM_BATCH + 5
    reg.records.append(rec)
    replay = reg._replay(rec)
    next(replay)
    next(replay)
    replay.close()
    assert rec.stream_checkpoints is None
    assert rec.stream_rng is None
    assert reg.metrics()["stream_checkpoint_bytes"] == 0
    want = _batches(ref_replay(reg, rec))
    assert _batches(reg._replay(rec)) == want  # the first full replay
    assert len(rec.stream_checkpoints) == 3
    assert _batches(reg._replay(rec)) == want  # restored from checkpoints


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


# -- metrics -------------------------------------------------------------------


def test_checkpoint_bytes_metric():
    reg = _two_streams()
    want = 0
    for rec in reg.records:
        for start in range(0, rec.n_candidates, STREAM_BATCH):
            k = min(STREAM_BATCH, rec.n_candidates - start)
            want += (k + 7) // 8 + PHILOX_STATE_BYTES
    assert reg.metrics()["stream_checkpoint_bytes"] == want
    assert RegionRegistry(3, 1.0, 0).metrics()["stream_checkpoint_bytes"] == 0


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
