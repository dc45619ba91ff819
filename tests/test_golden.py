"""Golden digests: `simulate` output bytes pinned for fixed argvs.

Replay within one process is checked elsewhere; these digests also catch a
refactor that changes the realized configuration, the step log, or the
manifest's counts and hard-sphere report between versions.  Together the
two runs reach all three registry tiers (stored, streamed, saturated) and
multi-layer assembly.  Two more digests pin what the registry itself
realizes: the ``dump()`` of the d = 45 layer, and the ids and coordinates
that a small d = 3 registry returns from overlapping streamed records,
where every later query is answered by replaying earlier streams.  A change
that alters these bytes on purpose must re-pin them and say why in
CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from hardspheres.bounds import lambda_star
from hardspheres.cli import EXIT_OK, main
from hardspheres.construction import ConstructionParams, run_layer
from hardspheres.geometry import Annulus, Ball, Cell, Intersection, exact_volume
from hardspheres.poisson import STREAM_BATCH, RegionRegistry
from hardspheres.rngutil import derive_seed

# 12 * lambda_star(31), as repr, so the argv does not depend on bounds.py.
LAMBDA_D31 = "7244305.109674826"

GOLDEN = {
    # The benchmark's d = 45 layer at lambda*, cut to three steps.
    "d45-lambda-star-3-steps": (
        ["simulate", "--dim", "45", "--lambda", "auto", "--cells-C", "16",
         "--lattice-radius", "12", "--max-steps", "3", "--seed", "7"],
        {
            "spheres": "69779786eae25f4279d93c763bc0b621696c626e5914d186715b398c5c1fe669",
            "steps": "e002a3b0baec58f7998e38851cd99210c0288e19f6ab03da70defb82d8d51046",
            "counts": "01927245626e8b420ecf225d13ce057ae0ff0b4cc73ab254c674e81423b91b74",
            "hard_sphere": "136f7b7bee3b473fad473e00794b3cb741285cdf45c028791307db5a66cf30cb",
        },
    ),
    # Two d = 31 layers at 12 lambda*: stored and saturated tiers, clusters
    # of constructed spheres, thousands of leftovers.
    "d31-12-lambda-star-2-layers": (
        ["simulate", "--dim", "31", "--lambda", LAMBDA_D31, "--cells-C", "16",
         "--lattice-radius", "6", "--layers", "2", "--seed", "71"],
        {
            "spheres": "b27862d141d99f14e14073d01d765a6ca5f59a91773e20e8a834fea9706dbe69",
            "steps": "5311a11511de9104573cae962f8fae3db1e05c2173a82c46ab3aa0000ae232c0",
            "counts": "d65454a5d2d3efd0e9cbeb93509cfecb90c7b9ef3476cefd1124c112c9436489",
            "hard_sphere": "73a8567de8db6e78f74c4abfd434b5c76370eb0846ecd0e7033318c165fc96ff",
        },
    ),
}


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_json(obj) -> str:
    return sha256_bytes(json.dumps(obj, sort_keys=True).encode())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_simulate_golden_digests(name, tmp_path):
    argv, want = GOLDEN[name]
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    with open(str(out) + ".manifest.json") as fh:
        man = json.load(fh)
    got = {
        "spheres": sha256_bytes((tmp_path / "run.spheres.txt").read_bytes()),
        "steps": sha256_bytes((tmp_path / "run.steps.csv").read_bytes()),
        "counts": sha256_json(man["counts"]),
        "hard_sphere": sha256_json(man["hard_sphere"]),
    }
    assert got == want


# The registry dump of the d45 golden run's only layer.  cmd_simulate seeds
# layer 0 with derive_seed(seed, 11, 0).
D45_REGISTRY_DUMP = "33a31ef624700a8cf5788e111a307a810fa1a6b3ea19b4f2d840f03eed4a8de2"


def test_d45_layer_registry_dump_digest():
    params = ConstructionParams(
        d=45, C=16.0, lam=lambda_star(45), lattice_radius=12.0, max_steps=3
    )
    state, _ = run_layer(params, derive_seed(7, 11, 0), (0,) * 43)
    assert sha256_bytes(state.registry.dump().encode()) == D45_REGISTRY_DUMP


def d3_streamed_queries():
    """A d = 3 registry whose store cap forces streaming: two overlapping
    multi-batch streamed balls (the second filtered by the first), a stored
    ball on their rim, a streamed cell and a streamed intersection pick.
    Returns (registry, pick results, {name: collected PointSet})."""
    reg = RegionRegistry(3, 2.5e5, 2024, store_cap=500.0)
    a = Ball(np.array([0.0, 0.0, 0.0]), 0.5)
    b = Ball(np.array([0.35, 0.1, 0.0]), 0.55)
    c = Cell(np.array([0.2, -0.1]), 0.3, np.array([0.05]), 0.4)
    inter = Intersection(
        (Ball(np.array([0.1, 0.0, 0.0]), 0.45), Ball(np.array([0.3, 0.0, 0.0]), 0.45))
    )
    picks = [
        reg.pick_in_region(a, a, exact_volume(a)),
        reg.pick_in_region(b, b, exact_volume(b)),
    ]
    reg.materialize(Ball(np.array([0.0, 0.55, 0.0]), 0.1))
    picks.append(reg.pick_in_region(c, c, exact_volume(c)))
    picks.append(reg.pick_in_region(inter, Ball(np.array([0.2, 0.0, 0.0]), 0.5), 0.0))
    queries = {
        "ball": Ball(np.array([0.1, 0.0, 0.0]), 0.3),
        "cell": Cell(np.array([0.3, 0.05]), 0.15, np.array([0.0]), 0.2),
        "annulus": Annulus(np.array([0.0, 0.0, 0.0]), 0.2, 0.45),
        "rim": Ball(np.array([0.2, 0.45, -0.1]), 0.25),
        "intersection": inter,
    }
    return reg, picks, {name: reg.collect(q) for name, q in queries.items()}


D3_REPLAY_DIGESTS = {
    "pick0": "781ee561d37a810b34967f323fb8c371e4e4e7bb14695facf9ccb6e00f29903a",
    "pick1": "41977403f7ef9e3e3bf8e92dcb52575855edec8aebbc89fe943de41851bed8ff",
    "pick2": "58b934c7d3fe3905da291d9e01c4dec703861ea8e6f62e1d3389bae2449fa767",
    "pick3": "e143439b0adc8ced861c277ea8650ba5fc6c30493126354ab3191b7bd9dba623",
    "ball": "aee1f5386e4952d8ad5a52b690d6025431346f305c4fcd8c46908a56061fd432",
    "cell": "999a1070553ee28ca6d4d52d285fb2774640c6bed9823b538ed20dec1e8a88d5",
    "annulus": "2fa67df4c4602c06d41b51ecf68234df7e346db0fd24ef8bd72c6895421acb28",
    "rim": "b3416db0f710c527f27202e72c8ede0deaca9802d5ffc9a31b82fc02dee962ad",
    "intersection": "ddee71b5ecd9fd6762f5132df81157bd06b7df1cb10ba6ea31b7960ac93f41f0",
    "dump": "da13be6f067678478aaa725b9c22afd1051ce0b09afe78dc4ca1406a6fdff288",
}


def _pick_digest(res) -> str:
    h = hashlib.sha256(repr((res.status, res.point_id, res.mode, res.n_members)).encode())
    h.update(res.coords.tobytes())
    return h.hexdigest()


def _points_digest(ps) -> str:
    h = hashlib.sha256(repr(ps.ids).encode())
    h.update(ps.coords.tobytes())
    return h.hexdigest()


def test_d3_streamed_replay_digests():
    reg, picks, collected = d3_streamed_queries()
    streamed = [r for r in reg.records if r.mode == "streamed"]
    assert streamed[0].n_candidates > STREAM_BATCH
    assert streamed[1].n_candidates > STREAM_BATCH and streamed[1].filter_ids
    got = {f"pick{i}": _pick_digest(res) for i, res in enumerate(picks)}
    got.update({name: _points_digest(ps) for name, ps in collected.items()})
    got["dump"] = sha256_bytes(reg.dump().encode())
    assert got == D3_REPLAY_DIGESTS
