"""Golden digests: `simulate` output bytes pinned for fixed argvs.

Replay within one process is checked elsewhere; these digests also catch a
refactor that changes the realized configuration, the step log, or the
manifest's counts and hard-sphere report between versions.  The d45 and
d31 runs reach the stored and saturated (sea pick) tiers and multi-layer
assembly; no simulate argv streams any more, since a step heavy enough to
stream is a sea pick.  The d = 100 run makes only sea picks, one beside
another; two d31 runs at eta = 0.1 pin the positive-radii post-pass that
grows leftovers, one of them on layers that grow to the lattice rim.  Two
more digests pin what the registry itself
realizes: the ``registry_dump`` of the d = 45 layer, and the ids and coordinates
that a small d = 3 registry returns from overlapping streamed records,
where every later query is answered by replaying earlier streams; those d
= 3 digests carry the stream tier's coverage.  The planar side is pinned
too: the ``perc2d`` theta block, a coupled theta estimate at three
densities, and the positions, kinds and neighbor tuples of
``build_lattice`` at seven radii (vertex ids fix ``simulate``'s
exploration order).  The ``verify sampler`` checks pin the lazy-vs-oracle
battery, whose streams are all single-batch.  A change that alters these
bytes on purpose must re-pin them and say why in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from hardspheres.bounds import lambda_star
from hardspheres.cli import EXIT_OK, main
from hardspheres.construction import ConstructionParams, run_layer
from hardspheres.geometry import Annulus, Ball, Cell, Intersection, exact_volume
from hardspheres.hexlattice import build_lattice
from hardspheres.percolation2d import estimate_theta_coupled
from hardspheres.poisson import STREAM_BATCH, RegionRegistry
from hardspheres.rngutil import derive_seed
from registry_snapshot import registry_dump

# 12 * lambda_star(31), as repr, so the argv does not depend on bounds.py.
LAMBDA_D31 = "7244305.109674826"

GOLDEN = {
    # The benchmark's d = 45 layer at lambda*, cut to three steps.
    "d45-lambda-star-3-steps": (
        ["simulate", "--dim", "45", "--lambda", "auto", "--cells-C", "16",
         "--lattice-radius", "12", "--max-steps", "3", "--seed", "7"],
        {
            "spheres": "5ca67d2214f84d81662c73a5ddf21d657169d8a337374cfffd9605e659ea022a",
            "steps": "f3a7e71c2c6159de817514a3ae02452dbf8baa789127a4fb82ebdbfaa7b21114",
            "counts": "5b0f54087ced58776dc8a067abf377f41e5a1d963e59f112a3ab69854ec7a2d8",
            "hard_sphere": "813d4ccf1e9038c7861ff8df65c00b721ea67b2d9b966773ea1390460ea5cadd",
        },
    ),
    # Two d = 31 layers at 12 lambda*: stored and saturated tiers, clusters
    # of constructed spheres, thousands of leftovers.
    "d31-12-lambda-star-2-layers": (
        ["simulate", "--dim", "31", "--lambda", LAMBDA_D31, "--cells-C", "16",
         "--lattice-radius", "6", "--layers", "2", "--seed", "71"],
        {
            "spheres": "a3f1536a12a7b94fea88d8a1572707335e0ae8140d83103e6a970a1af3f5230a",
            "steps": "6bc4fbb7fbb4a8afe21159219c30647f8aeca54617dee8c33ad6d397d86eb271",
            "counts": "7cd8548892e73ef17112d968f0381c80bdc7d6cfa67fcd6674a9b13b48424dad",
            "hard_sphere": "1e06ae1fd248fc36c3f962cdce3b5150f30454ff2d2f3bdf2bd055f303f2d3b2",
        },
    ),
    # The same two layers at program seed 2 with eta = 0.1: the positive-
    # radii post-pass grows 4 leftovers and marks 224 window-truncated; both
    # layers stop by rule iii.
    "d31-12-lambda-star-2-layers-eta": (
        ["simulate", "--dim", "31", "--lambda", LAMBDA_D31, "--cells-C", "16",
         "--lattice-radius", "6", "--layers", "2", "--seed", "2", "--eta", "0.1"],
        {
            "spheres": "ffe0f17b582422223be02dd12c255ffacf5da0c0218c9916a71905a13a7dfec1",
            "steps": "0ccb1a9821173a7bb31e550dbad5cb193b18bebb08a97a2123f4a700171adec6",
            "counts": "d8f4af30b52ad53ff35c09453a3aded3331e7682904e3e44b8a0fbf48f027a47",
            "hard_sphere": "c791d3fba045aea284ee7638158ab613ebb338bcdbd04cbe55e086d6f49e93dc",
        },
    ),
    # Two d = 31 layers at lambda*(31) (as repr) with eta = 0.1, whose
    # layers both grow to the lattice rim: 31 steps, 21 constructed spheres,
    # and the post-pass grows 9 leftovers beside them.  Its seed is the
    # smallest seed >= 0 at which both layers stop at lattice-truncation.
    # At 12 lambda* the isolation balls of eta = 0.1 are almost never
    # empty, so no seed in 0-59 gets past 13 steps there.
    "d31-lambda-star-2-layers-eta": (
        ["simulate", "--dim", "31", "--lambda", "603692.0924729021", "--cells-C", "16",
         "--lattice-radius", "6", "--layers", "2", "--seed", "0", "--eta", "0.1"],
        {
            "spheres": "7d0bbb3a9931b0f1714125bce1c808b664918971eccceea4dd642506a9cadc81",
            "steps": "a90b9a68ecf49d66e20aad52c014936fabb6121788c6f67bccdfc4e6f17d1b44",
            "counts": "79978579f32793dee923f37e5b8f819beecc86e61336697163811188ae75bfc8",
            "hard_sphere": "6b30cb7bd55dee5c86a8f4e0fb6b3e1038cbcf34aff52134300d998316385cbb",
        },
    ),
    # d = 100 at lambda*, cut to twelve steps: every pick is saturated, and
    # each later zone's bounding ball meets the earlier zones' bounding
    # balls while the cells lie apart in the plane.
    "d100-lambda-star-12-steps": (
        ["simulate", "--dim", "100", "--lambda", "auto", "--cells-C", "32",
         "--lattice-radius", "12", "--max-steps", "12", "--seed", "7"],
        {
            "spheres": "72a4d61881711faae21d7cd15d580977bbf562ddb3c961f373ba069bb80ba2cf",
            "steps": "7c3d24304f33083dfc7134f81364216caf9561dd1ce3f998a5bd1ce3bb3f5b89",
            "counts": "0ad78279ad02a7e1eaa8d322cece518c543eab340c2efaf29570d0f9208988f7",
            "hard_sphere": "37ba5ea7f479cf710786eac7e2311c5236927a738a45204b3b3dd0d31aed9ded",
        },
    ),
}


# The eta entries' post-pass annotations and the stop of both their layers;
# every other entry annotates nothing.
ETA_RUNS = {
    "d31-12-lambda-star-2-layers-eta": (
        {"leftovers_grown": 4, "leftovers_window_truncated": 224}, "rule-iii"
    ),
    "d31-lambda-star-2-layers-eta": (
        {"leftovers_grown": 9, "leftovers_window_truncated": 858}, "lattice-truncation"
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
    annotations, stops = ETA_RUNS.get(name, ({}, None))
    assert man["annotations"] == annotations
    if stops is not None:
        assert set(man["stop_reasons"].values()) == {stops}
    if name.startswith("d100"):
        # every d = 100 step has m_lo >= SATURATION_MIN_MASS, so every pick is a sea pick
        assert [(m["stored_picks"], m["streamed_picks"]) for m in man["registry_metrics"]] == [(0, 0)]


# The registry dump of the d45 golden run's only layer.  cmd_simulate seeds
# layer 0 with derive_seed(seed, 11, 0).
D45_REGISTRY_DUMP = "d62e340231848e30f4cd2dcc11f0cd99bfe089baaeefbc736ce2e6086dc16e5c"


def test_d45_layer_registry_dump_digest():
    params = ConstructionParams(
        d=45, C=16.0, lam=lambda_star(45), lattice_radius=12.0, max_steps=3
    )
    state = run_layer(params, derive_seed(7, 11, 0), (0,) * 43)
    assert sha256_bytes(registry_dump(state.registry).encode()) == D45_REGISTRY_DUMP


def d3_streamed_queries():
    """A d = 3 registry whose store cap forces streaming (each pick passes
    vol_lower = 0.0, so that none is a sea pick): two overlapping
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
        reg.pick_in_region(a, a, 0.0),
        reg.pick_in_region(b, b, 0.0),
    ]
    reg.materialize(Ball(np.array([0.0, 0.55, 0.0]), 0.1))
    picks.append(reg.pick_in_region(c, c, 0.0))
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
    "pick0": "fe2a9e15a784f53d11374667339b0f32b5b81d7e6ffa72a4ea42431c4f9eddae",
    "pick1": "9d3c73f583745d57c9441478f33d5e8de6db57f5b0b8de13abd5a19cb0d7ac8e",
    "pick2": "0c9fc452f9faac9761b882e32f9dbe7c5c2f067d324dbe3e8b429c72da57801a",
    "pick3": "3a7329580506ed793df61e16e5510370e4bb83994c90dbedf7f49e62f532a853",
    "ball": "19030e491ed1efa436fa614b7f32b01ffe31cb4ada7dffd8578f39b2044dc1ba",
    "cell": "b6af3d8fafa09a1d355433167b77e772002db861ba9efc8ad8ddea2fe667b471",
    "annulus": "09b37094f668fbf50e4b359173b852472dd3c3861908cee04b24160b17005479",
    "rim": "d070d1357f073aa5d20b00bdf8e01683ed574249bfc600bcce85059f8047b184",
    "intersection": "b576626b43a46f3873babf40142cbdb2220ff51595cb53fa6a6614511ec2b773",
    "dump": "f39e6890b54c4eb3193cf1d224c516385f55d20393fc1716f1a1383481c15bb4",
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
    got["dump"] = sha256_bytes(registry_dump(reg).encode())
    assert got == D3_REPLAY_DIGESTS


# The benchmark's verify_sampler argv at program seed 61.
VERIFY_SAMPLER_CHECKS = "100854caec47ea0c481b1372ca24d1f968b561d12a9bf1fa18fe2965512f8a07"


def test_verify_sampler_checks_digest(tmp_path):
    out = tmp_path / "verify.json"
    argv = ["verify", "sampler", "--budget", "500", "--seed", "61", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert sha256_json(json.loads(out.read_text())["checks"]) == VERIFY_SAMPLER_CHECKS


# The benchmark's perc2d_r100 argv at program seed 80.
PERC2D_THETA = "a1c3ddde0686bf8f90177f3aa3b0a891f27de79425f6e79cf6c2da91bcd20fda"


def test_perc2d_theta_digest(tmp_path):
    out = tmp_path / "perc.json"
    argv = ["perc2d", "--p", "0.7957", "--radius", "100", "--trials", "250",
            "--seed", "80", "--out", str(out)]
    assert main(argv) == EXIT_OK
    theta = json.loads(out.read_text())["theta"]
    assert theta["theta_hat"] == 0.768
    assert sha256_json(theta) == PERC2D_THETA


def test_coupled_theta_digest():
    ests = estimate_theta_coupled([0.6, 0.7, 0.7957], 30, 200, 3)
    assert [e.reached for e in ests] == [29, 120, 152]
    assert sha256_json([e.to_dict() for e in ests]) == (
        "e8ae2a0d95e56cb54ced9220121b72cec41d9d47930eb3fe9c2d372627b97b31"
    )


# radius -> (n_vertices, positions.tobytes(), kinds.tobytes(), repr(neighbors))
LATTICE_DIGESTS = {
    0: (1,
        "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "6af22f1bc2d94295cb210c6a0734b0d7459c92909665da49d949785ecea55bf8"),
    1: (4,
        "379225fcfb1bfafb96702512614f137f4fac952683f9fefdf55190c1993dc9b5",
        "cbd95ae5ef8810691e3fc7efb7c39ef9ffb661135d858aa0ccc81fc74a0160ae",
        "e4c30d43814603c574c4d236799ed1fd0ebfd0a11fb85c255f0534ef5c9a7f50"),
    6: (55,
        "2785e63abf77d753820cbc57d5c66cd91edd2c866ef0c30130f1c3589044321f",
        "dd9f026992ca70681a4d315be3db9b76d29ca6bfef29699ab966b0798fe6f55b",
        "2fe02567b7d8f030ccdf0deda6f8281fa61d5a5ee75a29a79f35b8d78686acf1"),
    12: (217,
         "6d56c2d787b39b2c554f0044bed15893b6b4cdc0c0d9f9a7805747de712a348c",
         "b63cb63f4c14a929bbcedc6a561949d3b0cc907012f18bc93ddefdd1d3c1208b",
         "e007c3104ba52500e9c745152b521c0134e73d993076e7570900d8f2f091fa14"),
    100: (15130,
          "5f003a3e60f8b1a44f8b81a2ef3e22283904c1c7fea851b6b3b544f08957519c",
          "db87eae9aa2402a8a861f3c0b932207fbf511f187a1178a60990441491611bcc",
          "b1ae52f69c2b55c361a259daeb1f6908ad15089e1bbd37d204a441440a802d01"),
    200: (60445,
          "934c45e2c7fb84517d06f5e1416898c3242aae370598c4a0192d195fa3b175a8",
          "e04d6244b9cd064b5cdc0d6a122c0d075cdad2265c84b10f93bbabcf257732a3",
          "d01eeb2a1f8c345a33ecf25d346054612912a6e0eb36316d693728a78af0f835"),
    # MAX_WINDOW_RADIUS: the only pinned radius holding the sites at
    # sqrt(393616) / 2 = 313.694..., which are ordered by angle alone.
    400: (241828,
          "008d41c6f9a73dce9af3b526ac82222631754753a6d44f08a8c3dc15ab82f4f6",
          "fdd032460c3a2b801fab71fe81444cc2f003bd70233f4f0711e7229fddd7a030",
          "39fccd876069d9a982b3f050c2a9231b2cdce07f0d30e0a5dedba4d6f8c3aa85"),
}


@pytest.mark.parametrize("radius", sorted(LATTICE_DIGESTS))
def test_lattice_digests(radius):
    lat = build_lattice(radius)
    got = (
        lat.n_vertices,
        sha256_bytes(lat.positions.tobytes()),
        sha256_bytes(lat.kinds.tobytes()),
        sha256_bytes(repr(lat.neighbors).encode()),
    )
    assert got == LATTICE_DIGESTS[radius]
