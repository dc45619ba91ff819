"""Golden digests: `simulate` output bytes pinned for fixed argvs.

Replay within one process is checked elsewhere; these digests also catch a
refactor that changes the realized configuration, the step log, or the
manifest's counts and hard-sphere report between versions.  Together the
two runs reach all three registry tiers (stored, streamed, saturated) and
multi-layer assembly.  A change that alters these bytes on purpose must
re-pin them and say why in CHANGES.md.
"""

import hashlib
import json

import pytest

from hardspheres.cli import EXIT_OK, main

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
