"""Seeding policy.

All randomness comes from numpy's Philox counter-based generator, keyed by
a SeedSequence built from a user seed plus an integer derivation path.
Distinct paths give independent streams, replaying a (seed, path) pair is
bit-reproducible across runs and platforms, and the algorithm identifier
below is echoed into every run manifest.
"""

from __future__ import annotations

import threading

import numpy as np

RNG_ALGORITHM = "numpy.random.Philox (philox4x64), SeedSequence-derived streams"


def _seed_sequence(seed: int, path: tuple) -> np.random.SeedSequence:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))


def generator(seed: int, *path: int) -> np.random.Generator:
    """Independent Philox stream for (seed, path)."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, path)))


def philox_key(seed: int, *path: int) -> np.ndarray:
    """The Philox key of generator(seed, *path), without building it."""
    return _seed_sequence(seed, path).generate_state(2, np.uint64)


_KEYED = threading.local()  # each thread's reused generator for keyed_generator


def keyed_generator(key: np.ndarray, block: int = 0) -> np.random.Generator:
    """The calling thread's one reused Philox generator, set to ``key``
    with the counter at ``block``: it draws what a generator with that key
    jumped ``block`` times draws (generator(seed, *path) for the key
    philox_key(seed, *path) and block 0).  Its state holds until the
    thread's next call."""
    rng = getattr(_KEYED, "rng", None)
    if rng is None:
        rng = _KEYED.rng = np.random.Generator(np.random.Philox(0))
        # a fresh state (counter 0, empty buffer) that each call edits:
        # setting it copies the values
        _KEYED.state = rng.bit_generator.state
    state = _KEYED.state
    state["state"]["key"] = key
    state["state"]["counter"][2] = block
    rng.bit_generator.state = state
    return rng


def derive_seed(seed: int, *path: int) -> int:
    """Stable child seed for (seed, path); use for nested components that
    take a seed of their own (per-layer registries, per-trial runs)."""
    return int(_seed_sequence(seed, path).generate_state(1, np.uint64)[0])
