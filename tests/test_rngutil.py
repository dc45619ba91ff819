"""Seed derivation and stream independence."""

import numpy as np

from hardspheres.rngutil import (
    RNG_ALGORITHM,
    derive_seed,
    generator,
    keyed_generator,
    philox_key,
)


def test_generator_deterministic_per_path():
    a = generator(7, 1, 2).random(8)
    b = generator(7, 1, 2).random(8)
    assert np.array_equal(a, b)


def test_paths_give_distinct_streams():
    a = generator(7, 1, 2).random(8)
    c = generator(7, 1, 3).random(8)
    d = generator(7).random(8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    # path order matters
    e = generator(7, 2, 1).random(8)
    assert not np.array_equal(a, e)


def test_derive_seed_frozen():
    assert derive_seed(0, 1, 2) == 9247832928889101276
    assert derive_seed(0, 1, 2) == derive_seed(0, 1, 2)
    assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)
    s = derive_seed(3, 11, 0)
    assert 0 <= s < 2**64


def test_derived_seed_matches_path_generator():
    # seeding a generator with a derived seed differs from extending the
    # path, but both are deterministic; just pin both behaviors
    g1 = generator(derive_seed(5, 9))
    g2 = generator(derive_seed(5, 9))
    assert np.array_equal(g1.random(4), g2.random(4))


def test_algorithm_string():
    assert "Philox" in RNG_ALGORITHM


def test_keyed_generator_draws_the_path_generator_jumped():
    for path, block in (((1, 80), 0), ((2, 5), 3)):
        key = philox_key(7, *path)
        want = generator(7, *path).bit_generator.jumped(block)
        # a partly used buffer of the reused generator must not carry over
        keyed_generator(philox_key(9), 1).random(3)
        got = keyed_generator(key, block).random(5)
        assert np.array_equal(got, np.random.Generator(want).random(5))
