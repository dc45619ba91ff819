"""g17_text against Python's own '%.17g' formatting, value by value."""

import math
import struct
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hardspheres.g17 import FAST_MAX, FAST_MIN, WIDTH, g17_text


def texts(values):
    values = np.asarray(values, dtype=np.float64)
    columns = g17_text(values)
    assert columns.shape == values.shape + (WIDTH,)
    assert not columns[..., -1].any()  # free for a separator
    return [row.tobytes().replace(b"\0", b"").decode() for row in columns.reshape(-1, WIDTH)]


def assert_matches(values):
    values = np.asarray(values, dtype=np.float64).ravel()
    want = ["%.17g" % v for v in values.tolist()]
    got = texts(values)
    assert [(v, g) for v, g, w in zip(values.tolist(), got, want) if g != w] == []


def neighbours(x, steps=4):
    out = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(steps):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_random_bit_patterns(words):
    assert_matches(np.array(words, dtype=np.uint64).view(np.float64))


def test_random_values_over_the_fast_range():
    rng = np.random.default_rng(17)
    mags = 10.0 ** rng.uniform(math.log10(FAST_MIN), math.log10(FAST_MAX), 20_000)
    values = mags * rng.choice([-1.0, 1.0], mags.size)
    # short decimals, so that %g cuts trailing zeros and points
    rounded = [round(float(v), int(k)) for v, k in zip(values[:5000], rng.integers(0, 12, 5000))]
    assert_matches(np.concatenate((values, rounded)))


def test_neighbours_of_powers_of_ten_and_of_the_fast_path_limits():
    # Below a power of ten lie the only values whose 17 digits could round
    # up to a new leading digit.
    xs = []
    for k in range(-6, 18):
        xs += neighbours(float(f"1e{k}"))
    xs += neighbours(FAST_MIN, 8) + neighbours(FAST_MAX, 8)
    assert_matches(xs + [-x for x in xs])


def ties(X, count, rng):
    """Values with exactly 18 significant digits, the last a 5, at decimal
    exponent X: odd m / 2**k has k decimals ending in 5, and k = 17 - X
    makes 18 digits.  %.17g must round them half to even."""
    k = 17 - X
    lo = math.ceil(Fraction(10) ** X * 2**k)
    hi = math.floor(Fraction(10) ** (X + 1) * 2**k)
    out = []
    while len(out) < count:
        m = int(rng.integers(lo, hi)) | 1
        x = m / 2**k  # exact: m < 2**53
        assert m < 2**53 and x * 2**k == m
        out.append(x)
    return out


def test_round_half_even_ties_at_the_eighteenth_digit():
    assert texts([123456789012345.125, 123456789012345.375]) == [
        "123456789012345.12",
        "123456789012345.38",
    ]
    rng = np.random.default_rng(5)
    xs = [x for X in range(-4, 15) for x in ties(X, 40, rng)]
    assert len({("%.17g" % x)[-1] for x in xs}) > 1
    assert_matches(xs + [-x for x in xs])


def test_values_outside_the_fast_path():
    tiny = struct.unpack("<d", struct.pack("<Q", 1))[0]
    xs = [
        0.0, -0.0, tiny, -tiny, 2.2250738585072009e-308, 2.2250738585072014e-308,
        math.inf, -math.inf, math.nan, -math.nan, 1e-300, 9.999999999999999e-5,
        1e15, 2.0**53, 1e16, 1e17, 1.7976931348623157e308,
    ]
    assert_matches(xs + [-x for x in xs])
    assert texts([-0.0, math.nan])[0] == "-0"


def test_slow_values_scattered_through_a_fast_block():
    # g17_text formats the whole block on the fast path, 1.0 standing in
    # for the slow values, then overwrites their words.
    rng = np.random.default_rng(29)
    mags = 10.0 ** rng.uniform(math.log10(FAST_MIN), math.log10(FAST_MAX), 24_000)
    values = mags * rng.choice([-1.0, 1.0], mags.size)
    tiny = struct.unpack("<d", struct.pack("<Q", 3))[0]
    slow = [0.0, -0.0, tiny, -2.2250738585072009e-308, math.inf, -math.inf, math.nan, 9.99e-5, 1e15]
    hit = rng.choice(values.size, size=24, replace=False)  # 0.1%
    values[hit] = np.resize(slow, hit.size)
    assert_matches(values)


def test_shapes_and_mixed_blocks():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(7, 5)) * 10.0 ** rng.integers(-8, 20, size=(7, 5))
    values[2, 3] = 0.0
    columns = g17_text(values)
    assert columns.shape == (7, 5, WIDTH)
    for index in np.ndindex(7, 5):
        text = columns[index].tobytes().replace(b"\0", b"").decode()
        assert text == "%.17g" % values[index]
    assert g17_text(np.empty(0)).shape == (0, WIDTH)
