"""``'%.17g' % x`` on whole float64 arrays, byte for byte.

Python formats one float at a time, at about 1 us each; the spheres file of
a d = 31 run holds over a million.  ``g17_text`` gives the same bytes
from numpy for every value with 1e-4 <= |x| < 1e15, where ``%.17g`` is
fixed notation, and formats every other value (+-0, tiny, subnormal, huge,
inf, nan) with ``'%.17g' % x`` itself.

The fast path is exact, not approximate.  With X the decimal exponent of
x and s = 16 - X, ``%.17g`` prints the digits of D = |x| * 10**s rounded
half to even, an integer in [10**16, 10**17).  For s in [0, 22], 10**s is
a binary64 number, and Dekker's two-product (Numer. Math. 18, 1971) gives
|x| * 10**s exactly as p + e with p = fl(|x| * 10**s).  p >= 2**53 is an
even integer, so D = p + rint(e) with numpy's half-to-even rint.  This
rests on two assumptions: IEEE binary64 arithmetic rounding to nearest,
and no fused multiply-add contraction; every numpy ufunc call rounds its
own result, so none of the products below is fused with a sum.

Each value gets WIDTH byte columns laid out as '-0.000' d0 '.' d1 '.' ...
d16 '.', with NUL in the columns its text does not use: the sign, the
'0.000' prefix beyond X = -4, the digits past the last one %g prints, and
the points but the one after dX.  The last column is always NUL, so a
writer may put a separator there.  Deleting the NULs gives the text.
"""

from __future__ import annotations

import numpy as np

WIDTH = 40  # 6 prefix columns, 17 digits each followed by a point
FAST_MIN = 1e-4  # %g prints exponent notation below X = -4
FAST_MAX = 1e15  # keeps s = 16 - X >= 2, well inside the exact powers

_POW10 = np.array([float(10**k) for k in range(23)])  # exact up to 1e22
_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp's constant


def _split(a):
    """a = hi + lo exactly, each half with at most 26 significant bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(a, s):
    """(p, e) with p = fl(a * 10**s) and p + e == a * 10**s exactly."""
    b, b_hi, b_lo = _POW10[s], _POW10_HI[s], _POW10_LO[s]
    p = a * b
    a_hi, a_lo = _split(a)
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def _tables():
    # '-0.000' d0 '.', and the four digits of a chunk, each followed by '.'.
    first = np.empty((10, 8), dtype=np.uint8)
    first[:, :6] = np.frombuffer(b"-0.000", dtype=np.uint8)
    first[:, 6] = np.arange(10) + ord("0")
    first[:, 7] = ord(".")
    c = np.arange(10_000)
    chunk = np.full((10_000, 8), ord("."), dtype=np.uint8)
    for i in range(4):
        chunk[:, 2 * i] = c // 10 ** (3 - i) % 10 + ord("0")
    digits = np.concatenate((chunk, first)).view(np.uint64).ravel()
    # Trailing zero digits of a chunk, 4 for the chunk 0.
    trailing = sum((c % 10 ** (i + 1) == 0).astype(np.intp) for i in range(4))
    # The used columns, 0xff, by (X + 4, digits kept - 1, negative).
    used = np.zeros((20, 17, 2, WIDTH), dtype=np.uint8)
    for X in range(-4, 16):
        for kept in range(1, 18):
            row = used[X + 4, kept - 1]
            row[1, 0] = 0xFF  # '-'
            if X < 0:
                row[:, 1 : 2 - X] = 0xFF  # '0.' and -X - 1 zeros
            row[:, 6 : 6 + 2 * kept : 2] = 0xFF
            if 0 <= X < kept - 1:
                row[:, 7 + 2 * X] = 0xFF  # the point, before a kept digit
    return digits, trailing, used.reshape(-1, WIDTH).view(np.uint64)


# Words of eight columns: _DIGITS[c] for a chunk c, _DIGITS[10_000 + d0]
# for the first eight columns.
_DIGITS, _TRAILING, _USED = _tables()


def _fast(x):
    """Text words, (m, WIDTH // 8), of finite x with
    FAST_MIN <= |x| < FAST_MAX."""
    a = np.abs(x)
    # log10 may put X one off near a power of ten; the exact range test of
    # |x| * 10**s below moves s until D has 17 digits.
    s = 16 - np.floor(np.log10(a)).astype(np.intp)
    p, e = _scaled(a, s)
    for _ in range(3):
        low = (p < 1e16) | ((p == 1e16) & (e < 0))
        high = (p > 1e17) | ((p == 1e17) & (e >= 0))
        redo = np.flatnonzero(low | high)
        if redo.size == 0:
            break
        s[redo] += low[redo].astype(np.intp) - high[redo]
        p[redo], e[redo] = _scaled(a[redo], s[redo])
    else:
        raise AssertionError("decimal exponent did not settle")
    # D < 10**17: rounding never gains a digit, because no binary64 number
    # in the fast range lies within 5e-18 relative below a power of ten
    # (the nearest ones lie 8e-17 or more below; the tests check them all).
    D = p.astype(np.int64) + np.rint(e).astype(np.int64)
    X = 16 - s

    # D = c0 10**16 + c1 10**12 + c2 10**8 + c3 10**4 + c4
    chunks = np.empty((a.shape[0], WIDTH // 8), dtype=np.intp)
    high, low = np.divmod(D, 10**8)
    np.divmod(high, 10**8, out=(chunks[:, 0], high))
    np.divmod(high, 10**4, out=(chunks[:, 1], chunks[:, 2]))
    np.divmod(low, 10**4, out=(chunks[:, 3], chunks[:, 4]))
    # %g cuts trailing zeros from the fraction, and the point with them
    # when no fraction digit is left.  c0 is never 0.
    trailing = _TRAILING[chunks[:, 4]]
    for k in (3, 2, 1):
        zeros = np.flatnonzero(trailing == 4 * (4 - k))  # chunks past k are 0
        trailing[zeros] += _TRAILING[chunks[zeros, k]]
    kept = 17 - np.minimum(trailing, np.where(X >= 0, 16 - X, 17))
    code = ((X + 4) * 17 + kept - 1) * 2 + (x < 0)
    chunks[:, 0] += 10_000
    return np.take(_DIGITS, chunks) & np.take(_USED, code, axis=0)


def _slow(x):
    """'%.17g' % v per distinct bit pattern of x, as _fast's words."""
    bits, inverse = np.unique(x.view(np.uint64), return_inverse=True)
    texts = ["%.17g" % v for v in bits.view(np.float64).tolist()]
    words = np.array(texts, dtype=f"S{WIDTH}").view(np.uint64)
    return words.reshape(-1, WIDTH // 8)[inverse.ravel()]


def g17_text(x) -> np.ndarray:
    """The texts '%.17g' % v of the float64 values x, as uint8 columns of
    shape x.shape + (WIDTH,): each value's text is its columns' bytes with
    the NULs deleted."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    a = np.abs(flat)
    slow = np.flatnonzero(~((a >= FAST_MIN) & (a < FAST_MAX)))
    if slow.size:
        # One fast pass over every value, 1.0 standing in for the few slow
        # ones, whose words are then overwritten.
        stand_in = flat.copy()
        stand_in[slow] = 1.0
        words = _fast(stand_in)
        words[slow] = _slow(flat[slow])
    else:
        words = _fast(flat)
    return words.view(np.uint8).reshape(x.shape + (WIDTH,))
