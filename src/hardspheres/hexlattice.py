"""Decorated hexagonal lattice in the plane.

Sites are the vertices of a hexagonal (honeycomb) lattice with edge length
2, one site at the origin and one edge leaving it along the positive
y-axis.  Bonds are extra vertices at edge midpoints; adjacency joins each
bond to its two endpoint sites, so every site-bond pair sits at distance
exactly 1 and interior sites/bonds have degree 3/2.  Non-adjacent vertices
are never closer than sqrt(3) (attained by two bonds of a common site),
which is what the planar separation 2 * (MU + DELTA + EPS) = 1.72 of the
sphere construction is measured against.

Vertex ids are assigned along the canonical exploration order that
``vertex_sort_key`` defines: distance from the origin (rounded to 1e-9),
then angle in [0, 2 pi), then sites before bonds.  "First unexplored vertex
in order" is then just the lowest id.  ``build_lattice`` computes that
order in numpy from each vertex's exact integer key (a, b), the point
(sqrt(3) a / 2, b / 2): q = 3 a^2 + b^2 = 4 |x|^2 orders the distances
exactly.  The rounding rule is kept: where a distance lies within float
error of a 9-decimal rounding midpoint, the float distances of vertices at
it can round apart, and those vertices are ordered by their rounded
distance before their angle.  Within radius 400 that happens at one
distance, 313.6941185295.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

KIND_SITE = 0
KIND_BOND = 1
KIND_NAMES = {KIND_SITE: "site", KIND_BOND: "bond"}

SQRT3 = math.sqrt(3.0)

# Sublattice A contains the origin; its neighbors (all in sublattice B)
# sit at these offsets.  B-site offsets are the negatives.
_A_NEIGHBOR_OFFSETS = ((0.0, 2.0), (SQRT3, -1.0), (-SQRT3, -1.0))
# The same offsets as exact integer keys (a, b) of (SQRT3 * a / 2, b / 2).
_A_NEIGHBOR_KEYS = ((0, 4), (2, -2), (-2, -2))

SITE_DEGREE = 3
BOND_DEGREE = 2

# A float coordinate of a vertex at distance D from the origin, and
# math.hypot of it, are off by less than 6e-16 D + 6e-16: SQRT3 * u and the
# offset add three roundings, hypot one ulp (measured: below 2.9e-16 D on
# the outermost candidates at radius 400).  Decisions within
# _FLOAT_BAND * D of a threshold, five times that bound for D >= 0.5, are
# made with the per-vertex expressions.
_FLOAT_BAND = 1e-14


def vertex_sort_key(position, kind: int) -> tuple:
    """Canonical well-ordering key: (rounded distance, rounded angle, kind)."""
    x, y = float(position[0]), float(position[1])
    dist = round(math.hypot(x, y), 9)
    angle = math.atan2(y, x)
    if angle < 0.0:
        angle += 2.0 * math.pi
    return (dist, round(angle, 9), kind)


def _canonical_order(x, y, a, b) -> np.ndarray:
    """Indices that sort the vertices (x, y) ~ (SQRT3 * a / 2, b / 2) by
    ``vertex_sort_key``, from numpy keys.

    q = 3 a^2 + b^2 = 4 |x|^2 is exact, and distinct q lie more than
    1 / (8 |x|) apart in distance, far more than the 1e-9 rounding step, so
    q orders the rounded distances.  Vertices of one q share their rounded
    distance unless D = sqrt(q) / 2 lies within _FLOAT_BAND * D of a
    rounding midpoint; only those get the rounded distance itself as a
    second key.
    Two vertices at one distance are at least 1 apart, so their angles
    differ by more than 1 / |x|, far more than 1e-9: np.arctan2 orders them
    as the rounded angle does, and kind never decides.
    """
    q = 3 * a.astype(np.int64) ** 2 + b.astype(np.int64) ** 2
    exact = np.sqrt(q) / 2.0
    scaled = exact * 1e9
    to_midpoint = np.abs(scaled - np.floor(scaled) - 0.5) * 1e-9
    ties = np.flatnonzero(to_midpoint <= _FLOAT_BAND * exact)
    rounded = np.zeros(q.shape[0])
    rounded[ties] = [
        vertex_sort_key(p, KIND_SITE)[0] for p in zip(x[ties].tolist(), y[ties].tolist())
    ]
    angle = np.arctan2(y, x)
    angle[angle < 0.0] += 2.0 * math.pi
    return np.lexsort((angle, rounded, q))


@dataclass(frozen=True)
class StarLattice:
    """Finite piece of the decorated lattice within ``radius`` of the origin.

    positions[id] is the planar coordinate, kinds[id] is KIND_SITE or
    KIND_BOND, edges[k] = (site, bond) the ids of one adjacent pair, and
    neighbors[id] the ids of adjacent vertices (sorted).  Ids are already in
    canonical order; id 0 is the origin site whenever radius >= 0.
    """

    radius: float
    positions: np.ndarray
    kinds: np.ndarray
    edges: np.ndarray

    @property
    def n_vertices(self) -> int:
        return self.positions.shape[0]

    @functools.cached_property
    def neighbors(self) -> tuple:
        """Built on first use: the site graph needs only the edges."""
        return neighbor_tuples(self.n_vertices, self.edges[:, 0], self.edges[:, 1])

    def kind_name(self, v: int) -> str:
        return KIND_NAMES[int(self.kinds[v])]

    def full_degree(self, v: int) -> int:
        return SITE_DEGREE if self.kinds[v] == KIND_SITE else BOND_DEGREE


def build_lattice(radius: float) -> StarLattice:
    """All decorated-lattice vertices within ``radius`` of the origin, with
    adjacency restricted to the generated set."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    margin = radius + 4.0
    m_max = int(margin / 3.0) + 2
    # u = m - n indexes the x extent, v = m + n the y extent.
    u_max = int(margin / SQRT3) + 2
    u, v = np.meshgrid(
        np.arange(-u_max, u_max + 1), np.arange(-m_max, m_max + 1), indexing="ij"
    )
    even = (u + v) % 2 == 0
    u, v = u[even], v[even]
    ax, ay = SQRT3 * u, 3.0 * v
    # Every candidate of an A-site near the margin lies at least 2 beyond the
    # radius, so whether np.hypot keeps that A-site changes no vertex.
    near = np.hypot(ax, ay) <= margin
    u, v, ax, ay = u[near], v[near], ax[near], ay[near]

    # Seven candidates per A-site, one row each: the site, then per offset
    # its B-site neighbor and their midpoint.  The same vertex comes from
    # several rows with coordinates that may differ in the last bit, so
    # vertices are told apart by exact integer keys (a, b), the point
    # (SQRT3 * a / 2, b / 2), and the first candidate inside the radius
    # gives a vertex its coordinates.
    xs, ys, ka, kb = [ax], [ay], [2 * u], [6 * v]
    row_kinds = [KIND_SITE]
    for (dx, dy), (da, db) in zip(_A_NEIGHBOR_OFFSETS, _A_NEIGHBOR_KEYS):
        xs += [ax + dx, ax + 0.5 * dx]
        ys += [ay + dy, ay + 0.5 * dy]
        ka += [2 * u + da, 2 * u + da // 2]
        kb += [6 * v + db, 6 * v + db // 2]
        row_kinds += [KIND_SITE, KIND_BOND]
    xs, ys = np.stack(xs, axis=1).ravel(), np.stack(ys, axis=1).ravel()
    kind = np.tile(np.asarray(row_kinds, dtype=np.int8), ax.shape[0])
    ka, kb = np.stack(ka, axis=1), np.stack(kb, axis=1)
    # One code per key: a + 2 u_max + 2 and b + 6 m_max + 4 lie in
    # [0, 4 u_max + 4] and [0, 12 m_max + 8].
    code = (ka + (2 * u_max + 2)) * (12 * m_max + 9) + (kb + (6 * m_max + 4))

    # A candidate is inside when math.hypot(x, y) <= radius + 1e-9.  np.hypot
    # is within an ulp of math.hypot, so it decides every candidate outside
    # the band, and math.hypot the few inside it.
    cutoff = radius + 1e-9
    dist = np.hypot(xs, ys)
    close = np.flatnonzero(np.abs(dist - cutoff) <= _FLOAT_BAND * cutoff)
    dist[close] = list(map(math.hypot, xs[close].tolist(), ys[close].tolist()))
    inside = np.flatnonzero(dist <= cutoff)
    _, first = np.unique(code.ravel()[inside], return_index=True)
    keep = inside[np.sort(first)]  # first candidate per vertex, in row order
    keep = keep[_canonical_order(xs[keep], ys[keep], ka.ravel()[keep], kb.ravel()[keep])]
    n = keep.shape[0]

    # Edges join the A-site (column 0) and the B-site (column 2j + 1) to the
    # midpoint in column 2j + 2; one is kept when both ends are vertices.
    vertex_code = code.ravel()[keep]
    by_code = np.argsort(vertex_code)
    sorted_code = vertex_code[by_code]
    ends = np.concatenate(
        [code[:, [end, 2 * j + 2]] for j in range(3) for end in (0, 2 * j + 1)]
    )
    slot = np.minimum(np.searchsorted(sorted_code, ends), n - 1)
    present = np.all(sorted_code[slot] == ends, axis=1)
    ids = by_code[slot[present]]

    return StarLattice(
        radius=float(radius),
        positions=np.stack((xs[keep], ys[keep]), axis=1),
        kinds=kind[keep],
        edges=ids,
    )


def neighbor_tuples(n: int, a: np.ndarray, b: np.ndarray) -> tuple:
    """Sorted neighbor ids, as tuples of ints, of the undirected graph on
    0..n-1 with edges (a[k], b[k]); repeated edges count once."""
    pairs = np.sort(
        np.concatenate((a, b)).astype(np.int64) * n + np.concatenate((b, a))
    )
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]  # codes are >= 0
    src, dst = np.divmod(pairs, n)
    starts = np.searchsorted(src, np.arange(n + 1)).tolist()
    dst = dst.tolist()
    return tuple(tuple(dst[starts[i] : starts[i + 1]]) for i in range(n))
