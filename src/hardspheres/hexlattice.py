"""Decorated hexagonal lattice in the plane.

Sites are the vertices of a hexagonal (honeycomb) lattice with edge length
2, one site at the origin and one edge leaving it along the positive
y-axis.  Bonds are extra vertices at edge midpoints; adjacency joins each
bond to its two endpoint sites, so every site-bond pair sits at distance
exactly 1 and interior sites/bonds have degree 3/2.  Non-adjacent vertices
are never closer than sqrt(3) (attained by two bonds of a common site),
which is what the planar separation 2 * (MU + DELTA + EPS) = 1.72 of the
sphere construction is measured against.

Vertex ids follow the canonical exploration order: exact distance from
the origin, then angle in [0, 2 pi), so "first unexplored vertex in
order" is the lowest id.  A vertex's exact integer key (a, b) is the point
(sqrt(3) a / 2, b / 2), and q = 3 a^2 + b^2 = 4 |x|^2: a vertex is in the
window when its exact distance sqrt(q) / 2 is at most radius + 1e-9.
Earlier versions ordered by float distance rounded to 9 decimals, which
put two of the twelve sites at sqrt(393616) / 2 after sites of larger
angle; so at radius 313.7 or more eight ids now differ from theirs, and
the law of every run is unchanged.
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
    if not 0.0 <= radius < math.inf:
        raise ValueError(f"radius must lie in [0, inf), got {radius}")
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
    # (SQRT3 * a / 2, b / 2), and the first candidate gives a vertex its
    # coordinates.
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

    # q = 4 |x|^2 is exact, so every candidate of a vertex is inside or none
    # is.  Two vertices at one distance are at least 1 apart, so their angles
    # differ by more than 1 / |x|, far more than the float error of
    # np.arctan2: (q, angle) orders the vertices exactly.
    q = (3 * ka**2 + kb**2).ravel()
    inside = np.flatnonzero(np.sqrt(q) / 2.0 <= radius + 1e-9)
    _, first = np.unique(code.ravel()[inside], return_index=True)
    keep = inside[first]  # each vertex's first candidate in row order
    angle = np.arctan2(ys[keep], xs[keep])
    angle[angle < 0.0] += 2.0 * math.pi
    keep = keep[np.lexsort((angle, q[keep]))]
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
