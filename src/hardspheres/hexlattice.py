"""Decorated hexagonal lattice in the plane.

Sites are the vertices of a hexagonal (honeycomb) lattice with edge length
2, one site at the origin and one edge leaving it along the positive
y-axis.  Bonds are extra vertices at edge midpoints; adjacency joins each
bond to its two endpoint sites, so every site-bond pair sits at distance
exactly 1 and interior sites/bonds have degree 3/2.  Non-adjacent vertices
are never closer than sqrt(3) (attained by two bonds of a common site),
which is what the planar separation 2 * (MU + DELTA + EPS) = 1.72 of the
sphere construction is measured against.

Vertex ids are assigned along the canonical exploration order: distance
from the origin (rounded to 1e-9), then angle in [0, 2 pi), then sites
before bonds.  "First unexplored vertex in order" is then just the lowest
id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

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
MIN_NONADJACENT_DISTANCE = SQRT3


def vertex_sort_key(position, kind: int) -> tuple:
    """Canonical well-ordering key: (rounded distance, rounded angle, kind)."""
    x, y = float(position[0]), float(position[1])
    dist = round(math.hypot(x, y), 9)
    angle = math.atan2(y, x)
    if angle < 0.0:
        angle += 2.0 * math.pi
    return (dist, round(angle, 9), kind)


@dataclass(frozen=True)
class StarLattice:
    """Finite piece of the decorated lattice within ``radius`` of the origin.

    positions[id] is the planar coordinate, kinds[id] is KIND_SITE or
    KIND_BOND, neighbors[id] the ids of adjacent vertices (sorted).  Ids are
    already in canonical order; id 0 is the origin site whenever radius >= 0.
    """

    radius: float
    positions: np.ndarray
    kinds: np.ndarray
    neighbors: tuple

    @property
    def n_vertices(self) -> int:
        return self.positions.shape[0]

    def kind_name(self, v: int) -> str:
        return KIND_NAMES[int(self.kinds[v])]

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

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
    near = np.asarray(list(map(math.hypot, ax.tolist(), ay.tolist()))) <= margin
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
    # One code per key: a + 2 u_max + 2 and b + 6 m_max + 4 lie in
    # [0, 4 u_max + 4] and [0, 12 m_max + 8].
    code = (np.stack(ka, axis=1) + (2 * u_max + 2)) * (12 * m_max + 9) + (
        np.stack(kb, axis=1) + (6 * m_max + 4)
    )

    dist = np.asarray(list(map(math.hypot, xs.tolist(), ys.tolist())))
    inside = np.flatnonzero(dist <= radius + 1e-9)
    _, first = np.unique(code.ravel()[inside], return_index=True)
    keep = inside[np.sort(first)]  # first candidate per vertex, in row order
    sort_keys = list(
        map(vertex_sort_key, zip(xs[keep].tolist(), ys[keep].tolist()), kind[keep].tolist())
    )
    keep = keep[sorted(range(keep.shape[0]), key=sort_keys.__getitem__)]
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
        neighbors=neighbor_tuples(n, ids[:, 0], ids[:, 1]),
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


def min_nonadjacent_distance(lattice: StarLattice) -> float:
    """Smallest distance between two distinct non-adjacent vertices, among
    pairs at most 2.5 apart.

    sqrt(3) on any piece containing a full site neighborhood (two bonds of
    one site).
    """
    if lattice.n_vertices < 2:
        raise ValueError("need at least two vertices")
    tree = cKDTree(lattice.positions)
    best = math.inf
    for v, w in tree.query_pairs(2.5):
        if w in lattice.neighbors[v]:
            continue
        d = math.dist(lattice.positions[v], lattice.positions[w])
        best = min(best, d)
    if math.isinf(best):
        raise ValueError("no non-adjacent pair within distance 2.5")
    return best
