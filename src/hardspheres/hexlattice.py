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
# A-sublattice translations.
_T1 = (SQRT3, 3.0)
_T2 = (-SQRT3, 3.0)

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

    def is_interior(self, v: int) -> bool:
        """True when every lattice neighbor of v was generated."""
        return self.degree(v) == self.full_degree(v)

    def edges(self):
        for v in range(self.n_vertices):
            for w in self.neighbors[v]:
                if v < w:
                    yield v, w


def _key_of(pos) -> tuple:
    return (round(pos[0], 6), round(pos[1], 6))


def build_lattice(radius: float) -> StarLattice:
    """All decorated-lattice vertices within ``radius`` of the origin, with
    adjacency restricted to the generated set."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    margin = radius + 4.0
    m_max = int(margin / 3.0) + 2
    # u = m - n indexes the x extent, v = m + n the y extent.
    u_max = int(margin / SQRT3) + 2

    a_sites = []
    for u in range(-u_max, u_max + 1):
        for v in range(-m_max, m_max + 1):
            if (u + v) % 2:
                continue
            p = (SQRT3 * u, 3.0 * v)
            if math.hypot(*p) <= margin:
                a_sites.append(p)

    verts = {}  # rounded key -> (pos, kind)

    def consider(pos, kind):
        if math.hypot(*pos) <= radius + 1e-9:
            verts.setdefault(_key_of(pos), (pos, kind))

    edge_keys = []
    for p in a_sites:
        consider(p, KIND_SITE)
        for dx, dy in _A_NEIGHBOR_OFFSETS:
            q = (p[0] + dx, p[1] + dy)
            mid = (p[0] + 0.5 * dx, p[1] + 0.5 * dy)
            consider(q, KIND_SITE)
            consider(mid, KIND_BOND)
            edge_keys.append((_key_of(p), _key_of(mid)))
            edge_keys.append((_key_of(q), _key_of(mid)))

    order = sorted(
        verts.values(), key=lambda item: vertex_sort_key(item[0], item[1])
    )
    ids = {_key_of(pos): i for i, (pos, _) in enumerate(order)}
    n = len(order)
    neigh = [set() for _ in range(n)]
    for ka, kb in edge_keys:
        if ka in ids and kb in ids:
            neigh[ids[ka]].add(ids[kb])
            neigh[ids[kb]].add(ids[ka])

    return StarLattice(
        radius=float(radius),
        positions=np.asarray([pos for pos, _ in order], dtype=float).reshape(n, 2),
        kinds=np.asarray([kind for _, kind in order], dtype=np.int8),
        neighbors=tuple(tuple(sorted(ns)) for ns in neigh),
    )


def min_nonadjacent_distance(lattice: StarLattice, search_radius: float = 2.5) -> float:
    """Smallest distance between two distinct non-adjacent vertices.

    sqrt(3) on any piece containing a full site neighborhood (two bonds of
    one site).
    """
    if lattice.n_vertices < 2:
        raise ValueError("need at least two vertices")
    tree = cKDTree(lattice.positions)
    best = math.inf
    for v, w in tree.query_pairs(search_radius):
        if w in lattice.neighbors[v]:
            continue
        d = math.dist(lattice.positions[v], lattice.positions[w])
        best = min(best, d)
    if math.isinf(best):
        raise ValueError("no non-adjacent pair within the search radius")
    return best
