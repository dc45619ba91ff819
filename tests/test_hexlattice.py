"""Decorated hexagonal lattice: degrees, spacing, canonical order."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial import cKDTree

from hardspheres.hexlattice import (
    KIND_BOND,
    KIND_SITE,
    StarLattice,
    build_lattice,
)

SQRT3 = math.sqrt(3.0)


def exact_key(position) -> tuple:
    """(q, angle) of a vertex: q = 3 a^2 + b^2 = 4 |x|^2 from the integer key
    (a, b) recovered from the coordinates (sqrt(3) a / 2, b / 2), and the
    angle in [0, 2 pi)."""
    x, y = position
    a, b = round(2.0 * x / SQRT3), round(2.0 * y)
    angle = math.atan2(y, x)
    if angle < 0.0:
        angle += 2.0 * math.pi
    return (3 * a * a + b * b, angle)


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


def test_origin_is_site_zero():
    lat = build_lattice(6.0)
    assert lat.kinds[0] == KIND_SITE
    assert np.allclose(lat.positions[0], [0.0, 0.0])
    assert lat.n_vertices > 50


def test_kinds_partition_and_degrees():
    lat = build_lattice(8.0)
    sites = np.flatnonzero(lat.kinds == KIND_SITE)
    bonds = np.flatnonzero(lat.kinds == KIND_BOND)
    assert sites.size + bonds.size == lat.n_vertices
    for v in range(lat.n_vertices):
        full = 3 if lat.kinds[v] == KIND_SITE else 2
        assert lat.full_degree(v) == full
        assert len(lat.neighbors[v]) <= full
    # interior fractions are high once the window dwarfs the unit step
    interior = sum(
        len(lat.neighbors[v]) == lat.full_degree(v) for v in range(lat.n_vertices)
    )
    assert interior / lat.n_vertices > 0.5


def test_bipartite_adjacency():
    lat = build_lattice(6.0)
    for v in range(lat.n_vertices):
        for w in lat.neighbors[v]:
            assert lat.kinds[v] != lat.kinds[w]
            assert v in lat.neighbors[w]


def test_edge_length_is_one():
    # bonds decorate edge midpoints of a hexagonal net with edge length 2
    lat = build_lattice(7.0)
    for v in range(lat.n_vertices):
        for w in lat.neighbors[v]:
            d = math.dist(lat.positions[v], lat.positions[w])
            assert abs(d - 1.0) < 1e-12


def test_min_nonadjacent_distance_sqrt3():
    lat = build_lattice(6.0)
    got = min_nonadjacent_distance(lat)
    assert abs(got - math.sqrt(3.0)) < 1e-12


def test_exact_order_and_prefix_stability():
    small = build_lattice(5.0)
    big = build_lattice(9.0)
    keys = list(map(exact_key, small.positions.tolist()))
    assert keys == sorted(keys)
    # growing the window only appends vertices, never reorders them
    assert np.allclose(big.positions[: small.n_vertices], small.positions)
    assert np.array_equal(big.kinds[: small.n_vertices], small.kinds)


def test_exact_key_increases_along_ids_at_radius_400():
    lat = build_lattice(400.0)
    keys = list(map(exact_key, lat.positions.tolist()))
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_sites_at_one_distance_are_ordered_by_angle():
    # Both sites lie at distance sqrt(393616) / 2 = 313.6941185295000076,
    # 7.6e-15 above a 9-decimal rounding midpoint.  Ordered by float
    # distance rounded to 9 decimals, the one of smaller angle came six ids
    # after the other.
    lat = build_lattice(313.7)
    positions = lat.positions.tolist()
    low, high = [313.5011961699668, 11.0], [304.8409421321224, 74.0]
    assert exact_key(low)[0] == exact_key(high)[0] == 393616
    assert exact_key(low)[1] < exact_key(high)[1]
    assert positions.index(low) == 148738
    assert positions.index(high) == 148739


def test_radius_filter():
    lat = build_lattice(4.0)
    d = np.linalg.norm(lat.positions, axis=1)
    assert np.all(d <= 4.0 + 1e-9)


def test_build_deterministic():
    a = build_lattice(6.0)
    b = build_lattice(6.0)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.kinds, b.kinds)
    assert a.neighbors == b.neighbors


def test_kind_names():
    lat = build_lattice(3.0)
    assert lat.kind_name(0) == "site"
    bond = int(np.flatnonzero(lat.kinds == KIND_BOND)[0])
    assert lat.kind_name(bond) == "bond"


def test_small_radius_validation():
    with pytest.raises(ValueError):
        build_lattice(-1.0)
    tiny = build_lattice(1.0)  # origin and its three bonds
    assert tiny.n_vertices == 4
    assert len(tiny.neighbors[0]) == 3


def reference_build_lattice(radius: float) -> SimpleNamespace:
    """A per-vertex loop as the byte-identity reference: vertices keyed by
    coordinates rounded to 1e-6, the first candidate of each kept by
    ``setdefault``, and membership and order decided by ``exact_key`` of
    the coordinates.  Its result has StarLattice's fields, with the
    neighbor tuples built here rather than from an edge array."""

    def key_of(pos):
        return (round(pos[0], 6), round(pos[1], 6))

    margin = radius + 4.0
    m_max = int(margin / 3.0) + 2
    u_max = int(margin / SQRT3) + 2
    a_sites = []
    for u in range(-u_max, u_max + 1):
        for v in range(-m_max, m_max + 1):
            if (u + v) % 2:
                continue
            p = (SQRT3 * u, 3.0 * v)
            if math.hypot(*p) <= margin:
                a_sites.append(p)
    verts = {}

    def consider(pos, kind):
        if math.sqrt(exact_key(pos)[0]) / 2.0 <= radius + 1e-9:
            verts.setdefault(key_of(pos), (pos, kind))

    edge_keys = []
    for p in a_sites:
        consider(p, KIND_SITE)
        for dx, dy in ((0.0, 2.0), (SQRT3, -1.0), (-SQRT3, -1.0)):
            q = (p[0] + dx, p[1] + dy)
            mid = (p[0] + 0.5 * dx, p[1] + 0.5 * dy)
            consider(q, KIND_SITE)
            consider(mid, KIND_BOND)
            edge_keys.append((key_of(p), key_of(mid)))
            edge_keys.append((key_of(q), key_of(mid)))
    order = sorted(verts.values(), key=lambda item: exact_key(item[0]))
    ids = {key_of(pos): i for i, (pos, _) in enumerate(order)}
    n = len(order)
    neigh = [set() for _ in range(n)]
    for ka, kb in edge_keys:
        if ka in ids and kb in ids:
            neigh[ids[ka]].add(ids[kb])
            neigh[ids[kb]].add(ids[ka])
    return SimpleNamespace(
        radius=float(radius),
        positions=np.asarray([pos for pos, _ in order], dtype=float).reshape(n, 2),
        kinds=np.asarray([kind for _, kind in order], dtype=np.int8),
        neighbors=tuple(tuple(sorted(ns)) for ns in neigh),
    )


def _radius_with_cutoff(target: float) -> float:
    """The radius whose cutoff radius + 1e-9 is exactly ``target``."""
    r = target - 1e-9
    while r + 1e-9 > target:
        r = math.nextafter(r, 0.0)
    while r + 1e-9 < target:
        r = math.nextafter(r, math.inf)
    assert r + 1e-9 == target
    return r


def _tie_radius() -> float:
    """A radius whose cutoff radius + 1e-9 is math.hypot of one candidate of
    B-site (-5 sqrt(3), -1), one ulp below the float of its exact distance
    sqrt(304) / 2: a float distance rule admits the vertex there, the exact
    rule does not."""
    target = math.hypot(-8.660254037844386, -1.0)
    assert target < math.sqrt(304.0) / 2.0
    return _radius_with_cutoff(target)


SQRT28 = math.sqrt(28.0)  # a B-site distance


@pytest.mark.parametrize(
    "radius",
    [0.0, 0.5, 2.0, 2.0 * SQRT3, 4.0, SQRT28,
     SQRT28 - 1e-10, SQRT28 + 1e-10, SQRT28 - 1e-9 - 1e-10, SQRT28 - 1e-9 + 1e-10,
     _tie_radius(), 37.3, 200.0],
)
def test_build_lattice_matches_reference_loop(radius):
    got, want = build_lattice(radius), reference_build_lattice(radius)
    assert got.radius == want.radius
    assert got.positions.dtype == want.positions.dtype and got.positions.shape == want.positions.shape
    assert got.positions.tobytes() == want.positions.tobytes()
    assert got.kinds.dtype == want.kinds.dtype
    assert got.kinds.tobytes() == want.kinds.tobytes()
    assert got.neighbors == want.neighbors
    assert all(type(w) is int for ns in got.neighbors for w in ns)


def test_exact_distance_decides_the_window():
    # B-site (-5 sqrt(3), -1) has key (-10, -2), so q = 304, and the float of
    # its exact distance D = sqrt(304) / 2 is correctly rounded.
    target = math.sqrt(304.0) / 2.0
    r = _radius_with_cutoff(target)
    below = math.nextafter(r, 0.0)
    assert below + 1e-9 < target

    def has_site(radius):
        positions = build_lattice(radius).positions
        return bool(np.any(np.all(np.abs(positions - [-5.0 * SQRT3, -1.0]) < 1e-12, axis=1)))

    assert has_site(r)
    assert not has_site(below)


@pytest.mark.parametrize("radius", [math.nan, math.inf, -1.0])
def test_non_finite_or_negative_radius_is_refused(radius):
    with pytest.raises(ValueError, match=f"^radius must lie in \\[0, inf\\), got {radius}$"):
        build_lattice(radius)
