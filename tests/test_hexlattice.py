"""Decorated hexagonal lattice: degrees, spacing, canonical order."""

import math

import numpy as np
import pytest

from hardspheres.hexlattice import (
    KIND_BOND,
    KIND_SITE,
    build_lattice,
    min_nonadjacent_distance,
    vertex_sort_key,
)


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
        assert lat.degree(v) <= full
        assert lat.is_interior(v) == (lat.degree(v) == full)
    # interior fractions are high once the window dwarfs the unit step
    interior = sum(lat.is_interior(v) for v in range(lat.n_vertices))
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
    for v, w in lat.edges():
        d = math.dist(lat.positions[v], lat.positions[w])
        assert abs(d - 1.0) < 1e-12


def test_min_nonadjacent_distance_sqrt3():
    lat = build_lattice(6.0)
    got = min_nonadjacent_distance(lat)
    assert abs(got - math.sqrt(3.0)) < 1e-12


def test_canonical_order_and_prefix_stability():
    small = build_lattice(5.0)
    big = build_lattice(9.0)
    keys = [
        vertex_sort_key(small.positions[v], int(small.kinds[v]))
        for v in range(small.n_vertices)
    ]
    assert keys == sorted(keys)
    # growing the window only appends vertices, never reorders them
    assert np.allclose(big.positions[: small.n_vertices], small.positions)
    assert np.array_equal(big.kinds[: small.n_vertices], small.kinds)


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
    assert tiny.degree(0) == 3
