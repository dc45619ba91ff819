"""Planar site percolation: clusters, boundary reach, theta estimates."""

import math

import numpy as np
import pytest

from hardspheres import percolation2d
from hardspheres.hexlattice import KIND_BOND, KIND_SITE, build_lattice
from hardspheres.percolation2d import (
    UnionFind,
    build_site_graph,
    cluster_reaches_boundary,
    estimate_theta,
    estimate_theta_coupled,
    origin_cluster,
    sample_config,
)


def test_site_graph_shape():
    g = build_site_graph(10.0)
    assert g.n_sites > 50
    assert np.allclose(g.positions[0], [0.0, 0.0])
    # hexagonal net: three neighbors when interior
    for v in range(g.n_sites):
        assert len(g.neighbors[v]) <= 3
        assert g.boundary[v] == (len(g.neighbors[v]) < 3)
    for v in range(g.n_sites):
        for w in g.neighbors[v]:
            assert v in g.neighbors[w]
            d = math.dist(g.positions[v], g.positions[w])
            assert abs(d - 2.0) < 1e-12  # hexagonal net with edge 2


def test_sample_config_deterministic_and_bernoulli():
    g = build_site_graph(12.0)
    a = sample_config(g, seed=5, trial=3)
    b = sample_config(g, seed=5, trial=3)
    assert a.shape == (g.n_sites,)
    assert np.array_equal(a, b)
    c = sample_config(g, seed=5, trial=4)
    assert not np.array_equal(a, c)
    # open frequency matches p
    n = g.n_sites
    freq = (a < 0.6).mean()
    assert abs(freq - 0.6) < 4 * math.sqrt(0.6 * 0.4 / n)


def test_origin_cluster_p_extremes():
    g = build_site_graph(8.0)
    uniforms = sample_config(g, seed=0)
    assert cluster_reaches_boundary(g, uniforms < 1.0)
    assert origin_cluster(g, uniforms < 0.0).size == 0
    assert not cluster_reaches_boundary(g, uniforms < 0.0)


def test_origin_cluster_is_connected_and_open():
    g = build_site_graph(10.0)
    is_open = sample_config(g, seed=11) < 0.7
    members = origin_cluster(g, is_open)
    if not is_open[0]:
        assert members.size == 0
        return
    assert 0 in members
    assert np.all(is_open[members])
    in_cluster = set(members.tolist())
    # every member other than the origin touches another member
    for v in members:
        if v == 0:
            continue
        assert any(w in in_cluster for w in g.neighbors[v])


def test_theta_estimates():
    est = estimate_theta(1.0, radius=8.0, trials=10, seed=1)
    assert est.theta_hat == 1.0
    assert est.std_error == 0.0
    est0 = estimate_theta(0.0, radius=8.0, trials=10, seed=1)
    assert est0.theta_hat == 0.0
    z = estimate_theta(0.796, radius=30.0, trials=200, seed=2)
    assert 0.0 < z.theta_hat <= 1.0
    assert z.reached == round(z.theta_hat * 200)
    with pytest.raises(ValueError):
        estimate_theta(0.5, radius=8.0, trials=0, seed=1)


def test_theta_deterministic():
    a = estimate_theta(0.75, radius=20.0, trials=100, seed=7)
    b = estimate_theta(0.75, radius=20.0, trials=100, seed=7)
    assert a.theta_hat == b.theta_hat
    assert a.to_dict() == b.to_dict()


def test_theta_coupled_monotone():
    ps = [0.5, 0.65, 0.8, 0.95]
    ests = estimate_theta_coupled(ps, radius=25.0, trials=150, seed=3)
    vals = [e.theta_hat for e in ests]
    assert vals == sorted(vals)
    # coupling is per-trial: reached counts are monotone too
    reached = [e.reached for e in ests]
    assert reached == sorted(reached)


def test_theta_is_the_coupled_estimate_at_one_p():
    ests = estimate_theta_coupled([0.6, 0.8, 0.8], radius=10.0, trials=40, seed=5)
    single = estimate_theta(0.8, radius=10.0, trials=40, seed=5)
    # a repeated density is estimated once per entry, not counted twice
    assert ests[1] == ests[2] == single
    assert 0.0 <= single.theta_hat <= 1.0


def test_union_find_basics():
    uf = UnionFind(6)
    assert uf.union(0, 1)
    assert uf.union(1, 2)
    assert not uf.union(0, 2)  # already same component
    assert uf.find(0) == uf.find(2)
    assert uf.find(3) != uf.find(0)
    assert uf.union(3, 4)
    roots = {uf.find(v) for v in range(6)}
    assert len(roots) == 3


def test_origin_cluster_matches_union_find():
    g = build_site_graph(12.0)
    for seed in range(6):  # three closed origins, open clusters of 8 to 31
        open_mask = sample_config(g, seed=seed) < 0.7
        uf = UnionFind(g.n_sites)
        for v in range(g.n_sites):
            for w in g.neighbors[v]:
                if open_mask[v] and open_mask[w]:
                    uf.union(v, w)
        cl = origin_cluster(g, open_mask)
        if not open_mask[0]:
            assert cl.size == 0
            continue
        root = uf.find(0)
        component = {v for v in range(g.n_sites) if open_mask[v] and uf.find(v) == root}
        assert set(cl.tolist()) <= component
        if not g.boundary[cl[-1]]:
            assert sorted(cl.tolist()) == sorted(component)


def reference_build_site_graph(radius):
    """The per-vertex loop that ``build_site_graph`` replaced, kept as its
    reference: (positions, neighbors, boundary)."""
    star = build_lattice(radius)
    site_vertex = [v for v in range(star.n_vertices) if star.kinds[v] == KIND_SITE]
    site_id = {v: i for i, v in enumerate(site_vertex)}
    neigh = [set() for _ in site_vertex]
    for v in range(star.n_vertices):
        if star.kinds[v] != KIND_BOND:
            continue
        ends = [w for w in star.neighbors[v] if star.kinds[w] == KIND_SITE]
        if len(ends) == 2:
            a, b = site_id[ends[0]], site_id[ends[1]]
            neigh[a].add(b)
            neigh[b].add(a)
    neighbors = tuple(tuple(sorted(ns)) for ns in neigh)
    boundary = np.asarray([len(ns) < 3 for ns in neighbors], dtype=bool)
    return star.positions[site_vertex].copy(), neighbors, boundary


@pytest.mark.parametrize(
    "radius", [0.0, 0.5, 2.0, 2.0 * math.sqrt(3.0), 4.0, math.sqrt(28.0), 37.3, 200.0]
)
def test_build_site_graph_matches_reference_loop(radius):
    g = build_site_graph(radius)
    positions, neighbors, boundary = reference_build_site_graph(radius)
    assert g.radius == float(radius)
    assert g.positions.shape == positions.shape
    assert g.positions.tobytes() == positions.tobytes()
    assert g.neighbors == neighbors
    assert all(type(w) is int for ns in g.neighbors for w in ns)
    assert g.boundary.dtype == boundary.dtype
    assert g.boundary.tobytes() == boundary.tobytes()


def open_component(g, open_mask):
    """The origin's open cluster as a set, from a union-find over every
    open-open edge (empty when the origin is closed)."""
    uf = UnionFind(g.n_sites)
    for v in range(g.n_sites):
        for w in g.neighbors[v]:
            if open_mask[v] and open_mask[w]:
                uf.union(v, w)
    if not open_mask[0]:
        return set()
    root = uf.find(0)
    return {v for v in range(g.n_sites) if open_mask[v] and uf.find(v) == root}


@pytest.mark.parametrize("radius", [0.0, 3.0, 12.0, 30.0])
def test_early_exit_search_matches_union_find(radius):
    g = build_site_graph(radius)
    outcomes = set()
    for p in (0.0, 0.5, 0.697, 0.7957, 1.0):
        for seed in range(6):
            is_open = sample_config(g, seed=seed) < p
            component = open_component(g, is_open)
            reaches = any(g.boundary[v] for v in component)
            assert cluster_reaches_boundary(g, is_open) == reaches
            outcomes.add(reaches)
            visited = origin_cluster(g, is_open).tolist()
            assert len(set(visited)) == len(visited)
            assert set(visited) <= component
            if not component:
                assert visited == []
                continue
            # every visited site is open and joined to an earlier one
            assert visited[0] == 0
            for i, v in enumerate(visited[1:], start=1):
                assert is_open[v]
                assert any(w in visited[:i] for w in g.neighbors[v])
            stops = [v for v in visited if g.boundary[v]]
            if reaches:
                assert stops == [visited[-1]]
            else:
                assert stops == [] and sorted(visited) == sorted(component)
    assert outcomes == {True, False}


@pytest.mark.parametrize("radius", [math.inf, math.nan, -1.0, 400.5])
def test_window_radius_is_refused_before_building(monkeypatch, radius):
    def no_lattice(*args, **kwargs):
        raise AssertionError("the lattice must not be built")

    monkeypatch.setattr(percolation2d, "build_lattice", no_lattice)
    message = f"radius must lie in \\[0, 400\\], got {radius}"
    with pytest.raises(ValueError, match=message):
        build_site_graph(radius)
    with pytest.raises(ValueError, match=message):
        estimate_theta_coupled([0.5, 0.7], radius, 10, 0)


@pytest.mark.parametrize("p", [-0.1, 1.5, math.nan, math.inf])
def test_density_is_refused_before_building(monkeypatch, p):
    def no_lattice(*args, **kwargs):
        raise AssertionError("the lattice must not be built")

    monkeypatch.setattr(percolation2d, "build_lattice", no_lattice)
    with pytest.raises(ValueError, match=f"must be in \\[0, 1\\], got {p}$"):
        estimate_theta_coupled([0.5, p], 10.0, 10, 0)


def test_empty_density_list_is_refused_before_building(monkeypatch):
    def no_lattice(*args, **kwargs):
        raise AssertionError("the lattice must not be built")

    monkeypatch.setattr(percolation2d, "build_lattice", no_lattice)
    with pytest.raises(ValueError, match="^need at least one occupation density$"):
        estimate_theta_coupled([], 10.0, 10, 0)
