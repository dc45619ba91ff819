"""Planar site percolation: clusters, boundary reach, theta estimates."""

import math

import numpy as np
import pytest

from hardspheres.percolation2d import (
    SiteConfig,
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
    a = sample_config(g, 0.6, seed=5, trial=3)
    b = sample_config(g, 0.6, seed=5, trial=3)
    assert np.array_equal(a.uniforms, b.uniforms)
    c = sample_config(g, 0.6, seed=5, trial=4)
    assert not np.array_equal(a.uniforms, c.uniforms)
    # open frequency matches p
    n = g.n_sites
    freq = a.open_mask.mean()
    assert abs(freq - 0.6) < 4 * math.sqrt(0.6 * 0.4 / n)


def test_origin_cluster_p_extremes():
    g = build_site_graph(8.0)
    full = sample_config(g, 1.0, seed=0)
    cl = origin_cluster(full)
    assert cl.size == g.n_sites
    assert cluster_reaches_boundary(full)
    empty = sample_config(g, 0.0, seed=0)
    assert origin_cluster(empty).size == 0
    assert not cluster_reaches_boundary(empty)


def test_origin_cluster_is_connected_and_open():
    g = build_site_graph(10.0)
    cfg = sample_config(g, 0.7, seed=11)
    members = origin_cluster(cfg)
    if not cfg.open_mask[0]:
        assert members.size == 0
        return
    assert 0 in members
    assert np.all(cfg.open_mask[members])
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
        cfg = sample_config(g, 0.7, seed=seed)
        open_mask = cfg.open_mask
        uf = UnionFind(g.n_sites)
        for v in range(g.n_sites):
            for w in g.neighbors[v]:
                if open_mask[v] and open_mask[w]:
                    uf.union(v, w)
        cl = origin_cluster(cfg)
        if not open_mask[0]:
            assert cl.size == 0
            continue
        root = uf.find(0)
        component = [v for v in range(g.n_sites) if open_mask[v] and uf.find(v) == root]
        assert cl.tolist() == component
