"""Bernoulli site percolation on the planar hexagonal lattice.

Works on the site graph underlying the decorated lattice (each site has
three site neighbors, reached through a shared bond vertex).  The order
parameter is approximated on a finite disc window by the probability that
the open cluster of the origin reaches the window boundary; shared
per-site uniforms give a monotone coupling across occupation densities, so
the boundary-reaching indicator is pointwise nondecreasing in p.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .hexlattice import KIND_BOND, KIND_SITE, StarLattice, build_lattice
from .rngutil import generator


@dataclass(frozen=True)
class SiteGraph:
    """Hexagonal site graph within a disc window.

    boundary[v] is True when v is missing site neighbors, i.e. the window
    edge passes through its lattice neighborhood.
    """

    radius: float
    positions: np.ndarray
    neighbors: tuple
    boundary: np.ndarray

    @property
    def n_sites(self) -> int:
        return self.positions.shape[0]


def build_site_graph(radius: float) -> SiteGraph:
    """Site graph of the hexagonal lattice restricted to |x| <= radius.
    Site ids keep the canonical (distance, angle) order; id 0 is the origin."""
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
    return SiteGraph(
        radius=float(radius),
        positions=star.positions[site_vertex].copy(),
        neighbors=neighbors,
        boundary=boundary,
    )


@dataclass(frozen=True)
class SiteConfig:
    """One Bernoulli configuration: site v is open iff uniforms[v] < p."""

    graph: SiteGraph
    p: float
    seed: int
    trial: int
    uniforms: np.ndarray

    @property
    def open_mask(self) -> np.ndarray:
        return self.uniforms < self.p


def sample_config(graph: SiteGraph, p: float, seed: int, trial: int = 0) -> SiteConfig:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"occupation density must be in [0, 1], got {p}")
    rng = generator(seed, 1, trial)
    return SiteConfig(
        graph=graph, p=p, seed=seed, trial=trial, uniforms=rng.random(graph.n_sites)
    )


def origin_cluster(config: SiteConfig) -> np.ndarray:
    """Ids of the open cluster containing the origin site (empty when the
    origin is closed)."""
    open_mask = config.open_mask
    if not open_mask[0]:
        return np.empty(0, dtype=np.int64)
    graph = config.graph
    seen = np.zeros(graph.n_sites, dtype=bool)
    seen[0] = True
    queue = deque([0])
    out = []
    while queue:
        v = queue.popleft()
        out.append(v)
        for w in graph.neighbors[v]:
            if not seen[w] and open_mask[w]:
                seen[w] = True
                queue.append(w)
    return np.asarray(sorted(out), dtype=np.int64)


def cluster_reaches_boundary(config: SiteConfig) -> bool:
    cluster = origin_cluster(config)
    if cluster.size == 0:
        return False
    return bool(np.any(config.graph.boundary[cluster]))


@dataclass(frozen=True)
class ThetaEstimate:
    p: float
    radius: float
    trials: int
    reached: int
    theta_hat: float
    std_error: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "radius": self.radius,
            "trials": self.trials,
            "theta_hat": self.theta_hat,
            "std_error": self.std_error,
            "seed": self.seed,
        }


def estimate_theta(
    p: float,
    radius: float,
    trials: int,
    seed: int,
    graph: Optional[SiteGraph] = None,
) -> ThetaEstimate:
    """Boundary-reaching frequency of the origin cluster over independent
    configurations; finite-window stand-in for the percolation function."""
    return estimate_theta_coupled([p], radius, trials, seed, graph)[0]


def estimate_theta_coupled(
    ps: Sequence[float],
    radius: float,
    trials: int,
    seed: int,
    graph: Optional[SiteGraph] = None,
) -> list:
    """Theta estimates for several densities from shared uniforms.  The
    coupling makes the per-trial reach indicator nondecreasing in p, so the
    estimates are monotone with probability one, not just in expectation."""
    if trials <= 0:
        raise ValueError(f"need trials >= 1, got {trials}")
    if graph is None:
        graph = build_site_graph(radius)
    reached = [0] * len(ps)  # by position, so a repeated p counts once
    for t in range(trials):
        base = sample_config(graph, max(ps), seed, t)
        for i, p in enumerate(ps):
            cfg = SiteConfig(
                graph=graph, p=p, seed=seed, trial=t, uniforms=base.uniforms
            )
            reached[i] += cluster_reaches_boundary(cfg)
    out = []
    for p, hits in zip(ps, reached):
        theta = hits / trials
        out.append(
            ThetaEstimate(
                p=p,
                radius=float(radius),
                trials=trials,
                reached=hits,
                theta_hat=theta,
                std_error=math.sqrt(theta * (1.0 - theta) / trials),
                seed=seed,
            )
        )
    return out


class UnionFind:
    """Union by rank with path compression over 0..n-1."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, v: int) -> int:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True
