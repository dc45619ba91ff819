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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hexlattice import KIND_SITE, SITE_DEGREE, build_lattice, neighbor_tuples
from .rngutil import keyed_generator, philox_key


# The window is built in full, and each trial draws one uniform per site.
# Radius 400 holds 96,715 sites: build_site_graph(400) takes 0.31 s and
# peaks at 87 MB RSS; build_lattice(1000) alone takes 1.0 s and 380 MB
# (2-core Xeon, Python 3.11), so build_site_graph refuses larger windows
# before building anything.
MAX_WINDOW_RADIUS = 400.0


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
    Site ids keep the canonical (distance, angle) order; id 0 is the origin.
    A radius outside [0, MAX_WINDOW_RADIUS] is a ValueError."""
    if not 0.0 <= radius <= MAX_WINDOW_RADIUS:
        raise ValueError(f"radius must lie in [0, {MAX_WINDOW_RADIUS:g}], got {radius}")
    star = build_lattice(radius)
    is_site = star.kinds == KIND_SITE
    site_id = np.cumsum(is_site) - 1
    # Two sites are neighbors when a bond vertex joins them: sorted by bond,
    # the two edges of a bond with both ends in the window are adjacent.
    n = star.n_vertices
    codes = np.unique(star.edges[:, 1].astype(np.int64) * n + star.edges[:, 0])
    bond, site = np.divmod(codes, n)
    pair = np.flatnonzero(bond[1:] == bond[:-1])
    neighbors = neighbor_tuples(
        int(is_site.sum()), site_id[site[pair]], site_id[site[pair + 1]]
    )
    return SiteGraph(
        radius=float(radius),
        positions=star.positions[is_site],
        neighbors=neighbors,
        boundary=np.asarray(list(map(len, neighbors))) < SITE_DEGREE,
    )


def sample_config(graph: SiteGraph, seed: int, trial: int = 0) -> np.ndarray:
    """One uniform per site, those of generator(seed, 1, trial), drawn on
    the thread's reused keyed generator: at density p, site v is open iff
    uniforms[v] < p."""
    return keyed_generator(philox_key(seed, 1, trial)).random(graph.n_sites)


def origin_cluster(graph: SiteGraph, is_open: np.ndarray) -> np.ndarray:
    """Sites of the origin's cluster among the open sites (``is_open``, one
    bool per site) that a depth-first search visits before it reaches a
    boundary site, in visit order (empty when the origin is closed).  The
    search stops at the first boundary site, so the last site is a boundary
    site exactly when the cluster reaches the window's edge; otherwise the
    sites are the whole cluster.
    """
    # One byte per site: indexing bytes is as fast as a list, and building
    # them is a copy rather than one Python bool per site.
    is_open = is_open.tobytes()
    if not is_open[0]:
        return np.empty(0, dtype=np.int64)
    neighbors = graph.neighbors
    stop = graph.boundary.tobytes()
    seen = bytearray(graph.n_sites)
    seen[0] = 1
    out = [0]
    stack = [] if stop[0] else [0]
    while stack:
        for w in neighbors[stack.pop()]:
            if is_open[w] and not seen[w]:
                seen[w] = 1
                out.append(w)
                if stop[w]:
                    return np.asarray(out, dtype=np.int64)
                stack.append(w)
    return np.asarray(out, dtype=np.int64)


def cluster_reaches_boundary(graph: SiteGraph, is_open: np.ndarray) -> bool:
    visited = origin_cluster(graph, is_open)
    return visited.size > 0 and bool(graph.boundary[visited[-1]])


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
) -> ThetaEstimate:
    """Boundary-reaching frequency of the origin cluster over independent
    configurations; finite-window stand-in for the percolation function."""
    return estimate_theta_coupled([p], radius, trials, seed)[0]


def estimate_theta_coupled(
    ps: Sequence[float],
    radius: float,
    trials: int,
    seed: int,
) -> list:
    """Theta estimates for several densities from shared uniforms.  The
    coupling makes the per-trial reach indicator nondecreasing in p, so the
    estimates are monotone with probability one, not just in expectation.
    A density outside [0, 1], a bad trial count or a bad window radius (see
    build_site_graph) is a ValueError before any work, and so is an empty
    density list."""
    if len(ps) == 0:
        raise ValueError("need at least one occupation density")
    for p in ps:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"occupation density must be in [0, 1], got {p}")
    if trials <= 0:
        raise ValueError(f"need trials >= 1, got {trials}")
    graph = build_site_graph(radius)
    reached = [0] * len(ps)  # by position, so a repeated p counts once
    for t in range(trials):
        uniforms = sample_config(graph, seed, t)
        for i, p in enumerate(ps):
            reached[i] += cluster_reaches_boundary(graph, uniforms < p)
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
