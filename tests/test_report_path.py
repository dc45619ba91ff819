"""The simulate report path against brute-force references.

verify_hard_sphere and cluster_components prefilter pairs with a k-d tree
and decide them with numpy, re-deciding near ties with math.dist; the
references here check every pair with math.dist.  _sphere_lines formats
a whole row at once; the reference formats field by field with f17.
"""

import math

import numpy as np
import pytest

from hardspheres.cli import _sphere_lines, f17
from hardspheres.construction import (
    Cluster,
    GammaProcess,
    HardSphereReport,
    SphereRecord,
    cluster_components,
    verify_hard_sphere,
)

TOL = 1e-9


def make_gamma(centers, radii, kinds=None, layers=None, vertices=None):
    n = len(radii)
    kinds = kinds or ["constructed" if r > 0 else "leftover" for r in radii]
    layers = layers or [(0,)] * n
    vertices = vertices or [-1] * n
    spheres = tuple(
        SphereRecord(
            center=np.asarray(c, dtype=float),
            radius=r,
            vertex=v,
            layer=lay,
            kind=k,
        )
        for c, r, k, lay, v in zip(centers, radii, kinds, layers, vertices)
    )
    return GammaProcess(
        spheres=spheres,
        window=(),
        n_stream_leftovers=0,
        layer_states=(),
        annotations={},
    )


# -- brute-force references ----------------------------------------------


def brute_verify(gamma, tol):
    n = len(gamma.spheres)
    if n < 2:
        return HardSphereReport(n, 0, (), True)
    centers, radii = gamma.centers(), gamma.radii()
    r_max = radii.max()
    checked = 0
    violations = []
    for i in range(n):
        for j in range(i + 1, n):
            dist = math.dist(centers[i], centers[j])
            if any(radii[k] > 0 and dist <= radii[k] + r_max + tol for k in (i, j)):
                checked += 1
            need = radii[i] + radii[j]
            if dist < need - tol:
                violations.append((i, j, float(need - dist)))
    return HardSphereReport(n, checked, tuple(violations), not violations)


def brute_clusters(gamma, tol):
    n = len(gamma.spheres)
    centers, radii = gamma.centers(), gamma.radii()
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if math.dist(centers[i], centers[j]) <= radii[i] + radii[j] + tol:
                parent[find(j)] = find(i)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    clusters = []
    for members in groups.values():
        mid = centers[members].mean(axis=0)
        reach = max(float(math.dist(mid, centers[i])) + radii[i] for i in members)
        clusters.append(
            Cluster(
                members=tuple(members),
                size=len(members),
                n_constructed=sum(
                    1 for i in members if gamma.spheres[i].kind == "constructed"
                ),
                bounding_radius=reach,
            )
        )
    clusters.sort(key=lambda c: (-c.size, c.members))
    return clusters


def old_sphere_dump(gamma):
    lines = []
    for s in gamma.spheres:
        layer = ",".join(str(v) for v in s.layer)
        coords = " ".join(f17(x) for x in s.center)
        lines.append(f"{layer}|{s.vertex}|{s.kind}|{f17(s.radius)}|{coords}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- random gammas ---------------------------------------------------------


def random_gamma(rng, d, n):
    """Spheres in a small box: chains of exactly tangent spheres (gap 0 up
    to roundoff), overlapping pairs, and zero-radius leftovers.  Two
    leftovers are never chained: Poisson points are distinct."""
    centers, radii = [], []
    while len(radii) < n:
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        r = float(rng.choice([0.0, rng.uniform(0.65, 0.85), 0.75]))
        roll = rng.uniform()
        k = int(rng.integers(len(radii))) if radii else 0
        if radii and roll < 0.4 and radii[k] + r > 0:
            gap = 0.0 if roll < 0.3 else -0.2
            centers.append(centers[k] + (radii[k] + r + gap) * u)
        else:
            centers.append(rng.uniform(-3.0, 3.0, size=d))
        radii.append(r)
    return make_gamma(centers, radii)


@pytest.mark.parametrize("seed", range(12))
def test_random_gammas_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.choice([2, 3, 5, 31]))
    gamma = random_gamma(rng, d, int(rng.integers(2, 60)))
    assert verify_hard_sphere(gamma, TOL) == brute_verify(gamma, TOL)
    assert cluster_components(gamma, TOL) == brute_clusters(gamma, TOL)


def test_contact_pairs_computed_once_per_slack(monkeypatch):
    from hardspheres import construction

    calls = []
    original = construction._contact_pairs

    def counting(centers, radii, slack):
        calls.append(slack)
        return original(centers, radii, slack)

    monkeypatch.setattr(construction, "_contact_pairs", counting)
    gamma = random_gamma(np.random.default_rng(3), 5, 60)
    report = verify_hard_sphere(gamma, TOL)
    clusters = cluster_components(gamma, TOL)
    assert calls == [TOL]
    assert report == brute_verify(gamma, TOL)
    assert clusters == brute_clusters(gamma, TOL)
    verify_hard_sphere(gamma, 2 * TOL)
    assert calls == [TOL, 2 * TOL]
    assert not gamma.centers().flags.writeable


def test_tiny_gammas_match_brute_force():
    for centers, radii in (
        ([], []),
        ([[0.0, 0.0]], [0.5]),
        ([[0.0, 0.0], [1.0, 0.0]], [0.0, 0.0]),
        ([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5]),
    ):
        gamma = make_gamma(centers, radii)
        assert verify_hard_sphere(gamma, TOL) == brute_verify(gamma, TOL)
        assert cluster_components(gamma, TOL) == brute_clusters(gamma, TOL)


# -- crafted near-tie pairs -------------------------------------------------


def place_at(rng, a, target):
    """A point b along a random direction with math.dist(a, b) == target,
    or None when no step of the scale factor lands on it."""
    u = rng.normal(size=a.shape[0])
    u /= np.linalg.norm(u)
    s = target
    for _ in range(400):
        b = a + s * u
        got = math.dist(a, b)
        if got == target:
            return b
        s = np.nextafter(s, math.inf if got < target else -math.inf)
    return None


def crafted_gamma(rng, d):
    """Pairs far apart from each other, three at each surface gap of
    exactly 0, +tol or -tol, or one ulp either side of +-tol, as math.dist
    measures it.  Equal radii make the k-d tree's query radius equal the
    touch threshold."""
    centers, radii = [], []
    for r1, r2 in ((0.75, 0.75), (0.85, 0.85), (0.7, 0.8), (0.8, 0.0)):
        need = np.float64(r1) + np.float64(r2)
        targets = [need, need + TOL, need - TOL]
        targets += [np.nextafter(t, s) for t in targets[1:] for s in (-math.inf, math.inf)]
        for target in targets:
            placed = 0
            for _ in range(30):
                a = np.zeros(d)
                a[0] = 50.0 * len(radii)
                a[1:] = rng.uniform(-1.0, 1.0, size=d - 1)
                b = place_at(rng, a, float(target))
                if b is not None:
                    centers += [a, b]
                    radii += [r1, r2]
                    placed += 1
                if placed == 3:
                    break
            assert placed == 3, (r1, r2, target)
    return make_gamma(centers, radii)


@pytest.mark.parametrize("d", [3, 31, 45])
def test_crafted_ties_match_brute_force(d):
    gamma = crafted_gamma(np.random.default_rng(d), d)
    got = verify_hard_sphere(gamma, TOL)
    want = brute_verify(gamma, TOL)
    # The count of pairs checked is compared on the random gammas only:
    # here distances sit on the k-d tree's query radius by construction.
    assert (got.violations, got.passed) == (want.violations, want.passed)
    assert len(got.violations) == 4 * 3  # the -tol - 1 ulp pairs overlap
    clusters = cluster_components(gamma, TOL)
    assert clusters == brute_clusters(gamma, TOL)
    assert [c.size for c in clusters].count(2) == 4 * 3 * 6  # all but +tol + 1 ulp



# -- sphere dump -------------------------------------------------------------


def test_sphere_dump_matches_field_by_field_f17():
    centers = [
        [-0.0, 5e-324, 1e300],
        [3.0, -2.0, 2.0**53],
        [0.1, 1.0 / 3.0, -1e-300],
        [1e16, -0.0, 12345678.0],
    ]
    radii = [0.75, np.float64(0.8000000000000002), 0.0, np.float64(1.0)]
    gamma = make_gamma(
        centers,
        radii,
        kinds=["constructed", "constructed", "leftover", "constructed"],
        layers=[(0, 0, 0), (1, 0, -2), (1, 0, -2), (0, 0, 0)],
        vertices=[0, 7, -1, np.int64(12)],
    )
    text = "".join(_sphere_lines(gamma))
    assert text == old_sphere_dump(gamma)
    assert text.splitlines()[0] == "0,0,0|0|constructed|0.75|-0 4.9406564584124654e-324 1.0000000000000001e+300"
    assert list(_sphere_lines(make_gamma([], []))) == []
