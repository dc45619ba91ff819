"""The simulate report path against brute-force references.

verify_hard_sphere and cluster_components work on the pairs within contact
distance, found by one blocked matrix product and decided with numpy,
re-deciding near ties with math.dist; the references here check every pair
with math.dist.  _sphere_blocks formats
whole blocks of rows from the center array; the reference formats field by
field with f17.
"""

import math

import numpy as np
import pytest

from hardspheres import cli, construction
from hardspheres.cli import _sphere_blocks, f17
from hardspheres.construction import (
    ConstructionError,
    GammaProcess,
    HardSphereReport,
    _assert_interlayer_gaps,
    _contact_pairs,
    cluster_components,
    verify_hard_sphere,
)

TOL = 1e-9  # construction.CONTACT_TOL, written out for the references below


def make_gamma(centers, radii, layers=None, vertices=None):
    """Columns for the given rows.  By default every positive-radius sphere
    is constructed (at vertex 0) and every zero-radius one a leftover, all
    in one layer."""
    n = len(radii)
    layers = layers or [(0,)] * n
    vertices = vertices or [0 if r > 0 else -1 for r in radii]
    vecs = tuple(dict.fromkeys(layers))
    return GammaProcess(
        centers=np.asarray(centers, dtype=float).reshape(n, -1) if n else np.empty((0, 2)),
        radii=np.asarray(radii, dtype=float),
        vertex=np.asarray(vertices, dtype=np.intp),
        layer=np.asarray([vecs.index(lay) for lay in layers], dtype=np.intp),
        point_ids=np.stack([np.zeros(n, dtype=np.intp), np.arange(n)], axis=1),
        layers=vecs,
        n_stream_leftovers=0,
        runs=(),
        annotations={},
    )


# -- brute-force references ----------------------------------------------


def brute_verify(gamma, tol):
    n = len(gamma.radii)
    if n < 2:
        return HardSphereReport(0, (), True)
    centers, radii = gamma.centers, gamma.radii
    checked = 0  # the pairs within contact distance, one radius positive
    violations = []
    for i in range(n):
        for j in range(i + 1, n):
            dist = math.dist(centers[i], centers[j])
            if (radii[i] > 0 or radii[j] > 0) and dist <= radii[i] + radii[j] + tol:
                checked += 1
            need = radii[i] + radii[j]
            if dist < need - tol:
                violations.append((i, j, float(need - dist)))
    return HardSphereReport(checked, tuple(violations), not violations)


def brute_contact_pairs(centers, radii, tol):
    """Every pair i < j with at least one positive radius and math.dist at
    most r_i + r_j + tol, as intp index arrays in lexicographic order.
    Only the rows of positive radius are scanned, against every row."""
    points = [tuple(x) for x in np.asarray(centers, dtype=float).tolist()]
    r = np.asarray(radii, dtype=float).tolist()
    pairs = set()
    for i in np.flatnonzero(np.asarray(radii) > 0).tolist():
        for j in range(len(points)):
            lo, hi = min(i, j), max(i, j)
            if j != i and math.dist(points[i], points[j]) <= r[lo] + r[hi] + tol:
                pairs.add((lo, hi))
    I, J = np.array(sorted(pairs), dtype=np.intp).reshape(-1, 2).T
    return I, J


def contact_pairs_match(centers, radii) -> bool:
    """_contact_pairs equals brute_contact_pairs as exact index arrays."""
    got = _contact_pairs(centers, radii, TOL)
    want = brute_contact_pairs(centers, radii, TOL)
    return all(g.dtype == np.intp and np.array_equal(g, w) for g, w in zip(got, want))


def brute_clusters(gamma, tol):
    """One label per sphere: components numbered largest first, ties
    broken by their lowest index."""
    n = len(gamma.radii)
    centers, radii = gamma.centers, gamma.radii
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
    labels = np.full(n, -1)
    for label, members in enumerate(sorted(groups.values(), key=lambda m: (-len(m), m))):
        labels[members] = label
    return labels


def same_clusters(gamma, tol):
    labels = cluster_components(gamma)
    return labels.shape == (len(gamma.radii),) and np.array_equal(
        labels, brute_clusters(gamma, tol)
    )


def old_sphere_dump(gamma):
    lines = []
    for k in range(len(gamma.radii)):
        layer = ",".join(str(v) for v in gamma.layers[gamma.layer[k]])
        vertex = int(gamma.vertex[k])
        kind = "constructed" if vertex >= 0 else "leftover"
        coords = " ".join(f17(x) for x in gamma.centers[k])
        lines.append(f"{layer}|{vertex}|{kind}|{f17(gamma.radii[k])}|{coords}")
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
    assert contact_pairs_match(gamma.centers, gamma.radii)
    assert verify_hard_sphere(gamma) == brute_verify(gamma, TOL)
    assert same_clusters(gamma, TOL)


def test_contact_pairs_computed_once_per_slack(monkeypatch):
    from hardspheres import construction

    calls = []
    original = construction._contact_pairs

    def counting(centers, radii, slack):
        calls.append(slack)
        return original(centers, radii, slack)

    monkeypatch.setattr(construction, "_contact_pairs", counting)
    gamma = random_gamma(np.random.default_rng(3), 5, 60)
    report = verify_hard_sphere(gamma)
    labels = cluster_components(gamma)
    assert calls == [TOL]
    assert report == brute_verify(gamma, TOL)
    assert np.array_equal(labels, brute_clusters(gamma, TOL))
    for col in (gamma.centers, gamma.radii, gamma.vertex, gamma.layer, gamma.point_ids):
        assert not col.flags.writeable


def test_tiny_gammas_match_brute_force():
    for centers, radii in (
        ([], []),
        ([[0.0, 0.0]], [0.5]),
        ([[0.0, 0.0], [1.0, 0.0]], [0.0, 0.0]),
        ([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5]),
    ):
        gamma = make_gamma(centers, radii)
        assert verify_hard_sphere(gamma) == brute_verify(gamma, TOL)
        assert same_clusters(gamma, TOL)


def test_contact_pairs_of_eta_style_leftovers():
    # many small positive radii, each half the distance to the nearest
    # other point, as the eta post-pass grows leftovers
    rng = np.random.default_rng(3)
    centers = rng.uniform(0.0, 4.0, (300, 5))
    radii = np.zeros(300)
    for k in range(0, 300, 3):
        dist = np.linalg.norm(np.delete(centers, k, axis=0) - centers[k], axis=1)
        radii[k] = dist.min() / 2.0
    radii[:10] = 0.75
    assert contact_pairs_match(centers, radii)
    assert _contact_pairs(centers, radii, TOL)[0].size >= 10


def test_contact_pairs_without_a_positive_radius_are_empty():
    centers = np.zeros((3, 4))
    centers[:, 0] = [0.0, 1e-12, 2e-12]
    I, J = _contact_pairs(centers, np.zeros(3), TOL)
    assert I.dtype == J.dtype == np.intp and I.size == J.size == 0


def test_contact_pairs_at_a_block_of_one_entry(monkeypatch):
    gamma = random_gamma(np.random.default_rng(8), 5, 60)
    want = _contact_pairs(gamma.centers, gamma.radii, TOL)
    monkeypatch.setattr(construction, "PAIR_BLOCK", 1)
    assert contact_pairs_match(gamma.centers, gamma.radii)
    got = _contact_pairs(gamma.centers, gamma.radii, TOL)
    assert [a.tolist() for a in got] == [a.tolist() for a in want]
    assert got[0].size >= 10


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


# The radii of crafted_gamma's pairs: in the last two a point of radius 0
# follows or precedes its sphere.
CRAFTED_RADII = ((0.75, 0.75), (0.85, 0.85), (0.7, 0.8), (0.8, 0.0), (0.0, 0.8))


def crafted_gamma(rng, d):
    """Pairs far apart from each other, three at each surface gap of
    exactly 0, +tol or -tol, or one ulp either side of +-tol, as math.dist
    measures it: the +tol pairs sit on the contact distance that decides
    which pairs are checked."""
    centers, radii = [], []
    for r1, r2 in CRAFTED_RADII:
        need = np.float64(r1) + np.float64(r2)
        targets = [need, need + TOL, need - TOL]
        targets += [np.nextafter(t, s) for t in targets[1:] for s in (-math.inf, math.inf)]
        for target in targets:
            placed = 0
            for _ in range(200):
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
    assert contact_pairs_match(gamma.centers, gamma.radii)
    got = verify_hard_sphere(gamma)
    assert got == brute_verify(gamma, TOL)
    n = len(CRAFTED_RADII) * 3
    assert len(got.violations) == n  # the -tol - 1 ulp pairs overlap
    assert got.n_pairs_checked == n * 6  # all but +tol + 1 ulp
    assert same_clusters(gamma, TOL)
    sizes = np.bincount(cluster_components(gamma))
    assert list(sizes).count(2) == n * 6


@pytest.mark.parametrize("d", [3, 31, 45])
def test_crafted_ties_far_from_the_origin_match_brute_force(d):
    # offset by 10^3, |x_i|^2 + |x_j|^2 - 2 x_i.x_j cancels about 12 of its
    # digits, while the pairs stay within about 1e-13 of each threshold
    gamma = crafted_gamma(np.random.default_rng(d), d)
    gamma = make_gamma(gamma.centers + 1e3, gamma.radii)
    assert contact_pairs_match(gamma.centers, gamma.radii)
    assert verify_hard_sphere(gamma) == brute_verify(gamma, TOL)
    assert same_clusters(gamma, TOL)



# -- inter-layer gaps ---------------------------------------------------------


def pairwise_gap_error(gamma):
    """The message of the ConstructionError the pairwise math.dist loop
    raises for gamma, or None."""
    by_layer = {}
    for k in np.flatnonzero(gamma.vertex >= 0):
        by_layer.setdefault(gamma.layers[gamma.layer[k]], []).append(k)
    layers = sorted(by_layer)
    x, r = gamma.centers, gamma.radii.tolist()
    for a in range(len(layers)):
        for b in range(a + 1, len(layers)):
            for i in by_layer[layers[a]]:
                for j in by_layer[layers[b]]:
                    gap = float(math.dist(x[i], x[j])) - r[i] - r[j]
                    if gap < 2.0 - 1e-9:
                        return (
                            f"inter-layer surface gap {gap} < 2 between "
                            f"layers {layers[a]} and {layers[b]}"
                        )
    return None


def gap_error(gamma):
    try:
        _assert_interlayer_gaps(gamma)
    except ConstructionError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("d", [3, 31])
def test_interlayer_gaps_match_the_pairwise_loop(d):
    """One pair per gamma at a distance within ulps of the gap bound, among
    spheres far apart, so that the decision at the bound is tested."""
    rng = np.random.default_rng(d)
    outcomes = []
    for r1, r2 in ((0.75, 0.75), (0.7, 0.85), (0.8, 1.0 / 3.0)):
        base = np.float64(2.0 - 1e-9) + r1 + r2
        targets = [base]
        for direction in (-math.inf, math.inf):
            t = base
            for _ in range(3):
                t = np.nextafter(t, direction)
                targets.append(t)
        for target in targets:
            a = np.zeros(d)
            b = place_at(rng, a, float(target))
            if b is None:
                continue
            far = [rng.uniform(-1.0, 1.0, size=d) + 50.0 * (k + 1) for k in range(4)]
            gamma = make_gamma(
                [a, far[0], far[1], b, far[2], far[3]],
                [r1, 0.75, 0.0, r2, 0.8, 0.75],
                layers=[(0,), (0,), (0,), (1,), (1,), (2,)],
            )
            want = pairwise_gap_error(gamma)
            assert gap_error(gamma) == want
            outcomes.append(want is None)
    assert len(outcomes) > 12 and True in outcomes and False in outcomes


def test_interlayer_gaps_report_the_first_pair_in_order():
    rng = np.random.default_rng(4)
    d = 5
    centers, radii, layers = [], [], []
    for layer in range(3):
        for _ in range(30):
            centers.append(rng.uniform(-3.0, 3.0, size=d) + 2.0 * layer)
            radii.append(float(rng.choice([0.75, 0.8, 0.0])))
            layers.append((layer,))
    gamma = make_gamma(centers, radii, layers=layers)
    want = pairwise_gap_error(gamma)
    assert want is not None
    assert gap_error(gamma) == want
    spread = make_gamma(
        [c + 1000.0 * lay[0] for c, lay in zip(centers, layers)], radii, layers=layers
    )
    assert gap_error(spread) is pairwise_gap_error(spread) is None


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
        layers=[(0, 0, 0), (1, 0, -2), (1, 0, -2), (0, 0, 0)],
        vertices=[0, 7, -1, np.int64(12)],
    )
    text = b"".join(_sphere_blocks(gamma)).decode()
    assert text == old_sphere_dump(gamma)
    assert text.splitlines()[0] == "0,0,0|0|constructed|0.75|-0 4.9406564584124654e-324 1.0000000000000001e+300"
    assert list(_sphere_blocks(make_gamma([], []))) == []


def mixed_gamma(rng, d, n):
    """Rows over four layers that change inside blocks, with coordinates of
    every magnitude %.17g distinguishes, specials among them."""
    scale = 10.0 ** rng.integers(-7, 18, size=(n, d))
    centers = rng.normal(size=(n, d)) * scale
    specials = np.array([0.0, -0.0, 5e-324, -1e-310, 1e-4, 1e15, math.inf, math.nan])
    hit = rng.random((n, d)) < 0.05
    centers[hit] = rng.choice(specials, size=int(hit.sum()))
    radii = [float(r) for r in rng.choice([0.0, 0.75, 1.0 / 3.0, 12345.678], size=n)]
    layers = [(int(k), 0, -int(k)) for k in np.sort(rng.integers(0, 4, size=n))]
    vertices = [int(v) if r > 0 else -1 for v, r in zip(rng.integers(0, 500, size=n), radii)]
    return make_gamma(list(centers), radii, layers=layers, vertices=vertices)


# A row of mixed_gamma(rng, 4, n) is 5 values of g17.WIDTH = 40 columns,
# 200 bytes; each case is named by the rows a block holds.
@pytest.mark.parametrize(
    "budget, rows",
    [
        pytest.param(1, 1, id="under-one-row"),
        pytest.param(200, 1, id="1"),
        pytest.param(1000, 5, id="5"),
        pytest.param(1599, 7, id="7"),
        pytest.param(1600, 8, id="8"),
        pytest.param(3199, 15, id="15"),
    ],
)
def test_sphere_dump_across_small_blocks(monkeypatch, budget, rows):
    monkeypatch.setattr(cli, "SPHERE_BLOCK_BYTES", budget)
    gamma = mixed_gamma(np.random.default_rng(rows), 4, 3 * 7 + 1)
    n = len(gamma.radii)
    blocks = list(_sphere_blocks(gamma))
    assert [b.count(b"\n") for b in blocks] == [rows] * (n // rows) + [n % rows] * (n % rows > 0)
    assert all(b.endswith(b"\n") for b in blocks)
    assert b"".join(blocks).decode() == old_sphere_dump(gamma)


def test_sphere_dump_across_default_blocks():
    for d, rows in ((3, 1638), (31, 204), (45, 142)):
        gamma = mixed_gamma(np.random.default_rng(d), d, 2 * rows + 1)
        blocks = list(_sphere_blocks(gamma))
        assert [b.count(b"\n") for b in blocks] == [rows, rows, 1]
        assert b"".join(blocks).decode() == old_sphere_dump(gamma)


def test_isolated_leftovers_beside_touching_chains():
    """Thousands of zero-radius leftovers, few of them on a sphere's
    surface: cluster_components unions only the touching spheres and must
    still return brute_clusters' list, singletons included."""
    rng = np.random.default_rng(11)
    d = 5
    chains = random_gamma(rng, d, 40)
    centers = list(chains.centers)
    radii = chains.radii.tolist()
    for _ in range(1500):
        k = int(rng.integers(len(chains.radii)))
        if radii[k] > 0 and rng.random() < 0.05:  # a leftover on a surface
            u = rng.normal(size=d)
            centers.append(centers[k] + radii[k] * u / np.linalg.norm(u))
        else:
            centers.append(rng.uniform(-40.0, 40.0, size=d))
        radii.append(0.0)
    order = rng.permutation(len(radii))
    gamma = make_gamma([centers[i] for i in order], [radii[i] for i in order])
    assert same_clusters(gamma, TOL)
    assert np.count_nonzero(np.bincount(cluster_components(gamma)) == 1) > 1000
    assert b"".join(_sphere_blocks(gamma)).decode() == old_sphere_dump(gamma)
