"""Euclidean regions, ball volumes, and the overlap constant behind the
cluster construction.

Everything here is plain d-dimensional geometry: closed balls, thin
product cells (a 2-disc crossed with a (d-2)-ball), spherical shells, the
ring-sliced shells that bound a growth step, and Monte Carlo volume
estimation against an exactly sampleable bounding region.
The closed-form quantities (shell radii, the shell-minus-core profile, the
step-region lower bound) are what the dimension bounds in
:mod:`hardspheres.bounds` are built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .rngutil import generator

# Construction profile: sphere radii live in [MU - DELTA, MU + DELTA] and
# cells are 2-discs of radius EPS crossed with a large (d-2)-ball.  The
# planar separation constraint 2*(MU + DELTA + EPS) < sqrt(3) is what keeps
# non-adjacent lattice sites from ever interacting.
MU = 0.75
DELTA = 0.1
EPS = 0.01
RADIUS_MIN = MU - DELTA
RADIUS_MAX = MU + DELTA

_MAX_GAMMA_DIM = 300  # math.gamma overflows near d = 340


def unit_ball_volume(d: int) -> float:
    """Lebesgue volume of the unit ball in R^d: pi^(d/2) / Gamma(d/2 + 1)."""
    if d < 0:
        raise ValueError(f"dimension must be >= 0, got {d}")
    if d > _MAX_GAMMA_DIM:
        return math.exp(log_unit_ball_volume(d))
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def log_unit_ball_volume(d: int) -> float:
    """log of unit_ball_volume(d), safe for any dimension."""
    if d < 0:
        raise ValueError(f"dimension must be >= 0, got {d}")
    return (d / 2.0) * math.log(math.pi) - math.lgamma(d / 2.0 + 1.0)


def ball_volume(d: int, radius: float) -> float:
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    return unit_ball_volume(d) * radius**d


# Rows per block of the temporaries of the samplers and the membership
# tests: a block holds ROW_BLOCK * d floats however many points are drawn or
# tested.
ROW_BLOCK = 1 << 12


def _unit_directions(
    n: int, d: int, rng: np.random.Generator, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """n uniform directions on the unit sphere in R^d, written into ``out``
    (an (n, d) array or view; a fresh array when None) and returned:
    isotropic Gaussians divided in place by their norms.

    The normals are drawn ROW_BLOCK rows at a time in the order one (n, d)
    draw takes them, and each row's norm is np.linalg.norm's own formula, so
    the bytes match a single draw normalized by it."""
    if out is None:
        out = np.empty((n, d))
    direct = out.flags.c_contiguous  # else a column slice: one cell factor
    for i in range(0, n, ROW_BLOCK):
        g = out[i : i + ROW_BLOCK]
        if direct:
            rng.standard_normal(out=g)
        else:
            g[...] = rng.standard_normal(g.shape)
        norms = np.sqrt(np.add.reduce(g * g, axis=1, keepdims=True))
        # A d-dim standard normal is never numerically zero for the batch
        # sizes used here; guard anyway so a pathological draw cannot emit
        # NaN.
        norms[norms == 0.0] = 1.0
        g /= norms
    return out


def sample_in_ball(
    center: np.ndarray,
    radius: float,
    n: int,
    rng: np.random.Generator,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Draw n points uniformly from the ball B(center, radius).

    Isotropic Gaussian direction scaled by U^(1/d) times the radius; exact
    for every d >= 1.  The points are built in ``out`` (an (n, d) array or
    view; a fresh array when None), which is returned, so no other (n, d)
    array is allocated.
    """
    center = np.asarray(center, dtype=float)
    d = center.shape[0]
    out = _unit_directions(n, d, rng, out)
    u = rng.random((n, 1))
    out *= radius * u ** (1.0 / d)
    return np.add(center, out, out=out)


def _squared_distances(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    """|p - center|^2 per row.  Each block of ROW_BLOCK rows is differenced
    into one temporary and squared in place; the bytes equal
    np.sum((points - center) ** 2, axis=1)."""
    n = points.shape[0]
    out = np.empty(n)
    for i in range(0, n, ROW_BLOCK):
        diff = points[i : i + ROW_BLOCK] - center
        np.add.reduce(np.square(diff, out=diff), axis=1, out=out[i : i + ROW_BLOCK])
    return out


@dataclass(frozen=True)
class Ball:
    """Closed ball B(center, radius)."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.radius < 0:
            raise ValueError(f"ball radius must be >= 0, got {self.radius}")

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def volume(self) -> float:
        return ball_volume(self.dim, self.radius)

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return _squared_distances(points, self.center) <= self.radius**2

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return sample_in_ball(self.center, self.radius, n, rng)

    def bounding_ball(self) -> "Ball":
        return self


@dataclass(frozen=True)
class Cell:
    """Product cell: a planar 2-disc of radius ``eps`` around
    ``planar_center`` crossed with a (d-2)-ball of radius ``layer_radius``
    around ``layer_center``.

    ``layer_center`` of length 0 degenerates to the bare 2-disc (d = 2).
    """

    planar_center: np.ndarray
    eps: float
    layer_center: np.ndarray
    layer_radius: float

    def __post_init__(self):
        object.__setattr__(
            self, "planar_center", np.asarray(self.planar_center, dtype=float)
        )
        object.__setattr__(
            self, "layer_center", np.asarray(self.layer_center, dtype=float).reshape(-1)
        )
        if self.planar_center.shape != (2,):
            raise ValueError("planar_center must be a 2-vector")
        if self.eps < 0 or self.layer_radius < 0:
            raise ValueError("cell radii must be >= 0")

    @property
    def dim(self) -> int:
        return 2 + self.layer_center.shape[0]

    @property
    def center(self) -> np.ndarray:
        return np.concatenate([self.planar_center, self.layer_center])

    def volume(self) -> float:
        m = self.layer_center.shape[0]
        return (
            math.pi
            * self.eps**2
            * unit_ball_volume(m)
            * self.layer_radius**m
        )

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        ok = _squared_distances(points[:, :2], self.planar_center) <= self.eps**2
        if self.layer_center.shape[0]:
            l2 = _squared_distances(points[:, 2:], self.layer_center)
            ok &= l2 <= self.layer_radius**2
        return ok

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        out = np.empty((n, self.dim))
        sample_in_ball(self.planar_center, self.eps, n, rng, out=out[:, :2])
        if self.layer_center.shape[0]:
            sample_in_ball(
                self.layer_center, self.layer_radius, n, rng, out=out[:, 2:]
            )
        return out

    def bounding_ball(self) -> Ball:
        return Ball(self.center, math.hypot(self.eps, self.layer_radius))


@dataclass(frozen=True)
class Annulus:
    """Closed spherical shell {x : inner <= |x - center| <= outer}."""

    center: np.ndarray
    inner: float
    outer: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if not 0 <= self.inner <= self.outer:
            raise ValueError(
                f"need 0 <= inner <= outer, got inner={self.inner} outer={self.outer}"
            )

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def volume(self) -> float:
        d = self.dim
        return unit_ball_volume(d) * (self.outer**d - self.inner**d)

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        d2 = _squared_distances(points, self.center)
        return (d2 >= self.inner**2) & (d2 <= self.outer**2)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        d = self.dim
        g = _unit_directions(n, d, rng)
        u = rng.random((n, 1))
        lo, hi = self.inner**d, self.outer**d
        g *= (lo + u * (hi - lo)) ** (1.0 / d)
        return np.add(self.center, g, out=g)

    def bounding_ball(self) -> Ball:
        return Ball(self.center, self.outer)


# Rings of a StepShell's planar disc.
STEP_RINGS = 16


def _lens_area(dist: float, r1: float, r2: float) -> float:
    """Area of the intersection of two discs of radii r1 and r2 whose
    centers lie dist apart."""
    if r1 <= 0.0 or r2 <= 0.0 or dist >= r1 + r2:
        return 0.0
    if dist <= abs(r1 - r2):
        return math.pi * min(r1, r2) ** 2
    c1 = (dist * dist + r1 * r1 - r2 * r2) / (2.0 * dist * r1)
    c2 = (dist * dist + r2 * r2 - r1 * r1) / (2.0 * dist * r2)
    heron = (-dist + r1 + r2) * (dist + r1 - r2) * (dist - r1 + r2) * (dist + r1 + r2)
    return (
        r1 * r1 * math.acos(min(1.0, max(-1.0, c1)))
        + r2 * r2 * math.acos(min(1.0, max(-1.0, c2)))
        - 0.5 * math.sqrt(max(0.0, heron))
    )


@dataclass(frozen=True)
class StepShell:
    """Ring-sliced bounding region of a step: the planar disc of ``cell``
    cut into STEP_RINGS rings by the planar distance s from the annulus
    center's planar coordinates, over [D - eps, D + eps] with D the distance
    between the two planar centers.  Over ring k, [s_k, s_k+1], the layer
    part is the (d-2)-shell around the annulus center's layer coordinates
    with radii

        g_out,k = min(layer_radius, sqrt(outer^2 - s_k^2)),
        g_in,k  = min(g_out,k, sqrt(max(0, inner^2 - s_k+1^2))),

    so that cell & annulus lies inside the shell and the shell inside the
    cell.  ``cell``'s layer center must be the annulus center's layer part.

    The volume is omega_m sum_k area_k (g_out,k^m - g_in,k^m), with each
    ring's area a difference of two lens areas.  The sampler draws a uniform
    disc point, keeps it with probability W_k / max W (W_k = g_out,k^m -
    g_in,k^m, rejection from a dominating density; Devroye 1986, II.3),
    then a uniform point of ring k's shell.
    """

    cell: Cell
    annulus: Annulus

    def __post_init__(self):
        cell, ann = self.cell, self.annulus
        m = cell.layer_center.shape[0]
        if m == 0 or ann.dim != cell.dim:
            raise ValueError("a step shell needs a cell and an annulus of one dim >= 3")
        if not np.array_equal(cell.layer_center, ann.center[2:]):
            raise ValueError("the cell's layer center must be the annulus center's")
        D = math.dist(cell.planar_center, ann.center[:2])
        s = np.linspace(max(0.0, D - cell.eps), D + cell.eps, STEP_RINGS + 1)
        g_out2 = np.clip(ann.outer**2 - s[:-1] ** 2, 0.0, cell.layer_radius**2)
        g_in2 = np.clip(ann.inner**2 - s[1:] ** 2, 0.0, g_out2)
        g_max = math.sqrt(g_out2[0])
        # shell powers relative to g_max^m: the sampler needs only ratios
        lo = (np.sqrt(g_in2) / g_max) ** m
        hi = (np.sqrt(g_out2) / g_max) ** m
        lens = [_lens_area(D, cell.eps, x) for x in s]
        area = np.diff(lens)
        weight = hi - lo
        accept = weight / weight.max()
        for name, value in (
            ("_edges", s),
            ("_area", area),
            ("_g_in2", g_in2),
            ("_g_out2", g_out2),
            ("_g_max", g_max),
            ("_lo", lo),
            ("_hi", hi),
            ("_accept", accept),
            ("_keep_rate", float(area @ accept / area.sum())),
            ("_volume", unit_ball_volume(m) * g_max**m * float(area @ weight)),
        ):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.cell.dim

    def volume(self) -> float:
        return self._volume

    def _rings(self, planar: np.ndarray) -> np.ndarray:
        """Ring index of each planar point; points off the edges (never in
        the disc, but for roundoff) take the nearest ring."""
        s = np.sqrt(_squared_distances(planar, self.annulus.center[:2]))
        s -= self._edges[0]
        s *= STEP_RINGS / (self._edges[-1] - self._edges[0])
        return np.clip(s, 0, STEP_RINGS - 1).astype(np.intp)

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        cell = self.cell
        ok = _squared_distances(points[:, :2], cell.planar_center) <= cell.eps**2
        ring = self._rings(points[:, :2])
        l2 = _squared_distances(points[:, 2:], cell.layer_center)
        ok &= l2 >= self._g_in2[ring]
        ok &= l2 <= self._g_out2[ring]
        return ok

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        out = np.empty((n, self.dim))
        cell = self.cell
        ring = np.empty(n, dtype=np.intp)
        filled = 0
        while filled < n:
            want = n - filled
            k = int(want / self._keep_rate) + 16
            disc = sample_in_ball(cell.planar_center, cell.eps, k, rng)
            rings = self._rings(disc)
            kept = np.flatnonzero(rng.random(k) < self._accept[rings])[:want]
            out[filled : filled + kept.size, :2] = disc[kept]
            ring[filled : filled + kept.size] = rings[kept]
            filled += kept.size
        m = self.dim - 2
        layer = _unit_directions(n, m, rng, out[:, 2:])
        lo = self._lo[ring][:, None]
        u = rng.random((n, 1))
        u *= self._hi[ring][:, None] - lo
        u += lo
        layer *= self._g_max * u ** (1.0 / m)
        layer += cell.layer_center
        return out


@dataclass(frozen=True)
class Intersection:
    """Intersection of regions.  No closed-form volume; membership only."""

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("intersection needs at least one part")
        dims = {p.dim for p in self.parts}
        if len(dims) != 1:
            raise ValueError(f"mixed dimensions in intersection: {dims}")

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        ok = self.parts[0].contains(points)
        for part in self.parts[1:]:
            ok &= part.contains(points)
        return ok


@dataclass(frozen=True)
class Difference:
    """outer minus the union of subtracted regions."""

    outer: object
    subtracted: tuple

    def __post_init__(self):
        object.__setattr__(self, "subtracted", tuple(self.subtracted))
        for s in self.subtracted:
            if s.dim != self.outer.dim:
                raise ValueError("subtracted region dimension mismatch")

    @property
    def dim(self) -> int:
        return self.outer.dim

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        ok = self.outer.contains(points)
        for s in self.subtracted:
            # Subtracting a closed set from a closed set: a point on the
            # boundary of s is removed.  Measure zero either way.
            ok &= ~s.contains(points)
        return ok


Region = Union[Ball, Cell, Annulus, StepShell, Intersection, Difference]


def exact_volume(region: Region) -> Optional[float]:
    """Closed-form volume if the region type has one, else None."""
    if isinstance(region, (Ball, Cell, Annulus, StepShell)):
        return region.volume()
    return None


def region_contains_ball(region: Region, center: np.ndarray, radius: float) -> bool:
    """True if B(center, radius) provably lies inside the region.

    Exact for Ball, Cell, and Annulus; conservatively requires every part
    for Intersection, tests a StepShell's cell & annulus (a subset of it),
    and returns False for Difference (no cheap certificate).
    """
    center = np.asarray(center, dtype=float)
    if isinstance(region, StepShell):
        region = Intersection((region.cell, region.annulus))
    if isinstance(region, Ball):
        return math.dist(center, region.center) + radius <= region.radius
    if isinstance(region, Cell):
        planar = math.dist(center[:2], region.planar_center)
        if planar + radius > region.eps:
            return False
        if region.layer_center.shape[0] == 0:
            return True
        layer = math.dist(center[2:], region.layer_center)
        return layer + radius <= region.layer_radius
    if isinstance(region, Annulus):
        rho = math.dist(center, region.center)
        return rho - radius >= region.inner and rho + radius <= region.outer
    if isinstance(region, Intersection):
        return all(region_contains_ball(p, center, radius) for p in region.parts)
    return False


def region_lower_distance(a: Region, b: Region) -> float:
    """Provable lower bound on the distance between two regions.

    Exact for Ball/Cell pairs (product-cell distance decomposes over the
    planar and layer factors); annuli fall back to their outer balls, step
    shells to their cells, intersections take the best part, differences use
    their outer region.
    Returns a value <= 0 when no positive separation is certified; never
    overestimates the true distance.
    """
    if isinstance(a, Intersection):
        return max(region_lower_distance(p, b) for p in a.parts)
    if isinstance(b, Intersection):
        return max(region_lower_distance(a, p) for p in b.parts)
    if isinstance(a, Difference):
        return region_lower_distance(a.outer, b)
    if isinstance(b, Difference):
        return region_lower_distance(a, b.outer)
    if isinstance(a, StepShell):
        a = a.cell
    if isinstance(b, StepShell):
        b = b.cell
    if isinstance(a, Annulus):
        a = a.bounding_ball()
    if isinstance(b, Annulus):
        b = b.bounding_ball()
    if isinstance(a, Ball) and isinstance(b, Ball):
        return math.dist(a.center, b.center) - a.radius - b.radius
    if isinstance(a, Cell) and isinstance(b, Cell):
        dpl = math.dist(a.planar_center, b.planar_center) - a.eps - b.eps
        dly = (
            math.dist(a.layer_center, b.layer_center)
            - a.layer_radius
            - b.layer_radius
        )
        return math.hypot(max(0.0, dpl), max(0.0, dly))
    if isinstance(b, Cell):
        a, b = b, a
    if isinstance(a, Cell) and isinstance(b, Ball):
        dpl = math.dist(a.planar_center, b.center[:2]) - a.eps
        dly = math.dist(a.layer_center, b.center[2:]) - a.layer_radius
        return math.hypot(max(0.0, dpl), max(0.0, dly)) - b.radius
    return 0.0


def regions_disjoint(a: Region, b: Region) -> bool:
    """True only when the two regions are provably separated by more than
    1e-9.  A False result makes no claim either way."""
    return region_lower_distance(a, b) > 1e-9


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    std_error: float
    n_samples: int
    hits: int


def mc_region_volume(
    region: Region,
    bounding: Region,
    n: int,
    seed: int,
) -> VolumeEstimate:
    """Hit-or-miss volume estimate of ``region`` against ``bounding``.

    ``bounding`` must have an exact sampler and an exact volume (Ball,
    Cell, Annulus or StepShell).  The estimate is of vol(region & bounding), the
    region's volume when ``bounding`` contains it.  Deterministic in
    ``seed``; the binomial standard error is reported alongside the
    estimate.
    """
    vol = exact_volume(bounding)
    if vol is None:
        raise ValueError("bounding region must have an exact volume and sampler")
    if n <= 0:
        raise ValueError(f"need n >= 1 samples, got {n}")
    rng = generator(seed)
    hits = 0
    remaining = n
    while remaining > 0:
        k = min(1 << 18, remaining)
        pts = bounding.sample(k, rng)
        hits += int(np.count_nonzero(region.contains(pts)))
        remaining -= k
    p = hits / n
    return VolumeEstimate(
        value=vol * p,
        std_error=vol * math.sqrt(p * (1.0 - p) / n),
        n_samples=n,
        hits=hits,
    )


def shell_radii(R: float) -> tuple:
    """Planar-deficit radii of a ball of radius R cut by the thin cell slab.

    A point of the cell sits at planar distance between 1 - 2*EPS and
    1 + 2*EPS from the ball center's planar coordinates, so the layer
    section of B(x, R) inside the cell has radius between
    inner = sqrt(R^2 - (1 + 2 EPS)^2) and outer = sqrt(R^2 - (1 - 2 EPS)^2).
    Requires R > 1 + 2*EPS.
    """
    hi = 1.0 + 2.0 * EPS
    lo = 1.0 - 2.0 * EPS
    if R <= hi:
        raise ValueError(f"need R > {hi}, got R={R}")
    return math.sqrt(R**2 - hi**2), math.sqrt(R**2 - lo**2)


def cylinder_section_bracket(d: int, R: float) -> tuple:
    """Closed-form bracket for the volume of (thin cell) intersect B(x, R)
    when the planar centers sit at distance about 1 apart.

    Lower bound assumes the layer section keeps at least a third of its
    (d-2)-ball (valid once the big-ball constant passed the overlap check);
    upper bound is the full product.  Returns (lower, upper).
    """
    if d < 3:
        raise ValueError(f"need d >= 3, got {d}")
    r1, r2 = shell_radii(R)
    m = d - 2
    base = math.pi * EPS**2 * unit_ball_volume(m)
    return base * r1**m / 3.0, base * r2**m


def step_layer_radii(r: float) -> tuple:
    """Layer radii (shell_lo, core_hi, bound) for the step region at parent
    radius r.

    The step region lives between the spheres of radius r + MU -+ DELTA
    around the parent center, cut to a planar cell whose points sit at
    planar distance 1 -+ 2 EPS from the parent's planar coordinates.  Its
    layer section therefore contains a (d-2)-ball of radius
    shell_lo = sqrt((r+MU+DELTA)^2 - (1+2 EPS)^2) up to the inner cutout of
    radius at most core_hi = sqrt((r+MU-DELTA)^2 - (1-2 EPS)^2), and is
    contained in the ball of radius bound = sqrt((r+MU+DELTA)^2 - (1-2 EPS)^2).
    Domain: r in [MU - DELTA, MU + DELTA].
    """
    if not RADIUS_MIN - 1e-12 <= r <= RADIUS_MAX + 1e-12:
        raise ValueError(f"parent radius {r} outside [{RADIUS_MIN}, {RADIUS_MAX}]")
    r_out = r + MU + DELTA
    r_in = r + MU - DELTA
    shell_lo = math.sqrt(r_out**2 - (1.0 + 2.0 * EPS) ** 2)
    core_hi = math.sqrt(r_in**2 - (1.0 - 2.0 * EPS) ** 2)
    bound = math.sqrt(r_out**2 - (1.0 - 2.0 * EPS) ** 2)
    return shell_lo, core_hi, bound


def step_volume_lower_bound(d: int) -> float:
    """Dimension-dependent lower bound on the step-region volume, valid for
    d >= 11 once the overlap constant is large enough:

        pi * EPS^2 * omega_{d-2} / 3 * (1.2^((d-2)/2) - 1)

    The 1.2 comes from shell(RADIUS_MIN)^2 = 1.2096 > 1.2 and the dropped
    core term is absorbed because core(RADIUS_MIN)^2 = 0.7296 gives
    core^(d-2) <= 1/3 for d >= 11.
    """
    if d < 11:
        raise ValueError(f"lower bound requires d >= 11, got {d}")
    m = d - 2
    return math.pi * EPS**2 * unit_ball_volume(m) / 3.0 * (1.2 ** (m / 2.0) - 1.0)


def step_volume_bracket(d: int, r: float) -> tuple:
    """Closed-form (lower, upper) bracket for the step-region volume at
    parent radius r in dimension d.

    upper is the bounding product pi EPS^2 omega_{d-2} bound^{d-2}; lower
    keeps a third of the shell_lo ball and subtracts the full core ball.
    The lower entry can be <= 0 for small d; callers needing positivity
    should use d >= 11 where the profile is positive on the whole window.
    """
    if d < 3:
        raise ValueError(f"need d >= 3, got {d}")
    shell_lo, core_hi, bound = step_layer_radii(r)
    m = d - 2
    base = math.pi * EPS**2 * unit_ball_volume(m)
    return base * (shell_lo**m / 3.0 - core_hi**m), base * bound**m


def boundary_fraction(dim: int, c: float, R: float) -> float:
    """Share of the ball B(x, R) in R^dim that lies inside B(0, c), for a
    center x on the sphere |x| = c.

    The point x + s R u of B(x, R), with s in [0, 1] and u a unit vector,
    lies in B(0, c) exactly when u . x / c <= -t, t = s R / (2c).  That
    cap is the share 1/2 I_{1-t^2}((dim-1)/2, 1/2) of the unit sphere (Li,
    "Concise formulas for the area and volume of a hyperspherical cap",
    2011), so with the radial density dim s^(dim-1)

        share = integral over s in [0, min(1, 2c/R)] of
                dim s^(dim-1) 1/2 I_{1-(s R/2c)^2}((dim-1)/2, 1/2) ds.

    When 2c > R the integrand is smooth on [0, 1], and 64 Gauss-Legendre
    nodes match adaptive quadrature to about 1e-13 up to dim = 450.  When
    2c <= R it ends at s = 2c/R in a (dim-1)/2-power kink, but there
    B(0, c) lies inside B(x, R) and the share is (c/R)^dim exactly.  At
    dim = 1 the integral is 1/2 min(1, 2c/R).
    """
    if 2.0 * c <= R:
        return (c / R) ** dim
    from scipy import special

    nodes, weights = special.roots_legendre(64)
    s = 0.5 * (nodes + 1.0)
    t = s * (R / (2.0 * c))
    cap = 0.5 * special.betainc(0.5 * (dim - 1), 0.5, 1.0 - t * t)
    return float(0.5 * np.dot(weights, dim * s ** (dim - 1) * cap))


def search_overlap_constant(dim: int, R_max: float, seed: int = 0) -> int:
    """Smallest power-of-two C <= 2^20 such that every ball B(x, R),
    R <= R_max, centered inside B(0, C) keeps at least a third of its volume
    inside.

    The worst interior placement is covered by the boundary case of the
    shrunk ball B(0, C - R_max): for |x| = c the fraction is at least the
    boundary fraction at ball radius c, which increases in c and is
    minimized at c = C - R_max.  boundary_fraction evaluates that
    fraction to about 1e-13 without sampling, so C does not depend on
    ``seed``, which is accepted and ignored.
    """
    if dim < 1:
        raise ValueError(f"need dim >= 1, got {dim}")
    for k in range(21):
        c_eff = (1 << k) - R_max
        if c_eff > 0 and boundary_fraction(dim, c_eff, R_max) >= 1.0 / 3.0:
            return 1 << k
    raise RuntimeError(
        f"no power-of-two overlap constant up to 2^20 passed in dimension {dim}"
    )
