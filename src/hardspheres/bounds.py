"""Dimension-dependent success bounds for the cluster construction.

Two volumes control one exploration step: A, a lower bound on the volume of
the region where the next sphere center may land, and B, the volume of the
largest exclusion ball around a candidate center.  A step succeeds when the
candidate region is nonempty and the chosen center is isolated, giving the
success probability at intensity lam the lower bound

    F(lam) = 1 - lam * B - exp(-lam * A),

maximized at lam_star = log(A/B) / A with value 1 - (log(A/B) + 1) / (A/B).
A/B grows geometrically in the dimension: it first exceeds 1 at d = 31 and
F(lam_star) first clears 0.892 at d = 45.  0.892 matters because a site is
kept when two independent steps succeed, and 0.892^2 = 0.7957 lies above
the planar site-percolation threshold used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .geometry import (
    EPS,
    RADIUS_MAX,
    log_unit_ball_volume,
    step_volume_lower_bound,
    unit_ball_volume,
)

# Success threshold whose square clears the planar site-percolation bound.
DEFAULT_THRESHOLD = 0.892

MIN_DIMENSION_SUPPORTED = 11  # the step-volume lower bound needs d >= 11
MAX_DIMENSION_SUPPORTED = 450  # at 451 lambda_star overflows and A underflows to 0


def _check_dimension(d: int) -> None:
    if d < MIN_DIMENSION_SUPPORTED:
        raise ValueError(f"need d >= {MIN_DIMENSION_SUPPORTED}, got {d}")
    if d > MAX_DIMENSION_SUPPORTED:
        raise ValueError(f"need d <= {MAX_DIMENSION_SUPPORTED}, got {d}")


def constants_AB(d: int) -> tuple:
    """(A, B) for dimension d: A is the step-region volume lower bound,
    B = omega_d * RADIUS_MAX^d the largest exclusion-ball volume."""
    _check_dimension(d)
    A = step_volume_lower_bound(d)
    B = unit_ball_volume(d) * RADIUS_MAX**d
    return A, B


def log_constants_AB(d: int) -> tuple:
    """(log A, log B), stable for large d."""
    _check_dimension(d)
    m = d - 2
    half = 0.5 * m * math.log(1.2)
    # log(1.2^(m/2) - 1) without forming the big power.
    log_growth = half + math.log1p(-math.exp(-half))
    log_A = (
        math.log(math.pi)
        + 2.0 * math.log(EPS)
        + log_unit_ball_volume(m)
        - math.log(3.0)
        + log_growth
    )
    log_B = log_unit_ball_volume(d) + d * math.log(RADIUS_MAX)
    return log_A, log_B


def ratio_AB(d: int) -> float:
    """A/B computed from the two volume constants."""
    log_A, log_B = log_constants_AB(d)
    return math.exp(log_A - log_B)


def lambda_star(d: int) -> Optional[float]:
    """Maximizer log(A/B)/A of F, or None when A <= B (no useful intensity).
    d must lie in [MIN_DIMENSION_SUPPORTED, MAX_DIMENSION_SUPPORTED]."""
    lo, hi = MIN_DIMENSION_SUPPORTED, MAX_DIMENSION_SUPPORTED
    if not lo <= d <= hi:
        raise ValueError(f"lambda_star needs {lo} <= d <= {hi}, got d={d}")
    log_A, log_B = log_constants_AB(d)
    if log_A <= log_B:
        return None
    return (log_A - log_B) * math.exp(-log_A)


def exact_success_bound(lam: float, d: int) -> float:
    """G(lam) = exp(-lam*B) - exp(-lam*A): the sharper two-exponential form
    of the step-success lower bound (G >= F pointwise)."""
    if lam < 0:
        raise ValueError(f"intensity must be >= 0, got {lam}")
    A, B = constants_AB(d)
    return math.exp(-lam * B) - math.exp(-lam * A)


@dataclass(frozen=True)
class BoundsReport:
    d: int
    A: float
    B: float
    ratio: float
    lambda_star: Optional[float]
    F_star: Optional[float]
    exact_G_star: Optional[float]
    threshold: float
    passes_threshold: bool


def bounds_report(d: int, threshold: float = DEFAULT_THRESHOLD) -> BoundsReport:
    """Evaluate the optimized bound at dimension d.

    When A/B <= 1 the optimizer does not exist and lambda_star, F_star and
    exact_G_star are reported absent with passes_threshold False.
    """
    A, B = constants_AB(d)
    r = ratio_AB(d)
    if r <= 1.0:
        return BoundsReport(d, A, B, r, None, None, None, threshold, False)
    lam = lambda_star(d)
    # F(lambda_star) in terms of the ratio alone: 1 - (log r + 1)/r.
    f_star = 1.0 - (math.log(r) + 1.0) / r
    g_star = math.exp(-math.log(r) / r) - 1.0 / r
    return BoundsReport(
        d, A, B, r, lam, f_star, g_star, threshold, f_star >= threshold
    )


def min_dimension(threshold: float = DEFAULT_THRESHOLD) -> int:
    """First dimension whose optimized bound has a valid maximizer and
    F_star >= threshold.  threshold = 0 returns the first dimension with a
    valid maximizer at all.  F_star rounds to 1.0 from d = 186, so every
    threshold in [0, 1] has one; any other threshold is a ValueError."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    for d in range(MIN_DIMENSION_SUPPORTED, MAX_DIMENSION_SUPPORTED + 1):
        rep = bounds_report(d, threshold)
        if rep.lambda_star is not None and rep.F_star >= threshold:
            return d
    raise RuntimeError(
        f"threshold {threshold} not reached by d = {MAX_DIMENSION_SUPPORTED}"
    )


def isolated_bound(lam: float, d: int, r: float, vol_S: float) -> float:
    """Lower bound exp(-lam * omega_d * r^d) - exp(-lam * vol_S) for the
    probability that a region S of volume vol_S holds a point and a
    uniformly chosen one is r-isolated."""
    if lam < 0:
        raise ValueError(f"intensity must be >= 0, got {lam}")
    if r < 0:
        raise ValueError(f"isolation radius must be >= 0, got {r}")
    if vol_S < 0:
        raise ValueError(f"volume must be >= 0, got {vol_S}")
    return math.exp(-lam * unit_ball_volume(d) * r**d) - math.exp(-lam * vol_S)


def scan_dimensions(
    d_from: int, d_to: int, threshold: float = DEFAULT_THRESHOLD
):
    """Bounds reports for every dimension in [d_from, d_to], a range inside
    [MIN_DIMENSION_SUPPORTED, MAX_DIMENSION_SUPPORTED]."""
    lo, hi = MIN_DIMENSION_SUPPORTED, MAX_DIMENSION_SUPPORTED
    if not lo <= d_from <= d_to <= hi:
        raise ValueError(
            f"need {lo} <= d_from <= d_to <= {hi}, got {d_from}..{d_to}"
        )
    return [bounds_report(d, threshold) for d in range(d_from, d_to + 1)]
