"""The paper's closed forms that criteria 1-2 compare the bounds against."""

import math

from hardspheres.bounds import MIN_DIMENSION_SUPPORTED, constants_AB
from hardspheres.geometry import RADIUS_MAX


def ratio_closed_form(d: int) -> float:
    """A/B via the reduced closed form
    1e-4 * d * (1.2^((d-2)/2) - 1) / (6 * 0.85^d), using the exact identity
    omega_{d-2} / omega_d = d / (2 pi)."""
    if d < MIN_DIMENSION_SUPPORTED:
        raise ValueError(f"need d >= {MIN_DIMENSION_SUPPORTED}, got {d}")
    m = d - 2
    return 1e-4 * d * (1.2 ** (m / 2.0) - 1.0) / (6.0 * RADIUS_MAX**d)


def success_lower_bound(lam: float, d: int) -> float:
    """F(lam) = 1 - lam*B - exp(-lam*A), a lower bound on per-step success."""
    if lam < 0:
        raise ValueError(f"intensity must be >= 0, got {lam}")
    A, B = constants_AB(d)
    return 1.0 - lam * B - math.exp(-lam * A)
