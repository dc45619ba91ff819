"""Tangent hard-sphere clusters from a Poisson process on layered
hexagonal scaffolding, with the closed-form success bounds and the
statistical machinery to verify them."""

__version__ = "0.1.0"

from .bounds import (
    BoundsReport,
    bounds_report,
    constants_AB,
    exact_success_bound,
    isolated_bound,
    lambda_star,
    min_dimension,
    ratio_AB,
    scan_dimensions,
    success_lower_bound,
)
from .construction import (
    ConstructionParams,
    ExplorationState,
    GammaProcess,
    SphereRecord,
    assemble_gamma,
    cluster_components,
    run_layer,
    run_multilayer,
    verify_hard_sphere,
)
from .geometry import (
    Annulus,
    Ball,
    Cell,
    Difference,
    Intersection,
    ball_volume,
    mc_region_volume,
    unit_ball_volume,
)
from .hexlattice import StarLattice, build_lattice
from .percolation2d import (
    SiteGraph,
    ThetaEstimate,
    build_site_graph,
    estimate_theta,
    estimate_theta_coupled,
)
from .poisson import PickResult, PointSet, RegionRegistry, RegistryError
from .rngutil import RNG_ALGORITHM, derive_seed, generator

__all__ = [
    "__version__",
    "Annulus",
    "Ball",
    "BoundsReport",
    "Cell",
    "ConstructionParams",
    "Difference",
    "ExplorationState",
    "GammaProcess",
    "Intersection",
    "PickResult",
    "PointSet",
    "RegionRegistry",
    "RegistryError",
    "RNG_ALGORITHM",
    "SiteGraph",
    "SphereRecord",
    "StarLattice",
    "ThetaEstimate",
    "assemble_gamma",
    "ball_volume",
    "bounds_report",
    "build_lattice",
    "build_site_graph",
    "cluster_components",
    "constants_AB",
    "derive_seed",
    "estimate_theta",
    "estimate_theta_coupled",
    "exact_success_bound",
    "generator",
    "isolated_bound",
    "lambda_star",
    "mc_region_volume",
    "min_dimension",
    "ratio_AB",
    "run_layer",
    "run_multilayer",
    "scan_dimensions",
    "success_lower_bound",
    "unit_ball_volume",
    "verify_hard_sphere",
]
