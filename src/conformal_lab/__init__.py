"""Numerical laboratory for conformal deformations of a closed hyperbolic surface."""

from .conformal import (
    ConformalMetric,
    base_metric,
    from_descriptor,
    gauss_bonnet,
    make_metric,
    nonpositivity_check,
    schwarz_upper_bound,
    to_descriptor,
    total_area,
)
from .entropy import (
    EntropyBounds,
    coding_entropy_bound,
    katok_bounds,
    universal_gap,
)
from .families import FAMILY_NAMES, make
from .geom import (
    Curve,
    curve_length,
    diameter_estimate,
    jensen_lower_bound,
)
from .report import BoundsReport, default_sweep_grid, sweep, verify_metric
from .spectral import (
    SpectralResult,
    assemble,
    conformal_eigen_sandwich,
    dumbbell_test_bound,
    eigenvalues,
)
from .surface import HyperbolicSurface, SurfaceMesh, base_spectrum, build_mesh

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "ConformalMetric",
    "Curve",
    "EntropyBounds",
    "FAMILY_NAMES",
    "HyperbolicSurface",
    "SpectralResult",
    "SurfaceMesh",
    "assemble",
    "base_metric",
    "base_spectrum",
    "build_mesh",
    "coding_entropy_bound",
    "conformal_eigen_sandwich",
    "curve_length",
    "default_sweep_grid",
    "diameter_estimate",
    "dumbbell_test_bound",
    "eigenvalues",
    "from_descriptor",
    "gauss_bonnet",
    "jensen_lower_bound",
    "katok_bounds",
    "make",
    "make_metric",
    "nonpositivity_check",
    "schwarz_upper_bound",
    "sweep",
    "to_descriptor",
    "total_area",
    "universal_gap",
    "verify_metric",
    "__version__",
]
