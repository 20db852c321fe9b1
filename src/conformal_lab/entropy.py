"""Closed-form entropy bounds attached to a conformal deformation.

Three independent quantities live here: the conformal-average factor that
squeezes measure entropy down and topological entropy up, the curvature
gap sqrt(2 pi |chi| / A) separating the two, and a covering-number bound
on topological entropy from the volume of a small coordinate ball.

Everything is a pure function of scalars or of quadratures the families
already provide; no dynamics is simulated.
"""

import math
import numbers
from dataclasses import asdict, dataclass

from .errors import DomainError, ParameterError

__all__ = [
    "EntropyBounds",
    "katok_bounds",
    "universal_gap",
    "coding_ball_count",
    "coding_entropy_bound",
]


@dataclass(frozen=True)
class EntropyBounds:
    """Entropy bounds for one normalized metric.

    katok_factor is the area-normalized mean of e^u; by Cauchy-Schwarz
    against the fixed total area of e^{2u} it never exceeds 1, so the
    measure-entropy bound sits at or below the base value and the
    topological-entropy bound at or above it.
    """

    katok_factor: float
    h_mu_upper: float
    h_top_lower: float
    universal_gap: float

    def to_dict(self) -> dict:
        return asdict(self)


def katok_bounds(metric) -> EntropyBounds:
    """Entropy bounds for an area-normalized conformal metric.

    The base metric has curvature -1, so its measure and topological
    entropies coincide at 1; the factor is the field's chart quadrature
    of e^u divided by the base area.
    """
    factor = float(metric.field.exp_integral(1)) / metric.surface.total_area
    if not 0.0 < factor:
        raise DomainError(f"conformal average came out nonpositive: {factor}")
    return EntropyBounds(
        katok_factor=factor,
        h_mu_upper=factor,
        h_top_lower=1.0 / factor,
        universal_gap=universal_gap(
            metric.surface.total_area, metric.surface.euler
        ),
    )


def universal_gap(area: float, chi: int) -> float:
    """The curvature-free separator sqrt(2 pi |chi| / area).

    Any metric of that area and Euler characteristic has measure entropy
    at most this value and topological entropy at least this value.
    """
    if area <= 0.0:
        raise DomainError(f"area must be positive, got {area}")
    if chi >= 0:
        raise DomainError(f"Euler characteristic must be negative, got {chi}")
    return math.sqrt(2.0 * math.pi * abs(chi) / area)


def coding_ball_count(volume: float, dim: int, rho: float) -> int:
    """Number of disjoint rho/4-balls that fit by volume alone."""
    if not 0.0 < volume < math.inf:
        raise ParameterError(f"volume must be positive and finite, got {volume}")
    integral = isinstance(dim, numbers.Integral) or math.isfinite(dim) and int(dim) == dim
    if not integral or dim < 2:
        raise ParameterError(f"dimension must be an integer >= 2, got {dim}")
    if not 0.0 < rho < math.inf:
        raise ParameterError(f"separation rho must be positive and finite, got {rho}")
    eps = 0.25 * rho
    try:
        nu = (eps * math.sqrt(math.pi)) ** dim / math.gamma(0.5 * dim + 1.0)
        return int(math.floor(volume / nu))
    except (OverflowError, ZeroDivisionError) as exc:
        raise ParameterError(
            f"ball count for volume {volume}, dim {dim}, rho {rho} is out of "
            f"floating-point range: {exc}"
        ) from exc


def coding_entropy_bound(volume: float, dim: int, rho: float) -> float:
    """Upper bound (ln N)/eps on topological entropy from ball packing.

    eps is rho/4 and N counts euclidean eps-balls fitting in the volume;
    a manifold whose systole keeps orbits rho-separated cannot code more
    than N symbols per eps of time.
    """
    count = coding_ball_count(volume, dim, rho)
    if count < 2:
        raise ParameterError(
            f"a ball of radius {0.25 * rho} outweighs the volume {volume} "
            f"(count {count}); no coding bound below two symbols"
        )
    return math.log(count) / (0.25 * rho)
