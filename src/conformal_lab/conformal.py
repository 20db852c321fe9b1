"""Conformal deformations g = exp(2u) sigma of the base hyperbolic metric.

A deformation is described by a scalar profile u, well defined on the
quotient surface.  Every family supplies the same five things: pointwise
values, a closed-form Laplacian, the extrema over the fundamental domain,
and two chart quadratures, of exp(p*u) and of the Laplacian, against the
base area element.  Those rules matter: the interesting profiles vary over
dozens of orders of magnitude inside regions far smaller than any mesh
triangle, so mesh quadrature alone would be useless for area
normalization.  The mesh quadratures of area and total curvature remain
only as references for the chart rules.

Curvature bookkeeping uses the conformal change formula
K_g = -exp(-2u) * (1 + L_sigma u), with L_sigma the Laplacian of the
curvature -1 base metric.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NormalizationError, RangeError, UsageError
from .spectral import cotangent_stiffness
from .surface import HyperbolicSurface


class ScalarField:
    """Deformation profile u on the surface (abstract base).

    A family supplies u, its Laplacian, its extrema and two chart
    quadratures; the curvature, area, Gauss-Bonnet and entropy checks read
    nothing else.  Of a field's attributes only C, the normalization
    constant, depends on C: everything else, the member's tables included,
    is built once per member, and with_C(C) is the same member at another
    C, sharing all of it.  normalizing_C(target) solves for the C that
    makes the area the target.
    """

    #: True when the family proves 1 + L_sigma u >= 0 by construction.
    curvature_sign_certificate = False

    def values(self, x, y):
        """u at disk points, vectorized over numpy arrays."""
        raise NotImplementedError

    def laplacian(self, x, y):
        """Base-metric Laplacian of u at disk points, in closed form."""
        raise NotImplementedError

    def bounds(self):
        """(min u, max u) over the surface."""
        raise NotImplementedError

    def exp_integral(self, power):
        """Integral of exp(power*u) over the surface against the base area."""
        raise NotImplementedError

    def laplacian_integral(self):
        """Integral of L_sigma u over the surface."""
        raise NotImplementedError

    def sign_probe_points(self):
        """Extra (x, y) samples for the curvature sign scan; none by default.

        Families whose curvature concentrates below mesh resolution
        (power-law spikes transition at radius e^{-1/delta}) must expose
        the zones themselves or the scan would miss them entirely.
        """
        return np.empty(0), np.empty(0)

    def with_C(self, C):
        """The same member over the constant C; the copy shares every other
        attribute with this one."""
        twin = object.__new__(type(self))
        twin.__dict__ = {**self.__dict__, "C": float(C)}
        return twin

    def normalizing_C(self, target):
        """C with area(C) = target, by bisection on [-1, 1] (area increases
        with C).  A constant field solves to exactly 0.0 at the first
        midpoint."""
        return normalize_area(lambda c: self.with_C(c).exp_integral(2), target, -1.0, 1.0)


class ConstantField(ScalarField):
    """u identically C (the base metric when C is 0)."""

    curvature_sign_certificate = True

    def __init__(self, base_area):
        self.base_area = float(base_area)
        self.C = 0.0

    def values(self, x, y):
        return np.full(np.broadcast(np.asarray(x), np.asarray(y)).shape, self.C)

    def laplacian(self, x, y):
        return np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape)

    def bounds(self):
        return self.C, self.C

    def exp_integral(self, power):
        return self.base_area * math.exp(power * self.C)

    def laplacian_integral(self):
        return 0.0


@dataclass
class ConformalMetric:
    """A normalized deformation together with its provenance.

    `C` is the family's normalization constant (solved so the total area
    matches the base area); storing it makes descriptors reload to the
    bit-identical field without re-running the solve.
    """

    surface: HyperbolicSurface
    field: ScalarField
    family: str
    params: dict
    C: float
    area: float
    u_min: float
    u_max: float

    def u_at(self, x, y):
        """u at disk points; RangeError unless every x^2 + y^2 < 1."""
        xx, yy = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if not np.all(xx * xx + yy * yy < 1.0):
            raise RangeError("u evaluated at a point outside the open unit disk")
        return self.field.values(x, y)

    def factor_at(self, x, y):
        """Conformal factor exp(2u)."""
        return np.exp(2.0 * self.u_at(x, y))

    def u_raw(self, mesh):
        """u sampled at the raw mesh vertices."""
        return np.asarray(self.field.values(mesh.xy[:, 0], mesh.xy[:, 1]), dtype=float)


AREA_MATCH_TOL = 1e-8
NORMALIZE_TOL = 1e-10     # bisection stops once the bracket is this narrow
NORMALIZE_MAX_ITER = 200  # or, failing that, after this many steps


def make_metric(surface, field, family, params):
    """Package a field at its normalization constant field.C, checking the
    area invariant."""
    try:
        with np.errstate(over="raise"):
            area = field.exp_integral(2)
    except (OverflowError, FloatingPointError):  # an overflowing area misses too
        area = math.inf
    # written so that a NaN area misses too
    if not abs(area - surface.total_area) <= AREA_MATCH_TOL * max(1.0, surface.total_area):
        raise NormalizationError(
            f"family '{family}': area {area!r} misses target "
            f"{surface.total_area!r} beyond {AREA_MATCH_TOL}"
        )
    lo, hi = field.bounds()
    return ConformalMetric(
        surface=surface,
        field=field,
        family=family,
        params=dict(params),
        C=float(field.C),
        area=float(area),
        u_min=float(lo),
        u_max=float(hi),
    )


def base_metric(surface: HyperbolicSurface) -> ConformalMetric:
    """sigma itself, the constant field u = 0."""
    return make_metric(surface, ConstantField(surface.total_area), "base", {})


def normalize_area(area_of_C, target, lo, hi):
    """Solve area(C) = target for the normalization constant by bisection.

    area_of_C must be continuous and increasing on [lo, hi].  A bracket
    whose ends do not straddle the target, a NaN area among them, is a
    NormalizationError, and so is a bisection that has not narrowed the
    bracket below NORMALIZE_TOL after NORMALIZE_MAX_ITER steps.  The
    returned C is an exact root or the midpoint of the last bracket.
    """
    f_lo = area_of_C(lo) - target
    f_hi = area_of_C(hi) - target
    if not f_lo <= 0.0 <= f_hi:  # a NaN area fails too
        raise NormalizationError(
            f"no normalization bracket: area({lo})={f_lo + target}, "
            f"area({hi})={f_hi + target}, target={target}"
        )
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    for _ in range(NORMALIZE_MAX_ITER):
        mid = 0.5 * (lo + hi)
        f_mid = area_of_C(mid) - target
        if f_mid == 0.0:
            return mid
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < NORMALIZE_TOL:
            return 0.5 * (lo + hi)
    raise NormalizationError(
        f"bisection stalled after {NORMALIZE_MAX_ITER} iterations, bracket [{lo}, {hi}]"
    )


def normalize_area_quadratic(area_of_C, target):
    """Positive root C of area(C) = target for an area quadratic in C.

    The spike families have conformal factor rho = pe*bv + (1 - pe)*C with
    pe and bv free of C, and Simpson's rule is linear in the integrand, so
    their area is exactly a*C^2 + b*C + c0 with a > 0 and b >= 0.  The
    values at C = 0 and C = +-1 fix the coefficients; the root is taken as
    2|c| / (b + sqrt(b^2 + 4a|c|)), c = c0 - target, which does not cancel.
    An area(0) at or above the target leaves no positive root.
    """
    c0 = area_of_C(0.0)
    if not c0 < target:
        raise NormalizationError(
            f"no positive normalization constant: area(0)={c0} >= target={target}"
        )
    plus = area_of_C(1.0)
    minus = area_of_C(-1.0)
    a = 0.5 * (plus + minus) - c0
    b = 0.5 * (plus - minus)
    gap = target - c0
    return 2.0 * gap / (b + math.sqrt(b * b + 4.0 * a * gap))


def total_area(metric, mesh=None, method="chart"):
    """Total area of g, by the field's own rule or by mesh quadrature.

    Mesh methods, kept as references for the chart rule: 'three_point'
    averages exp(2u) over triangle corners, 'centroid' evaluates at the
    Euclidean centroid of the raw corners.
    """
    if method == "chart":
        return float(metric.field.exp_integral(2))
    if mesh is None:
        raise UsageError(f"mesh quadrature '{method}' needs a mesh")
    w = metric.factor_at(mesh.xy[:, 0], mesh.xy[:, 1])
    if method == "three_point":
        per_tri = np.mean(w[mesh.tris], axis=1)
    elif method == "centroid":
        cx = np.mean(mesh.xy[mesh.tris, 0], axis=1)
        cy = np.mean(mesh.xy[mesh.tris, 1], axis=1)
        per_tri = metric.factor_at(cx, cy)
    else:
        raise UsageError(f"unknown area method '{method}'")
    return float(np.sum(mesh.tri_area_sigma * per_tri))


@dataclass(frozen=True)
class NonpositivityResult:
    nonpositive: bool
    min_excess: float     # min over samples of 1 + L_sigma u
    tol: float
    method: str           # 'analytic': the closed-form Laplacian
    certified: bool       # family carries an analytic sign proof


ANALYTIC_SIGN_TOL = 1e-6


def nonpositivity_check(metric, mesh) -> NonpositivityResult:
    """Decide whether K_g <= 0 by sampling 1 + L_sigma u.

    The closed-form Laplacian is sampled at the raw mesh vertices, the
    triangle centroids and the field's own probe points.
    """
    x, y = mesh.xy[:, 0], mesh.xy[:, 1]
    cx = np.mean(mesh.xy[mesh.tris, 0], axis=1)
    cy = np.mean(mesh.xy[mesh.tris, 1], axis=1)
    px, py = metric.field.sign_probe_points()
    ex = 1.0 + np.concatenate([
        np.asarray(metric.field.laplacian(x, y), dtype=float).ravel(),
        np.asarray(metric.field.laplacian(cx, cy), dtype=float).ravel(),
        np.asarray(metric.field.laplacian(px, py), dtype=float).ravel(),
    ])
    min_excess = float(np.min(ex))
    return NonpositivityResult(
        nonpositive=bool(min_excess >= -ANALYTIC_SIGN_TOL),
        min_excess=min_excess,
        tol=ANALYTIC_SIGN_TOL,
        method="analytic",
        certified=bool(metric.field.curvature_sign_certificate),
    )


def schwarz_upper_bound(inj_radius: float) -> float:
    """Upper bound for max u over nonpositively curved normalized g."""
    if inj_radius <= 0.0:
        raise DomainError(f"injectivity radius must be positive, got {inj_radius}")
    return -math.log(math.tanh(0.5 * inj_radius))


@dataclass(frozen=True)
class GaussBonnetResult:
    value: float
    expected: float
    rel_error: float
    method: str


def gauss_bonnet(metric, mesh, method="chart") -> GaussBonnetResult:
    """Total curvature of g against the exact target 2 pi chi.

    The integral reduces to -(base area) - integral of L_sigma u.  The
    'chart' path evaluates the Laplacian integral by the family rule;
    the 'mesh' path, kept as a reference, uses the identity that the
    all-ones vector lies in the kernel of the stiffness matrix, so the
    discrete Laplacian integral is the (tiny) accumulated round-off of
    1^T K u.
    """
    expected = 2.0 * math.pi * mesh.euler_characteristic()
    base_area = mesh.total_area_sigma()
    if method == "chart":
        lap_int = metric.field.laplacian_integral()
    elif method == "mesh":
        K = cotangent_stiffness(mesh)
        u = metric.u_raw(mesh)
        u_rep = np.zeros(mesh.n_rep)
        u_rep[mesh.rep] = u
        lap_int = -float(np.sum(K @ u_rep))
    else:
        raise UsageError(f"unknown Gauss-Bonnet method '{method}'")
    value = -base_area - lap_int
    return GaussBonnetResult(
        value=float(value),
        expected=float(expected),
        rel_error=float(abs(value - expected) / abs(expected)),
        method=method,
    )


def to_descriptor(metric) -> dict:
    return {
        "version": 1,
        "family": metric.family,
        "params": dict(metric.params),
        "C": metric.C,
        "area": metric.area,
        "min_u": metric.u_min,
        "max_u": metric.u_max,
    }


def from_descriptor(doc, surface=None):
    """Rebuild a metric from a descriptor dict, bit-stable."""
    from . import families

    return families.from_descriptor(doc, surface=surface)
