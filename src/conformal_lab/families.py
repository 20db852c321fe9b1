"""Explicit deformation families: collar shrinker, spike stretcher,
double-spike dumbbell and an always-nonpositively-curved radial family.
Every member is a ConformalMetric e^{2u} sigma in sigma's conformal class.

Each family is one ScalarField: values, closed-form Laplacian,
extrema and the two chart quadratures.  The stretcher and the dumbbell
share one: SpikeField puts the same power spike at each of its anchors,
one for the stretcher and two for the dumbbell.

All families are built from one C-infinity plateau bump

    bump(t; a) = q(s1) / (q(s1) + q(s2)),   q(s) = exp(-1/s) for s > 0,

with s1 = (a - |t|)/(a/2) and s2 = (|t| - a/2)/(a/2): identically 1 on
[-a/2, a/2], identically 0 outside (-a, a).  Its first two derivatives
come from the same closed forms, so curvature formulas are analytic.
Each jet routine (_q_jet, bump_jet, SpikeField.affine_jet) takes an
order, the number of derivatives it builds: values of u, the spike and
radial tables and the bounds scan take order 0, the radial Laplacian
order 1, and the other Laplacians, their integrals and the shrinker's
collar table the full jet.  Every entry is the same expression at every
order, so it is the same to the bit.

Each family is a private builder that checks its parameters and returns
its field at C = 0, every table that does not depend on C built once, and
its descriptor parameters.  make alone settles C: it takes a stored one,
or solves area(C) = area(sigma) through field.normalizing_C on the exact
zone-quadrature area, and conformal.make_metric checks the area at
field.with_C(C):

- shrinker: bisection on the collar quadrature;
- stretcher, dumbbell: the area is quadratic in C, so three quadratures
  and the positive root (conformal.normalize_area_quadratic);
- nonpositive_radial: bisection on e^{2C} times a C-free ball integral.

conformal.nonpositivity_check alone decides the curvature sign.
"""

import math
import numbers
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import conformal
from .errors import NormalizationError, ParameterError, UsageError
from .hyp import (
    DiskPoint,
    _as_complex,
    axis_distances,
    disk_distance,
    distances_to,
    fermi_points,
    polar_points,
)
from .surface import HyperbolicSurface

TWO_PI = 2.0 * math.pi

# exp(-1/s) underflows below s ~ 1/745; treat the whole tail as exact 0
_Q_FLOOR = 1.4e-3


def _q_jet(s, slope, order=2):
    """q(s(x)) and its first `order` x-derivatives (order 0, 1 or 2), for
    affine s with s' = slope."""
    s = np.asarray(s, dtype=float)
    jet = [np.zeros_like(s) for _ in range(order + 1)]
    ok = s > _Q_FLOOR
    si = s[ok]
    e = np.exp(-1.0 / si)
    jet[0][ok] = e
    if order >= 1:
        jet[1][ok] = e / si**2 * slope
    if order >= 2:
        jet[2][ok] = e * (1.0 / si**4 - 2.0 / si**3) * (slope * slope)
    return tuple(jet)


def bump_jet(x, a, order=2):
    """The plateau bump at x >= 0, half-width a, and its first `order`
    derivatives: (phi,), (phi, phi') or (phi, phi', phi'')."""
    x = np.asarray(x, dtype=float)
    jet = [np.zeros_like(x) for _ in range(order + 1)]
    inner = x <= 0.5 * a
    jet[0][inner] = 1.0
    mid = ~inner & (x < a)
    if np.any(mid):
        xm = x[mid]
        half = 0.5 * a
        n = _q_jet((a - xm) / half, -1.0 / half, order)
        q2 = _q_jet((xm - half) / half, 1.0 / half, order)
        den = n[0] + q2[0]
        jet[0][mid] = n[0] / den
        if order >= 1:
            dend = n[1] + q2[1]
            first = (n[1] * den - n[0] * dend) / den**2
            jet[1][mid] = first
        if order >= 2:
            dendd = n[2] + q2[2]
            jet[2][mid] = (n[2] * den - n[0] * dendd) / den**2 - 2.0 * dend * first / den
    return tuple(jet)


def _simpson_weights(x):
    """Composite Simpson weights at nodes x, for an odd count.

    The arithmetic of scipy.integrate.simpson(y, x=x) (scipy 1.17) for an
    odd count: each panel uses the unequal-spacing weights, and the same
    guards make a zero spacing contribute 0 instead of a division by 0.
    """
    if len(x) % 2 == 0:
        raise ValueError(f"Simpson's rule needs an odd sample count, got {len(x)}")
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    hprod = h0 * h1
    ratio = np.true_divide(h0, h1, out=np.zeros_like(h0), where=h1 != 0)
    inv_ratio = np.true_divide(1.0, ratio, out=np.zeros_like(ratio), where=ratio != 0)
    mid = hsum * np.true_divide(hsum, hprod, out=np.zeros_like(hsum), where=hprod != 0)
    return hsum / 6.0, 2.0 - inv_ratio, mid, 2.0 - ratio


def _simpson_apply(weights, y):
    """Simpson's rule of samples y with the weights of their nodes."""
    scale, left, mid, right = weights
    return float(np.sum(scale * (y[0:-2:2] * left + y[1:-1:2] * mid + y[2::2] * right)))


def _simpson(y, x):
    """Composite Simpson's rule of samples y at nodes x, for an odd count."""
    return _simpson_apply(_simpson_weights(x), y)


def _cumulative_trapezoid(y, x):
    """Running trapezoid integral of y over x, starting from 0.

    The arithmetic of scipy.integrate.cumulative_trapezoid(y, x, initial=0).
    """
    return np.concatenate([[0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)])


def _simpson_log(fn, lo, hi, n=8193):
    """Simpson in log r of fn(r) dr; handles intervals spanning decades."""
    x = np.linspace(math.log(lo), math.log(hi), n)
    r = np.exp(x)
    return _simpson(fn(r) * r, x)


# ---------------------------------------------------------------------------
# collar shrinker

# The area bisection resolves C only to about 3e-11; below this floor that
# error outweighs the collar's pull on the conformal average, and the
# enforced katok_factor_cap fails (at eps 0.2, delta 1e-11 and 1e-12 by
# 2.5e-11 and 2.9e-11).  From 1e-20 to 1e-80 Gauss-Bonnet totals run from
# 8.0e5 to -1.3e66; below ~1e-155 bump_jet overflows.  make and verify
# (levels 3-5, eps = systole, 0.2, 1e-5) pass warning-free down to 7.9e-11.
MIN_COLLAR_DELTA = 1e-10


class ShrinkerField(conformal.ScalarField):
    """u = -log(sys/eps) * phi(|r|; delta) + C (1 - phi), |r| the collar
    coordinate (signed distance from the systole geodesic).

    phi, phi', phi'', cosh r and tanh r on the collar grid [0, delta], with
    its Simpson weights, are C-free."""

    def __init__(self, sys_length, base_area, eps, delta):
        self.sys = float(sys_length)
        self.base_area = float(base_area)
        self.eps = float(eps)
        self.delta = float(delta)
        self.C = 0.0
        self.depth = math.log(self.sys / self.eps)  # u on the geodesic is -depth
        r = np.linspace(0.0, self.delta, 4097)
        self.phi, self.d1, self.d2 = bump_jet(r, self.delta)
        self.cosh, self.tanh = np.cosh(r), np.tanh(r)
        self.weights = _simpson_weights(r)

    def _profile_jet(self, r_abs, order=2):
        """u and its first `order` derivatives in |r|."""
        phi, *derivatives = bump_jet(r_abs, self.delta, order)
        amp = self.depth + self.C
        return (self.C - amp * phi, *(-amp * d for d in derivatives))

    def values(self, x, y):
        return self._profile_jet(np.abs(axis_distances(x, y)), 0)[0]

    def laplacian(self, x, y):
        r = np.abs(axis_distances(x, y))
        _, g1, g2 = self._profile_jet(r)
        return g2 + np.tanh(r) * g1

    def bounds(self):
        return min(-self.depth, self.C), max(-self.depth, self.C)

    def exp_integral(self, power):
        v = self.C - (self.depth + self.C) * self.phi
        collar = 2.0 * self.sys * _simpson_apply(self.weights, np.exp(power * v) * self.cosh)
        outside = self.base_area - 2.0 * self.sys * math.sinh(self.delta)
        return collar + math.exp(power * self.C) * outside

    def laplacian_integral(self):
        amp = self.depth + self.C
        lap = (-amp * self.d2 + self.tanh * (-amp * self.d1)) * self.cosh
        return 2.0 * self.sys * _simpson_apply(self.weights, lap)

    def sign_probe_points(self):
        z = fermi_points(np.linspace(0.0, self.delta, 2049), 0.0)
        return z.real, z.imag


def _shrinker(surface, eps, delta):
    """The member that shrinks the systole geodesic to g-length eps."""
    sys_length = surface.systole
    if not 0.0 < eps <= sys_length:
        raise ParameterError(
            f"shrinker needs 0 < eps <= systole {sys_length:.6f}, got {eps}"
        )
    if not math.isfinite(math.log(sys_length / eps)):
        raise ParameterError(
            f"shrinker eps {eps} is too small: the depth log(systole/eps) overflows"
        )
    if not MIN_COLLAR_DELTA <= delta <= surface.collar_half_width:
        raise ParameterError(
            f"collar half-width {delta} outside [{MIN_COLLAR_DELTA}, "
            f"{surface.collar_half_width}]: the area solve cannot resolve a "
            "thinner collar, and a wider one does not embed"
        )
    collar_area = 2.0 * sys_length * math.sinh(delta)
    if collar_area > 0.5 * surface.total_area:
        raise ParameterError(
            f"collar too large: sigma-area {collar_area:.4f} exceeds half "
            f"the surface area {surface.total_area:.4f}"
        )
    field = ShrinkerField(sys_length, surface.total_area, eps, delta)
    return field, {"eps": eps, "delta": delta}


# ---------------------------------------------------------------------------
# spike stretcher and dumbbell

# The closed-form Laplacian needs rho'' finite.  Near r1 = exp(-1/delta)
# the inner bump's second derivative scales like r1^-2, so rho'' grows
# like exp(log_inner + 2/delta), about exp(3/delta): it overflows double
# precision (exp(709.8)) below delta ~ 0.00423, whatever eps.  The
# squared factor exp(2 log_inner) alone would allow delta down to 0.003.
MIN_SPIKE_DELTA = 0.005


class SpikeField(conformal.ScalarField):
    """One power spike rho(d_sigma(., a)) at each anchor a over the constant
    background C: one anchor makes the stretcher, two the dumbbell.

    The radial profile is rho(r) = a(r) + b(r) C: inner plateau,
    r^{-(1-delta/2)} power zone on [exp(-1/delta), eps/2], constant C past
    eps; the conformal factor is e^u = rho.  The zone grids, two in log r
    and one in r, keep the C-free columns r, dr over the Simpson variable,
    sinh r, the Simpson weights, a and b.

    The area is quadratic in C, so normalizing_C takes its positive root
    (conformal.normalize_area_quadratic)."""

    def __init__(self, base_area, anchors, eps, delta):
        self.base_area = float(base_area)
        self.anchors = tuple(complex(a) for a in anchors)
        self.eps = float(eps)
        self.delta = float(delta)
        self.C = 0.0
        self.p_exp = 1.0 - 0.5 * self.delta
        self.r1 = math.exp(-1.0 / self.delta)
        self.log_amp = -0.5 * self.delta * math.log(0.5 * self.eps) + 0.5 * math.log(
            self.base_area * self.delta / (16.0 * math.pi)
        )
        self.log_inner = self.log_amp + self.p_exp * (math.log(2.0) + 1.0 / self.delta)
        self.grids = []
        for x, log in (
            (np.linspace(math.log(0.5 * self.r1), math.log(self.r1), 2049), True),
            (np.linspace(math.log(self.r1), math.log(0.5 * self.eps), 2049), True),
            (np.linspace(0.5 * self.eps, self.eps, 2049), False),
        ):
            r = np.exp(x) if log else x
            (a, b), = self.affine_jet(r, 0)
            self.grids.append((r, r if log else 1.0, np.sinh(r), _simpson_weights(x), a, b))

    def normalizing_C(self, target):
        return conformal.normalize_area_quadratic(
            lambda c: self.with_C(c).exp_integral(2), target
        )

    # -- the radial profile, r the sigma-distance to an anchor --------------

    def affine_jet(self, r, order=2):
        """rho and its first `order` r-derivatives at radii r, as pairs
        (a, b), each a + b C."""
        r = np.asarray(r, dtype=float)
        pe = bump_jet(r, self.eps, order)
        p1 = bump_jet(r, self.r1, order)
        c = [np.zeros_like(r) for _ in range(order + 1)]
        m = r > 0.5 * self.r1
        rm = r[m]
        c[0][m] = np.exp(self.log_amp - self.p_exp * np.log(rm))
        if order >= 1:
            c[1][m] = -self.p_exp / rm * c[0][m]
        if order >= 2:
            c[2][m] = self.p_exp * (self.p_exp + 1.0) / rm**2 * c[0][m]
        inner = math.exp(self.log_inner)
        bv = inner * p1[0] + (1.0 - p1[0]) * c[0]
        jet = [(pe[0] * bv, 1.0 - pe[0])]
        if order >= 1:
            bd = inner * p1[1] + (1.0 - p1[0]) * c[1] - p1[1] * c[0]
            jet.append((pe[1] * bv + pe[0] * bd, -pe[1]))
        if order >= 2:
            bdd = inner * p1[2] + (1.0 - p1[0]) * c[2] - 2.0 * p1[1] * c[1] - p1[2] * c[0]
            jet.append((pe[2] * bv + 2.0 * pe[1] * bd + pe[0] * bdd, -pe[2]))
        return tuple(jet)

    def rho(self, r):
        (a, b), = self.affine_jet(r, 0)
        return a + b * self.C

    def u_values(self, r):
        return np.log(self.rho(r))

    def radial_laplacian(self, r):
        """u'' + coth(r) u' for the radial profile u = log rho."""
        r = np.asarray(r, dtype=float)
        rv, rd, rdd = (a + b * self.C for a, b in self.affine_jet(r))
        u1 = rd / rv
        u2 = rdd / rv - u1 * u1
        coth_term = np.zeros_like(r)
        m = (u1 != 0.0) & (r > 0.0)
        coth_term[m] = u1[m] / np.tanh(r[m])
        return u2 + coth_term

    def _integrate(self, fn):
        """Sum over the zones of the integral of fn(r, a, b) 2 pi sinh r dr."""
        total = 0.0
        for r, dr, sinh, weights, a, b in self.grids:
            total += _simpson_apply(weights, fn(r, a, b) * TWO_PI * sinh * dr)
        return total

    def ball_exp_integral(self, power):
        """Integral of e^{power u} over one sigma-ball of radius eps."""
        plateau = math.exp(power * self.log_inner) * (
            4.0 * math.pi * math.sinh(0.25 * self.r1) ** 2
        )
        return plateau + self._integrate(lambda r, a, b: (a + b * self.C) ** power)

    def ball_laplacian_integral(self):
        return self._integrate(lambda r, a, b: self.radial_laplacian(r))

    def radial_segment_length(self):
        """Quadrature g-length of the radial segment r in [r1, eps/2]."""
        return _simpson_log(self.rho, self.r1, 0.5 * self.eps)

    def radial_length_bound(self):
        """Power-zone radial g-length in closed form, exact, not a bound: on
        [r1, eps/2] the spike is the pure power law, so the integral of rho
        is sqrt(A / (4 pi delta)) (1 - (eps/2)^(-delta/2) e^(-1/2))."""
        shrink = (0.5 * self.eps) ** (-0.5 * self.delta) * math.exp(-0.5)
        return (
            (1.0 / math.sqrt(self.delta))
            * math.sqrt(self.base_area / (4.0 * math.pi))
            * (1.0 - shrink)
        )

    def ramp_values(self, r):
        """Linear-in-g-radius test ramp: 1 inside r1, 0 outside eps/2."""
        top = (0.5 * self.eps) ** (0.5 * self.delta)
        t = (top - np.power(np.asarray(r, dtype=float), 0.5 * self.delta)) / (
            top - math.exp(-0.5)
        )
        return np.clip(t, 0.0, 1.0)

    def ramp_energy(self):
        """Continuum Dirichlet energy of the ramp over the annulus.

        Two-dimensional Dirichlet energy is conformally invariant, so the
        g-energy equals the sigma-quadrature of the squared radial slope.
        """
        top = (0.5 * self.eps) ** (0.5 * self.delta)
        norm = top - math.exp(-0.5)
        half_d = 0.5 * self.delta

        def fn(r):
            slope = half_d * np.power(r, half_d - 1.0) / norm
            return slope * slope * TWO_PI * np.sinh(r)

        return _simpson_log(fn, self.r1, 0.5 * self.eps)

    def annulus_area(self):
        """g-area of the ramp annulus [r1, eps/2].

        The ramp is linear in the g-radial coordinate there, so this area
        divided by the squared radial length IS the ramp's exact Dirichlet
        energy; ramp_energy() recovers it through an independent route.
        """

        def fn(r):
            rv = self.rho(r)
            return rv * rv * TWO_PI * np.sinh(r)

        return _simpson_log(fn, self.r1, 0.5 * self.eps)

    def sampled_min_u(self):
        """min u over radii through both transition zones, out to eps."""
        r = np.concatenate(
            [
                np.geomspace(0.5 * self.r1, 0.5 * self.eps, 4097),
                np.linspace(0.5 * self.eps, self.eps, 4097),
            ]
        )
        return float(np.min(self.u_values(r)))

    # -- the chart rules ----------------------------------------------------

    def _log_C(self):
        """log C of the background; a C <= 0 can only have been stored."""
        if not self.C > 0.0:
            # the area is quadratic in C, so a negative root normalizes it too
            raise UsageError(f"spike field: stored C={self.C!r} is not positive")
        return math.log(self.C)

    def _add_spikes(self, x, y, total, profile):
        """total plus profile(r) inside each anchor's eps-ball, r the
        sigma-distance to the anchor.

        The spikes have disjoint supports, and past eps rho is exactly C,
        so both the deviation of u from log C and the Laplacian are
        exactly 0 there and profile is never evaluated.
        """
        for anchor in self.anchors:
            r = distances_to(x, y, anchor)
            inside = r < self.eps
            term = np.zeros_like(r)
            term[inside] = profile(r[inside])
            total = total + term
        return total

    def values(self, x, y):
        logC = self._log_C()
        return self._add_spikes(x, y, logC, lambda r: self.u_values(r) - logC)

    def laplacian(self, x, y):
        return self._add_spikes(x, y, 0.0, self.radial_laplacian)

    def bounds(self):
        logC = self._log_C()
        return min(self.sampled_min_u(), logC), self.log_inner

    def exp_integral(self, power):
        n = len(self.anchors)
        ball_sigma = 4.0 * math.pi * math.sinh(0.5 * self.eps) ** 2
        return n * self.ball_exp_integral(power) + self.C**power * (
            self.base_area - n * ball_sigma
        )

    def laplacian_integral(self):
        return len(self.anchors) * self.ball_laplacian_integral()

    def sign_probe_points(self):
        # the spike is radial, so one ray per anchor samples every value
        # the sign scan could see; the radii resolve the inner and outer
        # transition zones
        radii = np.concatenate(
            [
                np.geomspace(0.25 * self.r1, 0.5 * self.eps, 4097),
                np.linspace(0.5 * self.eps, self.eps, 1025)[1:],
            ]
        )
        rays = np.concatenate([polar_points(a, radii) for a in self.anchors])
        return rays.real, rays.imag


def _spike(surface, anchors, eps, delta):
    """The stretcher (one anchor) or dumbbell (two anchors) member."""
    if eps <= 0.0:
        raise ParameterError(f"spike radius eps must be positive, got {eps}")
    if delta <= 0.0 or delta * math.log(2.0 / eps) >= 1.0:
        raise ParameterError(
            f"need 0 < delta < 1/log(2/eps) = {1.0 / math.log(2.0 / eps):.4f}, "
            f"got {delta}"
        )
    if delta < MIN_SPIKE_DELTA:
        raise ParameterError(
            f"delta {delta} below {MIN_SPIKE_DELTA}: the closed-form Laplacian "
            "would overflow double precision"
        )
    r_in = surface.domain.in_radius
    for p in anchors:
        if disk_distance(0j, p) + eps > r_in:
            raise ParameterError(
                f"eps-ball around {p} leaves the fundamental domain "
                f"(needs distance-to-center + eps <= {r_in:.4f})"
            )
    if len(anchors) == 2:
        sep = disk_distance(*anchors)
        if sep <= 2.0 * eps:
            raise ParameterError(
                f"anchors at distance {sep:.4f} overlap: "
                f"need d(p, q) > 2 eps = {2 * eps}"
            )
    params = {"eps": eps, "delta": delta}
    for key, anchor in zip("pq", anchors):
        params[key] = [anchor.real, anchor.imag]
    return SpikeField(surface.total_area, anchors, eps, delta), params


def _stretcher(surface, eps, delta, p):
    """A long thin spike at p (diameter blows up as delta -> 0)."""
    return _spike(surface, (p,), eps, delta)


def default_dumbbell_anchors(surface):
    """Opposite points on the real axis that are raw vertices of every
    mesh of level >= 2 (so the spike plateau mass is captured exactly)."""
    half_x = 0.5 * surface.domain.vertices[0].x
    return complex(-half_x, 0.0), complex(half_x, 0.0)


def _dumbbell(surface, eps, delta, p, q):
    """Two stretched bulbs joined by a thin neck (lambda_1 -> 0); p = q =
    None places the spikes at the default anchors."""
    if p is None and q is None:
        p, q = default_dumbbell_anchors(surface)
    elif p is None or q is None:
        raise UsageError("family 'dumbbell' needs both anchors 'p' and 'q' or neither")
    return _spike(surface, (p, q), eps, delta)


# ---------------------------------------------------------------------------
# nonpositively curved radial family

RADIAL_SUPPORT = 1.2      # bump half-width in r around the center
RADIAL_CENTER_MAX = 0.3   # keep the support ball inside the octagon


class RadialSlopeField(conformal.ScalarField):
    """u'(r) = -tanh(r/2) s(r) with s = amplitude * bump(r; 1.2).

    Then 1 + L_sigma u = (1 - s) - tanh(r/2) s' >= 0 pointwise for
    amplitude in [0, 1], since s <= 1 and s' <= 0: the metric is
    nonpositively curved by construction.  u - C = w(r) on the radial grid
    r, and the integral of e^{power w} over the support ball, once per
    power, are C-free.
    """

    curvature_sign_certificate = True

    def __init__(self, base_area, center, amplitude):
        self.base_area = float(base_area)
        self.center = complex(center)
        self.amplitude = float(amplitude)
        self.C = 0.0
        self.r = np.linspace(0.0, RADIAL_SUPPORT, 32769)
        phi, = bump_jet(self.r, RADIAL_SUPPORT, 0)
        slope = -np.tanh(0.5 * self.r) * self.amplitude * phi
        self.w = _cumulative_trapezoid(slope, self.r)
        self._inside = {}

    def _inside_integral(self, power):
        """Integral of e^{power w} over the support ball."""
        if power not in self._inside:
            y = np.exp(power * self.w) * TWO_PI * np.sinh(self.r)
            self._inside[power] = _simpson(y, self.r)
        return self._inside[power]

    def _w(self, r):
        return np.interp(np.asarray(r, dtype=float), self.r, self.w)

    def _radial_laplacian(self, r):
        """L_sigma u = u'' + coth(r) u' = -s - tanh(r/2) s' as a function
        of the radial coordinate."""
        r = np.asarray(r, dtype=float)
        phi, d1 = bump_jet(r, RADIAL_SUPPORT, 1)
        return -self.amplitude * phi - np.tanh(0.5 * r) * self.amplitude * d1

    def values(self, x, y):
        return self.C + self._w(distances_to(x, y, self.center))

    def laplacian(self, x, y):
        return self._radial_laplacian(distances_to(x, y, self.center))

    def bounds(self):
        return self.C + float(self.w[-1]), self.C

    def exp_integral(self, power):
        w_end = float(self.w[-1])
        ball_sigma = 4.0 * math.pi * math.sinh(0.5 * RADIAL_SUPPORT) ** 2
        outside = math.exp(power * w_end) * (self.base_area - ball_sigma)
        return math.exp(power * self.C) * (self._inside_integral(power) + outside)

    def laplacian_integral(self):
        return _simpson(self._radial_laplacian(self.r) * TWO_PI * np.sinh(self.r), self.r)


def _radial(surface, center, amplitude):
    """A nonpositively curved test metric bulging around a center point."""
    if not 0.0 <= amplitude <= 1.0:
        raise ParameterError(
            f"amplitude must lie in [0, 1] for the sign certificate, got {amplitude}"
        )
    if disk_distance(0j, center) > RADIAL_CENTER_MAX:
        raise ParameterError(
            f"center must stay within sigma-distance {RADIAL_CENTER_MAX} of the "
            "origin so the support ball embeds"
        )
    params = {"center": [center.real, center.imag], "amplitude": amplitude}
    return RadialSlopeField(surface.total_area, center, amplitude), params


# ---------------------------------------------------------------------------
# registry


class Family(NamedTuple):
    """How one family is built and which parameters it takes."""

    build: Callable   # build(surface, **params) -> (field at C = 0, descriptor params)
    required: tuple   # parameter names without a default
    optional: dict    # parameter name -> default


FAMILIES = {
    "base": Family(lambda surface: (conformal.ConstantField(surface.total_area), {}), (), {}),
    "shrinker": Family(_shrinker, ("eps", "delta"), {}),
    "stretcher": Family(_stretcher, ("eps", "delta"), {"p": 0j}),
    "dumbbell": Family(_dumbbell, ("eps", "delta"), {"p": None, "q": None}),
    "nonpositive_radial": Family(_radial, ("amplitude",), {"center": 0j}),
}

FAMILY_NAMES = tuple(FAMILIES)

#: parameters that are disk points; every other parameter is a real number
POINT_PARAMS = ("p", "q", "center")


def is_real(value):
    """True for int and float values that are finite floats (numpy's too), not bools."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _family(name):
    spec = FAMILIES.get(name) if isinstance(name, str) else None
    if spec is None:
        raise ParameterError(f"unknown family {name!r} (choose from {FAMILY_NAMES})")
    return spec


def _check_names(family, spec, params, complete):
    """Unknown keys are usage errors, so are missing required ones (and,
    when complete, missing optional ones)."""
    names = (*spec.required, *spec.optional)
    for key in params:
        if key not in names:
            raise UsageError(
                f"family '{family}' takes no parameter '{key}' (it takes {names})"
            )
    for key in names if complete else spec.required:
        if key not in params:
            raise UsageError(
                f"family '{family}' is missing required parameter '{key}'"
            )


def _checked(family, key, value):
    """A finite real number; for a point key a complex, DiskPoint or [x, y]."""
    if key not in POINT_PARAMS:
        if is_real(value):
            return value
        raise UsageError(
            f"family '{family}': parameter '{key}' must be a finite real number, "
            f"got {value!r}"
        )
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(map(is_real, value)):
        value = complex(*value)
    if not isinstance(value, (DiskPoint, numbers.Number)) or (
        isinstance(value, numbers.Real) and not is_real(value)  # a bool, nan or huge int
    ):
        raise UsageError(
            f"family '{family}': point '{key}' must be a complex number or "
            f"an [x, y] pair, got {value!r}"
        )
    return _as_complex(value)


def make(surface, /, family, C=None, **params):
    """Build a family member from keyword parameters.

    This is the one place family parameters are checked: an unknown family
    is a ParameterError; a missing or unknown key, or a value of the wrong
    type, is a UsageError; a point outside the open unit disk is a
    DomainError.  It is also the one place C is settled: the family builds
    its field at C = 0, and make solves C through field.normalizing_C or
    takes a stored C, which skips the solve; a stored C that does not
    normalize the area is a UsageError.
    """
    spec = _family(family)
    _check_names(family, spec, params, complete=False)
    params = {key: _checked(family, key, value) for key, value in params.items()}
    if C is not None:
        C = _checked(family, "C", C)
    field, params = spec.build(surface, **{**spec.optional, **params})
    if C is None:
        C = field.normalizing_C(surface.total_area)
        return conformal.make_metric(surface, field.with_C(C), family, params)
    try:
        return conformal.make_metric(surface, field.with_C(C), family, params)
    except NormalizationError as exc:
        raise UsageError(f"stored C={C!r} does not normalize the area: {exc}") from exc


def from_descriptor(doc, surface=None):
    """Rebuild a metric from its descriptor, reusing the stored constant."""
    if not isinstance(doc, dict):
        raise UsageError(f"a descriptor is a JSON object, got {type(doc).__name__}")
    version = doc.get("version")
    if type(version) is not int or version != 1:  # True and 1.0 equal 1 too
        raise UsageError(f"unsupported descriptor version {version!r}")
    family = doc.get("family")
    spec = _family(family)
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise UsageError(f"descriptor params of family '{family}' are not an object")
    _check_names(family, spec, params, complete=True)
    if doc.get("C") is None:
        raise UsageError(f"descriptor of family '{family}' has no constant 'C'")
    return make(
        surface if surface is not None else HyperbolicSurface(), family, C=doc["C"], **params
    )
