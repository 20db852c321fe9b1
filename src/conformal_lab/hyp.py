"""Poincare disk primitives: points, distances, Mobius maps, and the batch
kernels that every mesh, point-anchored and collar quantity goes through:
pair distances, distances to one anchor, points in polar coordinates
around an anchor, signed distances to the real-axis geodesic, points in
Fermi coordinates along it, and triangle areas.

Conventions. The disk carries the metric (2 / (1 - |z|^2))^2 |dz|^2, which
has constant Gaussian curvature -1.  Distances are d(a, b) =
2 artanh |(a - b) / (1 - conj(a) b)|, a ball of hyperbolic radius R has
area 2 pi (cosh R - 1), and the Laplacian in geodesic polar coordinates
(r, theta) about any point is

    d^2/dr^2 + (cosh r / sinh r) d/dr + (1 / sinh^2 r) d^2/dtheta^2.

All operations here are pure; values are immutable and freely shareable.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, DomainError


@dataclass(frozen=True)
class DiskPoint:
    """A point strictly inside the unit disk."""

    x: float
    y: float

    def __post_init__(self):
        if not (self.x * self.x + self.y * self.y < 1.0):
            raise DomainError(
                f"point ({self.x}, {self.y}) is not strictly inside the unit disk"
            )

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


def _as_complex(p) -> complex:
    if isinstance(p, DiskPoint):
        return p.z
    z = complex(p)
    if not abs(z) < 1.0:
        raise DomainError(f"point {z} is not strictly inside the unit disk")
    return z


def disk_distance(p, q) -> float:
    """Hyperbolic distance between two disk points (curvature -1)."""
    a = _as_complex(p)
    b = _as_complex(q)
    t = abs(a - b) / abs(1.0 - a.conjugate() * b)
    return 2.0 * math.atanh(t)


def hyperbolic_midpoint(p, q) -> complex:
    """Midpoint of the geodesic segment between two disk points."""
    a = _as_complex(p)
    b = _as_complex(q)
    # Translate a to the origin, halve the (now straight) segment, pull back.
    w = (b - a) / (1.0 - a.conjugate() * b)
    r = abs(w)
    if r == 0.0:
        return a
    m = w * (math.tanh(0.5 * math.atanh(r)) / r)
    return (m + a) / (1.0 + a.conjugate() * m)


class MobiusTransform:
    """Disk-preserving Mobius map z -> (a z + b) / (c z + d).

    Coefficients are normalized to determinant 1.  After normalization a
    disk isometry satisfies d = conj(a) and c = conj(b) up to sign, which
    the constructor validates; the trace 2 Re(a) is then real.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        det = a * d - b * c
        if det == 0:
            raise ConstructionError("Mobius coefficients have zero determinant")
        s = cmath.sqrt(det)
        a, b, c, d = a / s, b / s, c / s, d / s
        scale = max(abs(a), abs(b), 1.0)
        if abs(d - a.conjugate()) > 1e-9 * scale or abs(c - b.conjugate()) > 1e-9 * scale:
            raise ConstructionError(
                "coefficients do not define a disk-preserving transform"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *_):
        raise AttributeError("MobiusTransform is immutable")

    def __repr__(self):
        return f"MobiusTransform({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"

    @classmethod
    def rotation(cls, theta: float) -> "MobiusTransform":
        """Rotation by theta about the origin."""
        h = cmath.exp(0.5j * theta)
        return cls(h, 0.0, 0.0, h.conjugate())

    @classmethod
    def x_translation(cls, t: float) -> "MobiusTransform":
        """Hyperbolic translation by length t along the real axis."""
        ch = math.cosh(0.5 * t)
        sh = math.sinh(0.5 * t)
        return cls(ch, sh, sh, ch)

    @classmethod
    def origin_to(cls, p) -> "MobiusTransform":
        """The translation z -> (z + w) / (1 + conj(w) z) taking 0 to p."""
        w = _as_complex(p)
        g = 1.0 / math.sqrt(1.0 - abs(w) ** 2)
        return cls(g, w * g, w.conjugate() * g, g)

    def apply_many(self, z):
        """The map applied to a complex number or numpy array."""
        return (self.a * z + self.b) / (self.c * z + self.d)

    def compose(self, other: "MobiusTransform") -> "MobiusTransform":
        """self after other: (self.compose(other))(z) = self(other(z))."""
        return MobiusTransform(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MobiusTransform":
        return MobiusTransform(self.d, -self.b, -self.c, self.a)

    def trace(self) -> float:
        return (self.a + self.d).real

    def translation_length(self) -> float:
        """Length 2 arccosh(|tr| / 2) of a hyperbolic element's translation."""
        t = abs(self.trace())
        if t <= 2.0 + 1e-12:
            raise ConstructionError(
                f"transform is not hyperbolic (|trace| = {t} <= 2)"
            )
        return 2.0 * math.acosh(0.5 * t)


def pair_distances(ax, ay, bx, by):
    """Hyperbolic distances between disk points (ax, ay) and (bx, by).

    Uses d = 2 artanh |a - b| / |1 - conj(a) b|, written out in disk
    coordinates (the curvature -1 normalization); the four arguments
    broadcast together.
    """
    ax, ay, bx, by = (np.asarray(v, dtype=np.float64) for v in (ax, ay, bx, by))
    dx = bx - ax
    dy = by - ay
    re = 1.0 - ax * bx - ay * by
    im = ax * by - ay * bx
    t = np.sqrt((dx * dx + dy * dy) / (re * re + im * im))
    return np.asarray(2.0 * np.arctanh(t))


def distances_to(x, y, anchor):
    """Hyperbolic distances from disk points (x, y) to one anchor point:
    pair_distances with the anchor as the second point."""
    b = _as_complex(anchor)
    return pair_distances(x, y, b.real, b.imag)


def polar_points(center, r, theta=None):
    """Disk points at hyperbolic radius r and angle theta around center.

    The translation taking 0 to center applied to tanh(r/2) e^{i theta};
    r and theta broadcast together, and theta None is the ray at angle 0.
    """
    ring = np.tanh(0.5 * np.asarray(r, dtype=np.float64))
    if theta is not None:
        ring = ring * np.exp(1j * np.asarray(theta, dtype=np.float64))
    return MobiusTransform.origin_to(center).apply_many(ring)


def axis_distances(x, y):
    """Signed hyperbolic distances from disk points (x, y) to the real axis.

    arcsinh(2y / (1 - x^2 - y^2)): positive in the upper half disk, and
    the r coordinate of fermi_points.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return np.arcsinh(2.0 * y / (1.0 - x * x - y * y))


def fermi_points(r, s):
    """Disk points in Fermi coordinates along the real-axis geodesic.

    The point at signed distance r from the axis whose foot lies at
    arclength s from the origin; r and s broadcast together, and the base
    metric reads dr^2 + cosh(r)^2 ds^2.
    """
    w = 1j * np.tanh(0.5 * np.asarray(r, dtype=np.float64))
    t = np.tanh(0.5 * np.asarray(s, dtype=np.float64))
    return (w + t) / (1.0 + t * w)


def _corner_angles(za, zb, zc):
    # Translate za to the origin; geodesics through 0 are straight, so the
    # corner angle is the Euclidean angle between the translated images.
    u = (zb - za) / (1.0 - np.conj(za) * zb)
    v = (zc - za) / (1.0 - np.conj(za) * zc)
    dot = u.real * v.real + u.imag * v.imag
    norm = np.abs(u) * np.abs(v)
    return np.arccos(np.clip(dot / norm, -1.0, 1.0))


def tri_areas(x, y, tris):
    """Hyperbolic areas of geodesic triangles via the angle deficit.

    Each row of ``tris`` indexes three disk points; the area is
    pi - (sum of the three corner angles), exact for geodesic sides.
    """
    z = np.asarray(x, dtype=np.float64) + 1j * np.asarray(y, dtype=np.float64)
    za = z[tris[:, 0]]
    zb = z[tris[:, 1]]
    zc = z[tris[:, 2]]
    ang = _corner_angles(za, zb, zc)
    ang += _corner_angles(zb, zc, za)
    ang += _corner_angles(zc, za, zb)
    return np.pi - ang
