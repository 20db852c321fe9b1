"""Curve lengths, diameters, and the integral identities of the
deformation profile (circle and region integrals, Green-type residuals).

Curves are sampled in disk coordinates and measured by midpoint sampling
of e^u; no geodesic is integrated here.  The diameter is exact on the
g-weighted edge graph: eccentricity-bound pruning, where each Dijkstra run
also bounds the eccentricities from its images under the octagon
symmetries that the metric's edge weights keep.  The Green residuals are
checked by the acceptance tests only, not by verify reports.

Collar computations read the systole's Fermi chart from hyp:
fermi_points(r, s) is the point at signed distance r from the real-axis
geodesic and arclength s along it, axis_distances gives r back, and the
base metric there is dr^2 + cosh(r)^2 ds^2 with area element cosh(r).
"""

import cmath
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, RangeError, TopologyError, UsageError
from .hyp import _as_complex, disk_distance, fermi_points, pair_distances, polar_points
from .surface import GLUE_TOL

log = logging.getLogger(__name__)

TWO_PI = 2.0 * math.pi
RING_BLOCK = 64  # rings of a ball quadrature evaluated at once
SAMPLES_PER_EDGE = 8  # default e^u samples per edge of the diameter graph
CURVE_SAMPLES = 2049  # default samples of the systole curve


@dataclass
class Curve:
    samples: np.ndarray                 # (n, 2) disk coordinates

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2 or self.samples.shape[1] != 2:
            raise DomainError(f"curve samples must be (n, 2), got {self.samples.shape}")
        if self.samples.shape[0] < 2:
            raise DomainError("a curve needs at least two samples")


def systole_curve(surface, n=CURVE_SAMPLES) -> Curve:
    """n samples of the systole geodesic along the real axis, one period
    from side midpoint to side midpoint (the endpoints are glued copies)."""
    half_range = surface.domain.in_radius
    x = np.tanh(0.5 * np.linspace(-half_range, half_range, n))
    return Curve(samples=np.column_stack([x, np.zeros_like(x)]))


def _check_in_disk(samples):
    if np.any(np.sum(samples**2, axis=1) >= 1.0):
        raise RangeError("curve sample outside the unit disk")


def _segment_data(metric, curve):
    """Per-segment sigma-lengths and u at Euclidean segment midpoints."""
    pts = curve.samples
    _check_in_disk(pts)
    a, b = pts[:-1], pts[1:]
    seg = pair_distances(a[:, 0], a[:, 1], b[:, 0], b[:, 1])
    mid = 0.5 * (a + b)
    u_mid = np.asarray(metric.u_at(mid[:, 0], mid[:, 1]), dtype=float)
    return seg, u_mid


def curve_length(metric, curve: Curve) -> float:
    """g-length of a sampled curve: sum of e^{u(midpoint)} sigma-lengths."""
    seg, u_mid = _segment_data(metric, curve)
    return float(np.sum(np.exp(u_mid) * seg))


def jensen_lower_bound(metric, curve: Curve):
    """(l_g, l_sigma * exp(mean of u along the curve)); AM-GM gives >=."""
    seg, u_mid = _segment_data(metric, curve)
    l_sigma = float(np.sum(seg))
    if l_sigma == 0.0:
        raise DomainError("curve has zero sigma-length")
    l_g = float(np.sum(np.exp(u_mid) * seg))
    mean_u = float(np.sum(u_mid * seg)) / l_sigma
    return l_g, l_sigma * math.exp(mean_u)


def _edge_weights(metric, mesh, samples_per_edge):
    """g-lengths of mesh edges by midpoint (or k-point) sampling of e^u."""
    a = mesh.xy[mesh.edges[:, 0], 0] + 1j * mesh.xy[mesh.edges[:, 0], 1]
    b = mesh.xy[mesh.edges[:, 1], 0] + 1j * mesh.xy[mesh.edges[:, 1], 1]
    w = (b - a) / (1.0 - np.conj(a) * b)
    dist = np.arctanh(np.abs(w))  # half the sigma-length
    unit = w / np.abs(w)
    total = np.zeros(len(a))
    k = samples_per_edge
    for j in range(k):
        t = (j + 0.5) / k
        m = unit * np.tanh(t * dist)
        zt = (m + a) / (1.0 + np.conj(a) * m)
        u = np.asarray(metric.u_at(zt.real, zt.imag), dtype=float)
        total += np.exp(u)
    return mesh.edge_len_sigma / k * total


class _DiameterGraph(NamedTuple):
    """Per-mesh structure of the representative edge graph and its symmetries.

    `slots` holds the two CSR positions (both directions) of every raw
    edge.  Row g of `rep_inverse` is g^-1 on representatives and row g of
    `edge_perm` sends each raw edge to the index of its image under g;
    row 0 is the identity.
    """

    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray        # (2, n_edge) int32
    rep_inverse: np.ndarray  # (n_sym, n_rep) int32
    edge_perm: np.ndarray    # (n_sym, n_edge) int32


def _octagon_symmetries(mesh):
    """The maps z -> e^{ik pi/4} z and z -> e^{ik pi/4} conj(z) that carry
    the glued mesh onto itself, identity first, as (rep_inverse, edge_perm).

    A map is kept when it sends raw vertices to raw vertices within
    GLUE_TOL, raw edges to raw edges, and glued copies to glued copies.
    """
    from scipy.spatial import cKDTree

    z = mesh.xy[:, 0] + 1j * mesh.xy[:, 1]
    n_raw = len(z)
    edge_keys = mesh.edges.min(axis=1) * n_raw + mesh.edges.max(axis=1)
    edge_order = np.argsort(edge_keys)
    sorted_keys = edge_keys[edge_order]
    tree = cKDTree(mesh.xy)
    rep_inverse = np.empty((16, mesh.n_rep), dtype=np.int32)
    edge_perm = np.empty((16, len(edge_keys)), dtype=np.int32)
    rep_inverse[0] = np.arange(mesh.n_rep)
    edge_perm[0] = np.arange(len(edge_keys))
    count = 1
    for flip in (False, True):
        for k in range(1 - flip, 8):  # the identity is already in
            image = (np.conj(z) if flip else z) * cmath.exp(1j * k * math.pi / 4.0)
            dist, vmap = tree.query(np.column_stack([image.real, image.imag]))
            if dist.max() > GLUE_TOL or np.unique(vmap).size != n_raw:
                continue
            rep_map = np.empty(mesh.n_rep, dtype=np.int64)
            rep_map[mesh.rep] = mesh.rep[vmap]
            if not np.array_equal(rep_map[mesh.rep], mesh.rep[vmap]):
                continue
            ends = vmap[mesh.edges]
            keys = ends.min(axis=1) * n_raw + ends.max(axis=1)
            pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
            if not np.array_equal(sorted_keys[pos], keys):
                continue
            rep_inverse[count, rep_map] = np.arange(mesh.n_rep)
            edge_perm[count] = edge_order[pos]
            count += 1
    return rep_inverse[:count], edge_perm[:count]


def _diameter_graph(mesh) -> _DiameterGraph:
    """Representative edge CSR structure and mesh symmetries, cached."""
    if "diameter_graph" in mesh._cache:
        return mesh._cache["diameter_graph"]
    n = mesh.n_rep
    r0 = mesh.rep[mesh.edges[:, 0]]
    r1 = mesh.rep[mesh.edges[:, 1]]
    keys = np.concatenate([r0 * n + r1, r1 * n + r0])
    entries, slots = np.unique(keys, return_inverse=True)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(entries // n, minlength=n), out=indptr[1:])
    rep_inverse, edge_perm = _octagon_symmetries(mesh)
    mesh._cache["diameter_graph"] = _DiameterGraph(
        indptr=indptr,
        indices=(entries % n).astype(np.int32),
        slots=slots.astype(np.int32).reshape(2, -1),
        rep_inverse=rep_inverse,
        edge_perm=edge_perm,
    )
    return mesh._cache["diameter_graph"]


def diameter_estimate(metric, mesh, samples_per_edge=SAMPLES_PER_EDGE) -> float:
    """Exact diameter of the g-weighted edge graph of the glued mesh.

    Edge weights are g-lengths from k-point sampling of e^u; glued copies
    of an edge keep their minimum weight.  The value is the largest entry
    of the all-pairs distance matrix, found without building it by
    eccentricity-bound pruning, the BoundingDiameters method of Takes and
    Kosters ("Determining the diameter of small world networks", CIKM
    2011): each single-source Dijkstra run tightens a lower and an upper
    bound on every vertex's eccentricity, and vertices whose upper bound
    cannot exceed the largest eccentricity found are dropped.  Memory is
    O(n) in the number of vertices.

    Symmetry pruning: the octagon's rotations by pi/4 and its reflections
    that carry the mesh onto itself are found once per mesh.  Each metric
    keeps those that preserve every edge weight to 1e-13 relative, so a
    run from v also gives the distances from every image g v, and all of
    them tighten the bounds.  The diameter itself comes only from real
    runs, and the pruning margin covers the round-off of the symmetry.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    if samples_per_edge < 1:
        raise UsageError(
            f"samples_per_edge must be at least 1, got {samples_per_edge}"
        )
    weights = _edge_weights(metric, mesh, samples_per_edge)
    structure = _diameter_graph(mesh)
    data = np.full(len(structure.indices), np.inf)
    # duplicate glued edges keep their minimum weight
    for slots in structure.slots:
        np.minimum.at(data, slots, weights)
    graph = csr_matrix(
        (data, structure.indices, structure.indptr),
        shape=(mesh.n_rep, mesh.n_rep),
    )
    tol = 1e-13 * weights
    keep = [0] + [
        g for g in range(1, len(structure.edge_perm))
        if np.all(np.abs(weights[structure.edge_perm[g]] - weights) <= tol)
    ]
    inverse = structure.rep_inverse[keep]
    ecc_lo = np.zeros(mesh.n_rep)
    ecc_hi = np.full(mesh.n_rep, np.inf)
    live = np.ones(mesh.n_rep, dtype=bool)
    diam = 0.0
    runs = 0
    from_top = True
    while live.any():
        # alternate between the loosest upper and the lowest lower bound
        if from_top:
            v = int(np.argmax(np.where(live, ecc_hi, -np.inf)))
        else:
            v = int(np.argmin(np.where(live, ecc_lo, np.inf)))
        from_top = not from_top
        dist = dijkstra(graph, indices=v)
        runs += 1
        ecc = dist.max()
        if not np.isfinite(ecc):
            raise TopologyError("mesh graph is disconnected")
        diam = max(diam, ecc)
        # row g: distances from g v, since d(g v, w) = d(v, g^-1 w)
        images = dist[inverse]
        near = images.min(axis=0)
        np.maximum(ecc_lo, np.maximum(images.max(axis=0), ecc - near), out=ecc_lo)
        np.minimum(ecc_hi, ecc + near, out=ecc_hi)
        live[v] = False
        # the relative margin covers round-off in the triangle inequality
        # and in the symmetry, so no dropped vertex's computed eccentricity
        # can exceed diam
        live &= ecc_hi * (1.0 + 1e-12) > diam
    log.debug(
        "diameter: %d Dijkstra runs, symmetry group of order %d",
        runs, len(keep),
    )
    return float(diam)


def _check_embedded(metric, center, R, label):
    cz = _as_complex(center)
    if R <= 0.0:
        raise RangeError(f"{label} radius must be positive, got {R}")
    if disk_distance(0j, cz) + R > metric.surface.domain.in_radius:
        raise RangeError(
            f"{label} of radius {R} around {cz} is not contained in the "
            "fundamental domain"
        )


def circle_integral_u(metric, center, R, n_theta=1024) -> float:
    """Integral of u over the sigma-circle of radius R (against dl_sigma)."""
    _check_embedded(metric, center, R, "circle")
    pts = polar_points(center, R, np.arange(n_theta) * (TWO_PI / n_theta))
    u = np.asarray(metric.u_at(pts.real, pts.imag), dtype=float)
    return math.sinh(R) * float(np.mean(u)) * TWO_PI


def circle_lower_bound(max_u, R) -> float:
    """At-max circle bound: 2 pi sinh R (max u - 2 log cosh(R/2))."""
    return TWO_PI * math.sinh(R) * (max_u - 2.0 * math.log(math.cosh(0.5 * R)))


def region_integral_u(metric, center, R, grid=(1024, 1024)):
    """(ball integral of u against dv_sigma, closed-form at-max lower bound).

    The bound -2 pi - 4 pi ((cosh R + 1) log cosh(R/2) - cosh R / 2)
    applies when u attains a maximum >= 0 at the center and the metric is
    nonpositively curved.
    """
    _check_embedded(metric, center, R, "ball")
    n_r, n_t = grid
    r = np.linspace(0.0, R, n_r)
    theta = np.arange(n_t) * (TWO_PI / n_t)
    # each ring's mean is its own row reduction, so blocks of rings give
    # the same bits as the whole grid in bounded memory
    ring_means = np.empty(n_r)
    for lo in range(0, n_r, RING_BLOCK):
        pts = polar_points(center, r[lo:lo + RING_BLOCK, None], theta)
        u = np.asarray(metric.u_at(pts.real, pts.imag), dtype=float)
        ring_means[lo:lo + RING_BLOCK] = np.mean(u, axis=1)
    ring_means *= TWO_PI
    lhs = float(np.trapezoid(ring_means * np.sinh(r), r))
    rhs = -TWO_PI - 4.0 * math.pi * (
        (math.cosh(R) + 1.0) * math.log(math.cosh(0.5 * R)) - 0.5 * math.cosh(R)
    )
    return lhs, rhs


def at_max_green_residual(metric, center, rho, grid=(512, 512)) -> float:
    """|ball integral of lap u - flux through the boundary circle|.

    Everything is discretized on one polar grid: second-order finite
    differences for the derivatives, trapezoid/periodic-rectangle rules
    for the integrals, so the residual decays at second order.
    """
    _check_embedded(metric, center, rho, "ball")
    n_r, n_t = grid
    h = rho / n_r
    r_ext = np.linspace(0.0, rho + h, n_r + 2)
    pts = polar_points(center, r_ext[:, None], np.arange(n_t) * (TWO_PI / n_t))
    U = np.asarray(metric.u_at(pts.real, pts.imag), dtype=float)

    u_r = (U[2:] - U[:-2]) / (2.0 * h)
    u_rr = (U[2:] - 2.0 * U[1:-1] + U[:-2]) / (h * h)
    h_t = TWO_PI / n_t
    u_tt = (np.roll(U, -1, axis=1) - 2.0 * U + np.roll(U, 1, axis=1))[1:-1] / (h_t * h_t)

    r_in = r_ext[1:-1]
    integrand = (
        u_rr * np.sinh(r_in)[:, None]
        + u_r * np.cosh(r_in)[:, None]
        + u_tt / np.sinh(r_in)[:, None]
    )
    per_ring = np.mean(integrand, axis=1) * TWO_PI
    # the integrand vanishes at r = 0 (lap u bounded, sinh r -> 0)
    lhs = float(np.trapezoid(np.concatenate([[0.0], per_ring]),
                             np.concatenate([[0.0], r_in])))
    flux = math.sinh(rho) * float(np.mean(u_r[-1])) * TWO_PI
    return abs(lhs - flux)


def collar_green_residual(metric, eps, rho, grid=(512, 512)) -> float:
    """Green identity residual on the half-collar r in [-rho, -eps] of the
    systole of metric.surface.

    Compares the area integral of lap u against the flux difference
    cosh(eps) F'(-eps) - cosh(rho) F'(-rho), F(r) the sidewise integral
    of u, with all derivatives by grid-tied central differences.
    """
    surface = metric.surface
    if not 0.0 < eps < rho:
        raise RangeError(f"need 0 < eps < rho, got eps={eps}, rho={rho}")
    if rho >= surface.collar_half_width:
        raise RangeError(
            f"rho = {rho} reaches beyond the embedded collar width "
            f"{surface.collar_half_width}"
        )
    n_r, n_s = grid
    h = (rho - eps) / (n_r - 1)
    r_ext = np.linspace(-rho - h, -eps + h, n_r + 2)
    period = surface.systole
    s = np.arange(n_s) * (period / n_s)
    pts = fermi_points(r_ext[:, None], s[None, :])
    U = np.asarray(metric.u_at(pts.real, pts.imag), dtype=float)

    u_r = (U[2:] - U[:-2]) / (2.0 * h)
    u_rr = (U[2:] - 2.0 * U[1:-1] + U[:-2]) / (h * h)
    h_s = period / n_s
    u_ss = (np.roll(U, -1, axis=1) - 2.0 * U + np.roll(U, 1, axis=1))[1:-1] / (h_s * h_s)

    r_in = r_ext[1:-1]
    lap = u_rr + np.tanh(r_in)[:, None] * u_r + u_ss / np.cosh(r_in)[:, None] ** 2
    per_row = np.mean(lap * np.cosh(r_in)[:, None], axis=1) * period
    lhs = float(np.trapezoid(per_row, r_in))

    F = np.mean(U, axis=1) * period
    F_eps = (F[-1] - F[-3]) / (2.0 * h)
    F_rho = (F[2] - F[0]) / (2.0 * h)
    rhs = math.cosh(eps) * F_eps - math.cosh(rho) * F_rho
    return abs(lhs - rhs)
