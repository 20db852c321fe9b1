"""Lengths, diameters, circle and ball integrals, Green residuals."""

from __future__ import annotations

import dataclasses
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.csgraph
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from conformal_lab import build_mesh, families, geom, report
from conformal_lab.conformal import base_metric
from conformal_lab.errors import DomainError, RangeError, TopologyError, UsageError
from conformal_lab.geom import (
    Curve,
    at_max_green_residual,
    circle_integral_u,
    circle_lower_bound,
    collar_green_residual,
    curve_length,
    diameter_estimate,
    jensen_lower_bound,
    region_integral_u,
    systole_curve,
)
from conformal_lab.hyp import MobiusTransform, axis_distances, disk_distance, fermi_points


# ---------------------------------------------------------------------------
# curves and charts


def test_curve_needs_two_samples():
    with pytest.raises(DomainError):
        Curve(samples=np.array([[0.0, 0.0]]))
    with pytest.raises(DomainError):
        Curve(samples=np.zeros((4, 3)))


def test_fermi_chart_roundtrip():
    for r, s in [(0.1, 0.5), (-0.3, -1.2), (0.44, 1.4)]:
        z = complex(fermi_points(r, s))
        # (r, s) from the disk point, normal coordinates of the real axis
        nrm = abs(z) ** 2
        r2 = axis_distances(z.real, z.imag)
        s2 = math.atanh(2.0 * z.real / (1.0 + nrm))
        assert r2 == pytest.approx(r, abs=1e-13)
        assert s2 == pytest.approx(s, abs=1e-13)


def test_fermi_chart_axis_is_real_axis():
    z = fermi_points(0.0, 0.7)
    assert complex(z).imag == 0.0


def test_curve_length_matches_distance_on_base(surface):
    base = base_metric(surface)
    t = np.linspace(0.0, 0.6, 2049)
    curve = Curve(samples=np.column_stack([t, np.zeros_like(t)]))
    # Base metric: g-length is the hyperbolic length of the segment.
    assert curve_length(base, curve) == pytest.approx(disk_distance(0j, 0.6), rel=1e-7)


def test_curve_length_rejects_outside_samples(surface):
    base = base_metric(surface)
    bad = Curve(samples=np.array([[0.0, 0.0], [1.5, 0.0]]))
    with pytest.raises(RangeError):
        curve_length(base, bad)


def test_jensen_bound_base_is_equality(surface):
    base = base_metric(surface)
    curve = systole_curve(surface, n=513)
    l_g, bound = jensen_lower_bound(base, curve)
    assert l_g == pytest.approx(bound, rel=1e-14)


def test_jensen_bound_holds_for_deformed(surface):
    metric = families.make(surface, "shrinker", eps=0.2, delta=0.1)
    curve = systole_curve(surface, n=513)
    l_g, bound = jensen_lower_bound(metric, curve)
    assert l_g >= bound - 1e-12 * max(1.0, abs(bound))


# ---------------------------------------------------------------------------
# circle and region integrals


def test_circle_integral_base_is_zero(surface):
    base = base_metric(surface)
    assert circle_integral_u(base, 0j, 1.0) == 0.0


def test_circle_integral_embedding_guard(surface):
    base = base_metric(surface)
    with pytest.raises(RangeError):
        circle_integral_u(base, 0j, 2.0)
    with pytest.raises(RangeError):
        circle_integral_u(base, 0.5 + 0j, 1.0)


def test_circle_lower_bound_formula():
    val = circle_lower_bound(0.3, 1.0)
    expected = 2 * math.pi * math.sinh(1.0) * (0.3 - 2.0 * math.log(math.cosh(0.5)))
    assert val == pytest.approx(expected, rel=1e-14)


def test_region_bound_oracles(surface):
    base = base_metric(surface)
    _, rhs_half = region_integral_u(base, 0j, 0.5, grid=(64, 64))
    _, rhs_one = region_integral_u(base, 0j, 1.0, grid=(64, 64))
    assert rhs_half == pytest.approx(-0.02505823116845285, rel=1e-12)
    assert rhs_one == pytest.approx(-0.4262583183328319, rel=1e-12)


def test_region_bound_holds_for_at_max_family(surface):
    # Radial members peak at the center with nonpositive curvature, the
    # regime where the closed-form ball bound applies.
    metric = families.make(surface, "nonpositive_radial", amplitude=1.0)
    for R in (0.5, 1.0):
        lhs, rhs = region_integral_u(metric, 0j, R)
        assert lhs >= rhs - 1e-9
    u_int = circle_integral_u(metric, 0j, 1.0)
    assert u_int >= circle_lower_bound(metric.u_max, 1.0) - 1e-9


def _whole_grid_region_lhs(metric, cz, R, grid):
    """region_integral_u's lhs evaluated on the whole polar grid at once."""
    n_r, n_t = grid
    r = np.linspace(0.0, R, n_r)
    theta = np.arange(n_t) * (2.0 * math.pi / n_t)
    ring = np.tanh(0.5 * r)[:, None] * np.exp(1j * theta)[None, :]
    pts = MobiusTransform.origin_to(cz).apply_many(ring.ravel()).reshape(ring.shape)
    u = np.asarray(metric.u_at(pts.real, pts.imag), dtype=float)
    ring_means = np.mean(u, axis=1) * (2.0 * math.pi)
    return float(np.trapezoid(ring_means * np.sinh(r), r))


@pytest.mark.parametrize(
    "family, params, center, R",
    [
        ("nonpositive_radial", {"amplitude": 0.5}, 0j, 1.0),
        ("nonpositive_radial", {"amplitude": 1.0}, 0j, 0.5),
        ("shrinker", {"eps": 0.2, "delta": 0.1}, 0.1 + 0.05j, 0.5),
    ],
)
def test_region_integral_blocks_match_whole_grid(surface, family, params, center, R):
    metric = families.make(surface, family, **params)
    grid = (200, 96)  # not a multiple of the ring block
    lhs, _ = region_integral_u(metric, center, R, grid=grid)
    assert lhs == _whole_grid_region_lhs(metric, center, R, grid)


def test_region_integral_memory_is_bounded(surface):
    metric = families.make(surface, "nonpositive_radial", amplitude=1.0)
    tracemalloc.start()
    try:
        region_integral_u(metric, 0j, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole default 1024 x 1024 grid takes 16 MB per complex array
    assert peak < 16 * 1024 * 1024


# ---------------------------------------------------------------------------
# Green identity residuals


def test_at_max_residual_decays_second_order(surface):
    metric = families.make(surface, "nonpositive_radial", amplitude=1.0)
    coarse = at_max_green_residual(metric, 0j, 1.0, grid=(128, 128))
    fine = at_max_green_residual(metric, 0j, 1.0, grid=(256, 256))
    assert fine < 1e-4
    assert coarse / fine == pytest.approx(4.0, rel=0.35)


def test_collar_residual_decays_second_order(surface):
    metric = families.make(surface, "shrinker", eps=0.2, delta=0.1)
    coarse = collar_green_residual(metric, 0.02, 0.3, grid=(128, 128))
    fine = collar_green_residual(metric, 0.02, 0.3, grid=(256, 256))
    assert fine < 1e-6
    assert coarse / fine == pytest.approx(4.0, rel=0.35)


def test_collar_residual_guards(surface):
    metric = families.make(surface, "shrinker", eps=0.2, delta=0.1)
    with pytest.raises(RangeError):
        collar_green_residual(metric, 0.3, 0.02)
    with pytest.raises(RangeError):
        collar_green_residual(metric, 0.02, 0.6)


# ---------------------------------------------------------------------------
# diameter


def test_base_diameter_estimate_range(surface, mesh3):
    base = base_metric(surface)
    diam = diameter_estimate(base, mesh3)
    # The graph estimate overshoots the true diameter slightly; it must
    # land between the in-radius and twice the circumradius.
    assert surface.domain.in_radius < diam < 2.0 * surface.domain.circumradius
    assert diam == pytest.approx(2.4578568369338623, rel=1e-12)


def test_diameter_default_sampling_is_the_sweeps(surface, mesh3):
    params = {"family": "stretcher", "eps": 0.2, "delta": 0.1}
    (row,) = report.sweep(surface, mesh3, [params]).rows
    metric = families.make(surface, **params)
    assert diameter_estimate(metric, mesh3) == row["diameter"]


def test_stretcher_grows_diameter(surface, mesh3):
    wide = families.make(surface, "stretcher", eps=0.2, delta=0.4)
    thin = families.make(surface, "stretcher", eps=0.2, delta=0.2)
    d_wide = diameter_estimate(wide, mesh3, samples_per_edge=64)
    d_thin = diameter_estimate(thin, mesh3, samples_per_edge=64)
    assert d_thin > d_wide


def _all_pairs_diameter(metric, mesh, samples_per_edge):
    """Reference: the largest entry of the all-pairs distance matrix on the
    graph diameter_estimate searches."""
    weights = geom._edge_weights(metric, mesh, samples_per_edge)
    r0 = mesh.rep[mesh.edges[:, 0]]
    r1 = mesh.rep[mesh.edges[:, 1]]
    lo = np.minimum(r0, r1)
    hi = np.maximum(r0, r1)
    keys = lo.astype(np.int64) * mesh.n_rep + hi
    order = np.lexsort((weights, keys))
    keys_sorted = keys[order]
    first = np.concatenate([[True], keys_sorted[1:] != keys_sorted[:-1]])
    sel = order[first]
    graph = csr_matrix(
        (weights[sel], (lo[sel], hi[sel])), shape=(mesh.n_rep, mesh.n_rep)
    )
    return float(dijkstra(graph, directed=False).max())


def test_diameter_equals_all_pairs_on_default_grid(surface, mesh3):
    for params in report.default_sweep_grid():
        metric = families.make(surface, **params)
        assert diameter_estimate(metric, mesh3, samples_per_edge=8) == (
            _all_pairs_diameter(metric, mesh3, 8)
        ), params


def test_diameter_equals_all_pairs_at_level4(surface, mesh4):
    members = [{"family": "base"}]
    for params in report.default_sweep_grid():
        if params["family"] not in {m["family"] for m in members}:
            members.append(params)
    assert len(members) == 5
    for params in members:
        metric = families.make(surface, **params)
        assert diameter_estimate(metric, mesh4, samples_per_edge=8) == (
            _all_pairs_diameter(metric, mesh4, 8)
        ), params


SYMMETRY_MEMBERS = [
    ({"family": "base"}, 16),
    ({"family": "nonpositive_radial", "amplitude": 0.5}, 16),
    ({"family": "stretcher", "eps": 0.2, "delta": 0.1}, 16),
    ({"family": "shrinker", "eps": 0.2, "delta": 0.1}, 4),
    ({"family": "dumbbell", "eps": 0.2, "delta": 0.1}, 4),
    ({"family": "stretcher", "eps": 0.2, "delta": 0.1, "p": [0.3, 0.1]}, 1),
]


def _diameter_and_group_order(caplog, metric, mesh):
    """Diameter and kept symmetry group order, read from the debug log."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="conformal_lab.geom"):
        diam = diameter_estimate(metric, mesh, samples_per_edge=8)
    (order,) = [int(m) for r in caplog.records
                for m in re.findall(r"symmetry group of order (\d+)", r.getMessage())]
    return diam, order


@pytest.mark.parametrize("level", [3, 5])
def test_diameter_symmetry_group_orders(surface, mesh3, caplog, level):
    mesh = mesh3 if level == 3 else build_mesh(surface.domain, level)
    for params, expected in SYMMETRY_MEMBERS:
        metric = families.make(surface, **params)
        assert _diameter_and_group_order(caplog, metric, mesh)[1] == expected, params


@pytest.mark.parametrize("params", [
    {"family": "stretcher", "eps": 0.2, "delta": 0.1, "p": [0.3, 0.1]},
    {"family": "dumbbell", "eps": 0.2, "delta": 0.1,
     "p": [-0.3, 0.1], "q": [0.25, -0.15]},
])
def test_diameter_equals_all_pairs_without_symmetry(surface, mesh3, caplog, params):
    metric = families.make(surface, **params)
    diam, order = _diameter_and_group_order(caplog, metric, mesh3)
    assert order == 1
    assert diam == _all_pairs_diameter(metric, mesh3, 8)


# Dijkstra runs at level 4 with samples_per_edge=8 before the symmetry
# pruning: base 197, radial amplitude 0.25 199, radial amplitude 1.0 125
@pytest.mark.parametrize("params, runs_before", [
    ({"family": "base"}, 197),
    ({"family": "nonpositive_radial", "amplitude": 0.25}, 199),
    ({"family": "nonpositive_radial", "amplitude": 1.0}, 125),
])
def test_diameter_symmetry_halves_dijkstra_runs(surface, mesh4, monkeypatch,
                                               params, runs_before):
    runs = []

    def counting_dijkstra(*args, **kwargs):
        runs.append(1)
        return dijkstra(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.csgraph, "dijkstra", counting_dijkstra)
    metric = families.make(surface, **params)
    diameter_estimate(metric, mesh4, samples_per_edge=8)
    assert 0 < len(runs) <= runs_before // 2


def test_diameter_cache_does_not_follow_replace(surface, mesh3):
    """Like disconnected_mesh3, but cut after mesh3's cache is filled."""
    diameter_estimate(base_metric(surface), mesh3)
    assert "diameter_graph" in mesh3._cache
    cut = mesh3.rep[mesh3.edges[0, 0]]
    keep = np.all(mesh3.rep[mesh3.edges] != cut, axis=1)
    disconnected = dataclasses.replace(
        mesh3, edges=mesh3.edges[keep], edge_len_sigma=mesh3.edge_len_sigma[keep]
    )
    with pytest.raises(TopologyError, match="disconnected"):
        diameter_estimate(base_metric(surface), disconnected)


def test_diameter_rejects_disconnected_mesh(surface, disconnected_mesh3):
    with pytest.raises(TopologyError, match="disconnected"):
        diameter_estimate(base_metric(surface), disconnected_mesh3)


@pytest.mark.parametrize("samples", [0, -1])
def test_diameter_rejects_samples_per_edge_below_one(surface, mesh2, samples):
    with pytest.raises(UsageError):
        diameter_estimate(base_metric(surface), mesh2, samples_per_edge=samples)


def test_diameter_memory_is_linear(surface):
    mesh5 = build_mesh(surface.domain, 5)
    metric = families.make(surface, "shrinker", eps=0.1, delta=0.01)
    tracemalloc.start()
    try:
        diameter_estimate(metric, mesh5, samples_per_edge=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a tenth of the all-pairs distance matrix (13.4 MB at level 5)
    assert peak < 8 * mesh5.n_rep**2 / 10
