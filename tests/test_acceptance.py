"""Acceptance gate: the ten headline guarantees, one test each.

Each test prints one summary line with the measured quantities (visible
under pytest -s; pytest -v shows the per-criterion pass/fail verdict) and
asserts the stated tolerances together with its runtime budget.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from conformal_lab import families, geom, report, spectral
from conformal_lab.conformal import base_metric, gauss_bonnet, schwarz_upper_bound
from conformal_lab.entropy import coding_entropy_bound, katok_bounds, universal_gap
from conformal_lab.spectral import assemble, conformal_eigen_sandwich, dumbbell_test_bound, eigenvalues
from conformal_lab.surface import base_spectrum, build_mesh

FOUR_PI = 4.0 * math.pi


def _stamp(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_01_mesh_topology_and_area(surface):
    t0 = time.perf_counter()
    worst_rel = 0.0
    chis = []
    for level in range(6):
        mesh = build_mesh(surface.domain, level)
        chis.append(mesh.euler_characteristic())
        if level >= 3:
            rel = abs(mesh.total_area_sigma() - FOUR_PI) / FOUR_PI
            worst_rel = max(worst_rel, rel)
    elapsed = time.perf_counter() - t0
    ok = chis == [-2] * 6 and worst_rel <= 0.005 and elapsed < 10.0
    _stamp(
        "01 mesh topology/area",
        ok,
        f"chi={chis}, worst area rel err {worst_rel:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_eigen_sandwich_default_sweep(surface, mesh4):
    t0 = time.perf_counter()
    base_res = base_spectrum(surface, mesh4, 10)
    violations = 0
    worst_margin = math.inf
    for entry in report.default_sweep_grid():
        params = dict(entry)
        fam = params.pop("family")
        metric = families.make(surface, fam, **params)
        system = assemble(metric, mesh4)
        res = conformal_eigen_sandwich(system, base_res, eigenvalues(system, 10))
        violations += res.violations
        worst_margin = min(worst_margin, res.worst_margin)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 120.0
    _stamp(
        "02 eigenvalue sandwich",
        ok,
        f"28 members, k=10, level 4, violations={violations}, "
        f"worst margin {worst_margin:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_dumbbell_lambda1_collapse(surface, mesh3):
    t0 = time.perf_counter()
    totals = []
    details = []
    for delta in (0.2, 0.1, 0.05, 0.01):
        metric = families.make(surface, "dumbbell", eps=0.2, delta=delta)
        system = assemble(metric, mesh3)
        bound = dumbbell_test_bound(metric, system)
        lam1 = float(eigenvalues(system, 1).eigenvalues[1])
        assert lam1 <= bound.total + 1e-8, (delta, lam1, bound.total)
        # The ramp is linear in the g-radial coordinate, so its Dirichlet
        # energy equals the g-area of the two transition annuli divided by
        # delta_R^2; both sides are independent quadratures of the profile.
        identity = 2.0 * metric.field.annulus_area() / bound.delta_R**2
        rel_gap = abs(bound.ramp_energy_pair - identity) / identity
        assert rel_gap <= 0.05, (delta, rel_gap)
        assert bound.ramp_energy_pair <= bound.analytic_bound * 1.01, delta
        totals.append(bound.total)
        details.append(f"d={delta}: bound={bound.total:.3e}")
    assert all(b < a for a, b in zip(totals, totals[1:])), totals
    elapsed = time.perf_counter() - t0
    ok = elapsed < 300.0
    _stamp(
        "03 dumbbell collapse",
        ok,
        "; ".join(details) + f"; strictly decreasing, {elapsed:.1f}s",
    )


def test_criterion_04_shrinker_systole_and_diameter(surface, mesh3):
    t0 = time.perf_counter()
    curve = geom.systole_curve(surface, 2049)
    base_diam = geom.diameter_estimate(base_metric(surface), mesh3, samples_per_edge=8)
    worst_len = 0.0
    worst_ratio = 0.0
    for eps in (0.2, 0.1):
        for delta in (0.2, 0.1, 0.05, 0.01):
            metric = families.make(surface, "shrinker", eps=eps, delta=delta)
            length = geom.curve_length(metric, curve)
            worst_len = max(worst_len, abs(length - eps) / eps)
            diam = geom.diameter_estimate(metric, mesh3, samples_per_edge=8)
            worst_ratio = max(worst_ratio, diam / (2.0 * base_diam))
    elapsed = time.perf_counter() - t0
    ok = worst_len <= 1e-6 and worst_ratio <= 1.05 and elapsed < 60.0
    _stamp(
        "04 shrinker systole/diameter",
        ok,
        f"worst length rel err {worst_len:.2e}, worst diam ratio "
        f"{worst_ratio:.3f} (cap 1.05), {elapsed:.1f}s",
    )


def test_criterion_05_stretcher_radial_length(surface):
    t0 = time.perf_counter()
    worst = math.inf
    for delta in (0.2, 0.1, 0.05, 0.01):
        metric = families.make(surface, "stretcher", eps=0.2, delta=delta)
        length = metric.field.radial_segment_length()
        bound = metric.field.radial_length_bound()
        worst = min(worst, length / bound)
    anchor = families.make(surface, "stretcher", eps=0.2, delta=0.01)
    bound_001 = anchor.field.radial_length_bound()
    elapsed = time.perf_counter() - t0
    ok = worst >= 0.99 and abs(bound_001 - 3.864) <= 1e-3 and elapsed < 30.0
    _stamp(
        "05 stretcher radial length",
        ok,
        f"min length/bound {worst:.6f}, bound(0.2, 0.01)={bound_001:.4f} "
        f"(target 3.864), {elapsed:.1f}s",
    )


def test_criterion_06_radial_family_schwarz_cap(surface):
    t0 = time.perf_counter()
    cap = schwarz_upper_bound(surface.inj_radius)
    worst = 0.0
    for amp in np.linspace(0.02, 1.0, 50):
        metric = families.make(surface, "nonpositive_radial", amplitude=float(amp))
        worst = max(worst, metric.u_max)
    elapsed = time.perf_counter() - t0
    ok = worst <= cap + 0.05 and elapsed < 60.0
    _stamp(
        "06 radial Schwarz cap",
        ok,
        f"50 members, max u {worst:.6f} <= {cap:.6f} + 0.05, {elapsed:.1f}s",
    )


def test_criterion_07_circle_and_region_bounds(surface):
    t0 = time.perf_counter()
    region_rhs = None
    for amp in (0.25, 0.5, 0.75, 1.0):
        metric = families.make(surface, "nonpositive_radial", amplitude=amp)
        for radius in (0.5, 1.0):
            lhs = geom.circle_integral_u(metric, 0j, radius)
            rhs = geom.circle_lower_bound(metric.u_max, radius)
            assert lhs >= rhs - 1e-9, (amp, radius, lhs, rhs)
        lhs, rhs = geom.region_integral_u(metric, 0j, 1.0)
        assert lhs >= rhs - 1e-9, (amp, lhs, rhs)
        region_rhs = rhs
    elapsed = time.perf_counter() - t0
    ok = abs(region_rhs - (-0.427)) <= 1e-3 and elapsed < 60.0
    _stamp(
        "07 circle/region bounds",
        ok,
        f"4 members x (R=0.5, 1.0), region rhs {region_rhs:.4f} "
        f"(target -0.427), {elapsed:.1f}s",
    )


def test_criterion_08_green_identity_residuals(surface):
    t0 = time.perf_counter()
    radial = families.make(surface, "nonpositive_radial", amplitude=1.0)
    at_max_fine = geom.at_max_green_residual(radial, 0j, 1.0, grid=(512, 512))
    at_max_half = geom.at_max_green_residual(radial, 0j, 1.0, grid=(256, 256))
    shr = families.make(surface, "shrinker", eps=0.2, delta=0.1)
    collar_fine = geom.collar_green_residual(shr, 0.02, 0.3, grid=(512, 512))
    collar_half = geom.collar_green_residual(shr, 0.02, 0.3, grid=(256, 256))
    elapsed = time.perf_counter() - t0
    ok = (
        at_max_fine < 1e-3
        and collar_fine < 1e-3
        and at_max_half / at_max_fine >= 3.0
        and collar_half / collar_fine >= 3.0
        and elapsed < 60.0
    )
    _stamp(
        "08 Green residuals",
        ok,
        f"at-max {at_max_fine:.2e} (decay x{at_max_half / at_max_fine:.1f}), "
        f"collar {collar_fine:.2e} (decay x{collar_half / collar_fine:.1f}), "
        f"{elapsed:.1f}s",
    )


def test_criterion_09_entropy_bounds(surface):
    metrics = []
    for entry in report.default_sweep_grid():
        params = dict(entry)
        fam = params.pop("family")
        metrics.append(families.make(surface, fam, **params))
    t0 = time.perf_counter()
    gap = universal_gap(FOUR_PI, -2)
    coding = coding_entropy_bound(FOUR_PI, 2, 1.0)
    coding_err = abs(coding - math.log(64.0) / 0.25)
    worst_factor = max(katok_bounds(m).katok_factor for m in metrics)
    elapsed = time.perf_counter() - t0
    ok = gap == 1.0 and coding_err <= 1e-12 and worst_factor <= 1.0 and elapsed < 1.0
    _stamp(
        "09 entropy bounds",
        ok,
        f"gap={gap!r} (exact), coding err {coding_err:.1e}, max katok factor "
        f"{worst_factor:.6f} over 28 members, {elapsed:.2f}s",
    )


def test_criterion_10_gauss_bonnet_every_member(surface, mesh4):
    t0 = time.perf_counter()
    worst = 0.0
    for entry in report.default_sweep_grid():
        params = dict(entry)
        fam = params.pop("family")
        metric = families.make(surface, fam, **params)
        for method in ("chart", "mesh"):
            res = gauss_bonnet(metric, mesh4, method=method)
            worst = max(worst, res.rel_error)
            assert res.expected == pytest.approx(-FOUR_PI)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.03 and elapsed < 120.0
    _stamp(
        "10 Gauss-Bonnet",
        ok,
        f"28 members x 2 methods, level 4, worst rel err {worst:.2e} "
        f"(cap 3%), {elapsed:.1f}s",
    )
