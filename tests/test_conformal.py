"""Conformal metric container: normalization, curvature checks, descriptors."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conformal_lab import families
from conformal_lab.conformal import (
    ConformalMetric,
    ConstantField,
    base_metric,
    from_descriptor,
    gauss_bonnet,
    make_metric,
    nonpositivity_check,
    normalize_area,
    normalize_area_quadratic,
    schwarz_upper_bound,
    to_descriptor,
    total_area,
)
from conformal_lab.errors import DomainError, NormalizationError, UsageError


@pytest.mark.parametrize(
    "a, b, c0, target",
    [
        (12.405180668463148, 0.055373746157503234, 1.992690136902996, 4.0 * math.pi),
        (12.52613928953338, 0.005942228596246046, 1.9780731905182234, 4.0 * math.pi),
        (1.0, 0.0, 0.0, 4.0 * math.pi),
        (9.5, 5.0, 1e-3, 4.0 * math.pi),
        (1e-3, 12.0, 0.5, 4.0 * math.pi),   # nearly linear
        (2.0, 3.0, 12.5, 4.0 * math.pi),    # root near 0
    ],
)
def test_quadratic_normalization_hits_target(a, b, c0, target):
    # the first two rows are the dumbbell's coefficients at eps=0.2,
    # delta=0.2 and eps=0.1, delta=0.01
    def area(C):
        return a * C * C + b * C + c0

    C = normalize_area_quadratic(area, target)
    assert C > 0.0
    assert abs(area(C) - target) <= 1e-14 * target


@pytest.mark.parametrize("c0", [4.0 * math.pi, 20.0, math.nan])
def test_quadratic_normalization_needs_area_below_target(c0):
    with pytest.raises(NormalizationError):
        normalize_area_quadratic(lambda C: C * C + C + c0, 4.0 * math.pi)


def test_base_metric_facts(surface):
    base = base_metric(surface)
    assert base.family == "base"
    assert base.u_min == 0.0 and base.u_max == 0.0
    assert base.area == pytest.approx(4.0 * math.pi, rel=1e-13)
    assert base.C == 0.0
    assert base.factor_at(0.1, 0.2) == pytest.approx(1.0)


def test_base_curvature_is_minus_one(surface):
    base = base_metric(surface)
    x = np.array([0.0, 0.3, -0.2])
    y = np.array([0.0, 0.1, 0.4])
    # K_g = -exp(-2u) (1 + L_sigma u)
    curvature = -np.exp(-2.0 * base.u_at(x, y)) * (1.0 + base.field.laplacian(x, y))
    assert np.allclose(curvature, -1.0, atol=0.0)


def test_make_metric_rejects_area_mismatch(surface):
    # A nonzero constant scales the area by exp(2c); the guard must fire.
    field = ConstantField(0.1, surface.total_area)
    with pytest.raises(NormalizationError):
        make_metric(surface, field, "base", {}, 0.1)


class _NanAreaField(ConstantField):
    def exp_integral(self, power):
        return math.nan


def test_make_metric_rejects_a_nan_area(surface):
    with pytest.raises(NormalizationError, match="nan"):
        make_metric(surface, _NanAreaField(0.0, surface.total_area), "base", {}, 0.0)


@pytest.mark.parametrize(
    "area_of_C",
    [
        lambda c: math.nan,
        lambda c: math.nan if c < 0.0 else 2.0,
        lambda c: 0.0 if c < 0.0 else math.nan,
    ],
    ids=["both-ends", "low-end", "high-end"],
)
def test_normalize_area_rejects_a_nan_bracket(area_of_C):
    with pytest.raises(NormalizationError, match="no normalization bracket"):
        normalize_area(area_of_C, 1.0, -1.0, 1.0)


def test_total_area_methods_agree(surface, mesh3):
    metric = families.make(surface, "shrinker", eps=0.5, delta=0.2)
    chart = total_area(metric, method="chart")
    three = total_area(metric, mesh3, method="three_point")
    centroid = total_area(metric, mesh3, method="centroid")
    assert chart == pytest.approx(4.0 * math.pi, rel=1e-10)
    # Mesh quadrature is second order; level 3 is coarse but close.
    assert three == pytest.approx(chart, rel=5e-3)
    assert centroid == pytest.approx(chart, rel=5e-3)


def test_total_area_guards(surface):
    base = base_metric(surface)
    with pytest.raises(UsageError):
        total_area(base, mesh=None, method="three_point")


def test_nonpositivity_base_certified(surface, mesh3):
    res = nonpositivity_check(base_metric(surface), mesh3)
    assert res.nonpositive
    assert res.certified
    assert res.method == "analytic"
    assert res.min_excess == pytest.approx(1.0)


def test_nonpositivity_radial_certificate_is_tight(surface, mesh3):
    # At full amplitude the radial family touches 1 + Lu = 0 exactly at
    # the center, so the reported minimum sits at machine zero.
    metric = families.make(surface, "nonpositive_radial", amplitude=1.0)
    res = nonpositivity_check(metric, mesh3)
    assert res.certified
    assert res.nonpositive
    assert res.min_excess >= -res.tol
    assert res.min_excess < 1e-9


def test_nonpositivity_spike_families_fail_honestly(surface, mesh3):
    # Power-law spikes concentrate positive curvature below any mesh
    # resolution; the probe points must find it.
    metric = families.make(surface, "stretcher", eps=0.2, delta=0.05)
    res = nonpositivity_check(metric, mesh3)
    assert not res.certified
    assert not res.nonpositive
    assert res.min_excess < -1.0


def test_schwarz_upper_bound_value(surface):
    rhs = schwarz_upper_bound(surface.inj_radius)
    assert rhs == pytest.approx(0.4406867935097715, rel=1e-12)
    assert rhs == -math.log(math.tanh(0.5 * surface.inj_radius))


def test_schwarz_upper_bound_guard():
    with pytest.raises(DomainError):
        schwarz_upper_bound(0.0)


def test_gauss_bonnet_base_both_methods(surface, mesh3):
    base = base_metric(surface)
    for method in ("chart", "mesh"):
        res = gauss_bonnet(base, mesh3, method=method)
        assert res.expected == pytest.approx(-4.0 * math.pi)
        assert res.rel_error < 1e-12


def test_gauss_bonnet_deformed(surface, mesh4):
    metric = families.make(surface, "shrinker", eps=0.2, delta=0.1)
    chart = gauss_bonnet(metric, mesh4, method="chart")
    mesh = gauss_bonnet(metric, mesh4, method="mesh")
    assert chart.rel_error < 1e-6
    # Mesh route rests on the stiffness kernel identity; error is roundoff
    # of the assembled matrix, far below the 3 percent acceptance budget.
    assert mesh.rel_error < 1e-9


#: one member of every family; the descriptor contract holds for each
ROUNDTRIP_MEMBERS = [
    ("shrinker", {"eps": 0.2, "delta": 0.1}),
    ("stretcher", {"eps": 0.2, "delta": 0.1}),
    ("dumbbell", {"eps": 0.2, "delta": 0.1}),
    ("nonpositive_radial", {"amplitude": 0.7}),
    ("base", {}),
]


@pytest.mark.parametrize("family, params", ROUNDTRIP_MEMBERS)
def test_descriptor_roundtrip_is_bit_stable(surface, family, params):
    assert sorted(f for f, _ in ROUNDTRIP_MEMBERS) == sorted(families.FAMILY_NAMES)
    metric = families.make(surface, family, **params)
    assert isinstance(metric, ConformalMetric)
    doc = to_descriptor(metric)
    clone = from_descriptor(doc, surface=surface)
    assert isinstance(clone, ConformalMetric)
    assert to_descriptor(clone) == doc
    assert clone.C == metric.C
    assert clone.area == metric.area
    assert clone.u_min == metric.u_min
    assert clone.u_max == metric.u_max
    x = np.linspace(-0.4, 0.4, 9)
    y = np.linspace(-0.3, 0.3, 9)
    assert np.array_equal(clone.u_at(x, y), metric.u_at(x, y))


def test_descriptor_version_guard(surface):
    doc = to_descriptor(base_metric(surface))
    doc["version"] = 2
    with pytest.raises(UsageError):
        from_descriptor(doc, surface=surface)
