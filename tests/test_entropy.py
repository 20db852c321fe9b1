"""Entropy bounds: conformal averages, the universal gap, ball coding."""

from __future__ import annotations

import math

import pytest

from conformal_lab import families
from conformal_lab.conformal import base_metric
from conformal_lab.entropy import (
    coding_ball_count,
    coding_entropy_bound,
    katok_bounds,
    universal_gap,
)
from conformal_lab.errors import DomainError, ParameterError


def test_base_factor_is_exactly_one(surface):
    bounds = katok_bounds(base_metric(surface))
    assert bounds.katok_factor == 1.0
    assert bounds.h_mu_upper == 1.0
    assert bounds.h_top_lower == 1.0


def test_universal_gap_normalized_surface_is_one():
    assert universal_gap(4.0 * math.pi, -2) == 1.0


def test_universal_gap_scaling():
    # Doubling the area divides the gap by sqrt 2; genus 3 multiplies the
    # chi term by 2.
    g = universal_gap(4.0 * math.pi, -2)
    assert universal_gap(8.0 * math.pi, -2) == pytest.approx(g / math.sqrt(2.0), rel=1e-15)
    assert universal_gap(4.0 * math.pi, -4) == pytest.approx(g * math.sqrt(2.0), rel=1e-15)


def test_universal_gap_guards():
    with pytest.raises(DomainError):
        universal_gap(0.0, -2)
    with pytest.raises(DomainError):
        universal_gap(4.0 * math.pi, 0)
    with pytest.raises(DomainError):
        universal_gap(4.0 * math.pi, 2)


def test_katok_factor_below_one_for_deformations(surface):
    # Fixed e^{2u} area plus Cauchy-Schwarz forces mean(e^u) <= 1, with
    # equality only at u = 0.
    for family, params in [
        ("shrinker", {"eps": 0.2, "delta": 0.1}),
        ("stretcher", {"eps": 0.2, "delta": 0.1}),
        ("dumbbell", {"eps": 0.2, "delta": 0.1}),
        ("nonpositive_radial", {"amplitude": 1.0}),
    ]:
        metric = families.make(surface, family, **params)
        bounds = katok_bounds(metric)
        assert bounds.katok_factor < 1.0
        assert bounds.h_mu_upper < 1.0 < bounds.h_top_lower
        # The two bounds are exact reciprocals by construction.
        assert bounds.h_mu_upper * bounds.h_top_lower == pytest.approx(1.0, rel=1e-12)


def test_katok_factor_decreases_with_shrinking(surface):
    f_mild = katok_bounds(families.make(surface, "shrinker", eps=0.5, delta=0.1))
    f_hard = katok_bounds(families.make(surface, "shrinker", eps=0.1, delta=0.1))
    assert f_hard.katok_factor < f_mild.katok_factor < 1.0


def test_entropy_dict_shape(surface):
    bounds = katok_bounds(base_metric(surface))
    doc = bounds.to_dict()
    assert set(doc) == {"katok_factor", "h_mu_upper", "h_top_lower", "universal_gap"}


def test_coding_bound_oracle():
    # rho = 1: eps = 1/4, ball volume pi/16, so exactly 64 balls tile the
    # normalized area and the bound is ln(64) / 0.25.
    assert coding_ball_count(4.0 * math.pi, 2, 1.0) == 64
    bound = coding_entropy_bound(4.0 * math.pi, 2, 1.0)
    assert bound == pytest.approx(math.log(64.0) / 0.25, abs=1e-12)
    assert bound == pytest.approx(16.635532333438686, abs=1e-12)


def test_coding_bound_diverges_as_rho_shrinks():
    coarse = coding_entropy_bound(4.0 * math.pi, 2, 0.5)
    fine = coding_entropy_bound(4.0 * math.pi, 2, 0.05)
    assert fine > coarse


def test_coding_bound_guards():
    with pytest.raises(ParameterError):
        coding_entropy_bound(0.0, 2, 1.0)
    with pytest.raises(ParameterError):
        coding_entropy_bound(4.0 * math.pi, 1, 1.0)
    with pytest.raises(ParameterError):
        coding_entropy_bound(4.0 * math.pi, 2, 0.0)
    with pytest.raises(ParameterError):
        # One giant ball exhausts the volume: no alphabet to code with.
        coding_entropy_bound(0.01, 2, 1.0)


def test_coding_count_floor_behavior():
    # Just below a ball volume boundary the count must round down.
    eps = 0.25
    nu = (eps * math.sqrt(math.pi)) ** 2 / math.gamma(2.0)
    assert coding_ball_count(2.5 * nu, 2, 1.0) == 2
