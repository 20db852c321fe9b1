"""Deformation families: profiles, normalization constants, guards."""

from __future__ import annotations

import functools
import gc
import hashlib
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import cumulative_trapezoid, simpson

from conformal_lab import conformal, entropy, families, geom
from conformal_lab.errors import DomainError, ParameterError, RangeError, UsageError
from conformal_lab.families import (
    FAMILY_NAMES,
    MIN_COLLAR_DELTA,
    MIN_SPIKE_DELTA,
    _cumulative_trapezoid,
    _simpson,
    bump_jet,
    default_dumbbell_anchors,
)
from conformal_lab.geom import curve_length, systole_curve
from conformal_lab.hyp import disk_distance, distances_to, polar_points
from conformal_lab.report import verify_metric

SYSTOLE = 3.0571418389619947


# ---------------------------------------------------------------------------
# quadrature


@pytest.mark.parametrize("n", [1025, 2049, 4097, 8193, 32769])  # every grid size used
def test_quadrature_helpers_equal_scipy(n):
    """Bit for bit on a linear grid and on the log-r grid of _simpson_log."""
    noise = np.random.default_rng(n).standard_normal(n)
    for x in (np.linspace(0.0, 0.7, n), np.linspace(math.log(1e-4), math.log(0.1), n)):
        for y in (np.cosh(x) * np.exp(-x * x), np.exp(x), noise):
            assert _simpson(y, x) == simpson(y, x=x)
            assert np.array_equal(
                _cumulative_trapezoid(y, x), cumulative_trapezoid(y, x, initial=0.0)
            )


def test_simpson_keeps_scipys_zero_spacing_guards():
    x = np.array([0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 2.0])
    y = np.arange(7.0) ** 2
    assert _simpson(y, x) == simpson(y, x=x)


def test_simpson_rejects_an_even_sample_count():
    x = np.linspace(0.0, 1.0, 1024)
    with pytest.raises(ValueError, match="odd sample count"):
        _simpson(x, x)


# ---------------------------------------------------------------------------
# bump profile


def bump(t, a):
    """The plateau bump at t of either sign."""
    return bump_jet(np.abs(np.asarray(t, dtype=float)), a)[0]


@given(st.floats(-3.0, 3.0), st.floats(0.05, 2.0))
def test_bump_range_and_support(t, a):
    v = bump(t, a)
    assert 0.0 <= v <= 1.0
    if abs(t) <= 0.5 * a:
        assert v == 1.0
    if abs(t) >= a:
        assert v == 0.0


@given(st.floats(0.0, 2.0), st.floats(0.1, 1.5), st.floats(0.5, 3.0))
def test_bump_scale_invariance(t, a, s):
    assert bump(t, a) == pytest.approx(bump(t * s, a * s), rel=1e-11, abs=1e-12)


def test_bump_monotone_on_shoulder():
    a = 1.0
    t = np.linspace(0.5, 1.0, 200)
    v = bump(t, a)
    assert np.all(np.diff(v) <= 1e-15)


def test_bump_jet_derivatives_match_finite_differences():
    a = 0.8
    h = 1e-6
    for x in (0.45, 0.55, 0.6, 0.7):
        phi, d1, d2 = bump_jet(np.array([x]), a)
        up = bump_jet(np.array([x + h]), a)[0][0]
        dn = bump_jet(np.array([x - h]), a)[0][0]
        assert d1[0] == pytest.approx((up - dn) / (2 * h), abs=5e-6)
        assert d2[0] == pytest.approx((up - 2 * phi[0] + dn) / (h * h), abs=5e-4)


#: arguments s of q just below, at and just above the floor of _q_jet
NEAR_FLOOR = families._Q_FLOOR * np.array([0.999, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.001])


def jet_radii(a):
    """Radii for a bump of half-width a: the plateau, both transition
    zones, each zone's s just below, at and just above _Q_FLOOR, exactly
    a/2 and a, and points past the support."""
    half = 0.5 * a
    r = np.concatenate([
        np.linspace(0.0, 2.0 * a, 2001),
        half + half * NEAR_FLOOR,  # s2 = (r - a/2)/(a/2) at the floor
        a - half * NEAR_FLOOR,     # s1 = (a - r)/(a/2) at the floor
        [half, a, np.nextafter(half, np.inf), np.nextafter(a, 0.0), 3.0 * a],
    ])
    for s in ((r - half) / half, (a - r) / half):
        assert np.any((s > 0.9 * families._Q_FLOOR) & (s <= families._Q_FLOOR))
        assert np.any((s < 1.1 * families._Q_FLOOR) & (s > families._Q_FLOOR))
    return r


def assert_prefix_of_full_jet(jet, full, order):
    """A jet of the given order is the full jet's first order + 1 entries,
    bit for bit."""
    assert len(jet) == order + 1
    for got, want in zip(jet, full):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_q_jet_of_each_order_is_the_full_jets_prefix(order):
    floor = families._Q_FLOOR
    s = np.concatenate([
        np.linspace(-1.0, 3.0, 4001),
        NEAR_FLOOR,
        [np.nextafter(floor, 0.0), np.nextafter(floor, 1.0)],
    ])
    for slope in (-2.5, 1.0 / 0.6):
        assert_prefix_of_full_jet(families._q_jet(s, slope, order),
                                  families._q_jet(s, slope), order)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("a", [0.1, 0.2, families.RADIAL_SUPPORT, math.exp(-1.0 / 0.05)])
def test_bump_jet_of_each_order_is_the_full_jets_prefix(order, a):
    r = jet_radii(a)
    assert_prefix_of_full_jet(bump_jet(r, a, order), bump_jet(r, a), order)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("eps, delta, C", [(0.2, 0.05, 0.98), (0.1, 0.01, 0.999)])
def test_spike_jet_of_each_order_is_the_full_jets_prefix(surface, order, eps, delta, C):
    field = families.SpikeField(surface.total_area, (0j,), eps, delta).with_C(C)
    r = np.concatenate([jet_radii(field.r1), np.geomspace(field.r1, 0.5 * eps, 2001),
                        jet_radii(eps)])
    jet, full = field.affine_jet(r, order), field.affine_jet(r)
    assert len(jet) == order + 1
    for (a, b), (a_full, b_full) in zip(jet, full):
        assert np.array_equal(a, a_full)
        assert np.array_equal(b, b_full)
    assert np.array_equal(field.rho(r), full[0][0] + full[0][1] * C)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_shrinker_profile_of_each_order_is_the_full_jets_prefix(surface, order):
    field = families.ShrinkerField(SYSTOLE, surface.total_area, 0.2, 0.1).with_C(0.03)
    r = jet_radii(field.delta)
    assert_prefix_of_full_jet(field._profile_jet(r, order), field._profile_jet(r), order)


@pytest.mark.parametrize("amplitude", [0.25, 1.0])
def test_radial_profile_is_built_from_the_full_jet(surface, amplitude):
    field = families.RadialSlopeField(surface.total_area, 0j, amplitude).with_C(0.1)
    r = jet_radii(families.RADIAL_SUPPORT)
    phi, d1, _ = bump_jet(r, families.RADIAL_SUPPORT)
    assert np.array_equal(field._radial_laplacian(r),
                          -amplitude * phi - np.tanh(0.5 * r) * amplitude * d1)
    grid = field.r
    slope = -np.tanh(0.5 * grid) * amplitude * bump_jet(grid, families.RADIAL_SUPPORT)[0]
    assert np.array_equal(field.w, _cumulative_trapezoid(slope, grid))


# ---------------------------------------------------------------------------
# shrinker


def test_shrinker_axis_value_hits_target(surface):
    metric = families.make(surface, "shrinker", eps=0.2, delta=0.1)
    # e^{u} sigma-length of the systole must equal eps, so on the axis
    # u = log(eps / systole).
    assert metric.u_at(0.0, 0.0) == pytest.approx(math.log(0.2 / SYSTOLE), rel=1e-14)
    assert metric.u_min == pytest.approx(math.log(0.2 / SYSTOLE), rel=1e-14)


def test_shrinker_systole_length(surface):
    metric = families.make(surface, "shrinker", eps=0.2, delta=0.1)
    curve = systole_curve(surface, n=4097)
    assert curve_length(metric, curve) == pytest.approx(0.2, rel=1e-9)


def test_shrinker_area_is_normalized(surface):
    metric = families.make(surface, "shrinker", eps=0.3, delta=0.15)
    assert metric.area == pytest.approx(4.0 * math.pi, rel=1e-10)
    assert 0.0 < metric.C < 0.1  # mild inflation outside the collar


def test_shrinker_parameter_guards(surface):
    with pytest.raises(ParameterError):
        families.make(surface, "shrinker", eps=0.0, delta=0.1)
    with pytest.raises(ParameterError):
        families.make(surface, "shrinker", eps=SYSTOLE + 0.1, delta=0.1)
    with pytest.raises(ParameterError):
        families.make(surface, "shrinker", eps=0.2, delta=0.0)
    with pytest.raises(ParameterError):
        families.make(surface, "shrinker", eps=0.2, delta=0.5)  # beyond embedded collar


@pytest.mark.parametrize("eps", [1e-308, 5e-324])
def test_shrinker_rejects_an_overflowing_depth(surface, eps):
    # systole/eps overflows to inf, which would make the area NaN
    with pytest.raises(ParameterError, match="overflows"):
        families.make(surface, "shrinker", eps=eps, delta=0.1)


@pytest.mark.parametrize("eps", [SYSTOLE, 0.2, 1e-5])
def test_shrinker_collar_floor(surface, mesh3, eps):
    """Every check passes, warning-free, at the narrowest collar accepted;
    half of it is refused (below ~8e-11 katok_factor_cap fails)."""
    with pytest.raises(ParameterError, match="collar half-width"):
        families.make(surface, "shrinker", eps=eps, delta=0.5 * MIN_COLLAR_DELTA)
    metric = families.make(surface, "shrinker", eps=eps, delta=MIN_COLLAR_DELTA)
    assert verify_metric(conformal.from_descriptor(conformal.to_descriptor(metric)),
                         mesh3).passed


# ---------------------------------------------------------------------------
# stretcher


@pytest.mark.parametrize(
    "delta, u_max, seg",
    [
        (0.2, 3.85622483502636, 0.5286582112763774),
        (0.05, 18.042369811033858, 1.5989233908037044),
        (0.01, 97.20546209656813, 3.8644604625599737),
    ],
)
def test_stretcher_peak_and_segment_oracles(surface, delta, u_max, seg):
    metric = families.make(surface, "stretcher", eps=0.2, delta=delta)
    assert metric.u_max == pytest.approx(u_max, rel=1e-9)
    field = metric.field
    assert field.radial_segment_length() == pytest.approx(seg, rel=1e-9)
    # The power zone is an exact log profile, so the quadrature length and
    # the closed-form lower bound coincide to roundoff.
    assert field.radial_segment_length() == pytest.approx(
        field.radial_length_bound(), rel=1e-12
    )


def test_stretcher_peak_formula(surface):
    eps, delta = 0.2, 0.1
    metric = families.make(surface, "stretcher", eps=eps, delta=delta)
    field = metric.field
    expected = field.log_amp + (1.0 - 0.5 * delta) * (math.log(2.0) + 1.0 / delta)
    assert metric.u_max == pytest.approx(expected, rel=1e-12)


def test_stretcher_area_normalized(surface):
    metric = families.make(surface, "stretcher", eps=0.2, delta=0.05)
    assert metric.area == pytest.approx(4.0 * math.pi, rel=1e-10)
    assert 0.9 < metric.C < 1.0


def test_spike_parameter_guards(surface):
    with pytest.raises(ParameterError):
        families.make(surface, "stretcher", eps=0.0, delta=0.1)
    with pytest.raises(ParameterError):
        # delta * log(2/eps) >= 1 makes the power zone empty
        families.make(surface, "stretcher", eps=0.2, delta=0.5)
    with pytest.raises(ParameterError):
        families.make(surface, "stretcher", eps=0.2, delta=0.5 * MIN_SPIKE_DELTA)
    with pytest.raises(ParameterError):
        # eps-ball pokes out of the fundamental domain
        families.make(surface, "stretcher", p=0.6 + 0j, eps=0.3, delta=0.1)


@pytest.mark.parametrize("family", ["stretcher", "dumbbell"])
@settings(max_examples=25, deadline=None)
@given(eps=st.floats(1e-3, 1.6), position=st.floats(0.0, 1.0))
def test_accepted_spike_members_have_finite_closed_forms(surface, family, eps, position):
    """Down to the delta floor, whatever make accepts evaluates finitely."""
    top = 1.0 / math.log(2.0 / eps)
    delta = MIN_SPIKE_DELTA + position * (top - MIN_SPIKE_DELTA)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            field = families.make(surface, family, eps=eps, delta=delta).field
        except ParameterError:
            assume(False)
        x, y = field.sign_probe_points()
        assert np.all(np.isfinite(field.values(x, y)))
        assert np.all(np.isfinite(field.laplacian(x, y)))
        assert math.isfinite(field.exp_integral(2))
        assert math.isfinite(field.laplacian_integral())


# ---------------------------------------------------------------------------
# dumbbell


def test_dumbbell_default_anchors(surface):
    p, q = default_dumbbell_anchors(surface)
    assert p == -q
    assert p.real == pytest.approx(-0.38844349350750934, rel=1e-15)
    assert disk_distance(p, q) == pytest.approx(1.6398625052515055, rel=1e-12)


def test_dumbbell_anchors_are_mesh_vertices(surface, mesh3):
    p, q = default_dumbbell_anchors(surface)
    d = np.hypot(mesh3.xy[:, 0] - p.real, mesh3.xy[:, 1] - p.imag)
    assert d.min() < 1e-15
    d = np.hypot(mesh3.xy[:, 0] - q.real, mesh3.xy[:, 1] - q.imag)
    assert d.min() < 1e-15


@pytest.mark.parametrize(
    "delta, delta_R",
    [(0.2, 0.5286582113), (0.1, 1.0102256697), (0.05, 1.5989233908)],
)
def test_dumbbell_separation_oracles(surface, delta, delta_R):
    metric = families.make(surface, "dumbbell", eps=0.2, delta=delta)
    field = metric.field
    assert field.radial_length_bound() == pytest.approx(delta_R, rel=1e-9)


def test_dumbbell_profile_is_symmetric(surface):
    metric = families.make(surface, "dumbbell", eps=0.2, delta=0.1)
    xs = np.linspace(-0.45, 0.45, 101)
    u = metric.u_at(xs, np.zeros_like(xs))
    assert np.allclose(u, u[::-1], atol=1e-12)


def test_dumbbell_spikes_have_disjoint_supports(surface):
    eps = 0.2
    metric = families.make(surface, "dumbbell", eps=eps, delta=0.1)
    p, q = (complex(*metric.params["p"]), complex(*metric.params["q"]))
    # Outside both eps-balls u is the constant log C.
    mid = metric.u_at(0.0, 0.0)
    far = metric.u_at(0.0, 0.3)
    assert mid == pytest.approx(math.log(metric.C), rel=1e-12)
    assert far == pytest.approx(mid, rel=1e-12)
    assert disk_distance(p, q) > 2.0 * eps


def _recording(fn, seen):
    return lambda r: seen.append(r) or fn(r)


def test_spike_field_evaluates_only_inside_its_balls(surface, mesh3):
    x = np.concatenate([mesh3.xy[:, 0], np.mean(mesh3.xy[mesh3.tris, 0], axis=1)])
    y = np.concatenate([mesh3.xy[:, 1], np.mean(mesh3.xy[mesh3.tris, 1], axis=1)])
    for family, params in (
        ("dumbbell", {"eps": 0.2, "delta": 0.01}),
        ("stretcher", {"eps": 0.2, "delta": 0.1, "p": [0.2, 0.1]}),
    ):
        field = families.make(surface, family, **params).field
        radii = [distances_to(x, y, a) for a in field.anchors]
        logC = math.log(field.C)
        # every anchor's full spike, deviation 0 past eps only by arithmetic
        expected_u = logC
        for r in radii:
            expected_u = expected_u + (field.u_values(r) - logC)
        expected_lap = functools.reduce(
            np.add, [field.radial_laplacian(r) for r in radii]
        )
        seen_u, seen_lap = [], []
        field.u_values = _recording(field.u_values, seen_u)
        field.radial_laplacian = _recording(field.radial_laplacian, seen_lap)
        u = field.values(x, y)
        lap = field.laplacian(x, y)
        assert np.array_equal(u, expected_u)
        assert np.array_equal(lap, expected_lap)
        assert np.array_equal(np.signbit(lap), np.signbit(expected_lap))
        outside = np.all([r >= field.eps for r in radii], axis=0)
        assert outside.any()
        assert np.all(lap[outside] == 0.0) and not np.any(np.signbit(lap[outside]))
        for seen in (seen_u, seen_lap):
            assert len(seen) == len(field.anchors)
            assert max(float(np.max(r)) for r in seen) < field.eps
            assert sum(len(r) for r in seen) < 0.2 * len(x)


def test_dumbbell_ramp_identity(surface):
    # The ramp is linear in the g-radial coordinate, so its Dirichlet
    # energy equals annulus area / delta_R^2 exactly (conformal invariance
    # reduces both to the same sigma quadrature).
    metric = families.make(surface, "dumbbell", eps=0.2, delta=0.1)
    field = metric.field
    energy = field.ramp_energy()
    area = field.annulus_area()
    dR = field.radial_length_bound()
    assert energy == pytest.approx(area / (dR * dR), rel=1e-12)


def test_dumbbell_overlapping_anchors_rejected(surface):
    with pytest.raises(ParameterError):
        families.make(surface, "dumbbell", eps=0.2, delta=0.1, p=-0.05 + 0j, q=0.05 + 0j)


# ---------------------------------------------------------------------------
# the field contract


@pytest.mark.parametrize(
    "family, eps, delta, C_repr",
    [
        ("stretcher", 0.2, 0.2, "0.9615219093573285"),
        ("stretcher", 0.2, 0.1, "0.9619347762976928"),
        ("stretcher", 0.2, 0.05, "0.9621985698065106"),
        ("stretcher", 0.2, 0.01, "0.9625259206253032"),
        ("stretcher", 0.1, 0.2, "0.9639873353538859"),
        ("stretcher", 0.1, 0.1, "0.9618816864443621"),
        ("stretcher", 0.1, 0.05, "0.9610333578744882"),
        ("stretcher", 0.1, 0.01, "0.9604918752328666"),
        ("dumbbell", 0.2, 0.2, "0.9210042959415031"),
        ("dumbbell", 0.2, 0.1, "0.9218409116447694"),
        ("dumbbell", 0.2, 0.05, "0.9223744471535519"),
        ("dumbbell", 0.2, 0.01, "0.9230355489382344"),
        ("dumbbell", 0.1, 0.2, "0.9264980461225305"),
        ("dumbbell", 0.1, 0.1, "0.9220918322305325"),
        ("dumbbell", 0.1, 0.05, "0.920308833257551"),
        ("dumbbell", 0.1, 0.01, "0.9191627279428165"),
    ],
)
def test_spike_constants_are_pinned(surface, family, eps, delta, C_repr):
    # the default grid's stretcher and dumbbell constants, bit for bit
    metric = families.make(surface, family, eps=eps, delta=delta)
    assert repr(metric.C) == C_repr


@pytest.mark.parametrize(
    "eps, delta, C_repr, area_repr, lap_repr",
    [
        (0.2, 0.2, "0.04286299421801232", "12.566370613933703", "0.0"),
        (0.2, 0.1, "0.020881773001747206", "12.566370613628457", "8.688919703450877e-14"),
        (0.2, 0.05, "0.010319240536773577", "12.566370614594527", "1.7377839406901755e-13"),
        (0.2, 0.01, "0.002045784058282152", "12.566370614219787", "0.0"),
        (0.1, 0.2, "0.04355908258003183", "12.566370613978357", "0.0"),
        (0.1, 0.1, "0.02121719004935585", "12.566370613947258", "0.0"),
        (0.1, 0.05, "0.010484345868462697", "12.566370614074977", "3.475567881380351e-13"),
        (0.1, 0.01, "0.0020784373919013888", "12.566370614285098", "1.3902271525521404e-12"),
    ],
)
def test_shrinker_collar_quadratures_are_pinned(surface, eps, delta, C_repr, area_repr,
                                                lap_repr):
    # the default grid's shrinker constants, areas and Laplacian integrals,
    # bit for bit
    metric = families.make(surface, "shrinker", eps=eps, delta=delta)
    assert repr(metric.C) == C_repr
    assert repr(metric.area) == area_repr
    assert repr(metric.field.laplacian_integral()) == lap_repr


@pytest.mark.parametrize(
    "family, params, C_repr, area_repr, mean_repr, lap_repr, lo_repr, hi_repr",
    [
        ("stretcher", {"eps": 0.2, "delta": 0.2},
         "0.9615219093573285", "12.566370614359176", "12.212893462060398",
         "-4.440892098500626e-15", "-0.039237927569826865", "3.85622483502636"),
        ("stretcher", {"eps": 0.2, "delta": 0.1},
         "0.9619347762976928", "12.566370614359172", "12.16414778640562",
         "-1.8118839761882555e-13", "-0.041029974780917244", "8.429179349124682"),
        ("stretcher", {"eps": 0.2, "delta": 0.05},
         "0.9621985698065106", "12.566370614359174", "12.126381895111198",
         "-5.078604203845316e-12", "-0.16084054357665695", "18.042369811033858"),
        ("stretcher", {"eps": 0.2, "delta": 0.01},
         "0.9625259206253032", "12.566370614359176", "12.073516744851014",
         "-4.829382227455881e-09", "-0.8449759855133492", "97.20546209656813"),
        ("stretcher", {"eps": 0.1, "delta": 0.2},
         "0.9639873353538859", "12.566370614359176", "12.195410710648524",
         "0.0", "-0.03667712205759386", "3.9255395530823547"),
        ("stretcher", {"eps": 0.1, "delta": 0.1},
         "0.9618816864443621", "12.566370614359176", "12.142608822384178",
         "-3.108624468950438e-14", "-0.038863822944032324", "8.46383670815268"),
        ("stretcher", {"eps": 0.1, "delta": 0.05},
         "0.9610333578744882", "12.566370614359178", "12.111456631195596",
         "-1.056932319443149e-12", "-0.0397461589862998", "18.059698490547856"),
        ("stretcher", {"eps": 0.1, "delta": 0.01},
         "0.9604918752328666", "12.566370614359174", "12.07621262781608",
         "-1.166469587587926e-09", "-0.23869429268999398", "97.20892783247093"),
        ("dumbbell", {"eps": 0.2, "delta": 0.2},
         "0.9210042959415031", "12.566370614359174", "11.839595006839527",
         "-8.881784197001252e-15", "-0.08229057830610916", "3.85622483502636"),
        ("dumbbell", {"eps": 0.2, "delta": 0.1},
         "0.9218409116447694", "12.566370614359178", "11.742179657244955",
         "-3.588240815588506e-13", "-0.08181285436831172", "8.429179349124682"),
        ("dumbbell", {"eps": 0.2, "delta": 0.05},
         "0.9223744471535519", "12.566370614359174", "11.666683958775542",
         "-1.0153655694011832e-11", "-0.17937275234522115", "18.042369811033858"),
        ("dumbbell", {"eps": 0.2, "delta": 0.01},
         "0.9230355489382344", "12.566370614359174", "11.560986242529324",
         "-9.658764454911761e-09", "-0.8473204164580532", "97.20546209656813"),
        ("dumbbell", {"eps": 0.1, "delta": 0.2},
         "0.9264980461225305", "12.566370614359178", "11.807236493891214",
         "-7.105427357601002e-15", "-0.07634334213910762", "3.9255395530823547"),
        ("dumbbell", {"eps": 0.1, "delta": 0.1},
         "0.9220918322305325", "12.566370614359176", "11.699265652065344",
         "-6.217248937900877e-14", "-0.08111045926769102", "8.46383670815268"),
        ("dumbbell", {"eps": 0.1, "delta": 0.05},
         "0.920308833257551", "12.566370614359172", "11.635909712009775",
         "-2.1174173525650986e-12", "-0.0830459769463453", "18.059698490547856"),
        ("dumbbell", {"eps": 0.1, "delta": 0.01},
         "0.9191627279428165", "12.56637061435918", "11.564649899742241",
         "-2.3329373988190127e-09", "-0.252323575900618", "97.20892783247093"),
        ("nonpositive_radial", {"amplitude": 0.25},
         "0.043852660252014175", "12.566370614497187", "12.565457510802785",
         "0.0", "-0.005648346220564031", "0.043852660252014175"),
        ("nonpositive_radial", {"amplitude": 0.5},
         "0.08740686773671769", "12.566370614398073", "12.562620706025356",
         "0.0", "-0.011595145208438726", "0.08740686773671769"),
        ("nonpositive_radial", {"amplitude": 0.75},
         "0.13064666363061406", "12.566370614397234", "12.557709785799878",
         "-1.1102230246251565e-16", "-0.01785635578712136", "0.13064666363061406"),
        ("nonpositive_radial", {"amplitude": 1.0},
         "0.1735555014165584", "12.566370614330037", "12.550569121992329",
         "0.0", "-0.024448524473754424", "0.1735555014165584"),
    ],
)
def test_spike_and_radial_quadratures_are_pinned(surface, family, params, C_repr,
                                                 area_repr, mean_repr, lap_repr,
                                                 lo_repr, hi_repr):
    # the default grid's stretcher, dumbbell and radial chart quadratures,
    # bit for bit
    metric = families.make(surface, family, **params)
    field = metric.field
    assert repr(metric.C) == C_repr
    assert repr(field.exp_integral(2)) == area_repr
    assert repr(field.exp_integral(1)) == mean_repr
    assert repr(field.laplacian_integral()) == lap_repr
    assert tuple(map(repr, field.bounds())) == (lo_repr, hi_repr)


@pytest.mark.parametrize("family", ["stretcher", "dumbbell"])
@pytest.mark.parametrize(
    "eps, delta, length_repr, annulus_repr, energy_repr, bound_repr",
    [
        (0.2, 0.2, "0.5286582112763774", "0.6551815540741363",
         "2.344291956571448", "0.528658211276377"),
        (0.2, 0.1, "1.0102256697012204", "0.8434337602113442",
         "0.8264454275696773", "1.0102256697012202"),
        (0.2, 0.05, "1.5989233908037044", "0.9224864891636909",
         "0.3608317148845319", "1.5989233908037042"),
        (0.2, 0.01, "3.8644604625599737", "0.9794855058908031",
         "0.06558737916471988", "3.86446046255998"),
        (0.1, 0.2, "0.4061115003862401", "0.5188171861336542",
         "3.145746902406213", "0.40611150038623994"),
        (0.1, 0.1, "0.9343337201547108", "0.7911259505413719",
         "0.9062365725440157", "0.9343337201547107"),
        (0.1, 0.05, "1.5487005198359904", "0.899573734470005",
         "0.3750609750033057", "1.5487005198359902"),
        (0.1, 0.01, "3.843159412315881", "0.9753627515645452",
         "0.06603730904104985", "3.8431594123158774"),
    ],
)
def test_spike_ramp_quadratures_are_pinned(surface, family, eps, delta, length_repr,
                                           annulus_repr, energy_repr, bound_repr):
    # the default grid's radial-length and ramp quadratures of the spike,
    # which feed radial_spike_length and the dumbbell bound, bit for bit;
    # rho does not depend on C on [r1, eps/2], so both families share a row
    field = families.make(surface, family, eps=eps, delta=delta).field
    assert repr(field.radial_segment_length()) == length_repr
    assert repr(field.annulus_area()) == annulus_repr
    assert repr(field.ramp_energy()) == energy_repr
    assert repr(field.radial_length_bound()) == bound_repr


@pytest.mark.parametrize(
    "family, params, u_sha, weights_sha",
    [
        ("base", {},
         "35956830dc0e1c6938923d39e417eba774c6b059bb38a8a8de026da72f74da51",
         "aca753596c74986dac9fcec9d525ac4de50dbedcbc6cdc1b498174eafb8bbbd2"),
        ("shrinker", {"eps": 0.2, "delta": 0.1},
         "d7363c7215b894c014b62c03c0b8f51377b34037c948c62ebd5c8c70c0f1827c",
         "fe36062a8d9b461b0f5f6e4bfebee21e1a31c31fdaa901fdabf6a060beb274ca"),
        ("stretcher", {"eps": 0.2, "delta": 0.05},
         "ac8249f7e9de37a38eaa32400feb8c625ba5b925a7ecdc46921df062efbf8938",
         "9530cca78131e6fbd6653055c4d9cf88c06c19c299d7f297fdcdcc88f77d9700"),
        ("dumbbell", {"eps": 0.1, "delta": 0.05},
         "80f7aa06142674a73ba9745d1cb257c62fdf1b21919fba0147ca78c91d71750c",
         "8340e787a669bdf80074b669ddebcb08323b136272345248b96fcbd33a8eb585"),
        ("nonpositive_radial", {"amplitude": 0.75},
         "2f758b32bfb9fd412e25ab532c2a636274aa3a77d0e8ccbb4671a7ecdbece078",
         "445b9e8309b52bd1c5ccd0555a4af352908d5aec7172c518a01ae9a25c991489"),
    ],
)
def test_vertex_values_and_edge_weights_are_pinned(surface, mesh3, family, params,
                                                    u_sha, weights_sha):
    # u at the level-3 vertices and the 8-sample edge g-lengths that feed
    # the sweep's mesh and diameter, bit for bit
    metric = families.make(surface, family, **params)
    assert hashlib.sha256(metric.u_raw(mesh3).tobytes()).hexdigest() == u_sha
    weights = geom._edge_weights(metric, mesh3, 8)
    assert hashlib.sha256(weights.tobytes()).hexdigest() == weights_sha


#: bump_jet points over make and katok_bounds: the C-free table once,
#: 4097 collar radii (shrinker); 3 zones x 2049 radii x 2 bumps, plus the
#: bounds scan of 8194 radii x 2 bumps (spike); 32769 table radii (radial)
TABLE_POINTS = {
    "shrinker": ({"eps": 0.2, "delta": 0.1}, 4_097),
    "stretcher": ({"eps": 0.2, "delta": 0.05}, 28_682),
    "dumbbell": ({"eps": 0.1, "delta": 0.01}, 28_682),
    "nonpositive_radial": ({"amplitude": 0.75, "center": [0.05, -0.1]}, 32_769),
}


@pytest.mark.parametrize("family", TABLE_POINTS)
def test_each_member_builds_its_table_once(surface, monkeypatch, family):
    params, budget = TABLE_POINTS[family]
    points = []

    def counting(x, a, order=2):
        # every call of the one bump routine, whatever its order
        points.append(np.size(x))
        return bump_jet(x, a, order)

    monkeypatch.setattr(families, "bump_jet", counting)
    entropy.katok_bounds(families.make(surface, family, **params))
    assert 0 < sum(points) <= budget


#: one C-free array of each member's tables: the collar's phi, the spike's
#: power-zone radii, the radial w
TABLE_ARRAY = {
    "shrinker": lambda field: field.phi,
    "stretcher": lambda field: field.grids[1][0],
    "dumbbell": lambda field: field.grids[1][0],
    "nonpositive_radial": lambda field: field.w,
}


@pytest.mark.parametrize("family", TABLE_POINTS)
def test_member_table_dies_with_the_member(surface, family):
    metric = families.make(surface, family, **TABLE_POINTS[family][0])
    field = metric.field
    table = weakref.ref(TABLE_ARRAY[family](field))
    del metric, field
    gc.collect()
    assert table() is None


CONTRACT_PARAMS = {
    "base": {},
    "shrinker": {"eps": 0.2, "delta": 0.1},
    "stretcher": {"eps": 0.2, "delta": 0.05},
    "dumbbell": {"eps": 0.1, "delta": 0.05},
    "nonpositive_radial": {"amplitude": 0.75},
}


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_with_C_shares_every_attribute_but_C(surface, family):
    field = families.make(surface, family, **CONTRACT_PARAMS[family]).field
    C = field.C
    twin = field.with_C(C + 0.5)
    assert type(twin) is type(field)
    assert twin.C == C + 0.5 and field.C == C
    assert vars(twin).keys() == vars(field).keys()
    for name, value in vars(field).items():
        if name != "C":
            assert getattr(twin, name) is value, name


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_field_chart_rules_return_finite_floats(surface, family):
    field = families.make(surface, family, **CONTRACT_PARAMS[family]).field
    for value in (field.exp_integral(1), field.exp_integral(2), field.laplacian_integral()):
        assert isinstance(value, float)
        assert math.isfinite(value)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_u_at_rejects_points_off_the_open_disk(surface, family):
    metric = families.make(surface, family, **CONTRACT_PARAMS[family])
    for x, y in [(0.9, 0.9), (1.0, 0.0), (0.0, -1.0), (math.nan, 0.0), (0.0, math.nan)]:
        with pytest.raises(RangeError):
            metric.u_at(x, y)
        with pytest.raises(RangeError):
            metric.u_at(np.array([0.0, x]), np.array([0.0, y]))
    assert np.all(np.isfinite(metric.u_at(np.array([0.0, 0.99]), np.array([0.0, 0.0]))))


# ---------------------------------------------------------------------------
# nonpositive radial


def test_radial_bounds_and_sign(surface):
    metric = families.make(surface, "nonpositive_radial", amplitude=1.0)
    assert metric.u_max == pytest.approx(0.173556, abs=1e-5)
    assert metric.u_max < 0.4406867935097715  # Schwarz cap, strict
    ray = polar_points(metric.field.center, np.linspace(0.0, 1.3, 10001))
    excess = 1.0 + metric.field.laplacian(ray.real, ray.imag)
    assert excess.min() >= 0.0
    # Full amplitude touches zero at the center.
    assert excess[0] == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("center", [0j, 0.05 - 0.1j])
@pytest.mark.parametrize("amp", [0.25, 0.6, 1.0])
def test_radial_sign_minimum_is_the_plateau(surface, mesh3, amp, center):
    # min(1 + lap u) = 1 - amplitude on the plateau r <= 0.6, and a mesh
    # vertex lies there, so the check needs no probes of its own
    metric = families.make(surface, "nonpositive_radial", amplitude=amp, center=center)
    assert conformal.nonpositivity_check(metric, mesh3).min_excess == 1.0 - amp


def test_radial_area_normalized(surface):
    for amp in (0.25, 0.5, 1.0):
        metric = families.make(surface, "nonpositive_radial", amplitude=amp)
        assert metric.area == pytest.approx(4.0 * math.pi, rel=1e-10)


@pytest.mark.parametrize(
    "amp, center", [(0.0, 0j), (0.25, 0j), (0.5, 0j), (0.75, 0j), (1.0, 0j),
                    (0.6, 0.05 - 0.1j)]
)
def test_radial_constant_matches_full_field_bisection(surface, amp, center):
    # The family bisects on e^{2C} times its area at C = 0; the oracle
    # rebuilds the whole field at every step.  Both must give the same bits.
    area = surface.total_area
    oracle = conformal.normalize_area(
        lambda c: families.RadialSlopeField(area, center, amp).with_C(c).exp_integral(2),
        area, -1.0, 1.0,
    )
    metric = families.make(surface, "nonpositive_radial", amplitude=amp, center=center)
    assert metric.C == oracle


def test_radial_amplitude_guards(surface):
    with pytest.raises(ParameterError):
        families.make(surface, "nonpositive_radial", amplitude=-0.1)
    with pytest.raises(ParameterError):
        families.make(surface, "nonpositive_radial", amplitude=1.1)
    with pytest.raises(ParameterError):
        families.make(surface, "nonpositive_radial", amplitude=0.5, center=0.4 + 0j)


# ---------------------------------------------------------------------------
# registry


def test_make_rejects_unknown_family(surface):
    with pytest.raises(ParameterError):
        families.make(surface, "moebius_strip")


def test_family_names_registry():
    assert FAMILY_NAMES == (
        "base",
        "shrinker",
        "stretcher",
        "dumbbell",
        "nonpositive_radial",
    )


def test_from_descriptor_rejects_unknown_family(surface):
    with pytest.raises(ParameterError):
        families.from_descriptor({"version": 1, "family": "torus"}, surface=surface)


def test_from_descriptor_rejects_bad_version(surface):
    with pytest.raises(UsageError):
        families.from_descriptor({"version": 0, "family": "base"}, surface=surface)
    # a bool and a float compare equal to 1 but are not the integer version
    for version in (True, 1.0):
        with pytest.raises(UsageError, match=f"unsupported descriptor version {version!r}"):
            families.from_descriptor({"version": version, "family": "base", "params": {},
                                      "C": 0.0}, surface=surface)


@pytest.mark.parametrize(
    "family, params, key",
    [
        ("shrinker", {"eps": 0.1}, "delta"),
        ("stretcher", {"delta": 0.1}, "eps"),
        ("dumbbell", {"eps": 0.1}, "delta"),
        ("nonpositive_radial", {}, "amplitude"),
    ],
)
def test_make_missing_parameter_names_family_and_key(surface, family, params, key):
    with pytest.raises(UsageError, match=f"'{family}'.*'{key}'"):
        families.make(surface, family, **params)


@pytest.mark.parametrize(
    "family, params, error, match",
    [
        ("shrinker", {"eps": 0.2, "delta": 0.1, "bogus": 1}, UsageError,
         "'shrinker'.*'bogus'"),
        ("shrinker", {"eps": "0.2", "delta": 0.1}, UsageError, "'shrinker'.*'eps'"),
        ("stretcher", {"eps": 0.2, "delta": 0.1, "p": 1.2}, DomainError, "unit disk"),
        ("dumbbell", {"eps": 0.2, "delta": 0.1, "p": -0.3 + 0j}, UsageError,
         "'dumbbell'.*'q'"),
    ],
    ids=["unknown-key", "string-scalar", "point-outside-disk", "dumbbell-p-only"],
)
def test_make_rejects_bad_parameter(surface, family, params, error, match):
    with pytest.raises(error, match=match):
        families.make(surface, family, **params)


def test_make_accepts_point_as_pair(surface):
    pair = families.make(surface, "stretcher", eps=0.2, delta=0.1, p=[0.05, -0.02])
    point = families.make(surface, "stretcher", eps=0.2, delta=0.1, p=0.05 - 0.02j)
    assert conformal.to_descriptor(pair) == conformal.to_descriptor(point)


@pytest.mark.parametrize(
    "edit, error",
    [
        (lambda doc: {**doc, "params": {**doc["params"], "bogus": 1}}, UsageError),
        (lambda doc: {**doc, "params": {**doc["params"], "p": 5}}, DomainError),
        (lambda doc: [doc], UsageError),
    ],
    ids=["unknown-key", "point-outside-disk", "json-list"],
)
def test_from_descriptor_rejects_malformed_document(surface, edit, error):
    doc = conformal.to_descriptor(
        families.make(surface, "stretcher", eps=0.2, delta=0.1)
    )
    with pytest.raises(error):
        families.from_descriptor(edit(doc), surface=surface)


def test_from_descriptor_missing_parameter_names_family_and_key(surface):
    doc = conformal.to_descriptor(
        families.make(surface, "shrinker", eps=0.2, delta=0.1)
    )
    del doc["params"]["delta"]
    with pytest.raises(UsageError, match="'shrinker'.*'delta'"):
        families.from_descriptor(doc, surface=surface)
