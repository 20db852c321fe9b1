"""Disk-model primitives: distance, isometries, batch distance and area kernels."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conformal_lab.errors import ConstructionError, DomainError
from conformal_lab.hyp import (
    DiskPoint,
    MobiusTransform,
    disk_distance,
    distances_to,
    hyperbolic_midpoint,
    pair_distances,
    polar_points,
    tri_areas,
)


def _disk_points(max_abs=0.9):
    return st.complex_numbers(max_magnitude=max_abs, allow_nan=False, allow_infinity=False)


def test_distance_basic_values():
    assert disk_distance(0j, 0j) == 0.0
    # d(0, r) = 2 artanh r on a diameter.
    assert disk_distance(0j, 0.5 + 0j) == pytest.approx(2.0 * math.atanh(0.5), rel=1e-15)
    assert disk_distance(0j, 0.5j) == pytest.approx(2.0 * math.atanh(0.5), rel=1e-15)


@given(_disk_points(), _disk_points())
def test_distance_symmetry(a, b):
    assert disk_distance(a, b) == pytest.approx(disk_distance(b, a), rel=1e-12, abs=1e-12)


@given(_disk_points(0.8), _disk_points(0.8), _disk_points(0.8))
def test_distance_triangle_inequality(a, b, c):
    dab = disk_distance(a, b)
    dbc = disk_distance(b, c)
    dac = disk_distance(a, c)
    assert dac <= dab + dbc + 1e-10


@given(_disk_points(0.8), _disk_points(0.8), st.floats(-2.0, 2.0), st.floats(0.0, 2 * math.pi))
def test_distance_is_mobius_invariant(a, b, t, theta):
    T = MobiusTransform.rotation(theta).compose(MobiusTransform.x_translation(t))
    d0 = disk_distance(a, b)
    d1 = disk_distance(T.apply_many(a), T.apply_many(b))
    assert d1 == pytest.approx(d0, rel=1e-10, abs=1e-12)


def test_disk_point_rejects_boundary():
    with pytest.raises(DomainError):
        DiskPoint(1.0, 0.0)


@given(_disk_points(0.85), _disk_points(0.85))
def test_midpoint_is_equidistant(a, b):
    m = hyperbolic_midpoint(a, b)
    dam = disk_distance(a, m)
    dmb = disk_distance(m, b)
    dab = disk_distance(a, b)
    assert dam == pytest.approx(dmb, rel=1e-9, abs=1e-11)
    assert dam + dmb == pytest.approx(dab, rel=1e-9, abs=1e-11)


def test_origin_to_moves_origin():
    p = 0.3 + 0.4j
    T = MobiusTransform.origin_to(p)
    assert T.apply_many(0j) == pytest.approx(p, abs=1e-15)
    back = T.inverse().apply_many(p)
    assert back == pytest.approx(0j, abs=1e-15)


def test_x_translation_length():
    T = MobiusTransform.x_translation(1.7)
    assert T.translation_length() == pytest.approx(1.7, rel=1e-14)


def test_rotation_is_not_hyperbolic():
    with pytest.raises(ConstructionError):
        MobiusTransform.rotation(0.3).translation_length()


def test_compose_matches_sequential_application():
    S = MobiusTransform.x_translation(0.8)
    R = MobiusTransform.rotation(1.1)
    z = 0.2 - 0.35j
    assert (R.compose(S)).apply_many(z) == pytest.approx(
        R.apply_many(S.apply_many(z)), abs=1e-15
    )


def _random_cloud(n, seed):
    rng = np.random.default_rng(seed)
    r = 0.85 * np.sqrt(rng.random(n))
    t = 2.0 * np.pi * rng.random(n)
    return r * np.cos(t), r * np.sin(t)


def test_pair_distances_match_scalar_reference():
    ax, ay = _random_cloud(64, seed=1)
    bx, by = _random_cloud(64, seed=2)
    out = pair_distances(ax, ay, bx, by)
    for i in range(0, 64, 7):
        ref = disk_distance(complex(ax[i], ay[i]), complex(bx[i], by[i]))
        assert out[i] == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize("anchor", [0j, 0.2 + 0.1j, -0.35 + 0.5j, 0.999 - 0.001j])
def test_distances_to_is_pair_distances_with_the_anchor_broadcast(anchor):
    x, y = _random_cloud(4096, seed=3)
    out = distances_to(x, y, anchor)
    ref = pair_distances(x, y, np.full(x.shape, anchor.real), np.full(y.shape, anchor.imag))
    assert np.array_equal(out, ref)
    assert np.array_equal(np.signbit(out), np.signbit(ref))


def test_distances_to_keeps_the_broadcast_shape():
    x, y = _random_cloud(12, seed=4)
    assert distances_to(x.reshape(3, 4), y.reshape(3, 4), 0.1j).shape == (3, 4)
    xs, ys = np.linspace(-0.5, 0.5, 3), np.linspace(-0.5, 0.5, 4)
    assert distances_to(xs[:, None], ys[None, :], 0.1j).shape == (3, 4)
    assert distances_to(0.5, 0.0, 0j) == pytest.approx(2.0 * math.atanh(0.5), rel=1e-15)


@pytest.mark.parametrize("center", [0j, 0.2 + 0.1j, -0.6j])
def test_polar_points_match_the_explicit_mobius_construction(center):
    r = np.linspace(0.0, 1.5, 7)
    theta = np.arange(16) * (2.0 * math.pi / 16)
    pts = polar_points(center, r[:, None], theta)
    ring = np.tanh(0.5 * r)[:, None] * np.exp(1j * theta)[None, :]
    ref = MobiusTransform.origin_to(center).apply_many(ring.ravel()).reshape(ring.shape)
    assert np.array_equal(pts, ref)
    # one ray at angle 0 when theta is omitted
    assert np.array_equal(polar_points(center, r), ref[:, 0])
    # and each point lies at sigma-distance r from the center
    d = distances_to(pts.real, pts.imag, center)
    assert np.allclose(d, np.broadcast_to(r[:, None], d.shape), rtol=1e-12, atol=1e-12)


def test_tri_area_of_ideal_limit_is_below_pi():
    # Hyperbolic triangle area = pi - angle sum < pi always.
    s = 0.97
    x = np.array([s, -0.5 * s, -0.5 * s])
    y = np.array([0.0, s * math.sqrt(3) / 2, -s * math.sqrt(3) / 2])
    tris = np.array([[0, 1, 2]])
    area = tri_areas(x, y, tris)[0]
    assert 0.0 < area < math.pi
    assert area > 2.5  # nearly ideal for vertices this close to the boundary


def test_tri_area_equilateral_known_value():
    # Equilateral triangle with vertices at disk radius 0.5: the angle at
    # each corner follows from the hyperbolic law of cosines; area is the
    # angle defect pi - 3 alpha.
    rho = 0.5
    x = np.array([rho, -0.5 * rho, -0.5 * rho])
    y = np.array([0.0, rho * math.sqrt(3) / 2, -rho * math.sqrt(3) / 2])
    side = disk_distance(complex(x[0], y[0]), complex(x[1], y[1]))
    ch = math.cosh(side)
    alpha = math.acos(ch / (ch + 1.0))
    area = tri_areas(x, y, np.array([[0, 1, 2]]))[0]
    assert area == pytest.approx(math.pi - 3.0 * alpha, rel=1e-12)
