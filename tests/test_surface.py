"""Octagon domain, glued meshes, and base-surface facts."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from conformal_lab import spectral
from conformal_lab.conformal import base_metric
from conformal_lab.geom import diameter_estimate
from conformal_lab.surface import (
    HyperbolicSurface,
    base_spectrum,
    build_mesh,
    build_octagon_domain,
    generator_translation_lengths,
)

SYSTOLE = 3.0571418389619947
IN_RADIUS = 1.528570919480998
OUT_RADIUS = 2.448452447678076


def test_domain_area_is_4pi(surface):
    # Angle-defect quadrature of the center fan: 8 pi minus corner sums.
    assert surface.total_area == pytest.approx(4.0 * math.pi, rel=1e-13)


def test_domain_radii_oracles(surface):
    assert surface.domain.in_radius == pytest.approx(IN_RADIUS, rel=1e-14)
    assert surface.domain.circumradius == pytest.approx(OUT_RADIUS, rel=1e-14)
    # In-radius of the regular octagon: cosh r = cot(pi/8) gives
    # r = arccosh(1 + sqrt 2).
    assert surface.domain.in_radius == pytest.approx(math.acosh(1.0 + math.sqrt(2.0)), rel=1e-15)


def test_generator_lengths_all_equal_systole(surface):
    lengths = generator_translation_lengths(surface.domain)
    assert len(lengths) == 4
    for t in lengths:
        assert t == pytest.approx(SYSTOLE, rel=1e-12)
    assert surface.systole == pytest.approx(SYSTOLE, rel=1e-14)
    assert surface.inj_radius == pytest.approx(0.5 * SYSTOLE, rel=1e-14)


def test_systole_is_twice_in_radius(surface):
    # The pairing translation runs through the octagon center, in-circle
    # midpoint to opposite midpoint.
    assert surface.systole == pytest.approx(2.0 * surface.domain.in_radius, rel=1e-12)


def test_side_pairings_are_hyperbolic_opposite_sides(surface):
    domain = surface.domain
    assert len(domain.pairings) == 4
    for pairing in domain.pairings:
        assert abs(pairing.transform.trace()) > 2.0


@pytest.mark.parametrize("level", [0, 1, 2])
def test_euler_characteristic_small_levels(level, surface):
    mesh = build_mesh(surface.domain, level)
    assert mesh.euler_characteristic() == -2


def test_euler_characteristic_level3(mesh3):
    assert mesh3.euler_characteristic() == -2


def test_level3_mesh_counts(mesh3):
    assert mesh3.n_rep == 254
    assert mesh3.n_tri == 512
    E = mesh3.edges.shape[0] - mesh3.boundary_edge_count // 2
    assert E == 768


def test_mesh_area_is_exact_tiling(mesh3, mesh4):
    # Geodesic triangles tile the octagon; no discretization error in area.
    assert mesh3.total_area_sigma() == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert mesh4.total_area_sigma() == pytest.approx(4.0 * math.pi, rel=1e-12)


def test_refinement_quadruples_triangles(mesh3, mesh4):
    assert mesh4.n_tri == 4 * mesh3.n_tri


def test_every_interior_edge_has_two_triangles(mesh3):
    # incident triangles per raw edge (glued pairs sum to 2)
    idx = {tuple(e): 0 for e in mesh3.edges.tolist()}
    for a, b, c in mesh3.tris.tolist():
        for i, j in ((a, b), (b, c), (c, a)):
            idx[(min(i, j), max(i, j))] += 1
    counts = np.array([idx[tuple(e)] for e in mesh3.edges.tolist()])
    assert counts.min() >= 1
    # Boundary edges carry one triangle each raw-side; glued partners
    # supply the second. Interior edges carry two directly.
    interior = counts[counts == 2].size
    boundary = counts[counts == 1].size
    assert boundary == mesh3.boundary_edge_count
    assert interior + boundary == mesh3.edges.shape[0]


def test_rep_identifies_boundary_only(mesh3):
    # Raw vertex count exceeds representatives exactly by glued copies.
    assert mesh3.n_raw > mesh3.n_rep
    assert np.unique(mesh3.rep).size == mesh3.n_rep


def test_mesh_json_roundtrip(mesh2):
    doc = json.loads(mesh2.to_json())
    assert doc["level"] == mesh2.level
    assert np.array_equal(doc["rep"], mesh2.rep)
    assert np.array_equal(doc["tris"], mesh2.tris)
    assert np.allclose(doc["vertices"], mesh2.xy, atol=0.0)


def test_replace_starts_mesh_caches_empty(surface, mesh2):
    cached = dataclasses.replace(mesh2)
    assert cached._cache == {}
    spectral.dissection_order(cached)
    diameter_estimate(base_metric(surface), cached)
    base_spectrum(surface, cached, 2)
    assert set(cached._cache) == {
        "stiffness", "dissection_order", "diameter_graph", "base_spectrum",
    }
    copy = dataclasses.replace(cached, tris=cached.tris.copy())
    assert copy._cache == {}


def test_base_spectrum_belongs_to_its_mesh(surface, mesh3):
    """A mesh of the same level with halved areas has its own spectrum."""
    lam = base_spectrum(surface, mesh3, 4).eigenvalues
    halved = dataclasses.replace(mesh3, tri_area_sigma=0.5 * mesh3.tri_area_sigma)
    assert halved.level == mesh3.level
    # halving every lumped mass doubles every eigenvalue
    np.testing.assert_allclose(
        base_spectrum(surface, halved, 4).eigenvalues[1:5], 2.0 * lam[1:5], rtol=1e-10
    )
    assert base_spectrum(surface, mesh3, 4).eigenvalues is lam


def test_build_mesh_rejects_bad_level(surface):
    from conformal_lab.errors import DomainError

    with pytest.raises(DomainError):
        build_mesh(surface.domain, -1)
    with pytest.raises(DomainError):
        build_mesh(surface.domain, 9)


def test_systole_geodesic_curve_length(surface):
    from conformal_lab.conformal import base_metric
    from conformal_lab.geom import curve_length

    geo = surface.systole_geodesic()
    assert geo.length == pytest.approx(SYSTOLE, rel=1e-14)
    curve = geo.curve(n=4097)
    measured = curve_length(base_metric(surface), curve)
    assert measured == pytest.approx(SYSTOLE, rel=1e-9)


def test_base_spectrum_cached(surface, mesh3):
    from conformal_lab.surface import base_spectrum

    first = base_spectrum(surface, mesh3, 5)
    second = base_spectrum(surface, mesh3, 5)
    assert first is second
    assert first.eigenvalues[0] == pytest.approx(0.0, abs=1e-8)


def test_octagon_has_eight_sides():
    domain = build_octagon_domain()
    assert len(domain.vertices) == 8
    # Opposite vertices are exact negatives, so opposite-side pairings glue
    # without any midpoint slack.
    for k in range(4):
        assert domain.vertices[k + 4].z == -domain.vertices[k].z
