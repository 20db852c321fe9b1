"""Octagon domain, glued meshes, and base-surface facts."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from conformal_lab import spectral
from conformal_lab.conformal import base_metric
from conformal_lab.errors import TopologyError
from conformal_lab.geom import diameter_estimate
from conformal_lab.surface import (
    GLUE_TOL,
    TRI_SIDES,
    HyperbolicSurface,
    base_spectrum,
    build_mesh,
    build_octagon_domain,
    generator_translation_lengths,
)

SYSTOLE = 3.0571418389619947
IN_RADIUS = 1.528570919480998
OUT_RADIUS = 2.448452447678076
#: lambda_1 .. lambda_9 of the Bolza surface, with multiplicity
#: (Strohmaier & Uski, Comm. Math. Phys. 317, 2013)
BOLZA = [3.8388872588] * 3 + [5.3536013412] * 4 + [8.2495548152] * 2


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


def test_base_spectrum_converges_to_the_bolza_surface(surface):
    # the regular octagon with angles pi/4 and opposite sides glued is the
    # Bolza surface; measured level-6 errors reach 4.2e-3 and fall by
    # 3.3-5.0 from level 5, second order
    errors = {
        level: base_spectrum(surface, build_mesh(surface.domain, level), 10)
        .eigenvalues[1:10] - BOLZA
        for level in (5, 6)
    }
    assert np.all(np.abs(errors[6]) <= 5e-3), errors[6]
    assert np.all(errors[5] / errors[6] >= 3.0), errors[5] / errors[6]


def _nearest_glue(domain, mesh):
    """(n_rep, rep) of the mesh glued by matching each pairing's image of a
    source-side vertex to the nearest target-side vertex.

    Boundary vertices are those of the raw edges with one triangle, and
    side k holds those whose argument lies between its corners' arguments,
    (k - 1/2) pi/4 and (k + 1/2) pi/4, corners included."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    z = mesh.xy[:, 0] + 1j * mesh.xy[:, 1]
    n = len(z)
    ends = mesh.tris[:, TRI_SIDES].reshape(-1, 2)
    keys, counts = np.unique(ends.min(axis=1) * n + ends.max(axis=1), return_counts=True)
    on_boundary = np.unique(np.concatenate([keys[counts == 1] // n, keys[counts == 1] % n]))
    turns = np.angle(z[on_boundary]) / (math.pi / 4.0) + 0.5

    def side(k):
        offset = (turns - k + 4.0) % 8.0 - 4.0
        return on_boundary[(offset > -1e-9) & (offset < 1.0 + 1e-9)]

    glued = []
    for pairing in domain.pairings:
        src_ids, tgt_ids = side(pairing.source), side(pairing.target)
        images = pairing.transform.apply_many(z[src_ids])
        gaps = np.abs(images[:, None] - z[tgt_ids][None, :])
        nearest = gaps.argmin(axis=1)
        assert gaps.min(axis=1).max() <= GLUE_TOL
        assert np.unique(nearest).size == len(src_ids)
        glued.append(np.column_stack([src_ids, tgt_ids[nearest]]))
    src, tgt = np.concatenate(glued).T
    return connected_components(
        coo_matrix((np.ones(len(src)), (src, tgt)), shape=(n, n)), directed=False
    )


@pytest.mark.parametrize("level", range(8))
def test_side_order_glue_equals_a_nearest_match(surface, level):
    mesh = build_mesh(surface.domain, level)
    n_rep, rep = _nearest_glue(surface.domain, mesh)
    assert mesh.n_rep == n_rep
    assert np.array_equal(mesh.rep, rep)


def test_pairing_off_its_side_raises_topology_error(surface):
    # pairing 0 (side 4 onto side 0) carries pairing 1's transform
    domain = surface.domain
    wrong = domain.pairings[0]._replace(transform=domain.pairings[1].transform)
    bad = dataclasses.replace(domain, pairings=(wrong, *domain.pairings[1:]))
    with pytest.raises(TopologyError, match=r"^pairing 4->0: boundary vertex image off by"):
        build_mesh(bad, 2)


def test_mesh_json_roundtrip(mesh2):
    doc = json.loads(mesh2.to_json())
    assert doc["level"] == mesh2.level
    assert np.array_equal(doc["rep"], mesh2.rep)
    assert np.array_equal(doc["tris"], mesh2.tris)
    assert np.allclose(doc["vertices"], mesh2.xy, atol=0.0)


def test_replace_starts_mesh_caches_empty(surface, mesh2):
    cached = dataclasses.replace(mesh2)
    assert cached._cache == {}
    spectral._factor_pattern(cached)
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


def test_build_mesh_rejects_non_integer_level(surface):
    from conformal_lab.errors import DomainError

    for level in (2.5, "3", True):
        with pytest.raises(DomainError):
            build_mesh(surface.domain, level)


MESH_ARRAYS = ("xy", "tris", "rep", "edges", "edge_len_sigma", "tri_area_sigma")


@pytest.mark.parametrize(
    "level, n_rep, boundary_edge_count, digests",
    [
    (0, 2, 8, (
        "d948b9960cfe1486ed6598b187cd232eccb7189f5d190aed387b26598115bd23",
        "c162e02a90421f2442a7d8ac4c15058313baa46a400acb698c56270abfa6fe8a",
        "7c83ce2a3b18506bd41ecbc382dca9f4e985afd5dd32dad9cfc6c88e87d772f0",
        "8d913e0bd799e91b22d33925a8e2c9e0fb960ea9ec91bf32fc13251e8fa88108",
        "876ece82db02c951cc0789bef943e04c1dd8a8f282fad67d9e523451fe855161",
        "6ebfd1c361251c139ef43d4c04d240ad8f9b5dd21928cd07515eebfc0c756fb9",
    )),
    (1, 14, 16, (
        "86d6ff494032366b9341dcb6ceef83d9ac5f28ad91d792e4d35ba196293782e4",
        "34530491354d3fd0fda5160a984a5b7778c2d8bb2b8087adc546c25595335766",
        "8055a1dc6e68b41e3e15e12dd39379c861b42c387f6029d8a2f5b16b820f9486",
        "d64e5d1cbb8206fb8cca8de0436438a032ac8e0b15c6a1e5fd4387141aceeae7",
        "d1cccf235598d6d0173204d88f405e0a0a56cb9389aa862ed2aff1af886f0a7e",
        "51d7d86d586698cd577b686528460ddbc2cdc0dbdb481eead1608689dad9cf1d",
    )),
    (2, 62, 32, (
        "93c8f3ac06124daa74a9078eccf35aa2be51c024f2f48b88a8dd4587bf23e96b",
        "bc8972cb02a7aa7ed87e621791164261eca50c4ad3ed8b34b1176f5104b19f16",
        "48a990f4cf0ff861efd3d28e5a68e648e48a275b97c58988de6f2bcbfb69e297",
        "121f218809b09328b7c9dbdd5bb4d146e87dcf317dfe14cf5b18372b36e80c39",
        "c66590e5921ebdf4135d4aff39e13d4c941bb72f45ecf277da7bd835e21c441d",
        "e6b4e2a763976b3e09a2881aa9d6f1a2febbc2d4ab570c409ecbb6ef119b94fc",
    )),
    (3, 254, 64, (
        "f0212fd7c4df85a161fbe338fa5e619e2df8be1e43fbeaf3411e51383c08f73f",
        "826f5c8e50cdfd3153a03e72f169281654de3cb3ba8b5944c975e5233c0ea0a5",
        "701d9bd4483ca4169016da5bddc3c8edf759e670743446e1658379216f0c1e21",
        "ad7e039dd15ae50654a38dc9501acf49b285787b1141be01e06a9c70b27591b9",
        "38e2cb20705e566d4f4debb7fd145ad72d4742dc382d4ce23d8677b32790f6ed",
        "697c42b3f33903f388387e10585be2d2fdfcb9d6d9201dd109ad58590d30293e",
    )),
    (4, 1022, 128, (
        "15c28125bbebc556bfd7ed700c83f53cca3eea79a35dab060594c94cc42c5593",
        "74b2bbc204471b7767b4ca8f830f24f83c3b82baf35de502cdb788a3d1b0d1d0",
        "7305b8e58627bf3841950750872de218364d41f2ea7cde87b4cee7c60f234004",
        "5995aefaed3193695adcbd17ccf8e1d7665047a0c7ac8698ec8a4f1843560330",
        "e74c48769ade7b5bbf4fbbed67ecfffa6041e6a22d8b29fee26d9e5e95ea2940",
        "e80041642b0ed61332045a0556a4a674b47e92bcd31516d43eb2a99ce22a7211",
    )),
    (5, 4094, 256, (
        "3a6159a89e9b0b7e537be712426c677c7fe7cb0e4eb39acfe16fc27e3c7b0431",
        "d8b4775add0faeafb603d7614cf8916d28894d9359e65f6a022ea737c121099f",
        "b0f63629ce15fd5477d76625d70c95568ce99be50fc7513f99a751052a6034fb",
        "62a3250515022c974eeb75de06e46db25565c0e333509bc579752d6d0890b7c5",
        "20e3342e96bb267347491bd9b7b1c259d865a3f91125f16ac9384030602a86ec",
        "e41f3aebb90d380e60c52754c92f041d3ff3d90ece18e98cc37e96edb07d8af2",
    )),
    (6, 16382, 512, (
        "285af814fad641fb5ac6422a2331ec9ad8fb59e715e7f95191aa4945e9b6a20a",
        "66c9fb9545badd5e09d414d143d28106693b4fd3e5d690b63e3f8353dbf7a3ba",
        "11fb0157ba94e64e071ced709cfeecfa94087b0b8b68aff19f4beb578d34cebc",
        "30e54ca77ddb456611615abfe93f287f5ed59751960df83c9ba8019fc5232f55",
        "95a70d36c3888f19d6e46fc1ea759c0db66d721c2d4d934468e5df2530279283",
        "fa833c4d860f91da002905f955de605ef3e53685a3f46b98825ab3f87109bfe2",
    )),
    ],
)
def test_mesh_arrays_are_pinned(surface, level, n_rep, boundary_edge_count, digests):
    # SHA-256 of each array's dtype, shape and bytes, bit for bit
    mesh = build_mesh(surface.domain, level)
    assert mesh.n_rep == n_rep
    assert mesh.boundary_edge_count == boundary_edge_count
    for name, digest in zip(MESH_ARRAYS, digests):
        array = getattr(mesh, name)
        h = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
        h.update(np.ascontiguousarray(array).tobytes())
        assert h.hexdigest() == digest, name


def test_systole_geodesic_curve_length(surface):
    from conformal_lab.conformal import base_metric
    from conformal_lab.geom import curve_length, systole_curve

    assert surface.systole == pytest.approx(SYSTOLE, rel=1e-14)
    curve = systole_curve(surface, n=4097)
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
