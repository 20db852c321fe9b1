"""FEM assembly, eigenvalue solves, sandwich and dumbbell bounds."""

from __future__ import annotations

import dataclasses
import logging
import math
import re

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from conformal_lab import build_mesh, families
from conformal_lab.conformal import base_metric
from conformal_lab.errors import ConstructionError, ParameterError, UsageError
from conformal_lab.report import default_sweep_grid
from conformal_lab.spectral import (
    SHIFT,
    _shift_invert,
    assemble,
    conformal_eigen_sandwich,
    cotangent_stiffness,
    dissection_order,
    dumbbell_test_bound,
    eigenvalues,
    rayleigh,
)
from conformal_lab.surface import base_spectrum

# A dumbbell whose neck has collapsed: lambda_1 and lambda_2 are far below
# round-off of the spectrum's scale, so only the shift keeps lambda_3.. apart.
COLLAPSED_DUMBBELL = {"family": "dumbbell", "eps": 0.160611, "delta": 0.012677}


def _dense_oracle(system, k):
    """Smallest k+1 eigenvalues of the generalized pencil (K, diag M)."""
    dense = la.eigh(system.stiffness.toarray(), np.diag(system.mass), eigvals_only=True)
    return dense[: k + 1]


def test_stiffness_kernel_contains_constants(mesh3):
    K = cotangent_stiffness(mesh3)
    ones = np.ones(mesh3.n_rep)
    assert np.max(np.abs(K @ ones)) < 1e-12


def test_mass_total_equals_quadrature_area(surface, mesh3):
    base = assemble(base_metric(surface), mesh3)
    assert np.sum(base.mass) == pytest.approx(4.0 * math.pi, rel=1e-12)
    shr = assemble(families.make(surface, "shrinker", eps=0.2, delta=0.1), mesh3)
    # Normalized families keep the continuum area at 4 pi; the lumped mass
    # reproduces it only to quadrature accuracy.
    assert np.sum(shr.mass) == pytest.approx(4.0 * math.pi, rel=5e-3)


def test_base_spectrum_level3(surface, mesh3):
    res = base_spectrum(surface, mesh3, 6)
    lam = res.eigenvalues
    assert lam[0] == pytest.approx(0.0, abs=1e-8)
    assert lam[1] == pytest.approx(3.789328558, rel=1e-8)
    # The octagon's symmetry forces a double eigenvalue right above.
    assert lam[2] == pytest.approx(lam[3], rel=1e-10)
    assert np.all(np.diff(lam) >= -1e-10)
    assert res.residuals.max() < 1e-10


def test_base_spectrum_level4_uses_sparse_path(surface, mesh4):
    res = base_spectrum(surface, mesh4, 3)
    assert res.mesh.n_rep == 1022
    assert res.eigenvalues[0] == pytest.approx(0.0, abs=1e-8)
    assert res.eigenvalues[1] == pytest.approx(3.828939995, rel=1e-6)
    assert res.residuals.max() < 1e-8


def test_dissection_order_is_cached_permutation(surface, mesh4):
    perm, K_perm = dissection_order(mesh4)
    assert np.array_equal(np.sort(perm), np.arange(mesh4.n_rep))
    assert dissection_order(mesh4)[0] is perm
    K = cotangent_stiffness(mesh4)
    assert (K_perm != K[perm][:, perm]).nnz == 0


@pytest.mark.parametrize("params", [None, COLLAPSED_DUMBBELL])
def test_shift_invert_factor_solves_shifted_system(surface, mesh4, params):
    metric = base_metric(surface) if params is None else families.make(surface, **params)
    system = assemble(metric, mesh4)
    shifted = system.stiffness - SHIFT * sp.diags(system.mass)
    x_true = np.random.default_rng(1).standard_normal(mesh4.n_rep)
    b = shifted @ x_true
    x = _shift_invert(system)(b)
    assert np.linalg.norm(shifted @ x - b) <= 1e-12 * np.linalg.norm(b)


def _assert_exact_pair_zero(system, res):
    """lambda_0 = 0.0 exactly with the M-normalized constant, and the other
    columns M-orthogonal to it.  The orthogonality is measured against the
    normalized constant: a level-3 dumbbell lumps masses up to 1e83, so
    1'M v alone carries terms of 1e41."""
    mass = system.mass
    assert res.eigenvalues[0] == 0.0
    v0 = res.vectors[:, 0]
    assert np.all(v0 == v0[0])
    assert float(v0 @ (mass * v0)) == pytest.approx(1.0, rel=1e-14)
    assert np.max(np.abs((mass * v0) @ res.vectors[:, 1:])) <= 1e-12
    assert np.all(np.diff(res.eigenvalues) >= 0.0)


@pytest.mark.parametrize(
    "params",
    default_sweep_grid() + [COLLAPSED_DUMBBELL],
    ids=lambda p: "-".join(str(v) for v in p.values()),
)
def test_eigenvalues_match_dense_oracle_level3(surface, mesh3, params):
    system = assemble(families.make(surface, **params), mesh3)
    res = eigenvalues(system, 10)
    _assert_exact_pair_zero(system, res)
    np.testing.assert_allclose(
        res.eigenvalues, _dense_oracle(system, 10), rtol=1e-10, atol=1e-10
    )


def test_k_zero_returns_only_the_exact_pair(surface, mesh3, caplog):
    system = assemble(base_metric(surface), mesh3)
    with caplog.at_level(logging.DEBUG, logger="conformal_lab.spectral"):
        res = eigenvalues(system, 0)
    assert res.eigenvalues.tolist() == [0.0]
    assert res.vectors.shape == (mesh3.n_rep, 1)
    assert "path=" not in caplog.text


def test_deflated_solve_count_is_pinned(surface, mesh4, caplog):
    # Without deflation ARPACK also hunts the constant pair: 41 solves here.
    system = assemble(
        families.make(surface, "dumbbell", eps=0.1, delta=0.01), mesh4
    )
    with caplog.at_level(logging.DEBUG, logger="conformal_lab.spectral"):
        eigenvalues(system, 1)
    (message,) = [r.getMessage() for r in caplog.records if "path=arpack" in r.getMessage()]
    assert "pairs=1 ncv=12 " in message
    assert int(re.search(r"shift_invert_solves=(\d+)", message).group(1)) <= 20


def test_dense_fallback_where_arpack_cannot_run(surface, mesh2):
    system = assemble(families.make(surface, "shrinker", eps=0.2, delta=0.1), mesh2)
    k = mesh2.n_rep - 2  # k + 1 >= n - 1 leaves ARPACK no room for ncv
    res = eigenvalues(system, k)
    assert len(res.eigenvalues) == k + 1
    _assert_exact_pair_zero(system, res)
    np.testing.assert_allclose(
        res.eigenvalues, _dense_oracle(system, k), rtol=1e-10, atol=1e-10
    )


def test_eigenvalues_repeat_bit_for_bit_level5(surface):
    mesh = build_mesh(surface.domain, 5)
    system = assemble(families.make(surface, "stretcher", eps=0.2, delta=0.01), mesh)
    first = eigenvalues(system, 1).eigenvalues
    for _ in range(2):
        assert np.array_equal(eigenvalues(system, 1).eigenvalues, first)


def test_sandwich_holds_for_collapsed_dumbbell_level4(surface, mesh4):
    system = assemble(families.make(surface, **COLLAPSED_DUMBBELL), mesh4)
    res = conformal_eigen_sandwich(
        system, base_spectrum(surface, mesh4, 10), eigenvalues(system, 10)
    )
    assert res.violations == 0
    assert res.worst_margin >= 0.0


def test_eigenvalue_csv_header(surface, mesh3):
    res = base_spectrum(surface, mesh3, 2)
    lines = res.to_csv().splitlines()
    assert lines[0] == "k, lambda, residual, level"
    assert lines[1].startswith("0, ")
    assert lines[1].rstrip().endswith(", 3")


def test_rayleigh_of_constant_is_zero(surface, mesh3):
    system = assemble(base_metric(surface), mesh3)
    val = rayleigh(system, np.ones(mesh3.n_rep))
    assert abs(val) < 1e-12


def test_assemble_rejects_non_quotient_field(surface, mesh3):
    class BrokenMetric:
        family = "broken"

        def u_raw(self, mesh):
            return mesh.xy[:, 0]  # x is not invariant under the gluing

    with pytest.raises(ConstructionError):
        assemble(BrokenMetric(), mesh3)


@pytest.mark.parametrize(
    "family, params",
    [
        ("shrinker", {"eps": 0.2, "delta": 0.1}),
        ("stretcher", {"eps": 0.2, "delta": 0.05}),
        ("dumbbell", {"eps": 0.2, "delta": 0.01}),
        ("nonpositive_radial", {"amplitude": 1.0}),
    ],
)
def test_sandwich_holds_for_extreme_members(surface, mesh3, family, params):
    system = assemble(families.make(surface, family, **params), mesh3)
    base_res = base_spectrum(surface, mesh3, 10)
    res = conformal_eigen_sandwich(system, base_res, eigenvalues(system, 10))
    assert res.violations == 0
    assert res.worst_margin >= 0.0
    assert np.all(res.lower <= res.upper)


def test_sandwich_bounds_ignore_sign_of_zero_eigenvalue_roundoff(surface, mesh3):
    # The exact lambda_0 of the base pencil is 0; a solver returns it as
    # +-1e-14 depending on the BLAS.  Both signs must give the same bounds.
    metric = families.make(surface, "shrinker", eps=0.2, delta=0.1)
    base_res = base_spectrum(surface, mesh3, 10)
    system = assemble(metric, mesh3)
    deformed = eigenvalues(system, 10)
    results = []
    for lam0 in (1e-14, -1e-14):
        vals = base_res.eigenvalues.copy()
        vals[0] = lam0
        res = conformal_eigen_sandwich(
            system, dataclasses.replace(base_res, eigenvalues=vals), deformed
        )
        assert np.all(res.lower <= res.upper)
        results.append(res)
    plus, minus = results
    assert np.array_equal(plus.lower, minus.lower)
    assert np.array_equal(plus.upper, minus.upper)


def test_sandwich_level_mismatch_rejected(surface, mesh3, mesh4):
    metric = families.make(surface, "shrinker", eps=0.2, delta=0.1)
    base_res = base_spectrum(surface, mesh3, 5)
    system = assemble(metric, mesh4)
    with pytest.raises(UsageError):
        conformal_eigen_sandwich(system, base_res, eigenvalues(system, 5))


def test_sandwich_rejects_spectra_of_another_mesh(surface, mesh3):
    # same level as mesh3, half the areas: its spectrum is twice mesh3's
    halved = dataclasses.replace(mesh3, tri_area_sigma=0.5 * mesh3.tri_area_sigma)
    metric = base_metric(surface)
    system = assemble(metric, halved)
    with pytest.raises(UsageError, match="base spectrum computed on another mesh"):
        conformal_eigen_sandwich(
            system, base_spectrum(surface, mesh3, 10), eigenvalues(system, 10)
        )
    deformed = eigenvalues(assemble(metric, mesh3), 10)
    with pytest.raises(UsageError, match="deformed spectrum computed on another mesh"):
        conformal_eigen_sandwich(system, base_spectrum(surface, halved, 10), deformed)


def test_dumbbell_bound_controls_lambda1(surface, mesh3):
    metric = families.make(surface, "dumbbell", eps=0.2, delta=0.1)
    system = assemble(metric, mesh3)
    bound = dumbbell_test_bound(metric, system)
    lam1 = eigenvalues(system, 1).eigenvalues[1]
    assert lam1 <= bound.total + 1e-8
    # Symmetric anchors give identical Rayleigh quotients.
    assert bound.rayleigh_1 == pytest.approx(bound.rayleigh_2, rel=1e-6)


def test_dumbbell_bound_decreases_with_delta(surface, mesh3):
    totals = []
    for delta in (0.2, 0.1, 0.05, 0.01):
        metric = families.make(surface, "dumbbell", eps=0.2, delta=delta)
        totals.append(dumbbell_test_bound(metric, assemble(metric, mesh3)).total)
    assert all(b < a for a, b in zip(totals, totals[1:]))
    assert totals[-1] < 1e-80  # the neck strangles the coupling completely


def test_dumbbell_ramp_energy_below_analytic_cap(surface, mesh3):
    for delta in (0.2, 0.1, 0.05):
        metric = families.make(surface, "dumbbell", eps=0.2, delta=delta)
        bound = dumbbell_test_bound(metric, assemble(metric, mesh3))
        assert bound.ramp_energy_pair <= bound.analytic_bound
        assert bound.analytic_bound == pytest.approx(
            4.0 * math.pi / (4.0 * bound.delta_R**2), rel=1e-9
        )


def test_dumbbell_bound_rejects_other_families(surface, mesh3):
    metric = base_metric(surface)
    with pytest.raises(ParameterError):
        dumbbell_test_bound(metric, assemble(metric, mesh3))
