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
import scipy.sparse.linalg as spla

from conformal_lab import build_mesh, families, spectral
from conformal_lab.conformal import base_metric
from conformal_lab.errors import (
    ConstructionError,
    DomainError,
    NumericError,
    ParameterError,
    UsageError,
)
from conformal_lab.report import default_sweep_grid
from conformal_lab.spectral import (
    SHIFT,
    _factor,
    _factor_pattern,
    _residuals,
    _shifted_stiffness,
    assemble,
    conformal_eigen_sandwich,
    cotangent_stiffness,
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
    perm, K_perm = _factor_pattern(mesh4)[:2]
    assert np.array_equal(np.sort(perm), np.arange(mesh4.n_rep))
    assert _factor_pattern(mesh4)[0] is perm
    K = cotangent_stiffness(mesh4)
    assert (K_perm != K[perm][:, perm]).nnz == 0


@pytest.mark.parametrize("params", [None, COLLAPSED_DUMBBELL])
def test_shift_invert_factor_solves_shifted_system(surface, mesh4, params):
    metric = base_metric(surface) if params is None else families.make(surface, **params)
    system = assemble(metric, mesh4)
    shifted = system.stiffness - SHIFT * sp.diags(system.mass)
    x_true = np.random.default_rng(1).standard_normal(mesh4.n_rep)
    b = shifted @ x_true
    perm, lu = _factor(system)
    x = np.empty(mesh4.n_rep)
    x[perm] = lu.solve(b[perm])
    assert np.linalg.norm(shifted @ x - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("params", [None, COLLAPSED_DUMBBELL])
def test_shifted_stiffness_updates_only_the_diagonal(surface, mesh4, params):
    # the factored matrix is the cached permuted stiffness with SHIFT * M
    # subtracted on its diagonal, entry for entry the sparse difference;
    # the collapsed dumbbell's masses reach 1e83
    metric = base_metric(surface) if params is None else families.make(surface, **params)
    system = assemble(metric, mesh4)
    perm, K_perm = _factor_pattern(mesh4)[:2]
    expected = (K_perm - SHIFT * sp.diags(system.mass[perm])).tocsc()
    shifted = _shifted_stiffness(system)
    assert shifted.format == "csc"
    assert np.array_equal(shifted.indptr, expected.indptr)
    assert np.array_equal(shifted.indices, expected.indices)
    assert np.array_equal(shifted.data, expected.data)
    assert (_factor_pattern(mesh4)[1] != cotangent_stiffness(mesh4)[perm][:, perm]).nnz == 0


def test_shift_invert_factor_solves_each_column_of_a_block(surface, mesh4):
    # the eigenvectors come from one solve with k right-hand sides
    system = assemble(families.make(surface, **COLLAPSED_DUMBBELL), mesh4)
    shifted = system.stiffness - SHIFT * sp.diags(system.mass)
    x_true = np.random.default_rng(2).standard_normal((mesh4.n_rep, 4))
    b = shifted @ x_true
    perm, lu = _factor(system)
    x = np.empty(b.shape)
    x[perm] = lu.solve(b[perm])
    for j in range(b.shape[1]):
        assert np.linalg.norm(shifted @ x[:, j] - b[:, j]) <= 1e-12 * np.linalg.norm(b[:, j])
        np.testing.assert_allclose(x[perm, j], lu.solve(b[perm, j]), rtol=1e-13, atol=0.0)


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
    # the vectors come from one block solve with one right-hand side a pair
    assert message.endswith(" refine_rhs=1")


@pytest.fixture(scope="module")
def small_meshes(surface):
    return {level: build_mesh(surface.domain, level) for level in (0, 1, 2, 3)}


@pytest.mark.parametrize(
    "params",
    [None, {"family": "shrinker", "eps": 0.2, "delta": 0.1}, COLLAPSED_DUMBBELL],
    ids=["base", "shrinker", "collapsed-dumbbell"],
)
@pytest.mark.parametrize(
    "level, spare",
    [(0, 1), (1, 2), (1, 1), (2, 2), (2, 1)],
    ids=["0-n-1", "1-n-2", "1-n-1", "2-n-2", "2-n-1"],
)
def test_all_pairs_take_the_arpack_path(surface, small_meshes, caplog, level, spare,
                                        params):
    # ncv may reach n, so ARPACK serves every k up to n - 1, down to the
    # 2-vertex level-0 mesh (whose k = n - 2 = 0 solves nothing)
    mesh = small_meshes[level]
    metric = base_metric(surface) if params is None else families.make(surface, **params)
    system = assemble(metric, mesh)
    k = mesh.n_rep - spare
    with caplog.at_level(logging.DEBUG, logger="conformal_lab.spectral"):
        res = eigenvalues(system, k)
    assert f"path=arpack pairs={k} ncv={min(mesh.n_rep, max(12, 4 * k))} " in caplog.text
    assert len(res.eigenvalues) == k + 1
    _assert_exact_pair_zero(system, res)
    np.testing.assert_allclose(
        res.eigenvalues, _dense_oracle(system, k), rtol=1e-10, atol=1e-10
    )


def test_tiny_mass_level0_shrinker_solves(surface, small_meshes):
    # masses near 1e-200: without the power-of-two rescale of the refined
    # vector its M-norm underflows to 0.  The rounding floor overflows
    # here, so the residual is held to RESIDUAL_TOL alone.
    system = assemble(families.make(surface, "shrinker", eps=1e-100, delta=0.1),
                      small_meshes[0])
    with np.errstate(over="ignore"):
        res = eigenvalues(system, 1)
    assert res.eigenvalues[1] == pytest.approx(_dense_oracle(system, 1)[1], rel=1e-12)
    assert np.all(res.residuals <= spectral.RESIDUAL_TOL * (1.0 + res.eigenvalues))


@pytest.mark.parametrize("params", [None, {"eps": 1e-8, "delta": 0.1}])
@pytest.mark.parametrize("all_pairs", [False, True], ids=["arpack", "arpack-all-pairs"])
def test_inaccurate_eigenpair_is_a_numeric_error(surface, mesh2, mesh3, monkeypatch,
                                                 all_pairs, params):
    # one component of each returned vector off by 1e-3: the residual gate,
    # not the caller, must notice, also where the rounding floor is large
    # and where ARPACK is asked for every pair
    solver = sp.linalg.eigsh

    def perturbed(*args, **kwargs):
        vals, vecs = solver(*args, **kwargs)
        vecs = vecs.copy()
        vecs[0] += 1e-3
        return vals, vecs

    metric = (base_metric(surface) if params is None
              else families.make(surface, "shrinker", **params))
    monkeypatch.setattr(sp.linalg, "eigsh", perturbed)
    mesh = mesh2 if all_pairs else mesh3
    system = assemble(metric, mesh)
    with pytest.raises(NumericError, match="residual"):
        eigenvalues(system, mesh.n_rep - 1 if all_pairs else 2)


def test_arpack_breakdown_is_a_numeric_error(surface, mesh3, monkeypatch):
    # ARPACK's other failures (e.g. -9999, no Arnoldi factorization) are
    # numerical breakdowns too: exit 3, not a traceback
    def broken(*args, **kwargs):
        raise spla.ArpackError(-9999)

    monkeypatch.setattr(sp.linalg, "eigsh", broken)
    system = assemble(base_metric(surface), mesh3)
    with pytest.raises(NumericError, match="eigensolver broke down: ARPACK error -9999"):
        eigenvalues(system, 2)


@pytest.mark.parametrize("k", [2, 10])
@pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-20, 1e-40, 1e-100])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_small_eps_shrinker_residuals_stay_near_the_rounding_floor(
        surface, small_meshes, level, eps, k):
    # the systole's masses fall like eps^2: every pair of these ARPACK solves
    # must land within 50 rounding floors of the residual tolerance, far
    # inside the gate's ROUNDING_SLACK
    system = assemble(families.make(surface, "shrinker", eps=eps, delta=0.1),
                      small_meshes[level])
    res = eigenvalues(system, k)
    _, _, floor = _residuals(system, res.eigenvalues, res.vectors)
    bound = spectral.RESIDUAL_TOL * (1.0 + res.eigenvalues) + 50.0 * floor
    assert np.all(res.residuals <= bound)


@pytest.mark.parametrize("eps", [1e-150, 1e-100])
@pytest.mark.parametrize("delta", [0.1, 0.01])
def test_tiny_mass_residuals_stay_finite_and_within_their_floor(
        surface, small_meshes, eps, delta):
    # masses of 4.5e-301 at eps 1e-150: r / mass overflowed (a warning, an
    # error here), and the gate passed a residual of inf against a bound of inf
    system = assemble(families.make(surface, "shrinker", eps=eps, delta=delta),
                      small_meshes[0])
    res = eigenvalues(system, 1)
    weighted, scaled, floor = _residuals(system, res.eigenvalues, res.vectors)
    for values in (weighted, scaled, floor):
        assert np.all(np.isfinite(values))
    assert np.all(weighted <= floor)


def test_weighted_norm_scaling_changes_no_bit(surface, mesh3):
    system = assemble(families.make(surface, "shrinker", eps=1e-8, delta=0.1), mesh3)
    mass = system.mass
    rng = np.random.default_rng(3)
    for scale in (1e-30, 1e-8, 1.0, 1e8, 1e30):
        x = scale * rng.standard_normal(len(mass))
        v_sq = float(rng.uniform(0.5, 2.0))
        assert spectral._weighted_norm(x, mass, v_sq) == math.sqrt(
            float(x @ (x / mass)) / v_sq
        )


def test_residual_gate_fails_a_bound_that_is_not_finite(surface, mesh3, monkeypatch):
    # inf <= inf held, so an overflowing floor passed any residual
    original = spectral._residuals

    def overflowing(system, vals, vecs):
        weighted, scaled, floor = original(system, vals, vecs)
        floor[-1] = math.inf
        return weighted, scaled, floor

    monkeypatch.setattr(spectral, "_residuals", overflowing)
    system = assemble(base_metric(surface), mesh3)
    with pytest.raises(NumericError, match="eigenpair 2 .* above its bound inf"):
        eigenvalues(system, 2)


def test_small_eps_shrinker_lambda1_agrees_across_k(surface, small_meshes):
    system = assemble(families.make(surface, "shrinker", eps=1e-4, delta=0.1),
                      small_meshes[2])
    lam1 = eigenvalues(system, 2).eigenvalues[1]
    assert lam1 == pytest.approx(3.61749747, abs=5e-9)
    assert lam1 == pytest.approx(eigenvalues(system, 1).eigenvalues[1], rel=1e-12)


@pytest.fixture(scope="module")
def mesh5(surface):
    return build_mesh(surface.domain, 5)


@pytest.mark.parametrize("eps", [1e-8, 1e-10])
@pytest.mark.parametrize("level", [3, 5])
def test_small_eps_shrinker_solves_pass_the_residual_gate(surface, mesh3, mesh5,
                                                          level, eps):
    # the systole masses fall like eps^2 while K stays put, so rounding in
    # K v alone lifts even the exact pair 0 above RESIDUAL_TOL in the M^-1
    # norm; the rounding floor, not a looser tolerance, admits these solves
    mesh = mesh3 if level == 3 else mesh5
    system = assemble(families.make(surface, "shrinker", eps=eps, delta=0.1), mesh)
    res = eigenvalues(system, 2)
    assert res.residuals[0] > spectral.RESIDUAL_TOL
    assert res.eigenvalues[1] == pytest.approx(3.67, abs=0.01)


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


@pytest.mark.parametrize("level", [0, 1])
def test_dumbbell_bound_names_an_anchor_no_vertex_reaches(surface, monkeypatch, level):
    # on a coarse mesh no vertex lies inside the ramp's support, so the
    # test function would be the zero vector
    metric = families.make(surface, "dumbbell", eps=0.2, delta=0.1)
    system = assemble(metric, build_mesh(surface.domain, level))
    monkeypatch.setattr(spectral, "rayleigh", lambda *args: pytest.fail("quotient taken"))
    anchor = metric.field.anchors[0]
    with pytest.raises(DomainError, match=re.escape(
        f"no level-{level} mesh vertex lies within eps/2 = 0.1 of the "
        f"dumbbell anchor {anchor!r}"
    )):
        dumbbell_test_bound(metric, system)


def test_dumbbell_bound_rejects_other_families(surface, mesh3):
    metric = base_metric(surface)
    with pytest.raises(ParameterError):
        dumbbell_test_bound(metric, assemble(metric, mesh3))
