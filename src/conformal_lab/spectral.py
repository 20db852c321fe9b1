"""Discrete Laplace spectra of conformal metrics on the glued mesh.

The Dirichlet energy of a 2-D conformal metric does not see the
conformal factor, so one cotangent stiffness matrix (assembled from the
raw Euclidean disk coordinates) serves every metric on a mesh; it is
cached on the mesh.  The metric enters only through the lumped mass
matrix, whose vertex weights carry exp(2u).

The constants span the kernel of K on the connected surface, so the
pair lambda_0 = 0 with the M-normalized constant is exact and is not
computed.  The other k eigenvalues come from ARPACK shift-invert
iteration around -1e-3 on the M-orthogonal complement of the constants
(deflation, Lehoucq, Sorensen & Yang, ARPACK Users' Guide, SIAM 1998):
the solve's input drops its M 1 component and its output its constant
component, so ARPACK is asked for k pairs, not k + 1.  On the complement
the pencil is positive definite; computed values are clipped at 0 so that
a collapsed neck's round-off cannot fall below the exact 0.  There is no
dense cutoff; a dense `eigh` on the complement runs only where ARPACK
cannot (k + 1 >= n - 1).  The shift caps the operator at 1e3, which
keeps the tiny eigenvalues of collapsed dumbbell necks resolved.  The
debug log names the path, the pairs requested, ncv and the number of
shift-invert solves.  K + 1e-3 M has the same sparsity pattern for every
metric, so its fill-reducing order is computed once per mesh: a
geometric nested dissection (George, SIAM J. Numer. Anal. 10, 1973) of
the representatives' disk coordinates, cached on the mesh with K
permuted by it.  Per metric only the diagonal changes; the permuted
matrix is symmetric positive definite, so SuperLU factors it in that
order without pivoting.  ARPACK starts from a fixed random vector and
draws its restarts from a fixed generator, so a solve repeats bit for
bit across calls and processes.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    ConstructionError,
    DomainError,
    MeshQualityError,
    NumericError,
    ParameterError,
    UsageError,
)
from .hyp import distances_to

log = logging.getLogger(__name__)

GLUE_VALUE_TOL = 1e-8  # max disagreement of u across raw copies of a vertex
SHIFT = -1e-3          # ARPACK shift: factor K - SHIFT * M
DISSECTION_LEAF = 64   # index sets this small are not split further


def cotangent_stiffness(mesh) -> sp.csr_matrix:
    """Cotangent stiffness on representative vertices, cached on the mesh."""
    if "stiffness" in mesh._cache:
        return mesh._cache["stiffness"]
    x = mesh.xy[:, 0]
    y = mesh.xy[:, 1]
    t = mesh.tris
    rows = []
    cols = []
    vals = []
    negatives = 0
    for local in range(3):
        i = t[:, local]
        j = t[:, (local + 1) % 3]
        k = t[:, (local + 2) % 3]  # corner opposite edge (i, j)
        ax, ay = x[i] - x[k], y[i] - y[k]
        bx, by = x[j] - x[k], y[j] - y[k]
        cross = ax * by - ay * bx
        if np.any(np.abs(cross) < 1e-30):
            raise MeshQualityError("degenerate triangle in stiffness assembly")
        w = 0.5 * (ax * bx + ay * by) / cross
        negatives += int(np.sum(w < 0))
        ri, rj = mesh.rep[i], mesh.rep[j]
        rows.extend([ri, rj, ri, rj])
        cols.extend([rj, ri, ri, rj])
        vals.extend([-w, -w, w, w])
    if negatives:
        log.debug("stiffness: %d negative cotangent weights tolerated", negatives)
    K = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.n_rep, mesh.n_rep),
    ).tocsr()
    mesh._cache["stiffness"] = K
    return K


def dissection_order(mesh):
    """(permutation, permuted stiffness) for the shift-invert factor.

    Geometric nested dissection: split an index set at the coordinate
    median along its longer extent; the separator is the upper half's
    vertices adjacent to the lower half in K's graph, glued edges
    included, so it separates the halves on the closed surface; order
    lower, rest of upper, separator, recursively.  Cached on the mesh.
    """
    if "dissection_order" in mesh._cache:
        return mesh._cache["dissection_order"]
    K = cotangent_stiffness(mesh)
    adjacency = sp.csr_matrix(
        (np.ones(K.nnz), K.indices, K.indptr), shape=K.shape
    )
    xy = np.empty((mesh.n_rep, 2))
    xy[mesh.rep] = mesh.xy
    pieces = []

    def dissect(idx):
        if len(idx) <= DISSECTION_LEAF:
            pieces.append(idx)
            return
        pts = xy[idx]
        axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
        order = np.argsort(pts[:, axis], kind="stable")
        half = len(idx) // 2
        lower, upper = idx[order[:half]], idx[order[half:]]
        in_lower = np.zeros(mesh.n_rep)
        in_lower[lower] = 1.0
        touches = adjacency[upper] @ in_lower > 0.0
        dissect(lower)
        dissect(upper[~touches])
        pieces.append(upper[touches])

    dissect(np.arange(mesh.n_rep))
    perm = np.concatenate(pieces)
    mesh._cache["dissection_order"] = (perm, K[perm][:, perm].tocsc())
    return mesh._cache["dissection_order"]


def _shift_invert(system):
    """x -> (K - SHIFT * M)^{-1} x, factored in the mesh's dissection order."""
    perm, K_perm = dissection_order(system.mesh)
    lu = spla.splu(
        K_perm - SHIFT * sp.diags(system.mass[perm]),
        permc_spec="NATURAL",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )

    def solve(b):
        x = np.empty(len(perm))
        x[perm] = lu.solve(b[perm])
        return x

    return solve


@dataclass
class SpectralSystem:
    stiffness: sp.csr_matrix
    mass: np.ndarray          # diagonal entries
    u: np.ndarray             # conformal factor at the raw mesh vertices
    mesh: object


def assemble(metric, mesh) -> SpectralSystem:
    """Stiffness plus exp(2u)-weighted lumped mass for a metric on a mesh."""
    K = cotangent_stiffness(mesh)
    u = metric.u_raw(mesh)

    # u must agree across the raw copies of each glued vertex.
    u_lo = np.full(mesh.n_rep, np.inf)
    u_hi = np.full(mesh.n_rep, -np.inf)
    np.minimum.at(u_lo, mesh.rep, u)
    np.maximum.at(u_hi, mesh.rep, u)
    spread = float(np.max(u_hi - u_lo))
    if spread > GLUE_VALUE_TOL * max(1.0, float(np.max(np.abs(u)))):
        worst = int(np.argmax(u_hi - u_lo))
        raise ConstructionError(
            f"field is not well defined on the quotient: u differs by "
            f"{spread:.3e} across copies of representative {worst}"
        )

    weight = np.exp(2.0 * u)
    mass = np.zeros(mesh.n_rep)
    third = mesh.tri_area_sigma / 3.0
    for local in range(3):
        idx = mesh.tris[:, local]
        np.add.at(mass, mesh.rep[idx], third * weight[idx])
    if not np.all(mass > 0.0) or not np.all(np.isfinite(mass)):
        raise NumericError(
            f"mass lumping produced a nonpositive or nonfinite entry "
            f"(min {mass.min():.3e}); the conformal factor overflows this mesh"
        )
    return SpectralSystem(stiffness=K, mass=mass, u=u, mesh=mesh)


@dataclass
class SpectralResult:
    eigenvalues: np.ndarray      # nondecreasing, length k+1; [0] is exactly 0.0
    vectors: np.ndarray          # (n_rep, k+1), M-orthonormal columns;
                                 # [:, 0] is the constant 1 / sqrt(1'M1)
    residuals: np.ndarray        # ||K v - lambda M v||_{M^-1} / ||v||_M
    backward_errors: np.ndarray  # ||K v - lambda M v|| scaled by matrix norms
    mesh: object                 # the mesh solved on

    def to_csv(self) -> str:
        lines = ["k, lambda, residual, level"]
        for i, (lam, res) in enumerate(zip(self.eigenvalues, self.residuals)):
            lines.append(f"{i}, {lam:.17g}, {res:.6e}, {self.mesh.level}")
        return "\n".join(lines) + "\n"


def _residuals(K, mass, vals, vecs):
    """(residual, backward error) of each computed pair (lambda, v).

    The residual is ||K v - lambda M v||_{M^-1} / ||v||_M: by Weinstein's
    bound the pencil has an eigenvalue within that distance of lambda
    (Parlett, The Symmetric Eigenvalue Problem, SIAM 1998).  The backward
    error scales the Euclidean residual by the matrix norms.
    """
    norm_K = float(np.max(np.abs(K).sum(axis=1)))
    norm_M = float(np.max(mass))
    weighted = np.empty(len(vals))
    scaled = np.empty(len(vals))
    for j, lam in enumerate(vals):
        v = vecs[:, j]
        r = K @ v - lam * (mass * v)
        weighted[j] = math.sqrt(float(r @ (r / mass)) / float(v @ (mass * v)))
        scaled[j] = float(np.linalg.norm(r)) / (
            (norm_K + abs(lam) * norm_M) * float(np.linalg.norm(v))
        )
    return weighted, scaled


def eigenvalues(system: SpectralSystem, k: int, *, maxiter=500) -> SpectralResult:
    """Smallest k+1 generalized eigenvalues of (K, M).

    The pair 0 is exact: lambda_0 = 0.0 with the M-normalized constant.
    The other k are solved on the M-orthogonal complement of the
    constants and clipped at 0.
    """
    n = system.mesh.n_rep
    if k < 0:
        raise DomainError(f"need k >= 0, got {k}")
    if k + 1 > n:
        raise DomainError(f"requested {k + 1} eigenvalues of a {n}-dim system")
    K = system.stiffness
    mass = system.mass
    total_mass = float(mass.sum())

    if k == 0:
        vals = np.empty(0)
        vecs = np.empty((n, 0))
    elif k + 1 >= n - 1:
        # ARPACK needs k < ncv <= n - 1 on the complement
        import scipy.linalg as la

        scale = 1.0 / np.sqrt(mass)
        A = (K.toarray() * scale[None, :]) * scale[:, None]
        A = 0.5 * (A + A.T)
        # orthonormal basis of the complement of M^(1/2) 1, the constants
        Q = la.null_space(np.sqrt(mass)[None, :])
        vals, y = la.eigh(Q.T @ A @ Q)
        vals = vals[:k]
        vecs = (Q @ y[:, :k]) * scale[:, None]
        log.debug("eigenvalues: path=dense pairs=%d", k)
    else:
        solve = _shift_invert(system)
        mass_ones = mass / total_mass  # x -> mass_ones @ x is x's constant part
        solves = 0

        def deflated(b):
            # scipy hands OPinv M x: strip its M 1 part, then the solution's
            # constant part, so the iteration never leaves the complement
            nonlocal solves
            solves += 1
            b = np.ravel(b)
            x = solve(b - mass * (b.sum() / total_mass))
            return x - mass_ones @ x

        v0 = np.random.default_rng(0).standard_normal(n)
        v0 -= mass_ones @ v0
        ncv = min(n - 1, max(12, 4 * k))
        try:
            vals, vecs = spla.eigsh(
                K,
                k=k,
                M=spla.LinearOperator(
                    (n, n), matvec=lambda x: mass * np.ravel(x), dtype=float
                ),
                sigma=SHIFT,
                which="LM",
                mode="normal",
                OPinv=spla.LinearOperator((n, n), matvec=deflated, dtype=float),
                v0=v0,
                ncv=ncv,
                maxiter=maxiter,
                tol=0,
                rng=0,
            )
        except spla.ArpackNoConvergence as exc:
            raise NumericError(
                f"eigensolver failed to converge within {maxiter} iterations"
            ) from exc
        order = np.argsort(vals)
        vals = vals[order]
        vecs = vecs[:, order]
        log.debug(
            "eigenvalues: path=arpack pairs=%d ncv=%d shift_invert_solves=%d",
            k, ncv, solves,
        )

    vals = np.concatenate(([0.0], np.maximum(vals, 0.0)))
    vecs = np.column_stack((np.full(n, 1.0 / math.sqrt(total_mass)), vecs))
    weighted, scaled = _residuals(K, mass, vals, vecs)
    return SpectralResult(
        eigenvalues=vals,
        vectors=vecs,
        residuals=weighted,
        backward_errors=scaled,
        mesh=system.mesh,
    )


def rayleigh(system: SpectralSystem, f) -> float:
    """Rayleigh quotient f'Kf / f'Mf on representative vertices."""
    f = np.asarray(f, dtype=float)
    n = system.mesh.n_rep
    if f.shape != (n,):
        raise UsageError(f"vector of length {f.shape} against a {n}-dim system")
    den = float(f @ (system.mass * f))
    if den == 0.0:
        raise DomainError("Rayleigh quotient of the zero vector")
    return float(f @ (system.stiffness @ f)) / den


@dataclass(frozen=True)
class DumbbellBound:
    rayleigh_1: float
    rayleigh_2: float
    total: float          # R(f1) + R(f2), the eigenvalue bound
    analytic_bound: float  # A / (4 (R2 - R1)^2)
    delta_R: float
    ramp_energy_pair: float  # continuum Dirichlet energy of both ramps


def dumbbell_test_bound(metric, system: SpectralSystem) -> DumbbellBound:
    """Min-Max upper bound for lambda_1 of a dumbbell member.

    Builds the two plateau-and-ramp test functions supported in the
    deformation balls (1 on the stretched core, falling linearly in the
    g-radial distance across the power-law annulus, 0 outside) and
    returns the sum of their Rayleigh quotients on the member's assembled
    system together with the closed-form annulus energy bound.
    """
    if getattr(metric, "family", None) != "dumbbell":
        raise ParameterError(
            f"dumbbell bound asked of family {getattr(metric, 'family', None)!r}"
        )
    mesh = system.mesh
    spike = metric.field.spike
    fs = []
    for anchor in metric.field.anchors:
        f_raw = spike.ramp_values(distances_to(mesh.xy[:, 0], mesh.xy[:, 1], anchor))
        f = np.zeros(mesh.n_rep)
        f[mesh.rep] = f_raw
        fs.append(f)
    if np.any((fs[0] != 0.0) & (fs[1] != 0.0)):
        raise ParameterError("dumbbell test-function supports overlap")
    r1 = rayleigh(system, fs[0])
    r2 = rayleigh(system, fs[1])
    dR = spike.radial_length_bound()
    return DumbbellBound(
        rayleigh_1=r1,
        rayleigh_2=r2,
        total=r1 + r2,
        analytic_bound=metric.surface.total_area / (4.0 * dR * dR),
        delta_R=dR,
        ramp_energy_pair=2.0 * spike.ramp_energy(),
    )


@dataclass(frozen=True)
class SandwichResult:
    lower: np.ndarray
    upper: np.ndarray
    violations: int
    worst_margin: float   # most negative slack, >= 0 when all hold


def conformal_eigen_sandwich(
    system: SpectralSystem,
    base_result: SpectralResult,
    deformed_result: SpectralResult,
) -> SandwichResult:
    """Two-sided eigenvalue comparison of a member against the base spectrum.

    The lumped mass matrices satisfy exp(2 min u) M_sigma <= M_g <=
    exp(2 max u) M_sigma entrywise with extrema taken over vertex values
    of u, so exp(-2 max u) lambda_k(sigma) <= lambda_k(g) <=
    exp(-2 min u) lambda_k(sigma) holds at matrix level; only round-off
    guards appear here.  The vertex values are the member's system's;
    deformed_result is that system's spectrum.

    The bounds are built from the base spectrum clipped at 0, with
    lambda_0 pinned to 0: K is positive semidefinite and M a positive
    diagonal, so every exact eigenvalue of the pencil is >= 0, and the
    constants span the kernel of K on the connected surface, so the exact
    lambda_0 is 0.  `eigenvalues` returns it as exactly 0.0 and clips the
    rest at 0, but a spectrum from elsewhere may carry +-1e-14 there;
    scaling a negative value would put lower above upper, so the bounds
    must not follow the round-off.  Both spectra must come from the
    system's very mesh object, not only its level.
    """
    mesh = system.mesh
    for name, result in (("base", base_result), ("deformed", deformed_result)):
        if result.mesh is not mesh:
            raise UsageError(
                f"{name} spectrum computed on another mesh (level "
                f"{result.mesh.level}), not this level-{mesh.level} mesh"
            )
    m = min(len(base_result.eigenvalues), len(deformed_result.eigenvalues))
    base = base_result.eigenvalues[:m]
    lam = deformed_result.eigenvalues[:m]
    exact = np.maximum(base, 0.0)
    exact[0] = 0.0
    u_max = float(np.max(system.u))
    u_min = float(np.min(system.u))
    lower = math.exp(-2.0 * u_max) * exact
    upper = math.exp(-2.0 * u_min) * exact
    # Round-off envelope: both solvers carry absolute noise of order
    # eps * ||pencil|| (visible on the zero eigenvalue), and the bounds
    # multiply the base spectrum by up to exp(-2 min u), so the guard
    # scales the same way.  True violations live at the relative scale
    # of the eigenvalues and stay far above this.
    scale = max(1.0, math.exp(-2.0 * u_min), math.exp(-2.0 * u_max))
    atol = 1e-10 * scale * max(1.0, float(np.max(np.abs(base))))
    lo_slack = lam - (lower - 1e-9 * np.abs(lower) - atol)
    hi_slack = (upper + 1e-9 * np.abs(upper) + atol) - lam
    slack = np.minimum(lo_slack, hi_slack)
    return SandwichResult(
        lower=lower,
        upper=upper,
        violations=int(np.sum(slack < 0.0)),
        worst_margin=float(np.min(slack)),
    )
