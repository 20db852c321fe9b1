"""Bound orchestration: every check on a metric collected into one report.

`verify_metric` runs the full battery for a single metric and returns a
BoundsReport whose entries record what was compared, with what slack, and
how much margin was left.  `sweep` runs families over parameter grids and
tabulates the headline quantities as CSV.  Reports are deterministic:
rerunning on the same inputs reproduces them byte for byte (timestamps
are opt-in for that reason).

Slack policy: facts that hold at matrix level get zero slack, facts
established by quadrature get 1%, facts read off the mesh get 5%.  A
handful of bounds are attained exactly by extremal members (the unit
amplitude radial profile sits on its circle bound), so exact entries
carry a tiny absolute guard against round-off on top of zero relative
slack.
"""

import csv
import io
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import conformal, entropy, families, geom, spectral
from .errors import LabError, UsageError
from .surface import base_spectrum

__all__ = [
    "CheckEntry",
    "BoundsReport",
    "DEFAULT_CONFIG",
    "verify_metric",
    "default_sweep_grid",
    "sweep",
    "SweepTable",
]

#: every config key and its default; the default's type is the rule for
#: a given value: an int default takes an int >= 1 (not a bool), a bool
#: default a bool
DEFAULT_CONFIG = {
    "k": 10,                  # sandwich depth
    "samples_per_edge": geom.SAMPLES_PER_EDGE,  # diameter estimator resolution
    "curve_samples": geom.CURVE_SAMPLES,  # systole sampling for length checks
    "embed_timestamp": False,
}

#: the DEFAULT_CONFIG keys a sweep reads
SWEEP_CONFIG_KEYS = ("samples_per_edge", "curve_samples")

#: the DEFAULT_CONFIG keys verify_metric reads
VERIFY_CONFIG_KEYS = ("k", "curve_samples", "embed_timestamp")

SLACK_EXACT = 0.0   # matrix-level facts
SLACK_QUAD = 0.01   # quadrature facts
SLACK_MESH = 0.05   # mesh facts

#: absolute guard for bounds that extremal members attain exactly
EXACT_ABS_GUARD = 1e-9


@dataclass(frozen=True)
class CheckEntry:
    """One verified inequality (or equality) with its slack and margin."""

    name: str
    lhs: float
    rhs: float
    relation: str        # ">=", "<=" or "=="
    margin: float        # slack-adjusted room; >= 0 exactly when passing
    status: str          # "pass" | "fail" | "not_applicable" | "error"
    enforced: bool       # informational entries never fail a report
    refs: str            # producing routine, for tracing
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.enforced and self.status in ("fail", "error")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "relation": self.relation,
            "margin": self.margin,
            "status": self.status,
            "enforced": self.enforced,
            "refs": self.refs,
            "detail": self.detail,
        }


@dataclass
class BoundsReport:
    entries: list
    metadata: dict
    entropy_bounds: dict = None

    @property
    def passed(self) -> bool:
        return not any(e.failed for e in self.entries)

    def entry(self, name: str) -> CheckEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise UsageError(f"report has no entry named '{name}'")

    def to_dict(self) -> dict:
        doc = {
            "version": 1,
            "metadata": self.metadata,
            "entries": [e.to_dict() for e in self.entries],
            "passed": self.passed,
        }
        if self.entropy_bounds is not None:
            doc["entropy"] = self.entropy_bounds
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _check(name, lhs, rhs, relation, rel_slack, abs_slack, enforced, refs,
           detail=""):
    lhs = float(lhs)
    rhs = float(rhs)
    allowance = rel_slack * max(1.0, abs(rhs)) + abs_slack
    if relation == "<=":
        margin = rhs + allowance - lhs
    elif relation == ">=":
        margin = lhs - rhs + allowance
    elif relation == "==":
        margin = allowance - abs(lhs - rhs)
    else:
        raise UsageError(f"unknown relation '{relation}'")
    status = "pass" if margin >= 0.0 else "fail"
    if not math.isfinite(margin):
        status = "error"
    return CheckEntry(
        name=name, lhs=lhs, rhs=rhs, relation=relation, margin=float(margin),
        status=status, enforced=enforced, refs=refs, detail=detail,
    )


def _error_entry(name, exc, enforced, refs):
    return CheckEntry(
        name=name, lhs=math.nan, rhs=math.nan, relation="==",
        margin=math.nan, status="error", enforced=enforced, refs=refs,
        detail=f"{type(exc).__name__}: {exc}",
    )


def _skip_entry(name, refs, detail):
    return CheckEntry(
        name=name, lhs=math.nan, rhs=math.nan, relation="==",
        margin=math.nan, status="not_applicable", enforced=False,
        refs=refs, detail=detail,
    )


def _guarded(entries, name, enforced, refs, fn):
    """Append fn()'s entries, downgrading exceptions to an error entry."""
    try:
        out = fn()
    except LabError as exc:
        entries.append(_error_entry(name, exc, enforced, refs))
        return
    if isinstance(out, CheckEntry):
        entries.append(out)
    else:
        entries.extend(out)


def _merged_config(config, keys):
    """DEFAULT_CONFIG overridden by config, checked for every caller.

    Each key of config must be among keys, and each value must follow
    its default's type (see DEFAULT_CONFIG).
    """
    if not isinstance(config, (dict, type(None))):
        raise UsageError(f"config must be a dict, got {type(config).__name__}")
    cfg = dict(DEFAULT_CONFIG)
    for key, value in (config or {}).items():
        if key not in keys:
            raise UsageError(
                f"config has unknown key {key!r}; this call reads {list(keys)}"
            )
        if isinstance(DEFAULT_CONFIG[key], bool):
            if not isinstance(value, bool):
                raise UsageError(
                    f"config key {key!r} must be true or false, got {value!r}"
                )
        elif not isinstance(value, int) or isinstance(value, bool):
            raise UsageError(f"config key {key!r} must be an integer, got {value!r}")
        elif value < 1:
            raise UsageError(
                f"config key {key!r} must be at least 1, got {value!r}: "
                f"the run needs {key} >= 1, got {value!r}"
            )
        cfg[key] = value
    return cfg


def _cylinder_entries(metric):
    """Invariants of the rotationally symmetric neck profile."""
    r = metric.grid_r
    f2 = metric.profile_convexity(r)
    curv = metric.curvature(r)
    plateau = r <= metric.plateau_width
    entries = [
        _check(
            "cylinder_neck_value", metric.profile(0.0), metric.neck, "==",
            0.0, EXACT_ABS_GUARD, True, "families.CylinderMetric.profile",
        ),
        _check(
            "cylinder_convexity", float(np.min(f2)), 0.0, ">=",
            0.0, 0.0, True, "families.cylinder_profile",
            detail="profile assembled from nonnegative convexity bumps",
        ),
        _check(
            "cylinder_curvature_negative", float(np.max(curv)), 0.0, "<=",
            0.0, 0.0, True, "families.CylinderMetric.curvature",
        ),
        _check(
            "cylinder_plateau_flat",
            float(np.max(np.abs(curv[plateau]))), 0.1, "<=",
            0.0, 0.0, True, "families.CylinderMetric.curvature",
            detail="design keeps the plateau well below the cap",
        ),
        _check(
            "cylinder_matched_zone",
            float(np.max(np.abs(
                metric.curvature(metric.match_radius + np.linspace(0.0, 2.0, 257))
                + 1.0
            ))),
            1e-6, "<=", 0.0, 0.0, True,
            "families.CylinderMetric.curvature",
            detail="curvature is the exact closed form beyond the match radius",
        ),
        _check(
            "cylinder_seam_value",
            metric.profile(metric.match_radius),
            metric.a * math.cosh(metric.match_radius), "==",
            SLACK_QUAD, 0.0, True, "families.cylinder_profile",
        ),
    ]
    return entries


def _conformal_entries(metric, mesh, cfg):
    surface = metric.surface
    entries = []

    entries.append(_check(
        "area_normalized", metric.area, surface.total_area, "==",
        conformal.AREA_MATCH_TOL, 0.0, True, "conformal.make_metric",
    ))
    entries.append(_check(
        "mesh_sigma_area", mesh.total_area_sigma(), surface.total_area, "==",
        0.005 if mesh.level >= 3 else SLACK_MESH, 0.0, mesh.level >= 3,
        "surface.SurfaceMesh.total_area_sigma",
    ))
    entries.append(_check(
        "euler_characteristic", mesh.euler_characteristic(), -2, "==",
        SLACK_EXACT, 0.0, True, "surface.SurfaceMesh.euler_characteristic",
    ))

    def gauss():
        res = conformal.gauss_bonnet(metric, mesh)
        return _check(
            "gauss_bonnet_total_curvature", res.value, res.expected, "==",
            SLACK_QUAD, 0.0, True, "conformal.gauss_bonnet",
            detail=f"method={res.method}",
        )
    _guarded(entries, "gauss_bonnet_total_curvature", True, "conformal.gauss_bonnet", gauss)

    sign = conformal.nonpositivity_check(metric, mesh)
    entries.append(_check(
        "curvature_nonpositive", sign.min_excess, 0.0, ">=",
        0.0, sign.tol, sign.certified, "conformal.nonpositivity_check",
        detail=f"method={sign.method}, certified={sign.certified}",
    ))

    at_max_ok = sign.nonpositive and metric.u_max >= 0.0
    if sign.nonpositive:
        entries.append(_check(
            "max_u_schwarz_bound", metric.u_max,
            conformal.schwarz_upper_bound(surface.inj_radius), "<=",
            SLACK_EXACT, EXACT_ABS_GUARD, True, "conformal.schwarz_upper_bound",
        ))
    else:
        entries.append(_skip_entry(
            "max_u_schwarz_bound", "conformal.schwarz_upper_bound",
            "needs nonpositive curvature",
        ))

    center = complex(*metric.params["center"]) if "center" in metric.params else 0j
    for radius in (0.5, 1.0):
        name = f"circle_mean_bound_R{radius}"
        if at_max_ok:
            _guarded(entries, name, True, "geom.circle_integral_u", lambda radius=radius, name=name: _check(
                name,
                geom.circle_integral_u(metric, center, radius),
                geom.circle_lower_bound(metric.u_max, radius), ">=",
                SLACK_QUAD, EXACT_ABS_GUARD, True, "geom.circle_integral_u",
            ))
        else:
            entries.append(_skip_entry(
                name, "geom.circle_integral_u",
                "needs nonpositive curvature and max u >= 0 at the center",
            ))
    name = "region_mean_bound_R1.0"
    if at_max_ok:
        def region():
            lhs, rhs = geom.region_integral_u(metric, center, 1.0)
            return _check(
                name, lhs, rhs, ">=", SLACK_QUAD, EXACT_ABS_GUARD, True,
                "geom.region_integral_u",
            )
        _guarded(entries, name, True, "geom.region_integral_u", region)
    else:
        entries.append(_skip_entry(
            name, "geom.region_integral_u",
            "needs nonpositive curvature and max u >= 0 at the center",
        ))

    k = cfg["k"]
    system = spectral.assemble(metric, mesh)
    deformed = spectral.eigenvalues(system, k)
    sandwich = spectral.conformal_eigen_sandwich(
        system, base_spectrum(surface, mesh, k), deformed
    )
    entries.append(_check(
        "eigen_sandwich_margin", sandwich.worst_margin, 0.0, ">=",
        0.0, 0.0, True, "spectral.conformal_eigen_sandwich",
        detail=f"k={k}, violations={sandwich.violations}",
    ))

    curve = geom.systole_curve(surface, cfg["curve_samples"])
    length_g, jensen = geom.jensen_lower_bound(metric, curve)
    entries.append(_check(
        "systole_jensen_consistency", length_g, jensen, ">=",
        0.0, 1e-12 * max(1.0, jensen), True, "geom.jensen_lower_bound",
    ))
    if metric.family == "shrinker":
        entries.append(_check(
            "systole_target_length", length_g, metric.params["eps"], "==",
            1e-6, 0.0, True, "geom.curve_length",
        ))
    if metric.family == "nonpositive_radial":
        entries.append(_check(
            "systole_length_floor", length_g, 0.1, ">=",
            0.0, 0.0, True, "geom.curve_length",
            detail="empirical floor charted over the amplitude sweep",
        ))

    if metric.family in ("stretcher", "dumbbell"):
        entries.append(_check(
            "radial_spike_length",
            metric.field.spike.radial_segment_length(),
            metric.field.spike.radial_length_bound(),
            ">=", SLACK_QUAD, 0.0, True, "families._PowerSpike.radial_segment_length",
        ))

    if metric.family == "dumbbell":
        def dumbbell_entries():
            bound = spectral.dumbbell_test_bound(metric, system)
            lam1 = float(deformed.eigenvalues[1])
            yield _check(
                "dumbbell_lambda1_bound", lam1, bound.total, "<=",
                0.0, 1e-8 * max(1.0, abs(bound.total)), True,
                "spectral.dumbbell_test_bound",
                detail=f"delta_R={bound.delta_R!r}",
            )
            yield _check(
                "dumbbell_ramp_energy", bound.ramp_energy_pair,
                bound.analytic_bound, "<=", SLACK_QUAD, 0.0, True,
                "spectral.dumbbell_test_bound",
                detail="continuum Dirichlet energy of both ramps",
            )
        _guarded(entries, "dumbbell_lambda1_bound", True,
                 "spectral.dumbbell_test_bound", lambda: list(dumbbell_entries()))

    bounds = entropy.katok_bounds(metric)
    entries.append(_check(
        "katok_factor_cap", bounds.katok_factor, 1.0, "<=",
        0.0, 0.0, True, "entropy.katok_bounds",
    ))
    return entries, bounds


def verify_metric(metric, mesh=None, config=None) -> BoundsReport:
    """Run every applicable bound check and collect a structured report."""
    cfg = _merged_config(config, VERIFY_CONFIG_KEYS)
    family = getattr(metric, "family", None)
    if family is None:
        raise UsageError(f"object {metric!r} is not a family metric")
    entropy_doc = None
    if family == "cylinder":
        entries = _cylinder_entries(metric)
        level = None
    else:
        if mesh is None:
            raise UsageError("conformal verification needs a mesh")
        entries, bounds = _conformal_entries(metric, mesh, cfg)
        entropy_doc = bounds.to_dict()
        level = mesh.level
    metadata = {
        "family": family,
        "params": dict(metric.params),
        "level": level,
        "k": cfg["k"],
        "timestamp": datetime.now(timezone.utc).isoformat()
        if cfg["embed_timestamp"] else None,
    }
    return BoundsReport(entries=entries, metadata=metadata,
                        entropy_bounds=entropy_doc)


# ---------------------------------------------------------------------------
# sweeps

SWEEP_COLUMNS = (
    "family", "eps", "delta", "amplitude", "area", "max_u", "lambda1",
    "length_gamma", "diameter", "katok_factor", "dumbbell_bound", "error",
)

DEFAULT_EPS_GRID = (0.2, 0.1)
DEFAULT_DELTA_GRID = (0.2, 0.1, 0.05, 0.01)
DEFAULT_AMPLITUDE_GRID = (0.25, 0.5, 0.75, 1.0)


def default_sweep_grid():
    """Family-major default grid; every entry satisfies the feasibility
    constraints, including the smallest delta (the eigensolver stays
    backward-stable there, which was checked before pinning the grid)."""
    grid = []
    for fam in ("shrinker", "stretcher", "dumbbell"):
        for eps in DEFAULT_EPS_GRID:
            for delta in DEFAULT_DELTA_GRID:
                grid.append({"family": fam, "eps": eps, "delta": delta})
    for amp in DEFAULT_AMPLITUDE_GRID:
        grid.append({"family": "nonpositive_radial", "amplitude": amp})
    return grid


@dataclass
class SweepTable:
    rows: list
    columns: tuple = SWEEP_COLUMNS

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_csv_cell(row[c]) for c in self.columns])
        return buf.getvalue()


def _csv_cell(value):
    if isinstance(value, float):
        return repr(value)
    return value


def sweep(surface, mesh, grid=None, config=None) -> SweepTable:
    """One row of headline quantities per family member, grid order."""
    cfg = _merged_config(config, SWEEP_CONFIG_KEYS)
    if grid is None:
        grid = default_sweep_grid()
    if not isinstance(grid, (list, tuple)) or not all(
        isinstance(entry, dict) for entry in grid
    ):
        raise UsageError("sweep grid must be a list of JSON objects")
    if not grid:
        raise UsageError("sweep grid is empty")
    gamma_curve = geom.systole_curve(surface, cfg["curve_samples"])
    rows = []
    for spec_params in grid:
        params = dict(spec_params)
        fam = params.pop("family", None)
        if fam is None:
            raise UsageError(f"grid entry {spec_params!r} names no family")
        row = {c: "" for c in SWEEP_COLUMNS}
        row["family"] = fam
        for key in ("eps", "delta", "amplitude"):
            if families.is_real(params.get(key)):
                row[key] = float(params[key])
        try:
            if "C" in params:
                raise UsageError(
                    f"grid entry {spec_params!r} takes no key 'C': the "
                    "normalization constant is solved, not given"
                )
            metric = families.make(surface, fam, **params)
            if not isinstance(metric, conformal.ConformalMetric):
                raise UsageError(
                    f"family '{fam}' has no conformal sweep columns"
                )
            system = spectral.assemble(metric, mesh)
            result = spectral.eigenvalues(system, 1)
            row["area"] = metric.area
            row["max_u"] = metric.u_max
            row["lambda1"] = float(result.eigenvalues[1])
            row["length_gamma"] = geom.curve_length(metric, gamma_curve)
            row["diameter"] = geom.diameter_estimate(
                metric, mesh, samples_per_edge=cfg["samples_per_edge"]
            )
            row["katok_factor"] = entropy.katok_bounds(metric).katok_factor
            if fam == "dumbbell":
                row["dumbbell_bound"] = spectral.dumbbell_test_bound(
                    metric, system
                ).total
        except LabError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return SweepTable(rows=rows)
