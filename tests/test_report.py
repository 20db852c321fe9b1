"""Report orchestration: gating, determinism, sweep tabulation."""

from __future__ import annotations

import dataclasses
import importlib
import math

import pytest

from conformal_lab import conformal, families, geom, spectral
from conformal_lab.conformal import base_metric
from conformal_lab.errors import RangeError, UsageError
from conformal_lab.report import (
    DEFAULT_CONFIG,
    SWEEP_COLUMNS,
    default_sweep_grid,
    sweep,
    verify_metric,
)


def test_base_report_all_pass(surface, mesh3):
    report = verify_metric(base_metric(surface), mesh3)
    assert report.passed
    for entry in report.entries:
        assert entry.status == "pass", (entry.name, entry.detail)
    names = [e.name for e in report.entries]
    for expected in (
        "area_normalized",
        "mesh_sigma_area",
        "euler_characteristic",
        "gauss_bonnet_total_curvature",
        "curvature_nonpositive",
        "max_u_schwarz_bound",
        "circle_mean_bound_R0.5",
        "circle_mean_bound_R1.0",
        "region_mean_bound_R1.0",
        "eigen_sandwich_margin",
        "systole_jensen_consistency",
        "katok_factor_cap",
    ):
        assert expected in names
    assert report.metadata["family"] == "base"
    assert report.metadata["level"] == 3
    assert report.metadata["timestamp"] is None
    assert report.entropy_bounds["katok_factor"] == 1.0


def test_radial_report_fully_enforced(surface, mesh3):
    metric = families.make(surface, "nonpositive_radial", amplitude=1.0)
    report = verify_metric(metric, mesh3)
    assert report.passed
    sign = report.entry("curvature_nonpositive")
    assert sign.enforced and sign.status == "pass"
    assert report.entry("max_u_schwarz_bound").status == "pass"
    # Unit amplitude attains the circle bound; the guard keeps it passing.
    assert report.entry("circle_mean_bound_R1.0").status == "pass"
    assert report.entry("region_mean_bound_R1.0").status == "pass"
    assert report.entry("systole_length_floor").status == "pass"


def test_shrinker_report_gates_at_max_checks(surface, mesh3):
    metric = families.make(surface, "shrinker", eps=0.2, delta=0.1)
    report = verify_metric(metric, mesh3)
    assert report.passed
    sign = report.entry("curvature_nonpositive")
    # The collar dip has positive curvature: the check fails, but the
    # family never claimed a sign certificate, so it is informational.
    assert sign.status == "fail"
    assert not sign.enforced
    skipped = [
        "max_u_schwarz_bound",
        "circle_mean_bound_R0.5",
        "circle_mean_bound_R1.0",
        "region_mean_bound_R1.0",
    ]
    for name in skipped:
        assert report.entry(name).status == "not_applicable"
    assert report.entry("systole_target_length").status == "pass"


def test_stretcher_report_probe_finds_positive_curvature(surface, mesh3):
    metric = families.make(surface, "stretcher", eps=0.2, delta=0.05)
    report = verify_metric(metric, mesh3)
    assert report.passed
    sign = report.entry("curvature_nonpositive")
    assert sign.status == "fail" and not sign.enforced
    # The spike transition lives at radius e^{-1/delta}, far below mesh
    # resolution; only the probe points can see it.
    assert sign.lhs < -1.0
    assert report.entry("max_u_schwarz_bound").status == "not_applicable"
    assert report.entry("radial_spike_length").status == "pass"


def test_dumbbell_report_bound_entries(surface, mesh3):
    metric = families.make(surface, "dumbbell", eps=0.2, delta=0.1)
    report = verify_metric(metric, mesh3)
    assert report.passed
    lam = report.entry("dumbbell_lambda1_bound")
    assert lam.status == "pass" and lam.enforced
    assert lam.lhs <= lam.rhs + 1e-8
    ramp = report.entry("dumbbell_ramp_energy")
    assert ramp.status == "pass"
    assert ramp.lhs <= ramp.rhs
    assert report.entry("radial_spike_length").status == "pass"


def test_report_json_is_deterministic(surface, mesh3):
    metric = families.make(surface, "shrinker", eps=0.2, delta=0.1)
    first = verify_metric(metric, mesh3).to_json()
    second = verify_metric(metric, mesh3).to_json()
    assert first == second
    assert first.endswith("\n")


def test_report_timestamp_is_opt_in(surface, mesh3):
    report = verify_metric(
        base_metric(surface), mesh3, config={"embed_timestamp": True}
    )
    assert report.metadata["timestamp"] is not None


def test_report_entry_lookup_guard(surface, mesh3):
    report = verify_metric(base_metric(surface), mesh3)
    with pytest.raises(UsageError):
        report.entry("no_such_check")


def test_verify_rejects_unknown_config_key(surface, mesh3):
    with pytest.raises(UsageError, match="samples_per_edge"):
        verify_metric(base_metric(surface), mesh3, {"k": 2, "samples_per_edge": 4})


@pytest.mark.parametrize("key, value", [
    ("k", "x"), ("k", 2.5), ("k", True), ("k", 0),
    ("curve_samples", "x"), ("curve_samples", 2.5), ("curve_samples", True),
    ("curve_samples", 0), ("embed_timestamp", "no"), ("embed_timestamp", 1),
])
def test_verify_rejects_bad_config_value(surface, mesh3, key, value):
    with pytest.raises(UsageError, match=repr(key)):
        verify_metric(base_metric(surface), mesh3, {key: value})


@pytest.mark.parametrize("key, value", [
    ("samples_per_edge", "x"), ("samples_per_edge", 2.5),
    ("samples_per_edge", True), ("samples_per_edge", 0),
    ("curve_samples", "x"), ("curve_samples", 2.5), ("curve_samples", True),
    ("curve_samples", 0),
])
def test_sweep_rejects_bad_config_value(surface, mesh3, key, value):
    grid = [{"family": "nonpositive_radial", "amplitude": 0.5}]
    with pytest.raises(UsageError, match=repr(key)):
        sweep(surface, mesh3, grid, {key: value})


@pytest.mark.parametrize("key, bound", [
    ("samples_per_edge", "MAX_SAMPLES_PER_EDGE"), ("curve_samples", "MAX_CURVE_SAMPLES"),
])
def test_sweep_config_bounds_are_inclusive(surface, mesh3, monkeypatch, key, bound):
    class Started(Exception):
        """The sweep got past its config check."""

    def work(*args, **kwargs):
        raise Started

    monkeypatch.setattr(geom, "systole_curve", work)
    grid = [{"family": "nonpositive_radial", "amplitude": 0.5}]
    top = getattr(geom, bound)
    with pytest.raises(UsageError, match=f"'{key}' must be at most {top}, got {top + 1}"):
        sweep(surface, mesh3, grid, {key: top + 1})
    with pytest.raises(Started):
        sweep(surface, mesh3, grid, {key: top})


def test_config_must_be_a_dict(surface, mesh3):
    grid = [{"family": "nonpositive_radial", "amplitude": 0.5}]
    with pytest.raises(UsageError, match="dict"):
        sweep(surface, mesh3, grid, [("curve_samples", 9)])
    with pytest.raises(UsageError, match="dict"):
        verify_metric(base_metric(surface), mesh3, [("k", 2)])


def test_sandwich_reads_the_spectrum_of_its_own_mesh(surface, mesh3):
    """Same level as mesh3, half the areas: the base spectrum doubles."""
    verify_metric(base_metric(surface), mesh3)  # mesh3's spectrum comes first
    halved = dataclasses.replace(mesh3, tri_area_sigma=0.5 * mesh3.tri_area_sigma)
    report = verify_metric(base_metric(surface), halved)
    assert report.entry("eigen_sandwich_margin").status == "pass"
    # the mesh area entries see the halved areas, as they should
    assert {e.name for e in report.entries if e.failed} == {
        "mesh_sigma_area", "gauss_bonnet_total_curvature",
    }


ONE_PER_FAMILY = [
    {"family": "shrinker", "eps": 0.2, "delta": 0.1},
    {"family": "stretcher", "eps": 0.2, "delta": 0.05},
    {"family": "dumbbell", "eps": 0.2, "delta": 0.1},
    {"family": "nonpositive_radial", "amplitude": 0.5},
]


def test_each_member_is_assembled_once(surface, mesh3, monkeypatch):
    """Every spectral check of a member reads the one assembled system."""
    assembled = []
    assemble = spectral.assemble

    def counting_assemble(metric, mesh):
        if metric.family != "base":  # the cached base spectrum is not a member
            assembled.append(metric.family)
        return assemble(metric, mesh)

    monkeypatch.setattr(spectral, "assemble", counting_assemble)
    sweep(surface, mesh3, ONE_PER_FAMILY)
    assert assembled == [entry["family"] for entry in ONE_PER_FAMILY]
    for entry in ONE_PER_FAMILY:
        assembled.clear()
        verify_metric(families.make(surface, **entry), mesh3)
        assert assembled == [entry["family"]]


def test_verify_guards(surface, mesh3):
    with pytest.raises(UsageError):
        verify_metric(object(), mesh3)
    with pytest.raises(UsageError):
        verify_metric(base_metric(surface), None)


def _raise_range_error(*args, **kwargs):
    raise RangeError("injected failure")


@pytest.mark.parametrize("module, attr, member, names, refs", [
    (conformal, "gauss_bonnet", {"family": "base"},
     ["gauss_bonnet_total_curvature"], "conformal.gauss_bonnet"),
    (geom, "circle_integral_u", {"family": "base"},
     ["circle_mean_bound_R0.5", "circle_mean_bound_R1.0"], "geom.circle_integral_u"),
    (geom, "region_integral_u", {"family": "base"},
     ["region_mean_bound_R1.0"], "geom.region_integral_u"),
    (spectral, "dumbbell_test_bound", {"family": "dumbbell", "eps": 0.2, "delta": 0.1},
     ["dumbbell_lambda1_bound"], "spectral.dumbbell_test_bound"),
], ids=["gauss_bonnet", "circle", "region", "dumbbell"])
def test_guarded_failure_becomes_error_entry(surface, mesh3, monkeypatch,
                                             module, attr, member, names, refs):
    """A LabError in a guarded computation becomes one enforced error entry
    per check it feeds, and the report fails."""
    metric = families.make(surface, **member)
    monkeypatch.setattr(module, attr, _raise_range_error)
    report = verify_metric(metric, mesh3)
    for name in names:
        entry = report.entry(name)
        assert entry.status == "error" and entry.enforced and entry.failed
        assert entry.refs == refs
        assert entry.detail.startswith("RangeError: injected failure")
        assert math.isnan(entry.lhs) and math.isnan(entry.margin)
    assert "dumbbell_ramp_energy" not in [e.name for e in report.entries]
    assert {e.name for e in report.entries if e.failed} == set(names)
    assert not report.passed


_COMMON_HEAD = [
    ("area_normalized", "==", "pass", True, "conformal.make_metric"),
    ("mesh_sigma_area", "==", "pass", True, "surface.SurfaceMesh.total_area_sigma"),
    ("euler_characteristic", "==", "pass", True,
     "surface.SurfaceMesh.euler_characteristic"),
    ("gauss_bonnet_total_curvature", "==", "pass", True, "conformal.gauss_bonnet"),
]
_AT_MAX_PASS = [
    ("curvature_nonpositive", ">=", "pass", True, "conformal.nonpositivity_check"),
    ("max_u_schwarz_bound", "<=", "pass", True, "conformal.schwarz_upper_bound"),
    ("circle_mean_bound_R0.5", ">=", "pass", True, "geom.circle_integral_u"),
    ("circle_mean_bound_R1.0", ">=", "pass", True, "geom.circle_integral_u"),
    ("region_mean_bound_R1.0", ">=", "pass", True, "geom.region_integral_u"),
]
_AT_MAX_SKIPPED = [
    ("curvature_nonpositive", ">=", "fail", False, "conformal.nonpositivity_check"),
    ("max_u_schwarz_bound", "==", "not_applicable", False,
     "conformal.schwarz_upper_bound"),
    ("circle_mean_bound_R0.5", "==", "not_applicable", False, "geom.circle_integral_u"),
    ("circle_mean_bound_R1.0", "==", "not_applicable", False, "geom.circle_integral_u"),
    ("region_mean_bound_R1.0", "==", "not_applicable", False, "geom.region_integral_u"),
]
_SPECTRUM_AND_SYSTOLE = [
    ("eigen_sandwich_margin", ">=", "pass", True, "spectral.conformal_eigen_sandwich"),
    ("systole_jensen_consistency", ">=", "pass", True, "geom.jensen_lower_bound"),
]
_SPIKE = [
    ("radial_spike_length", ">=", "pass", True,
     "families.SpikeField.radial_segment_length"),
]
_KATOK = [("katok_factor_cap", "<=", "pass", True, "entropy.katok_bounds")]

REPORT_LAYOUTS = {
    "base": _COMMON_HEAD + _AT_MAX_PASS + _SPECTRUM_AND_SYSTOLE + _KATOK,
    "shrinker": _COMMON_HEAD + _AT_MAX_SKIPPED + _SPECTRUM_AND_SYSTOLE + [
        ("systole_target_length", "==", "pass", True, "geom.curve_length"),
    ] + _KATOK,
    "stretcher": _COMMON_HEAD + _AT_MAX_SKIPPED + _SPECTRUM_AND_SYSTOLE + _SPIKE
    + _KATOK,
    "dumbbell": _COMMON_HEAD + _AT_MAX_SKIPPED + _SPECTRUM_AND_SYSTOLE + _SPIKE + [
        ("dumbbell_lambda1_bound", "<=", "pass", True, "spectral.dumbbell_test_bound"),
        ("dumbbell_ramp_energy", "<=", "pass", True, "spectral.dumbbell_test_bound"),
    ] + _KATOK,
    "nonpositive_radial": _COMMON_HEAD + _AT_MAX_PASS + _SPECTRUM_AND_SYSTOLE + [
        ("systole_length_floor", ">=", "pass", True, "geom.curve_length"),
    ] + _KATOK,
}


@pytest.mark.parametrize("member", [{"family": "base"}, *ONE_PER_FAMILY],
                         ids=lambda member: member["family"])
def test_report_layout(surface, mesh3, member):
    """Entry order, relations, verdicts, gates and refs of one member per
    family; float values are left out since they depend on the BLAS."""
    report = verify_metric(families.make(surface, **member), mesh3)
    layout = [(e.name, e.relation, e.status, e.enforced, e.refs) for e in report.entries]
    assert layout == REPORT_LAYOUTS[member["family"]]
    for e in report.entries:
        # every refs label names a live module attribute
        module, *path = e.refs.split(".")
        target = importlib.import_module(f"conformal_lab.{module}")
        for name in path:
            target = getattr(target, name)
        if e.status == "not_applicable":
            assert e.detail == ("needs nonpositive curvature"
                                if e.name == "max_u_schwarz_bound" else
                                "needs nonpositive curvature and max u >= 0 at the center")


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_rejects_unknown_config_key(surface, mesh3):
    grid = [{"family": "nonpositive_radial", "amplitude": 0.5}]
    with pytest.raises(UsageError, match="bogus"):
        sweep(surface, mesh3, grid, {"samples_per_edge": 4, "bogus": 1})
    with pytest.raises(UsageError, match="'k'"):
        sweep(surface, mesh3, grid, {"k": 5})


def test_default_grid_shape():
    grid = default_sweep_grid()
    assert len(grid) == 28
    fams = [g["family"] for g in grid]
    assert fams.count("shrinker") == 8
    assert fams.count("stretcher") == 8
    assert fams.count("dumbbell") == 8
    assert fams.count("nonpositive_radial") == 4


def test_default_sweep_invariants(surface, mesh3):
    table = sweep(surface, mesh3)
    assert len(table.rows) == 28
    assert all(row["error"] == "" for row in table.rows)
    for row in table.rows:
        assert row["area"] == pytest.approx(4.0 * math.pi, rel=1e-8)
        assert row["katok_factor"] <= 1.0
        # The tightest dumbbell neck pushes lambda_1 below solver roundoff
        # (the true value is ~1e-83), so nonnegativity holds up to noise.
        assert row["lambda1"] > -1e-10
        assert row["length_gamma"] > 0.0
        assert row["diameter"] > 0.0
    for row in [r for r in table.rows if r["family"] == "dumbbell"]:
        assert row["lambda1"] <= row["dumbbell_bound"] + 1e-8
    # Shrinker gamma-lengths hit their eps target.
    for row in [r for r in table.rows if r["family"] == "shrinker"]:
        assert row["length_gamma"] == pytest.approx(row["eps"], rel=1e-6)


def test_sweep_csv_layout(surface, mesh3):
    table = sweep(surface, mesh3, grid=[{"family": "nonpositive_radial", "amplitude": 0.5}])
    text = table.to_csv()
    lines = text.splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "nonpositive_radial"
    assert cells[3] == "0.5"
    # Floats are serialized by repr: reading them back is lossless.
    assert float(cells[4]) == table.rows[0]["area"]


def test_sweep_is_deterministic(surface, mesh3):
    grid = [{"family": "shrinker", "eps": 0.2, "delta": 0.1}]
    assert sweep(surface, mesh3, grid=grid).to_csv() == sweep(surface, mesh3, grid=grid).to_csv()


def test_sweep_guards(surface, mesh3):
    with pytest.raises(UsageError):
        sweep(surface, mesh3, grid=[])
    with pytest.raises(UsageError):
        sweep(surface, mesh3, grid=[{"eps": 0.2}])


def test_sweep_cylinder_rows_record_error(surface, mesh3):
    """A stale cylinder entry names an unknown family; an infeasible
    stretcher fails its own guard.  Both become error rows."""
    grid = [
        {"family": "cylinder"},
        {"family": "stretcher", "eps": 0.2, "delta": 0.5 * families.MIN_SPIKE_DELTA},
    ]
    stale, infeasible = sweep(surface, mesh3, grid=grid).rows
    assert stale["error"].startswith("ParameterError: unknown family 'cylinder'")
    assert infeasible["error"].startswith("ParameterError: delta 0.0025 below")
    assert stale["area"] == infeasible["area"] == ""


def test_sweep_missing_parameter_records_row_error(surface, mesh3):
    grid = [
        {"family": "shrinker", "eps": 0.1},
        {"family": "nonpositive_radial", "amplitude": 0.5},
    ]
    bad, good = sweep(surface, mesh3, grid=grid).rows
    assert bad["error"].startswith("UsageError")
    assert "'shrinker'" in bad["error"] and "'delta'" in bad["error"]
    assert bad["area"] == ""
    assert good["error"] == ""
    assert good["diameter"] > 0.0


@pytest.mark.parametrize(
    "entry, shown",
    [
        # amplitude plays no part in a stretcher
        ({"family": "stretcher", "eps": 0.2, "delta": 0.1, "amplitude": 0.75},
         {"eps": 0.2, "delta": 0.1, "amplitude": 0.75}),
        ({"family": "shrinker", "eps": "x", "delta": 0.1},
         {"eps": "", "delta": 0.1, "amplitude": ""}),
        # a key that is also the name of a make() argument
        ({"family": "nonpositive_radial", "amplitude": 0.5, "surface": 1},
         {"eps": "", "delta": "", "amplitude": 0.5}),
        # the constant is solved for, never given
        ({"family": "nonpositive_radial", "amplitude": 0.5, "C": 0.3},
         {"eps": "", "delta": "", "amplitude": 0.5}),
    ],
    ids=["key-of-other-family", "string-scalar", "surface-key", "constant-key"],
)
def test_sweep_malformed_entry_records_row_error(surface, mesh3, entry, shown):
    (row,) = sweep(surface, mesh3, grid=[entry]).rows
    assert row["error"].startswith("UsageError")
    assert row["area"] == ""
    assert {key: row[key] for key in shown} == shown


def test_default_config_is_stable():
    assert DEFAULT_CONFIG["k"] == 10
    assert DEFAULT_CONFIG["embed_timestamp"] is False
