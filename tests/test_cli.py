"""Command-line behavior, driven in-process through main()."""

from __future__ import annotations

import argparse
import json
import math

import pytest

from conformal_lab import cli, errors, families, geom, report, spectral
from conformal_lab.cli import main
from conformal_lab.conformal import base_metric

#: the exit code each error class must give: 2 an unusable request,
#: 3 a numerical breakdown
EXIT_CODES = {
    "ConstructionError": 3,
    "DomainError": 2,
    "MeshQualityError": 3,
    "NormalizationError": 3,
    "NumericError": 3,
    "ParameterError": 2,
    "RangeError": 2,
    "TopologyError": 3,
    "UsageError": 2,
}


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_mesh_build_prints_summary(capsys):
    assert main(["mesh", "build", "--level", "2"]) == 0
    out = capsys.readouterr().out
    assert "level 2:" in out
    assert "chi=-2" in out
    assert "sigma-area=12.56637" in out


def test_mesh_build_writes_json(tmp_path):
    out = tmp_path / "mesh.json"
    assert main(["mesh", "build", "--level", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["level"] == 1


def test_metric_make_descriptor_roundtrip(tmp_path, capsys):
    path = tmp_path / "shrinker.json"
    code = main([
        "metric", "make", "--family", "shrinker",
        "--eps", "0.2", "--delta", "0.1", "--out", str(path),
    ])
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["family"] == "shrinker"
    assert doc["version"] == 1
    assert doc["params"] == {"eps": 0.2, "delta": 0.1}
    # Writing again is byte-identical (no timestamps, stored constant).
    first = path.read_bytes()
    assert main([
        "metric", "make", "--family", "shrinker",
        "--eps", "0.2", "--delta", "0.1", "--out", str(path),
    ]) == 0
    assert path.read_bytes() == first


def test_metric_make_missing_flags_exit_two(capsys):
    assert main(["metric", "make", "--family", "shrinker"]) == 2
    err = capsys.readouterr().err
    assert "'shrinker'" in err and "'eps'" in err


def test_metric_make_rejects_flag_family_does_not_take(capsys):
    assert main([
        "metric", "make", "--family", "shrinker",
        "--eps", "0.2", "--delta", "0.1", "--amplitude", "0.5",
    ]) == 2
    err = capsys.readouterr().err
    assert "'shrinker'" in err and "'amplitude'" in err


def _subparser(parser, name):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices[name]


def test_metric_make_has_one_flag_per_real_family_parameter():
    make = _subparser(_subparser(cli.build_parser(), "metric"), "make")
    real_params = {
        name
        for spec in families.FAMILIES.values()
        for name in (*spec.required, *spec.optional)
        if name not in families.POINT_PARAMS
    }
    for name in real_params:
        flags = [a.option_strings for a in make._actions if a.dest == name]
        assert flags == [["--" + name.replace("_", "-")]]
    flags = {s for a in make._actions for s in a.option_strings}
    assert flags == {
        "-h", "--help", "--family", "--out", "--eps", "--delta", "--amplitude",
    }


def test_metric_make_infeasible_exit_two(capsys):
    code = main([
        "metric", "make", "--family", "stretcher",
        "--eps", "0.2", "--delta", "0.5",
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_metric_make_overflowing_shrinker_depth_exit_two(tmp_path, capsys):
    desc = tmp_path / "shrinker.json"
    code = main([
        "metric", "make", "--family", "shrinker",
        "--eps", "1e-308", "--delta", "0.1", "--out", str(desc),
    ])
    assert code == 2
    assert "overflows" in capsys.readouterr().err
    assert not desc.exists()


def test_spectrum_writes_csv(tmp_path):
    desc = tmp_path / "base.json"
    assert main(["metric", "make", "--family", "base", "--out", str(desc)]) == 0
    out = tmp_path / "spec.csv"
    assert main([
        "spectrum", "--metric", str(desc), "--k", "2",
        "--level", "2", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k, lambda, residual, level"
    assert len(lines) == 4
    assert lines[1].startswith("0, ")


def test_spectrum_missing_descriptor_exit_two(tmp_path, capsys):
    missing = tmp_path / "nowhere.json"
    assert main(["spectrum", "--metric", str(missing), "--k", "1"]) == 2


def test_verify_base_passes(tmp_path, capsys):
    desc = tmp_path / "base.json"
    assert main(["metric", "make", "--family", "base", "--out", str(desc)]) == 0
    rep = tmp_path / "report.json"
    code = main([
        "verify", "--metric", str(desc), "--level", "3", "--report", str(rep),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "report PASS" in out
    doc = json.loads(rep.read_text())
    assert doc["passed"] is True
    assert doc["metadata"]["family"] == "base"
    assert {e["name"] for e in doc["entries"]} >= {
        "area_normalized", "eigen_sandwich_margin", "katok_factor_cap",
    }


@pytest.mark.parametrize("drop", ["delta", "C"])
def test_verify_incomplete_descriptor_exit_two(tmp_path, capsys, drop):
    desc = tmp_path / "shrinker.json"
    assert main([
        "metric", "make", "--family", "shrinker", "--eps", "0.2",
        "--delta", "0.1", "--out", str(desc),
    ]) == 0
    doc = json.loads(desc.read_text())
    del (doc if drop == "C" else doc["params"])[drop]
    desc.write_text(json.dumps(doc))
    assert main(["verify", "--metric", str(desc)]) == 2
    err = capsys.readouterr().err
    assert "'shrinker'" in err and f"'{drop}'" in err


BAD_C_MEMBERS = {
    "shrinker": ["--eps", "0.2", "--delta", "0.1"],
    "stretcher": ["--eps", "0.2", "--delta", "0.1"],
    "dumbbell": ["--eps", "0.2", "--delta", "0.1"],
    "nonpositive_radial": ["--amplitude", "0.5"],
}


@pytest.mark.parametrize("family, C", [
    # each overflowed the area quadrature (OverflowError traceback, exit 1)
    ("nonpositive_radial", 1000.0), ("nonpositive_radial", 1e200),
    ("shrinker", 1000.0), ("shrinker", 1e200), ("stretcher", 1e200),
    # each missed the area (NormalizationError, exit 3)
    ("shrinker", -0.5), ("stretcher", -0.5), ("dumbbell", -0.5),
    ("nonpositive_radial", -0.5), ("dumbbell", 1000.0),
])
def test_verify_bad_stored_constant_exit_two(tmp_path, capsys, family, C):
    """A stored C that does not normalize the area is malformed input."""
    desc = tmp_path / f"{family}.json"
    assert main(["metric", "make", "--family", family, *BAD_C_MEMBERS[family],
                 "--out", str(desc)]) == 0
    doc = json.loads(desc.read_text())
    doc["C"] = C
    desc.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--metric", str(desc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"C={C!r}" in err


def test_verify_stored_negative_root_exit_two(surface, tmp_path, capsys):
    """The spike area is quadratic in C; its negative root normalizes the
    area but gives no metric (math domain error, exit 1, before)."""
    area = surface.total_area

    def area_of(c):
        return families.SpikeField(area, (0j,), 0.2, 0.1).with_C(c).exp_integral(2)

    a = 0.5 * (area_of(1.0) + area_of(-1.0)) - area_of(0.0)
    b = 0.5 * (area_of(1.0) - area_of(-1.0))
    negative = (-b - (b * b + 4.0 * a * (area - area_of(0.0))) ** 0.5) / (2.0 * a)
    assert abs(area_of(negative) - area) < 1e-8 * area
    desc = tmp_path / "stretcher.json"
    assert main(["metric", "make", "--family", "stretcher",
                 *BAD_C_MEMBERS["stretcher"], "--out", str(desc)]) == 0
    doc = json.loads(desc.read_text())
    doc["C"] = negative
    desc.write_text(json.dumps(doc))
    assert main(["verify", "--metric", str(desc)]) == 2
    assert "is not positive" in capsys.readouterr().err


def test_verify_base_stored_constant_is_checked(tmp_path, capsys):
    """base follows the stored-C protocol: a C that misses the area exits 2
    (it was ignored, and the report passed)."""
    desc = tmp_path / "base.json"
    rep = tmp_path / "report.json"
    desc.write_text(json.dumps({
        "version": 1, "family": "base", "params": {}, "C": 0.5,
        "area": 99, "min_u": 3, "max_u": 7,
    }))
    assert main([
        "verify", "--metric", str(desc), "--level", "2", "--k", "2",
        "--report", str(rep),
    ]) == 2
    assert "stored C=0.5 does not normalize the area" in capsys.readouterr().err
    assert not rep.exists()


def test_verify_base_without_constant_exit_two(tmp_path, capsys):
    desc = tmp_path / "base.json"
    desc.write_text(json.dumps({"version": 1, "family": "base", "params": {}}))
    assert main(["verify", "--metric", str(desc), "--level", "2"]) == 2
    assert "'base' has no constant 'C'" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["verify", "--level", "3"], ["spectrum", "--k", "2", "--level", "3"],
])
def test_underflowing_conformal_factor_exit_three(tmp_path, capsys, command):
    # u = -log(systole/eps) ~ -690 on the systole: e^{2u} underflows to 0
    desc = tmp_path / "shrinker.json"
    assert main([
        "metric", "make", "--family", "shrinker", "--eps", "1e-300",
        "--delta", "1e-10", "--out", str(desc),
    ]) == 0
    capsys.readouterr()
    assert main([*command, "--metric", str(desc)]) == 3
    err = capsys.readouterr().err
    assert "(min 0.000e+00); the conformal factor underflows this mesh" in err


@pytest.mark.parametrize("eps", ["1e-8", "1e-10"])
def test_small_eps_shrinker_spectrum_exits_zero(tmp_path, capsys, eps):
    # the systole masses fall like eps^2: the residual gate must not take
    # the rounding that this leaves in the M^-1 norm for a failed solve
    desc = tmp_path / "shrinker.json"
    assert main([
        "metric", "make", "--family", "shrinker", "--eps", eps,
        "--delta", "0.1", "--out", str(desc),
    ]) == 0
    assert main(["spectrum", "--k", "2", "--level", "3", "--metric", str(desc)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("2, 3.80")


def test_all_pairs_of_a_tiny_mass_shrinker_exit_three(tmp_path, capsys):
    # all but one pair of the level-1 mesh: what misses the residual gate
    # is a numerical breakdown, never a CSV of zero eigenvalues
    desc = tmp_path / "shrinker.json"
    out = tmp_path / "spectrum.csv"
    assert main([
        "metric", "make", "--family", "shrinker", "--eps", "1e-100",
        "--delta", "0.1", "--out", str(desc),
    ]) == 0
    capsys.readouterr()
    assert main([
        "spectrum", "--k", "12", "--level", "1", "--metric", str(desc), "--out", str(out),
    ]) == 3
    assert "residual" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--k", "-1", "--level", "2"], "need k >= 0, got -1"),
    (["spectrum", "--level", "1", "--k", "14"],
     "requested 15 eigenvalues of a 14-dim system"),
    (["verify", "--level", "1", "--k", "20"],
     "requested 21 eigenvalues of a 14-dim system"),
])
def test_eigenvalue_count_outside_the_mesh_exit_two(tmp_path, capsys, argv, message):
    desc = tmp_path / "base.json"
    assert main(["metric", "make", "--family", "base", "--out", str(desc)]) == 0
    capsys.readouterr()
    assert main([*argv, "--metric", str(desc)]) == 2
    assert f"{message}\n" in capsys.readouterr().err


def test_unconverged_eigensolve_exit_three(tmp_path, capsys, monkeypatch):
    desc = tmp_path / "base.json"
    out = tmp_path / "spectrum.csv"
    assert main(["metric", "make", "--family", "base", "--out", str(desc)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(spectral, "ARPACK_MAXITER", 1)
    assert main([
        "spectrum", "--level", "3", "--k", "10", "--metric", str(desc), "--out", str(out),
    ]) == 3
    assert "eigensolver failed to converge within 1 iterations\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("eps", ["1e-150", "1e-100"])
@pytest.mark.parametrize("delta", ["0.1", "0.01"])
def test_tiny_mass_shrinker_spectrum_has_finite_residuals(tmp_path, eps, delta):
    # masses of 4.5e-301 at eps 1e-150: the level-0 residual read inf, with
    # three overflow warnings (errors here), and passed an inf bound
    desc = tmp_path / "shrinker.json"
    out = tmp_path / "spectrum.csv"
    assert main([
        "metric", "make", "--family", "shrinker", "--eps", eps,
        "--delta", delta, "--out", str(desc),
    ]) == 0
    assert main([
        "spectrum", "--k", "1", "--level", "0", "--metric", str(desc), "--out", str(out),
    ]) == 0
    rows = [line.split(", ") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 2
    assert all(math.isfinite(float(residual)) for _, _, residual, _ in rows)


def test_failing_verify_exits_one_and_names_its_failures(tmp_path, capsys):
    # no level-1 mesh vertex reaches the default dumbbell's anchors
    desc = tmp_path / "dumbbell.json"
    rep = tmp_path / "report.json"
    assert main([
        "metric", "make", "--family", "dumbbell", "--eps", "0.2",
        "--delta", "0.1", "--out", str(desc),
    ]) == 0
    capsys.readouterr()
    assert main([
        "verify", "--metric", str(desc), "--level", "1", "--report", str(rep),
    ]) == 1
    out = capsys.readouterr().out
    assert "report FAIL" in out
    assert (
        "  FAIL dumbbell_lambda1_bound: nan == nan margin nan DomainError: "
        "no level-1 mesh vertex lies within eps/2" in out
    )
    assert json.loads(rep.read_text())["passed"] is False


def test_verify_k_below_one_exit_two(tmp_path, capsys):
    desc = tmp_path / "dumbbell.json"
    rep = tmp_path / "report.json"
    assert main([
        "metric", "make", "--family", "dumbbell", "--eps", "0.2",
        "--delta", "0.1", "--out", str(desc),
    ]) == 0
    assert main([
        "verify", "--metric", str(desc), "--level", "2", "--k", "0",
        "--report", str(rep),
    ]) == 2
    assert "config key 'k' must be at least 1, got 0\n" in capsys.readouterr().err
    assert not rep.exists()


#: a descriptor saved by a release that still had the cylinder family
STALE_CYLINDER = {
    "version": 1, "family": "cylinder",
    "params": {"a": 0.3, "neck": 0.15, "match_radius": 2.5},
}


def test_verify_rejects_cylinder(tmp_path, capsys):
    desc = tmp_path / "cyl.json"
    desc.write_text(json.dumps(STALE_CYLINDER))
    assert main(["verify", "--metric", str(desc)]) == 2
    assert "unknown family 'cylinder'" in capsys.readouterr().err


def test_verify_k_below_one_exit_two_for_cylinder(tmp_path, capsys):
    # A stale cylinder descriptor and a bad k are both usage errors: the
    # family is checked first, and neither writes a report.
    desc = tmp_path / "cyl.json"
    rep = tmp_path / "report.json"
    desc.write_text(json.dumps(STALE_CYLINDER))
    assert main([
        "verify", "--metric", str(desc), "--k", "0", "--report", str(rep),
    ]) == 2
    assert "unknown family 'cylinder'" in capsys.readouterr().err
    assert not rep.exists()


def test_spectrum_rejects_cylinder(tmp_path, capsys):
    desc = tmp_path / "cyl.json"
    desc.write_text(json.dumps(STALE_CYLINDER))
    assert main(["spectrum", "--metric", str(desc), "--k", "2"]) == 2
    assert "unknown family 'cylinder'" in capsys.readouterr().err


def test_metric_make_cylinder_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["metric", "make", "--family", "cylinder"])
    assert exc.value.code == 2
    assert "invalid choice: 'cylinder'" in capsys.readouterr().err


def test_disconnected_mesh_exit_three(surface, disconnected_mesh3, monkeypatch, capsys):
    def diameter_command(args):
        geom.diameter_estimate(base_metric(surface), disconnected_mesh3)
        return 0

    monkeypatch.setattr(cli, "_dispatch", diameter_command)
    assert main(["mesh", "build", "--level", "0"]) == 3
    assert "numeric error: mesh graph is disconnected" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error_class",
    sorted(errors.LabError.__subclasses__(), key=lambda c: c.__name__),
    ids=lambda c: c.__name__,
)
def test_error_class_exit_code(monkeypatch, capsys, error_class):
    def failing_command(args):
        raise error_class("boom")

    monkeypatch.setattr(cli, "_dispatch", failing_command)
    code = EXIT_CODES[error_class.__name__]
    assert main(["mesh", "build", "--level", "0"]) == code
    prefix = "error: " if code == 2 else "numeric error: "
    assert capsys.readouterr().err == prefix + "boom\n"


def test_sweep_runs_small_grid(tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({
        "version": 1,
        "level": 2,
        "grid": [
            {"family": "nonpositive_radial", "amplitude": 0.5},
            {"family": "shrinker", "eps": 0.2, "delta": 0.1},
        ],
    }))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("family,eps,delta,amplitude,area")
    assert len(lines) == 3
    assert "2 rows written" in capsys.readouterr().out


def test_sweep_error_rows_exit_one(tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({
        "version": 1,
        "level": 2,
        "grid": [{"family": "stretcher", "eps": 0.2, "delta": 0.004}],
    }))
    assert main(["sweep", "--config", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert "ERROR stretcher eps=0.2 delta=0.004" in out
    assert ": ParameterError: delta 0.004 below 0.005" in out


def test_sweep_stale_cylinder_entry_exit_one(tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"version": 1, "level": 2, "grid": [{"family": "cylinder"}]}))
    assert main(["sweep", "--config", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert "ERROR cylinder" in out
    assert ": ParameterError: unknown family 'cylinder'" in out


#: an integer that no float can hold
HUGE = 10**400


@pytest.mark.parametrize("key, value, message", [
    ("eps", HUGE, "parameter 'eps' must be a finite real number"),
    ("p", [HUGE, 0.0], "point 'p' must be a complex number or an [x, y] pair"),
    ("C", HUGE, "parameter 'C' must be a finite real number"),
])
def test_verify_huge_integer_in_descriptor_exit_two(tmp_path, capsys, key, value, message):
    desc = tmp_path / "stretcher.json"
    assert main(["metric", "make", "--family", "stretcher",
                 *BAD_C_MEMBERS["stretcher"], "--out", str(desc)]) == 0
    doc = json.loads(desc.read_text())
    (doc if key == "C" else doc["params"])[key] = value
    desc.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--metric", str(desc)]) == 2
    assert message in capsys.readouterr().err


def test_sweep_huge_integer_in_grid_error_row(tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({
        "version": 1, "level": 1,
        "grid": [{"family": "stretcher", "eps": HUGE, "delta": 0.1}],
    }))
    assert main(["sweep", "--config", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert "ERROR stretcher eps= " in out
    assert "UsageError: family 'stretcher': parameter 'eps' must be a finite real number" in out


@pytest.mark.parametrize("key", ["samples_per_edge", "curve_samples"])
def test_sweep_config_key_beyond_its_bound_exit_two(tmp_path, capsys, key):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"version": 1, "level": 1, key: HUGE}))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert f"error: config key '{key}' must be at most " in capsys.readouterr().err


def test_sweep_config_version_required(tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"level": 2, "grid": []}))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "version" in capsys.readouterr().err
    for version in (True, 1.0):
        cfg.write_text(json.dumps({"version": version, "level": 0, "grid": []}))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert f"unsupported config version {version!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"grid": [1]}, "list of JSON objects"),
        ({"grid": {"family": "shrinker"}}, "list of JSON objects"),
        ({"grid": [{"family": "base"}, "shrinker"]}, "list of JSON objects"),
        ({"levle": 2}, "'levle'"),
        ({"level": "x"}, "'level' must be an integer"),
        ({"level": 2.0}, "'level' must be an integer"),
        ({"k": True}, "unknown key 'k'"),
        ({"samples_per_edge": None}, "'samples_per_edge' must be an integer"),
        ({"curve_samples": "x"}, "'curve_samples' must be an integer"),
        ({"slack_quad": float("inf")}, "unknown key 'slack_quad'"),
        ({"slack_mesh": "0.05"}, "unknown key 'slack_mesh'"),
        ({"embed_timestamp": 1}, "unknown key 'embed_timestamp'"),
        ({"samples_per_edge": 0}, "'samples_per_edge' must be at least 1, got 0"),
        ({"samples_per_edge": -3}, "'samples_per_edge' must be at least 1, got -3"),
    ],
)
def test_sweep_config_shape_exit_two(tmp_path, capsys, extra, message):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"version": 1, "level": 2, **extra}))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


def test_sweep_config_bad_json(tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text("{not json")
    assert main(["sweep", "--config", str(cfg)]) == 2


def test_entropy_coding_output(capsys):
    code = main([
        "entropy", "coding", "--volume", "12.566370614359172",
        "--dim", "2", "--rho", "1.0",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "coding bound: ln(64) / 0.25" in out
    assert "16.63553" in out


def test_entropy_coding_guard_exit_two(capsys):
    assert main(["entropy", "coding", "--volume", "0.01", "--dim", "2", "--rho", "1.0"]) == 2


def test_entropy_coding_huge_dim_exit_two(capsys):
    argv = ["entropy", "coding", "--volume", "1.0", "--dim", str(HUGE), "--rho", "1.0"]
    assert main(argv) == 2
    assert "out of floating-point range" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["verify", "--metric", "{dir}"], "cannot read metric descriptor"),
    (["sweep", "--config", "{dir}"], "cannot read config file"),
    (["metric", "make", "--family", "shrinker", "--eps", "0.2", "--delta", "0.1",
      "--out", "{dir}/missing/x.json"], "cannot write"),
    (["mesh", "build", "--level", "2", "--out", "{dir}/missing/m.json"], "cannot write"),
    (["verify", "--metric", "{base}", "--level", "2", "--report", "{dir}"], "cannot write"),
])
def test_unreadable_or_unwritable_file_exit_two(tmp_path, capsys, argv, message):
    base = tmp_path / "base.json"
    assert main(["metric", "make", "--family", "base", "--out", str(base)]) == 0
    argv = [a.format(dir=tmp_path, base=base) for a in argv]
    assert main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep", "--config", "{config}", "--out", "{path}"],
    ["verify", "--metric", "{base}", "--report", "{path}"],
    ["spectrum", "--metric", "{base}", "--k", "2", "--out", "{path}"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("where, reason", [
    ("missing/out.txt", "No such file or directory"),
    ("", "Is a directory"),
], ids=["missing-parent", "directory"])
def test_unwritable_output_fails_before_the_work(tmp_path, monkeypatch, capsys,
                                                 argv, where, reason):
    base = tmp_path / "base.json"
    assert main(["metric", "make", "--family", "base", "--out", str(base)]) == 0
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"version": 1, "level": 2}))

    def work(*args, **kwargs):
        pytest.fail("the command ran its work before checking its output path")

    for module, name in ((cli, "build_mesh"), (report, "sweep"),
                         (report, "verify_metric"), (spectral, "eigenvalues")):
        monkeypatch.setattr(module, name, work)
    path = tmp_path / where
    argv = [a.format(config=config, base=base, path=path) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: cannot write {path}: {reason}\n"


@pytest.mark.parametrize("volume, rho", [
    ("nan", "1.0"),
    ("1.0", "nan"),
    ("inf", "1.0"),
    ("1e308", "1e-300"),  # the ball volume underflows to 0
])
def test_entropy_coding_non_finite_exit_two(capsys, volume, rho):
    argv = ["entropy", "coding", "--volume", volume, "--dim", "2", "--rho", rho]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
