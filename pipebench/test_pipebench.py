"""Self-tests of the benchmark (not part of the package's test suite).

    python3 -m pytest pipebench -q

Each workload runs at one or two items and must report every metric
BENCHMARK.json names; corrupted outputs must be counted as failed.
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bootstrap  # noqa: E402

bootstrap.pin_blas_threads()
bootstrap.import_package()

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from conformal_lab import conformal, report, spectral  # noqa: E402
from conformal_lab import surface as surface_mod  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COMMITTED_SEED = 1
UNCOMMITTED_SEED = 987654


def _units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(bootstrap.WORKLOADS))
def test_every_metric_reported(name, trace):
    result, info = run.run_workload(name, COMMITTED_SEED, 0.001, trace,
                                    setup_runs=2)
    assert result["correct"], info["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = _units("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == set(units)
    for metric, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == units[metric]
        assert math.isfinite(entry["value"])
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in units)
    for key in ("seed", "level", "blas_threads", "python", "numpy", "scipy",
                "attempted", "failed_frac"):
        assert key in info
    assert info["checked_against_reference"] >= 1


def test_workloads_in_benchmark_json_match_the_runner():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(bootstrap.WORKLOADS)


def _corrupt_lambda1(monkeypatch, change):
    original = spectral.eigenvalues

    def corrupted(system, k, **kwargs):
        result = original(system, k, **kwargs)
        result.eigenvalues[1] = change(result.eigenvalues[1])
        return result

    monkeypatch.setattr(spectral, "eigenvalues", corrupted)


def test_wrong_lambda1_counted_as_failed(monkeypatch):
    _corrupt_lambda1(monkeypatch, lambda lam: -1.0)
    result, info = run.run_workload("sweep-l3", UNCOMMITTED_SEED, 0.3, 0,
                                    setup_runs=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert info["failed_frac"] == 1.0
    assert all("lambda1" in problem for _, problem in info["failures"])


def test_small_change_caught_by_reference_values(monkeypatch):
    _corrupt_lambda1(monkeypatch, lambda lam: lam + 1e-6 * max(1.0, abs(lam)))
    result, info = run.run_workload("sweep-l3", COMMITTED_SEED, 0.3, 0,
                                    setup_runs=1)
    assert result["failed"] == result["attempted"] >= 1
    by_item = {}
    for index, problem in info["failures"]:
        by_item.setdefault(index, []).append(problem)
    assert all(any("reference" in p for p in problems)
               for problems in by_item.values())


def test_small_change_in_dumbbell_bound_caught(monkeypatch):
    original = spectral.dumbbell_test_bound

    def shifted(metric, mesh):
        bound = original(metric, mesh)
        return dataclasses.replace(bound, total=bound.total * (1.0 + 1e-6))

    monkeypatch.setattr(spectral, "dumbbell_test_bound", shifted)
    workload = bootstrap.WORKLOADS["sweep-l3"]
    checker = checks.ItemChecker(workload, COMMITTED_SEED)
    surf = surface_mod.HyperbolicSurface()
    mesh = surface_mod.build_mesh(surf.domain, workload.level)
    entries = workloads.make_inputs(workload, COMMITTED_SEED, surf)
    entries = entries[:len(checker.references)]
    dumbbells = [i for i, e in enumerate(entries) if e["family"] == "dumbbell"]
    assert dumbbells
    for index in dumbbells:
        problems = checker(index, workloads.run_item(workload, surf, mesh,
                                                     entries[index]))
        assert any(p.startswith("dumbbell_bound") for p in problems), problems


def test_dumbbell_check_catches_lambda1_above_a_small_bound():
    row = {"error": "", "family": "dumbbell", "area": 4.0 * math.pi,
           "lambda1": 2e-9, "diameter": 3.0, "katok_factor": 0.5,
           "dumbbell_bound": 1e-9}
    assert checks.check_sweep_row(row) == [
        "lambda1 2e-09 above dumbbell bound 1e-09"]
    row["lambda1"] = -1e-14
    assert checks.check_sweep_row(row) == []


def test_last_bit_change_in_C_passes(monkeypatch):
    original = conformal.normalize_area
    monkeypatch.setattr(conformal, "normalize_area", lambda *a, **kw: math.nextafter(
        original(*a, **kw), math.inf))
    result, info = run.run_workload("sweep-l3", COMMITTED_SEED, 0.3, 0,
                                    setup_runs=1)
    assert result["correct"], info["failures"]
    assert info["checked_against_reference"] == result["attempted"]


def test_failing_verify_report_counted(monkeypatch):
    _corrupt_lambda1(monkeypatch, lambda lam: -1.0)
    result, info = run.run_workload("verify-l6", UNCOMMITTED_SEED, 0.001, 0,
                                    setup_runs=1)
    assert result["failed"] == result["attempted"] == 1
    assert "eigen_sandwich_margin" in info["failures"][0][1]


def test_inputs_follow_the_default_mix_and_the_seed():
    block = workloads.family_block()
    assert sorted(block) == sorted(["shrinker"] * 2 + ["stretcher"] * 2
                                   + ["dumbbell"] * 2 + ["nonpositive_radial"])
    entries = workloads.grid_entries(7, 4 * len(block) + 3)
    for b in range(4):
        chunk = entries[b * len(block):(b + 1) * len(block)]
        assert sorted(e["family"] for e in chunk) == sorted(block)
    for e in entries:
        if e["family"] == "nonpositive_radial":
            assert 0.25 <= e["amplitude"] <= 1.0
        else:
            assert 0.1 <= e["eps"] <= 0.2 and 0.01 <= e["delta"] <= 0.2
    assert workloads.grid_entries(7, len(entries)) == entries
    assert workloads.grid_entries(8, len(entries)) != entries


def test_tracer_patches_by_name_imports_and_restores_them():
    from conformal_lab import surface

    original = surface.base_spectrum
    assert report.base_spectrum is original
    tracer = Tracer()
    tracer.install()
    try:
        assert surface.base_spectrum is not original
        assert report.base_spectrum is surface.base_spectrum
        assert report.base_spectrum.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert surface.base_spectrum is original and report.base_spectrum is original


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.spans = [
        ["a", 0.0, 10.0, None, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 5.0, 7.0, 0, 0],
        ["b", 5.5, 6.5, 2, 0],
    ]
    layers = tracer.layer_times()
    assert layers["a"] == [10.0, 5.0, 1]
    assert layers["b"] == [4.0, 4.0, 2]
    assert layers["c"] == [2.0, 1.0, 1]


def test_tail_leaves_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(1, 31)])
    assert (value, beyond) == (20.0, 10) and pct == pytest.approx(200 / 3)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail([float(i) for i in range(20)]) == (19.0, 100.0, 0)


def test_seeds_spread_parameters_alike():
    def eps_of(seed, family):
        return sorted(e["eps"] for e in workloads.grid_entries(seed, 49)
                      if e["family"] == family)

    for family in ("shrinker", "stretcher", "dumbbell"):
        a, b = eps_of(1, family), eps_of(2, family)
        assert len(a) == len(b) == 14
        # one member per fourteenth of the eps range, on every seed
        assert max(abs(x - y) for x, y in zip(a, b)) <= 0.1 / 14 + 2e-6
