"""The package namespace: every exported name resolves."""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import conformal_lab
from conformal_lab import cli, families
from conformal_lab.spectral import SpectralResult

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "pipebench" / "tracing.py"

#: scipy subpackages the lab must not load: each costs import time in
#: every CLI process, and the lab has no use for them
UNUSED_SCIPY = (
    "scipy.fft", "scipy.integrate", "scipy.optimize", "scipy.special", "scipy.spatial"
)

#: a fresh interpreter that imports the package, then runs a level-2
#: verify (ARPACK path) and a level-2 sweep with every conformal family,
#: and prints the unused scipy subpackages it finds loaded
IMPORT_PROBE = """
import json, sys
from pathlib import Path
import conformal_lab
from conformal_lab.cli import main

out = Path(sys.argv[1])
desc, cfg = out / "shrinker.json", out / "sweep.json"
assert main(["metric", "make", "--family", "shrinker", "--eps", "0.2",
             "--delta", "0.1", "--out", str(desc)]) == 0
assert main(["verify", "--metric", str(desc), "--level", "2", "--k", "10"]) == 0
cfg.write_text(json.dumps({"version": 1, "level": 2, "grid": [
    {"family": "shrinker", "eps": 0.2, "delta": 0.1},
    {"family": "stretcher", "eps": 0.2, "delta": 0.1},
    {"family": "dumbbell", "eps": 0.2, "delta": 0.1},
    {"family": "nonpositive_radial", "amplitude": 0.5},
]}))
assert main(["sweep", "--config", str(cfg), "--out", str(out / "sweep.csv")]) == 0
print(sorted(set(sys.argv[2:]) & set(sys.modules)))
"""


def test_every_exported_name_resolves():
    missing = [name for name in conformal_lab.__all__ if not hasattr(conformal_lab, name)]
    assert missing == []


def test_benchmark_tracer_targets_resolve():
    """Every function the benchmark's tracer wraps exists, and the field
    its eigensolve counter reads."""
    spec = importlib.util.spec_from_file_location("pipebench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{name}"
        for module, names in tracing.TARGETS.items()
        for name in names
        if not callable(
            getattr(importlib.import_module(f"conformal_lab.{module}"), name, None)
        )
    ]
    assert missing == []
    assert "backward_errors" in SpectralResult.__dataclass_fields__


def test_declared_numpy_floor_has_trapezoid():
    """geom integrates with np.trapezoid, which NumPy has from 2.0 on."""
    pyproject = (ROOT / "pyproject.toml").read_text()
    (floor,) = re.findall(r'"numpy>=([0-9.]+)"', pyproject)
    assert tuple(int(part) for part in floor.split(".")) >= (2, 0)


def test_cli_runs_load_no_unused_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(tmp_path), *UNUSED_SCIPY],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


#: one failing property test and one passing test, run under the
#: project's own pytest settings
HYPOTHESIS_PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    """With warnings as errors, the DeprecationWarning that hypothesis's
    report hook raises on a failure must not stop pytest with INTERNALERROR."""
    probe = tmp_path / "test_probe.py"
    probe.write_text(HYPOTHESIS_PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", str(probe)],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output


def _subparser(parser, name):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices[name]


def test_readme_family_table_matches_code():
    """The README's family table names every family, in table order, and
    lists exactly the `metric make` flags of the real family parameters."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Deformation families\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^\| `(\w+)` ", section, flags=re.M)
    assert tuple(names) == families.FAMILY_NAMES
    make = _subparser(_subparser(cli.build_parser(), "metric"), "make")
    param_flags = [
        flag
        for action in make._actions
        if action.dest not in ("help", "family", "out")
        for flag in action.option_strings
    ]
    assert re.findall(r"`(--[a-z-]+)`", section) == param_flags
