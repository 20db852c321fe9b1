"""The package namespace: every exported name resolves."""

from __future__ import annotations

import importlib
import importlib.util
import re
from pathlib import Path

import conformal_lab
from conformal_lab.spectral import SpectralResult

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "pipebench" / "tracing.py"


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
