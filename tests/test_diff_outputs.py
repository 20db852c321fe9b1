"""tools/diff_outputs.py on two tiny output directories."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("diff_outputs", ROOT / "tools" / "diff_outputs.py")
diff_outputs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(diff_outputs)

SPECTRUM = "k, lambda, residual, level\n0, 0, 4.036138e-14, 4\n1, 3.8289399953875396, 1.3e-13, 4\n"
REPORT = '{"name": "eigen_sandwich_margin", "lhs": -2.5, "status": "pass"}\n'


def _dirs(tmp_path, files_a, files_b):
    for side, files in (("a", files_a), ("b", files_b)):
        (tmp_path / side).mkdir()
        for name, text in files.items():
            (tmp_path / side / name).write_text(text)
    return [str(tmp_path / "a"), str(tmp_path / "b")]


def test_number_changes_are_sized_per_file(tmp_path, capsys):
    changed = SPECTRUM.replace("3.8289399953875396", "3.8289399953875406").replace(
        "1.3e-13", "2.6e-13")
    args = _dirs(tmp_path, {"s.csv": SPECTRUM, "r.json": REPORT},
                 {"s.csv": changed, "r.json": REPORT})
    assert diff_outputs.main(args) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "r.json: 0 numbers above 1e-10 changed; 0 at or below it changed"
    assert out[1] == ("s.csv: 1 numbers above 1e-10 changed, largest relative "
                      "change 2.32e-16 (3.8289399953875396 -> 3.8289399953875406); "
                      "1 at or below it changed")


def test_text_difference_exits_1(tmp_path, capsys):
    args = _dirs(tmp_path, {"r.json": REPORT},
                 {"r.json": REPORT.replace('"pass"', '"fail"')})
    assert diff_outputs.main(args) == 1
    assert "r.json: text differs, line 1:" in capsys.readouterr().out


def test_number_turned_nan_is_a_text_difference(tmp_path, capsys):
    args = _dirs(tmp_path, {"r.json": REPORT}, {"r.json": REPORT.replace("-2.5", "NaN")})
    assert diff_outputs.main(args) == 1


def test_file_on_one_side_only_exits_1(tmp_path, capsys):
    args = _dirs(tmp_path, {"s.csv": SPECTRUM, "r.json": REPORT}, {"s.csv": SPECTRUM})
    assert diff_outputs.main(args) == 1
    out = capsys.readouterr().out
    assert f"r.json: only in {args[0]}" in out
    assert "s.csv: 0 numbers above 1e-10 changed; 0 at or below it changed" in out
