"""tools/bench_pairs.py, driven against two stand-in checkouts."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

NAMES = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

#: a stand-in pipebench/run.py: logs its side and arguments, then prints a
#: run record and a result whose every metric is the checkout's value.txt
FAKE_RUN = f"""
import json, sys
from pathlib import Path
here = Path.cwd()
with open(here.parent / "calls.txt", "a") as fh:
    fh.write(here.name + " " + " ".join(sys.argv[1:]) + "\\n")
value = float((here / "value.txt").read_text())
failed = int((here / "failed.txt").read_text())
print(json.dumps({{"seed": 1}}))
print(json.dumps({{"correct": failed == 0, "attempted": 5, "failed": failed,
                  "metrics": {{n: {{"value": value, "unit": "x"}} for n in {NAMES!r}}}}}))
sys.exit(1 if failed else 0)
"""


def _checkout(tmp_path, name, value, failed=0):
    path = tmp_path / name
    (path / "pipebench").mkdir(parents=True)
    (path / "pipebench" / "run.py").write_text(FAKE_RUN)
    (path / "value.txt").write_text(str(value))
    (path / "failed.txt").write_text(str(failed))
    return path


def test_pairs_alternate_and_count_wins(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", 2.0)
    change = _checkout(tmp_path, "change", 1.0)
    assert bench_pairs.main([str(parent), str(change), "--workload", "sweep-l3",
                             "--seed", "3", "--pairs", "3", "--seconds", "0.5"]) == 0
    calls = (tmp_path / "calls.txt").read_text().splitlines()
    args = "--workload sweep-l3 --seed 3 --seconds 0.5 --trace 0"
    assert calls == [f"{side} {args}" for side in
                     ("parent", "change", "change", "parent", "parent", "change")]
    out = capsys.readouterr().out
    assert ("items_per_s (higher is better): parent 2 [2, 2] -> change 1 [1, 1]; "
            "change better in 0 of 3 pairs") in out
    assert ("item_p50_s (lower is better): parent 2 [2, 2] -> change 1 [1, 1]; "
            "change better in 3 of 3 pairs") in out
    assert out.count("pair ") == 6


def test_a_run_with_failed_items_stops_the_comparison(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", 2.0)
    change = _checkout(tmp_path, "change", 1.0, failed=2)
    assert bench_pairs.main([str(parent), str(change), "--workload", "verify-l6",
                             "--pairs", "2", "--seconds", "1"]) == 1
    assert "pair 1 change: exit 1, failed 2" in capsys.readouterr().err
    assert len((tmp_path / "calls.txt").read_text().splitlines()) == 2
