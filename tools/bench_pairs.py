"""Compare two checkouts on one pipeline-benchmark workload, in pairs.

    python tools/bench_pairs.py PARENT CHANGE --workload W [--seed S]
                                [--pairs N] [--seconds T]

runs the benchmark command of BENCHMARK.json (`python3 pipebench/run.py`)
with `--workload W --seed S --seconds T --trace 0` inside the checkout
PARENT and inside the checkout CHANGE, N times each (default 10), in
alternated pairs: the parent runs first in even pairs, the change in odd
ones.  T defaults to BENCHMARK.json's `run_seconds`.  Each run's result
is the JSON on the last line of its standard output.

Every run is printed as it finishes.  At the end, for each end-to-end
metric of BENCHMARK.json, the tool prints the median and quartiles of
each side and the number of pairs the change won, in the direction that
BENCHMARK.json's `better` gives.  It exits 1, naming the run, as soon as
a run exits non-zero or reports failed items.  It reads both checkouts
and changes nothing in them except what the benchmark itself writes to
its `pipebench/out/`.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(command, checkout, workload, seed, seconds):
    """(exit code, result dict or None, stderr) of one benchmark run."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metrics, runs):
    """One line per end-to-end metric: both sides' medians and quartiles,
    and the pairs the change won."""
    lines = []
    for spec in metrics:
        name = spec["name"]
        parent = [pair["parent"][name] for pair in runs]
        change = [pair["change"][name] for pair in runs]
        lower = spec["better"] == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        lines.append(
            f"{name} ({spec['better']} is better): parent {pm:.6g} "
            f"[{p1:.6g}, {p3:.6g}] -> change {cm:.6g} [{c1:.6g}, {c3:.6g}]; "
            f"change better in {wins} of {len(runs)} pairs"
        )
    return lines


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be at least 1 and --seconds positive")

    names = [spec["name"] for spec in bench["end_to_end"]]
    runs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            code, result, err = run_once(bench["command"], getattr(args, side),
                                         args.workload, args.seed, args.seconds)
            label = f"pair {i + 1} {side}"
            if code != 0 or result is None or result.get("failed", 1) > 0:
                failed = None if result is None else result.get("failed")
                print(f"{label}: exit {code}, failed {failed}", file=sys.stderr)
                print(err.strip()[-2000:], file=sys.stderr)
                return 1
            pair[side] = {n: result["metrics"][n]["value"] for n in names}
            shown = ", ".join(f"{n} {v:.6g}" for n, v in pair[side].items())
            print(f"{label}: {shown}", flush=True)
        runs.append(pair)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s:")
    for line in summarize(bench["end_to_end"], runs):
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
