"""conformal-lab pipeline benchmark: sweep and verify, end to end and per layer.

Run from the repository root:

    python3 pipebench/run.py --workload sweep-l3 --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: each item starts when the previous
one has finished and been checked.  After an untimed warm-up the loop
cycles the workload's item pool, so each run times the same mix.
`--trace 0` times the items untraced and prints the end-to-end metrics;
`--trace 1` times the same items untraced and then traced, and prints
the per-layer metrics.  The last line
of standard output is the result JSON; the line before it records the run
(seed, level, versions, BLAS threads, tail percentile).  The run record,
and in a traced run every span, is also written to pipebench/out/.  The
exit code is 1 when any item fails its output checks.
"""

import argparse
import ctypes
import functools
import glob
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import bootstrap
from tracing import Tracer

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

#: samples a tail percentile must leave beyond it
TAIL_BEYOND = 10
#: untimed warm-up before the loop, at least one item: pays first-call
#: costs (the stiffness matrix cached on the mesh, cold caches) untimed
WARMUP_S = 2.0

#: layers timed per item in the traced run ("<name>.s", seconds per item)
ITEM_LAYERS = (
    "families.make", "conformal.normalize_area", "conformal.from_descriptor",
    "spectral.assemble", "spectral.eigenvalues",
    "spectral.conformal_eigen_sandwich", "spectral.dumbbell_test_bound",
    "geom.diameter_estimate", "geom.curve_length", "geom.jensen_lower_bound",
    "geom.circle_integral_u", "geom.region_integral_u",
    "conformal.nonpositivity_check", "conformal.gauss_bonnet",
    "entropy.katok_bounds",
)
#: layers whose call count per item is reported ("<name>.calls")
COUNTED_LAYERS = ("families.make", "spectral.eigenvalues", "geom.diameter_estimate")
#: orchestration layers reported by self time ("<name>.self_s")
SELF_LAYERS = ("report.sweep", "report.verify_metric")
#: counters recorded by the tracer, reported per item
ITEM_COUNTERS = {
    "conformal.normalize_area.area_evals": "count/item",
    "geom.diameter_estimate.computed_bytes": "B/item",
}


@dataclass
class Record:
    index: int        # position in the input pool
    seconds: float
    problems: list


def run_items(call, pool, checker, order, seconds=None, tracer=None):
    """Closed loop of call(pool[i]) for i in `order`.

    With `seconds`, stops starting items once that much time has passed
    (after at least one).  Returns the records and the loop's wall time.
    """
    records = []
    start = time.perf_counter()
    for n, index in enumerate(order):
        if seconds is not None and n and time.perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.item = n
        t0 = time.perf_counter()
        try:
            out = call(pool[index])
        except Exception as exc:  # a failing item is counted; the run goes on
            elapsed = time.perf_counter() - t0
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            elapsed = time.perf_counter() - t0
            problems = checker(index, out)
        records.append(Record(index, elapsed, problems))
    return records, time.perf_counter() - start


def warm_up(call, pool):
    """Run pool items untimed for WARMUP_S seconds, at least one.

    An item that raises ends the warm-up; the timed loop meets it again
    and counts it as failed."""
    start = time.perf_counter()
    for item in itertools.cycle(pool):
        try:
            call(item)
        except Exception:
            return
        if time.perf_counter() - start >= WARMUP_S:
            return


def tail(times):
    """(value, percentile, samples beyond) of the highest percentile that
    leaves TAIL_BEYOND samples beyond it.  With fewer than 2 * TAIL_BEYOND + 1
    samples that percentile is no tail (it lies at or below the median), so
    the maximum is reported instead."""
    ordered = sorted(times)
    n = len(ordered)
    rank = n - TAIL_BEYOND
    if rank <= n / 2:
        rank = n
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def setup_samples(workload, first, runs):
    """Set-up seconds of this process and of runs - 1 fresh processes."""
    samples = [first]
    cmd = [sys.executable, str(HERE / "bootstrap.py"), "--workload", workload.name]
    for _ in range(runs - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=150)
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def blas_threads():
    """Threads of numpy's OpenBLAS, read from the library when it is one
    of the bundled scipy-openblas builds, else the pinned setting."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                           "numpy.libs", "libscipy_openblas*")
    for lib in glob.glob(pattern):
        try:
            getter = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        return getter()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def environment(workload, seed, pool):
    import numpy
    import scipy

    return {
        "workload": workload.name,
        "seed": seed,
        "level": workload.level,
        "k": workload.k,
        "pool_size": len(pool),
        "blas_threads": blas_threads(),
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def end_to_end(call, pool, checker, seconds, setup):
    records, loop_s = run_items(call, pool, checker,
                                itertools.cycle(range(len(pool))), seconds)
    times = [r.seconds for r in records]
    correct = sum(not r.problems for r in records)
    tail_s, tail_pct, beyond = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (correct / loop_s, "1/s"),
        "item_p50_s": (statistics.median(times), "s"),
        "item_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }
    info = {
        "items": len(records),
        "loop_s": loop_s,
        "passes": len(records) / len(pool),
        "item_tail_percentile": tail_pct,
        "item_tail_beyond": beyond,
        "setup_samples_s": setup,
    }
    return records, metrics, info, None


def per_layer(call, pool, checker, seconds, setup_tracer, import_s):
    """Untraced pass for half the time, then the same items traced."""
    plain, _ = run_items(call, pool, checker,
                         itertools.cycle(range(len(pool))), seconds / 2.0)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = run_items(call, pool, checker, [r.index for r in plain],
                              tracer=tracer)
    finally:
        tracer.uninstall()

    n = len(traced)
    layers = tracer.layer_times()
    setup_layers = setup_tracer.layer_times()

    def total(table, name, column):
        return table.get(name, (0.0, 0.0, 0))[column]

    metrics = {
        "import_s": (import_s, "s"),
        "surface.build_mesh.s": (total(setup_layers, "surface.build_mesh", 0), "s"),
        "surface.base_spectrum.s": (total(setup_layers, "surface.base_spectrum", 0),
                                    "s"),
    }
    for name in ITEM_LAYERS:
        metrics[f"{name}.s"] = (total(layers, name, 0) / n, "s/item")
    for name in COUNTED_LAYERS:
        metrics[f"{name}.calls"] = (total(layers, name, 2) / n, "count/item")
    for name, unit in ITEM_COUNTERS.items():
        metrics[name] = (tracer.counts[name] / n, unit)
    metrics["spectral.eigenvalues.backward_error_max"] = (tracer.backward_error_max,
                                                          "ratio")
    for name in SELF_LAYERS:
        metrics[f"{name}.self_s"] = (total(layers, name, 1) / n, "s/item")
    untraced_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in traced)
    metrics["trace_overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    info = {"items": n, "untraced_s": untraced_s, "traced_s": traced_s}
    return plain + traced, metrics, info, (setup_tracer, tracer)


def run_workload(name, seed, seconds, trace, setup_runs=None):
    """Run one workload; returns (result line dict, run record dict).

    `setup_runs` overrides the workload's number of set-up samples.
    """
    workload = bootstrap.WORKLOADS[name]
    bootstrap.pin_blas_threads()
    setup_tracer = Tracer() if trace else None
    first, import_s, surface, mesh = bootstrap.timed_setup(
        workload, setup_tracer.install if trace else None)
    if trace:
        setup_tracer.uninstall()
    else:
        setup = setup_samples(workload, first, setup_runs or workload.setup_runs)

    import checks
    import workloads

    pool = workloads.make_inputs(workload, seed, surface)
    checker = checks.ItemChecker(workload, seed)
    call = functools.partial(workloads.run_item, workload, surface, mesh)
    warm_up(call, pool)
    if trace:
        records, metrics, info, tracers = per_layer(
            call, pool, checker, seconds, setup_tracer, import_s)
    else:
        records, metrics, info, tracers = end_to_end(
            call, pool, checker, seconds, setup)

    failures = [(r.index, p) for r in records for p in r.problems]
    failed = sum(bool(r.problems) for r in records)
    record = environment(workload, seed, pool)
    record.update(info, trace=trace, attempted=len(records), failed=failed,
               failed_frac=failed / len(records),
               checked_against_reference=sum(
                   r.index < len(checker.references) for r in records),
               failures=failures[:20])
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    doc = {"run": record, "result": result,
           "items": [[r.index, r.seconds] for r in records]}
    if tracers is not None:
        doc["setup_trace"], doc["item_trace"] = (t.to_dict() for t in tracers)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(doc, fh)
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description="conformal-lab pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(bootstrap.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for index, problem in record["failures"]:
        print(f"FAILED item {index}: {problem}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
