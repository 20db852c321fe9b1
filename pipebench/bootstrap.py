"""What the benchmark needs before conformal_lab is imported.

The workload table, BLAS thread setting, and the timed set-up that every
CLI invocation pays before its first item: import conformal_lab, build
the surface and the workload's mesh, and fill the base-spectrum cache
(which also pays the eigensolver's lazy first call).

Run as a script it times one set-up in a fresh process and prints it as
JSON; the benchmark takes the median over several such starts:

    python3 pipebench/bootstrap.py --workload sweep-l5

Only the standard library is imported at top level, so nothing of numpy
or scipy is loaded before the timer starts.
"""

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str        # "sweep" or "verify"
    level: int       # mesh level
    k: int           # eigenpairs per solve, also the base-spectrum depth
    pool_size: int   # items generated before timing; the loop cycles them
    setup_runs: int  # set-up samples per run: this process plus fresh ones


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-l3", "sweep", 3, 1, 49, 7),
        Workload("sweep-l5", "sweep", 5, 1, 7, 7),
        Workload("verify-l6", "verify", 6, 10, 7, 5),
    )
}


def pin_blas_threads():
    """Run BLAS/OpenMP single-threaded unless the environment says otherwise.

    One thread keeps a run on one core: on a shared machine a second
    BLAS thread spins on a core that the machine's other work also wants.
    Must run before numpy is imported; values already set are kept, and
    child processes inherit them.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")


def import_package():
    """Import conformal_lab from this checkout's src/ and nowhere else."""
    if not (SRC / "conformal_lab" / "__init__.py").is_file():
        raise SystemExit(f"pipebench: no conformal_lab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import conformal_lab

    origin = Path(conformal_lab.__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"pipebench: imported conformal_lab from {origin}, not {SRC}")


def timed_setup(workload, after_import=None):
    """Time import + surface + mesh + base spectrum.

    `after_import` runs untimed right after the import, so a tracer can
    wrap the functions set-up is about to call.  Returns
    (seconds, import seconds, surface, mesh).
    """
    t0 = time.perf_counter()
    import_package()
    import_s = time.perf_counter() - t0
    if after_import is not None:
        paused = time.perf_counter()
        after_import()
        t0 += time.perf_counter() - paused
    from conformal_lab import surface as surface_mod

    surf = surface_mod.HyperbolicSurface()
    mesh = surface_mod.build_mesh(surf.domain, workload.level)
    surface_mod.base_spectrum(surf, mesh, workload.k)
    return time.perf_counter() - t0, import_s, surf, mesh


def main(argv=None):
    parser = argparse.ArgumentParser(description="Time one fresh set-up.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    pin_blas_threads()
    seconds, _, _, _ = timed_setup(WORKLOADS[args.workload])
    print(json.dumps({"setup_s": seconds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
