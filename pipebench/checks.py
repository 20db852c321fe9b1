"""Per-item output checks.

Two layers of checks feed the failure count:

* invariants that hold on any seed (the bounds the sweep and verify
  outputs promise), and
* for the seeds recorded in references.json, agreement with the values
  this code produced when the benchmark was defined.  The tolerance is
  tight enough that a real change to a result fails, and loose enough
  that a last-bit change in a normalization constant passes.

Eigenvalues carry an absolute round-off of the solver on top of their
relative error, so quantities computed from them get the absolute floor
EIGEN_NOISE; every other quantity is held to a relative tolerance alone.
"""

import json
import math
from pathlib import Path

from conformal_lab.conformal import AREA_MATCH_TOL

REFERENCES = Path(__file__).resolve().parent / "references.json"

FOUR_PI = 4.0 * math.pi

#: absolute round-off of a computed eigenvalue.  lambda_1 of the tightest
#: dumbbell necks is ~1e-50 or smaller, so its computed value is solver
#: noise: 0 or either sign, and above the equally tiny dumbbell bound.
#: The largest such excursion seen, over 1400 dumbbells of seeds 1-20 at
#: levels 3 and 5 (pipebench/README.md), was 9.9e-14; this floor is ten
#: times that.
EIGEN_NOISE = 1e-12
#: shrinker members squeeze the systole to g-length eps
SHRINKER_LENGTH_RTOL = 1e-6

#: agreement with recorded reference values: |got - ref| <= REF_RTOL |ref|,
#: plus EIGEN_NOISE for the quantities in EIGEN_VALUES
REF_RTOL = 1e-9
#: recorded quantities computed from eigenvalues: sweep lambda1, and the
#: left-hand sides of the verify entries that compare eigenvalues
EIGEN_VALUES = frozenset({"lambda1", "eigen_sandwich_margin",
                          "dumbbell_lambda1_bound"})

SWEEP_VALUES = ("area", "max_u", "lambda1", "length_gamma", "diameter",
                "katok_factor", "dumbbell_bound")


def _finite(x):
    return isinstance(x, float) and math.isfinite(x)


def check_sweep_row(row):
    """Invariant violations of one sweep row, as readable strings."""
    if row["error"] != "":
        return [f"row error: {row['error']}"]
    problems = []
    area = row["area"]
    if not (_finite(area) and abs(area - FOUR_PI) <= AREA_MATCH_TOL * FOUR_PI):
        problems.append(f"area {area!r} misses 4 pi")
    lam1 = row["lambda1"]
    if not (_finite(lam1) and lam1 > -EIGEN_NOISE):
        problems.append(f"lambda1 {lam1!r} not positive")
    if not (_finite(row["diameter"]) and row["diameter"] > 0.0):
        problems.append(f"diameter {row['diameter']!r} not finite and positive")
    if not (_finite(row["katok_factor"]) and row["katok_factor"] <= 1.0):
        problems.append(f"katok_factor {row['katok_factor']!r} above 1")
    if row["family"] == "shrinker":
        eps = row["eps"]
        if not abs(row["length_gamma"] - eps) <= SHRINKER_LENGTH_RTOL * eps:
            problems.append(f"length_gamma {row['length_gamma']!r} misses eps {eps}")
    if row["family"] == "dumbbell":
        bound = row["dumbbell_bound"]
        if not (_finite(bound) and lam1 <= bound + EIGEN_NOISE):
            problems.append(f"lambda1 {lam1!r} above dumbbell bound {bound!r}")
    return problems


def check_report(rep):
    """Invariant violations of one verify report."""
    if rep.passed:
        return []
    return [f"entry {e.name} {e.status}: {e.detail}" for e in rep.entries if e.failed]


def sweep_values(row):
    return {key: row[key] for key in SWEEP_VALUES if row[key] != ""}


def report_values(rep):
    """Left-hand sides of the enforced entries, the quantities computed per item."""
    return {e.name: e.lhs for e in rep.entries if e.enforced}


def compare(reference, got):
    """Differences between a recorded value dict and a fresh one."""
    problems = []
    if set(reference) != set(got):
        problems.append(f"value names {sorted(got)} differ from reference "
                        f"{sorted(reference)}")
    for key in sorted(set(reference) & set(got)):
        ref, val = reference[key], got[key]
        if math.isnan(ref) and math.isnan(val):
            continue
        atol = EIGEN_NOISE if key in EIGEN_VALUES else 0.0
        if not abs(val - ref) <= REF_RTOL * abs(ref) + atol:
            problems.append(f"{key} = {val!r}, reference {ref!r}")
    return problems


def load_references(workload, seed):
    """Recorded per-item values for this workload and seed, or []."""
    if not REFERENCES.is_file():
        return []
    with open(REFERENCES) as fh:
        doc = json.load(fh)
    return doc["workloads"].get(workload, {}).get(str(seed), [])


class ItemChecker:
    """Checks items of one run; item i is compared with reference i."""

    def __init__(self, workload, seed):
        self.kind = workload.kind
        self.references = load_references(workload.name, seed)

    def values(self, output):
        if self.kind == "sweep":
            return sweep_values(output)
        return report_values(output)

    def __call__(self, index, output):
        if self.kind == "sweep":
            problems = check_sweep_row(output)
        else:
            problems = check_report(output)
        if index < len(self.references):
            problems += compare(self.references[index], self.values(output))
        return problems
