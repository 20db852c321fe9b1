"""Seeded workload inputs and the per-item calls the benchmark times.

Every workload draws family members from the default sweep grid's family
mix (8 shrinker : 8 stretcher : 8 dumbbell : 4 nonpositive_radial, i.e.
blocks of 2:2:2:1) and from the grid's parameter ranges.  Each block of
seven items holds the full mix in a seeded order, so a run of any length
sees nearly the same mix on every seed.  Within a family the pool's
parameters are stratified (a Latin hypercube: one member in each of m
equal slices of every range), so two seeds give nearly the same spread
of member costs.  The program only ever receives the generated grid
entries (sweep) or descriptors (verify).
"""

import math
import random
from collections import Counter
from functools import reduce

from conformal_lab import conformal, families, report

#: parameters are rounded so inputs are identical on every platform's libm
PARAM_DIGITS = 6


def family_block():
    """The default grid's family mix reduced to its smallest whole block."""
    counts = Counter(entry["family"] for entry in report.default_sweep_grid())
    step = reduce(math.gcd, counts.values())
    return [fam for fam, n in counts.items() for _ in range(n // step)]


def _ranges():
    eps = report.DEFAULT_EPS_GRID
    delta = report.DEFAULT_DELTA_GRID
    amp = report.DEFAULT_AMPLITUDE_GRID
    return (min(eps), max(eps)), (min(delta), max(delta)), (min(amp), max(amp))


def _latin_hypercube(rng, m, dims):
    """m points in [0, 1)^dims with one point in each of m equal slices
    of every coordinate."""
    columns = []
    for _ in range(dims):
        slices = list(range(m))
        rng.shuffle(slices)
        columns.append([(j + rng.random()) / m for j in slices])
    return list(zip(*columns))


def grid_entries(seed, n):
    """n sweep-grid entries drawn from the default mix and ranges.

    eps and amplitude are uniform on the grid's span; delta is
    log-uniform, since the grid spaces it geometrically.  Each family's
    members are a Latin hypercube sample of these ranges.
    """
    rng = random.Random(seed)
    (e_lo, e_hi), (d_lo, d_hi), (a_lo, a_hi) = _ranges()
    block = family_block()
    order = []
    while len(order) < n:
        shuffled = list(block)
        rng.shuffle(shuffled)
        order += shuffled
    order = order[:n]
    points = {fam: iter(_latin_hypercube(rng, order.count(fam),
                                         1 if fam == "nonpositive_radial" else 2))
              for fam in sorted(set(order))}
    out = []
    for fam in order:
        point = next(points[fam])
        if fam == "nonpositive_radial":
            amp = round(a_lo + (a_hi - a_lo) * point[0], PARAM_DIGITS)
            out.append({"family": fam, "amplitude": amp})
        else:
            eps = round(e_lo + (e_hi - e_lo) * point[0], PARAM_DIGITS)
            delta = math.exp(math.log(d_lo)
                             + (math.log(d_hi) - math.log(d_lo)) * point[1])
            out.append({"family": fam, "eps": eps,
                        "delta": round(delta, PARAM_DIGITS)})
    return out


def descriptors(surface, entries):
    """Normalized members as descriptors (stored C, so loading skips the solve)."""
    out = []
    for entry in entries:
        params = dict(entry)
        fam = params.pop("family")
        out.append(conformal.to_descriptor(families.make(surface, fam, **params)))
    return out


def make_inputs(workload, seed, surface):
    """The workload's item pool; built before any timing starts."""
    entries = grid_entries(seed, workload.pool_size)
    if workload.kind == "sweep":
        return entries
    return descriptors(surface, entries)


def run_item(workload, surface, mesh, item):
    """One item through the same public calls the CLI makes."""
    if workload.kind == "sweep":
        return report.sweep(surface, mesh, [item]).rows[0]
    metric = conformal.from_descriptor(item, surface=surface)
    return report.verify_metric(metric, mesh, {"k": workload.k})
