"""Record the reference values the benchmark checks committed seeds against.

    python3 pipebench/record_refs.py

For every workload and each of the committed seeds it runs the first
items of the seeded input pool, refuses to record an item that fails its
invariant checks, and writes the per-item values to a fresh
references.json.  Rerun it only when a change is meant to alter results,
and say so in that change.
"""

import json
import sys

import bootstrap

#: items recorded per seed: whole blocks of the family mix
RECORDED_ITEMS = {"sweep-l3": 21, "sweep-l5": 7, "verify-l6": 7}
COMMITTED_SEEDS = (1, 2, 3, 4, 5)


def main():
    bootstrap.pin_blas_threads()
    bootstrap.import_package()
    import checks
    import workloads
    from conformal_lab import surface as surface_mod

    doc = {"workloads": {}}

    surf = surface_mod.HyperbolicSurface()
    for name in sorted(bootstrap.WORKLOADS):
        workload = bootstrap.WORKLOADS[name]
        mesh = surface_mod.build_mesh(surf.domain, workload.level)
        checker = checks.ItemChecker(workload, seed=None)
        for seed in COMMITTED_SEEDS:
            pool = workloads.make_inputs(workload, seed, surf)
            values = []
            for index in range(RECORDED_ITEMS[name]):
                out = workloads.run_item(workload, surf, mesh, pool[index])
                problems = checker(index, out)
                if problems:
                    sys.exit(f"{name} seed {seed} item {index} fails: {problems}")
                values.append(checker.values(out))
            doc["workloads"].setdefault(name, {})[str(seed)] = values
            print(f"{name} seed {seed}: {len(values)} items", flush=True)

    with open(checks.REFERENCES, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
