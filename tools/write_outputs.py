"""Write the lab's reference outputs into one directory, for a byte check.

    python tools/write_outputs.py DIR

writes, through the command-line entry point of the `src` tree next to
this script:

- the default CLI sweep CSVs at levels 0, 3 and 5;
- for each of 32 members (base, the 28 default-grid members and three
  off-centre ones), its descriptor, its level-3 k = 10 verify report and
  its level-4 k = 10 spectrum CSV;
- the level-5 k = 10 verify reports of base and of the first default-grid
  member of each family, and their level-1 k = 12 spectrum CSVs (all but
  one pair of the 14-vertex mesh);
- the level-0 k = 1 spectrum CSVs of two shrinkers whose masses reach
  near the bottom of the float range (eps 1e-150 and 1e-100, delta 0.01),
  where an eigenpair's residual norms overflow unless they are scaled;
- every command's exit code and standard output, in `commands.txt`.

Run it on two checkouts and compare with `diff -r DIR_A DIR_B`: a change
that should keep every output leaves no difference.
"""

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from conformal_lab import cli, conformal, families, report  # noqa: E402
from conformal_lab.surface import HyperbolicSurface  # noqa: E402

#: shrinkers whose tiny masses test the residual norms' scaling
TINY_MASS = [{"eps": 1e-150, "delta": 0.01}, {"eps": 1e-100, "delta": 0.01}]

OFF_CENTRE = [
    {"family": "stretcher", "eps": 0.2, "delta": 0.1, "p": [0.2, 0.1]},
    {"family": "nonpositive_radial", "amplitude": 0.5, "center": [0.1, -0.05]},
    {"family": "dumbbell", "eps": 0.2, "delta": 0.1, "p": [-0.3, 0.1], "q": [0.3, -0.1]},
]


def members():
    """(name, family, params) of the 32 members, in a fixed order."""
    specs = [{"family": "base"}, *report.default_sweep_grid(), *OFF_CENTRE]
    for i, spec in enumerate(specs):
        params = dict(spec)
        family = params.pop("family")
        yield f"{i:02d}_{family}", family, params


def main(out_dir):
    os.makedirs(out_dir, exist_ok=True)
    log = []

    def run(*argv):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main([str(a) for a in argv])
        log.append(f"$ {' '.join(map(str, argv))} -> {code}\n{stdout.getvalue()}")

    def path(name):
        return os.path.join(out_dir, name)

    with open(path("sweep_config.json"), "w") as fh:
        json.dump({"version": 1}, fh)
    for level in (0, 3, 5):
        run("sweep", "--config", path("sweep_config.json"), "--level", level,
            "--out", path(f"sweep_l{level}.csv"))

    surface = HyperbolicSurface()
    first_of_family = {}
    for name, family, params in members():
        doc = conformal.to_descriptor(families.make(surface, family, **params))
        with open(path(f"{name}.json"), "w") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
        first_of_family.setdefault(family, name)
        run("verify", "--metric", path(f"{name}.json"), "--level", 3, "--k", 10,
            "--report", path(f"{name}.verify_l3.json"))
        run("spectrum", "--metric", path(f"{name}.json"), "--level", 4, "--k", 10,
            "--out", path(f"{name}.spectrum_l4.csv"))
    for name in first_of_family.values():
        run("verify", "--metric", path(f"{name}.json"), "--level", 5, "--k", 10,
            "--report", path(f"{name}.verify_l5.json"))
        run("spectrum", "--metric", path(f"{name}.json"), "--level", 1, "--k", 12,
            "--out", path(f"{name}.spectrum_l1.csv"))
    for i, params in enumerate(TINY_MASS):
        name = f"tiny_mass_{i}_shrinker"
        doc = conformal.to_descriptor(families.make(surface, "shrinker", **params))
        with open(path(f"{name}.json"), "w") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
        run("spectrum", "--metric", path(f"{name}.json"), "--level", 0, "--k", 1,
            "--out", path(f"{name}.spectrum_l0.csv"))

    with open(path("commands.txt"), "w") as fh:
        fh.write("".join(log).replace(out_dir, "DIR"))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} DIR")
    sys.exit(main(sys.argv[1]))
