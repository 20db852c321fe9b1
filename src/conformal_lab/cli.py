"""Command-line front end: meshes, metrics, spectra, reports, sweeps.

Exit codes: 0 everything passed, 1 a verification failed, 2 or 3 an error
stopped the command, by its class (see `errors`): 2 the request itself
was unusable, 3 a numerical routine broke down.  Argparse handles its own
usage errors with code 2, which matches the convention.
"""

import argparse
import errno
import json
import os
import sys

from . import conformal, entropy, families, report, spectral
from .errors import LabError, UsageError
from .surface import HyperbolicSurface, build_mesh


def _family_flags():
    """Real-valued family parameter -> the families that take it, in the
    order of the family table; each is one `metric make` flag."""
    flags = {}
    for name, spec in families.FAMILIES.items():
        for param in (*spec.required, *spec.optional):
            if param not in families.POINT_PARAMS:
                flags.setdefault(param, []).append(name)
    return flags


FAMILY_FLAGS = _family_flags()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conformal-lab",
        description="Constructive bounds for conformal deformations of a "
        "closed genus-2 hyperbolic surface.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mesh = sub.add_parser("mesh", help="mesh operations")
    mesh_sub = mesh.add_subparsers(dest="mesh_command", required=True)
    mesh_build = mesh_sub.add_parser("build", help="subdivide and glue the octagon")
    mesh_build.add_argument("--level", type=int, required=True)
    mesh_build.add_argument("--out", default=None, help="write mesh JSON here")

    metric = sub.add_parser("metric", help="metric constructors")
    metric_sub = metric.add_subparsers(dest="metric_command", required=True)
    make = metric_sub.add_parser("make", help="build a family member")
    make.add_argument("--family", required=True, choices=families.FAMILY_NAMES)
    for param, names in FAMILY_FLAGS.items():
        make.add_argument(
            "--" + param.replace("_", "-"), type=float, default=None,
            help=f"parameter of {', '.join(names)}",
        )
    make.add_argument("--out", default=None, help="write descriptor JSON here")

    spectrum = sub.add_parser("spectrum", help="eigenvalues of a saved metric")
    spectrum.add_argument("--metric", required=True, help="descriptor JSON path")
    spectrum.add_argument("--k", type=int, required=True)
    spectrum.add_argument("--level", type=int, default=3)
    spectrum.add_argument("--out", default=None, help="write spectrum CSV here")

    verify = sub.add_parser("verify", help="full bound report for a saved metric")
    verify.add_argument("--metric", required=True, help="descriptor JSON path")
    verify.add_argument("--report", default=None, help="write report JSON here")
    verify.add_argument("--level", type=int, default=3)
    verify.add_argument("--k", type=int, default=None)

    sweep = sub.add_parser("sweep", help="tabulate families over a grid")
    sweep.add_argument("--config", required=True, help="config JSON path")
    sweep.add_argument("--out", default=None, help="write sweep CSV here")
    sweep.add_argument("--level", type=int, default=None, help="override config level")

    ent = sub.add_parser("entropy", help="closed-form entropy bounds")
    ent_sub = ent.add_subparsers(dest="entropy_command", required=True)
    coding = ent_sub.add_parser("coding", help="ball-packing entropy bound")
    coding.add_argument("--volume", type=float, required=True)
    coding.add_argument("--dim", type=int, required=True)
    coding.add_argument("--rho", type=float, required=True)

    return parser


def _read_json(path, what):
    """The JSON document in the file at path; `what` names it in errors."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path}: {exc.strerror}") from exc
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise UsageError(f"{what} {path} is not valid JSON: {exc}") from exc


def _write_text(text, path):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def load_config(path):
    """(level, grid, other keys) of a sweep config file.

    The file's own shape is checked here; report.sweep checks the other
    keys, as it does for every caller.
    """
    doc = _read_json(path, "config file")
    if not isinstance(doc, dict) or "version" not in doc:
        raise UsageError(f"config file {path} must carry a top-level version")
    version = doc.pop("version")
    if version != 1:
        raise UsageError(f"unsupported config version {version!r}")
    level = doc.pop("level", 3)
    if not isinstance(level, int) or isinstance(level, bool):
        raise UsageError(f"config key 'level' must be an integer, got {level!r}")
    return level, doc.pop("grid", None), doc


def _write_or_print(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        _write_text(text, path)


def _cmd_mesh_build(args) -> int:
    surface = HyperbolicSurface()
    mesh = build_mesh(surface.domain, args.level)
    if args.out is not None:
        _write_text(mesh.to_json(), args.out)
    print(
        f"level {mesh.level}: {mesh.n_rep} vertices, {mesh.n_tri} triangles, "
        f"chi={mesh.euler_characteristic()}, "
        f"sigma-area={mesh.total_area_sigma():.12f}"
    )
    return 0


def _cmd_metric_make(args) -> int:
    surface = HyperbolicSurface()
    params = {
        key: getattr(args, key) for key in FAMILY_FLAGS if getattr(args, key) is not None
    }
    metric = families.make(surface, args.family, **params)
    doc = conformal.to_descriptor(metric)
    text = json.dumps(doc, indent=2) + "\n"
    _write_or_print(text, args.out)
    if args.out is not None:
        print(f"{args.family}: descriptor written to {args.out}")
    return 0


def _load_metric(path, surface):
    doc = _read_json(path, "metric descriptor")
    return conformal.from_descriptor(doc, surface=surface)


def _cmd_spectrum(args) -> int:
    surface = HyperbolicSurface()
    metric = _load_metric(args.metric, surface)
    if not isinstance(metric, conformal.ConformalMetric):
        raise UsageError(
            f"family '{metric.family}' has no assembled spectrum"
        )
    mesh = build_mesh(surface.domain, args.level)
    result = spectral.eigenvalues(spectral.assemble(metric, mesh), args.k)
    _write_or_print(result.to_csv(), args.out)
    if args.out is not None:
        print(
            f"lambda_0..lambda_{args.k} written to {args.out} "
            f"(lambda_1={result.eigenvalues[1]:.9g})"
            if args.k >= 1
            else f"lambda_0 written to {args.out}"
        )
    return 0


def _cmd_verify(args) -> int:
    surface = HyperbolicSurface()
    metric = _load_metric(args.metric, surface)
    config = {}
    if args.k is not None:
        config["k"] = args.k
    mesh = None
    if getattr(metric, "family", None) != "cylinder":
        mesh = build_mesh(surface.domain, args.level)
    rep = report.verify_metric(metric, mesh, config)
    if args.report is not None:
        _write_text(rep.to_json(), args.report)
    counts = {}
    for e in rep.entries:
        counts[e.status] = counts.get(e.status, 0) + 1
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    print(f"{metric.family}: {summary}; report "
          f"{'PASS' if rep.passed else 'FAIL'}")
    if not rep.passed:
        for e in rep.entries:
            if e.failed:
                print(f"  FAIL {e.name}: {e.lhs!r} {e.relation} {e.rhs!r} "
                      f"margin {e.margin!r} {e.detail}")
        return 1
    return 0


def _cmd_sweep(args) -> int:
    level, grid, config = load_config(args.config)
    if args.level is not None:
        level = args.level
    surface = HyperbolicSurface()
    mesh = build_mesh(surface.domain, level)
    table = report.sweep(surface, mesh, grid, config)
    _write_or_print(table.to_csv(), args.out)
    bad = [r for r in table.rows if r["error"]]
    if args.out is not None:
        print(f"{len(table.rows)} rows written to {args.out}, "
              f"{len(bad)} with errors")
    if bad:
        for row in bad:
            print(f"  ERROR {row['family']} "
                  f"eps={row['eps']} delta={row['delta']} "
                  f"amplitude={row['amplitude']}: {row['error']}")
        return 1
    return 0


def _cmd_entropy_coding(args) -> int:
    bound = entropy.coding_entropy_bound(args.volume, args.dim, args.rho)
    count = entropy.coding_ball_count(args.volume, args.dim, args.rho)
    print(f"coding bound: ln({count}) / {0.25 * args.rho!r} = {bound!r}")
    return 0


def _dispatch(args) -> int:
    # refuse an unwritable output path before any work; nothing is opened,
    # so a file already there stays as it is if the command fails later
    for path in (getattr(args, "out", None), getattr(args, "report", None)):
        if path is None:
            continue
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise UsageError(f"cannot write {path}: {os.strerror(errno.ENOENT)}")
        if os.path.isdir(path):
            raise UsageError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
    if args.command == "mesh":
        return _cmd_mesh_build(args)
    if args.command == "metric":
        return _cmd_metric_make(args)
    if args.command == "spectrum":
        return _cmd_spectrum(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "entropy":
        return _cmd_entropy_coding(args)
    raise UsageError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except LabError as exc:
        if isinstance(exc, ValueError):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
