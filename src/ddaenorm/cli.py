"""Command-line front end.

Subcommands
-----------
check    validate a system file and report the standing-assumption margins
sweep    sample singular value curves of T or T_a to CSV/JSON
norm     compute the H-infinity norm, the strong norm of T_a, or the strong norm
perturb  run a delay-perturbation study
build    assemble a system file from an interconnection description

Exit codes: 0 success, 1 usage or schema error, 2 numerical failure
(instability, unbounded norm).  Outputs are deterministic for identical
inputs and flags; thread-count environment variables only affect speed.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys

import numpy as np

from . import fileio
from .errors import DdaeError
from .fileio import SchemaError
from .norms import DEFAULT_BISECT_TOL, hinf_norm_T, strong_hinf_norm_T, strong_norm_Ta
from .response import FrequencyGrid, sweep
from .sensitivity import PerturbationStudy, run_perturbation_study
from .system_model import decompose, validate_system

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(_sys.stderr)
        print(f"{self.prog}: error: {message}", file=_sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_grid(text: str) -> FrequencyGrid:
    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("grid must look like linear:OMEGA_MIN:OMEGA_MAX:COUNT")
    kind, lo, hi, count = parts
    if kind == "log":
        kind = "logarithmic"
    try:
        return FrequencyGrid(kind=kind, omega_min=float(lo), omega_max=float(hi),
                             count=int(count))
    except ValueError as exc:  # argparse prints an ArgumentTypeError's own message
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="ddaenorm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a system file and its assumptions")
    p.add_argument("system_file")
    p.add_argument("--rank-tol", type=float, default=None)
    p.add_argument("--grid-per-dim", type=int, default=None)
    p.add_argument("--axis-scan", type=float, default=None, metavar="OMEGA_MAX",
                   help="also scan sigma_min of the characteristic matrix up to OMEGA_MAX")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")

    p = sub.add_parser("sweep", help="sample singular value curves")
    p.add_argument("system_file")
    p.add_argument("--which", choices=["T", "Ta"], default="T")
    p.add_argument("--grid", type=_parse_grid, default=_parse_grid("linear:0:10:2001"),
                   metavar="KIND:MIN:MAX:COUNT")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--json", default=None, metavar="PATH", help="also write JSON here")

    p = sub.add_parser("norm", help="compute norms")
    p.add_argument("system_file")
    p.add_argument("--kind", choices=["hinf", "strong-ta", "strong"], default="strong")
    p.add_argument("--tol", type=float, default=DEFAULT_BISECT_TOL,
                   help="relative level tolerance of the plain-norm search")
    p.add_argument("--json", action="store_true", help="emit the result as JSON")
    p.add_argument("--out", default=None, metavar="PATH", help="write the JSON result here")

    p = sub.add_parser("perturb", help="run a delay-perturbation study")
    p.add_argument("system_file")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--scheme", choices=["deterministic-rational", "random-uniform"],
                   default="deterministic-rational")
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--json", default=None, metavar="PATH", help="also write JSON here")

    p = sub.add_parser("build", help="build a system file from an interconnection")
    p.add_argument("interconnect_file")
    p.add_argument("--out", required=True, help="system JSON output path")
    return parser


def _cmd_check(args) -> int:
    sys_ = fileio.load_system(args.system_file)
    kwargs = {}
    if args.rank_tol is not None:
        kwargs["rank_tol"] = args.rank_tol
    report = validate_system(sys_, grid_per_dim=args.grid_per_dim,
                             axis_scan_omega_max=args.axis_scan, **kwargs)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(f"rank(E) = {report.rank_E}  (nullspace dimension nu = {report.nu})")
        if np.isinf(report.assumption1_margin):
            print("algebraic block: none (E nonsingular), assumption vacuous")
        else:
            status = "ok" if report.assumption1_ok else "VIOLATED"
            print(f"assumption 1 (A22[0] nonsingular): {status}, "
                  f"margin sigma_min = {report.assumption1_margin:.6g}")
        print(f"difference-part stability margin gamma_a = "
              f"{report.difference_stability_margin:.6g}  (strongly stable iff < 1)")
        if report.axis_margin is not None:
            print(f"imaginary-axis scan: min sigma_min = {report.axis_margin:.6g}")
        for msg in report.messages:
            print(f"warning: {msg}")
    return EXIT_OK if report.ok else EXIT_NUMERICAL


def _cmd_sweep(args) -> int:
    sys_ = fileio.load_system(args.system_file)
    curve = sweep(sys_, args.grid, which=args.which)
    pt, val = curve.max_point()  # raises on a curve of gaps only, before any write
    curve.to_csv(args.out)
    if args.json:
        curve.to_json(args.json)
    print(f"wrote {args.out}: {curve.params.size} samples, "
          f"{len(curve.gaps)} gaps, max sigma_1 = {val:.6g} at omega = {pt:.6g}")
    return EXIT_OK


def _cmd_norm(args) -> int:
    sys_ = fileio.load_system(args.system_file)
    dec = decompose(sys_)
    if args.kind == "hinf":
        result = hinf_norm_T(sys_, dec, bisect_tol=args.tol)
    elif args.kind == "strong-ta":
        result = strong_norm_Ta(dec)
    else:
        result = strong_hinf_norm_T(sys_, dec, bisect_tol=args.tol)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(result.to_json())
            fh.write("\n")
    if args.json:
        print(result.to_json())
    else:
        at = result.attained_at
        where = (f"omega = {at:.6g}" if isinstance(at, float)
                 else "theta = (" + ", ".join(f"{t:.6g}" for t in at) + ")")
        print(f"{args.kind}: {result.value:.10g}  attained at {where}  "
              f"[branch {result.branch}]")
    return EXIT_OK


def _cmd_perturb(args) -> int:
    sys_ = fileio.load_system(args.system_file)
    study = PerturbationStudy(
        tau=sys_.tau, epsilon=args.epsilon, scheme=args.scheme,
        count=args.count, seed=args.seed,
    )
    run_perturbation_study(sys_, study)
    study.to_csv(args.out)
    if args.json:
        study.to_json(args.json)
    ok = sum(1 for r in study.records if r.status == "ok")
    print(f"wrote {args.out}: {len(study.records)} records ({ok} ok), "
          f"max hinf = {study.max_hinf:.6g}")
    return EXIT_OK


def _cmd_build(args) -> int:
    sys_ = fileio.load_interconnect(args.interconnect_file)
    fileio.save_system(sys_, args.out)
    print(f"wrote {args.out}: n = {sys_.n}, m = {sys_.m} delays")
    return EXIT_OK


_COMMANDS = {
    "check": _cmd_check,
    "sweep": _cmd_sweep,
    "norm": _cmd_norm,
    "perturb": _cmd_perturb,
    "build": _cmd_build,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (SchemaError, FileNotFoundError, ValueError) as exc:
        print(f"ddaenorm: error: {exc}", file=_sys.stderr)
        return EXIT_USAGE
    except DdaeError as exc:
        print(f"ddaenorm: numerical failure: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
