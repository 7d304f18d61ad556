"""Command-line front door.

Every operation is reachable as a subcommand with machine-readable output:
data goes to stdout, diagnostics to stderr, so sweeps are pipeline safe.

Exit codes: 0 the computation ran (whatever the verdict), 2 invalid
parameters, 3 numeric failure (series would not converge, no threshold
bracketed).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .criteria import (
    ClassParams,
    RTauParams,
    lemma_sum_M,
    lemma_sum_N,
)
from .errors import NumericFailure, ParameterError
from .explore import CRITERION_NAMES, criterion_value, find_threshold, sweep
from .formats import canonical_json, human_lines, one_line_csv
from .moments import TouchardParams, poisson_moment_closed, poisson_moment_series

# The series and disk modules need numpy; the handlers that use them import
# them when they run, so the closed-form subcommands start without it.

_FORMATS = ("json", "csv", "human")


def _parse_alpha(text: str) -> float:
    # the literal token 4/3 is accepted because it is the boundary of the
    # valid range and has no exact decimal form
    if text.strip() == "4/3":
        return 4.0 / 3.0
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"alpha must be a decimal or the literal 4/3, got {text!r}")


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a complex number like 1, -0.5 or 1+2j, got {text!r}")


def _emit(args, record: dict, csv_fields=None) -> None:
    if args.format == "json":
        print(canonical_json(record))
    elif args.format == "csv":
        sys.stdout.write(one_line_csv(csv_fields or list(record), record))
    else:
        sys.stdout.write(human_lines(record))


def _load_series(args):
    from .series import series_from_csv, touchard_series

    if args.touchard is not None:
        l, m = args.touchard
        tp = TouchardParams(_int_like(l, "l"), m)
        return touchard_series(tp, args.order)
    text = Path(args.series).read_text(encoding="utf-8")
    return series_from_csv(text)


def _int_like(x: float, name: str) -> int:
    if float(x).is_integer():
        return int(x)
    raise ParameterError(f"{name} must be an integer, got {x!r}")


def _add_class_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="class parameter lambda in [0, 1)")
    p.add_argument("--alpha", type=_parse_alpha, required=True,
                   help="class order in (1, 4/3]; the literal 4/3 is accepted")


def _add_rtau_flags(p: argparse.ArgumentParser, required: bool = False) -> None:
    p.add_argument("--tau", type=_parse_complex, required=required,
                   help="nonzero complex tau of the distortion class")
    p.add_argument("--A", type=float, required=required, help="upper distortion parameter")
    p.add_argument("--B", type=float, required=required, help="lower distortion parameter")


def _add_format_flag(p: argparse.ArgumentParser, default: str = "json") -> None:
    p.add_argument("--format", choices=_FORMATS, default=default,
                   help=f"output format (default {default})")


def _rtau_from_args(args) -> RTauParams:
    if args.tau is None or args.A is None or args.B is None:
        raise ParameterError("criterion rtau needs --tau, --A and --B")
    return RTauParams(args.tau, args.A, args.B)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="touchardstar",
        description="Poisson-moment kernels and membership criteria for "
                    "positive-coefficient starlike/convex function classes.",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moment", help="raw Poisson moment, closed form or direct series")
    p.add_argument("--l", type=float, required=True, help="moment order (integer unless --series)")
    p.add_argument("--m", type=float, required=True, help="Poisson parameter, m > 0")
    p.add_argument("--series", action="store_true",
                   help="sum the defining series instead of the closed form "
                        "(required for non-integer l, which is experimental)")
    p.add_argument("--tol", type=float, default=1e-12, help="series tail tolerance")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_moment)

    p = sub.add_parser("coeffs", help="coefficients of the Poisson-weighted kernel series")
    p.add_argument("--l", type=float, required=True, help="integer moment order")
    p.add_argument("--m", type=float, required=True, help="Poisson parameter")
    p.add_argument("--order", type=int, default=64, help="truncation order N >= 2")
    _add_format_flag(p, default="csv")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("check-class",
                       help="coefficient-sum membership test for a series")
    p.add_argument("--class", dest="klass", choices=("Mstar", "Nstar"), required=True,
                   help="Mstar = starlike type, Nstar = convex type")
    _add_class_flags(p)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--touchard", nargs=2, type=float, metavar=("L", "M"),
                     help="use the kernel series with these (l, m)")
    src.add_argument("--series", metavar="FILE", help="CSV file of n,a_n rows (a_1 = 1)")
    p.add_argument("--order", type=int, default=64, help="truncation order for --touchard")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_check_class)

    p = sub.add_parser("check-theorem",
                       help="closed-form membership criterion for the kernel/operators")
    p.add_argument("--which", choices=tuple(CRITERION_NAMES), required=True)
    p.add_argument("--l", type=float, required=True, help="integer moment order")
    p.add_argument("--m", type=float, required=True, help="Poisson parameter")
    _add_class_flags(p)
    _add_rtau_flags(p)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_check_theorem)

    p = sub.add_parser("threshold", help="membership threshold m* for fixed (l, lambda, alpha)")
    p.add_argument("--which", choices=tuple(CRITERION_NAMES), required=True)
    p.add_argument("--l", type=float, required=True, help="integer moment order")
    _add_class_flags(p)
    _add_rtau_flags(p)
    p.add_argument("--tol-m", type=float, default=1e-10, help="bracket width at exit")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("verify-disk", help="sample the defining analytic condition on the disk")
    p.add_argument("--which", choices=("M", "N", "rtau"), required=True)
    p.add_argument("--lambda", dest="lam", type=float, help="class parameter (M/N only)")
    p.add_argument("--alpha", type=_parse_alpha, help="class order (M/N only)")
    _add_rtau_flags(p)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--touchard", nargs=2, type=float, metavar=("L", "M"),
                     help="use the kernel series with these (l, m)")
    src.add_argument("--series", metavar="FILE", help="CSV file of n,a_n rows")
    p.add_argument("--order", type=int, default=64, help="truncation order for --touchard")
    p.add_argument("--rmax", type=float, default=0.95, help="outermost sampled radius (< 1)")
    p.add_argument("--rings", type=int, default=19, help="number of radii")
    p.add_argument("--angles", type=int, default=96, help="angles per radius")
    p.add_argument("--dump-samples", metavar="FILE",
                   help="also write per-sample values as re,im,value CSV")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_verify_disk)

    p = sub.add_parser(
        "sweep",
        help="evaluate a criterion over a parameter grid",
        epilog="The spec file is JSON: {\"criterion\": \"M\", \"l\": [...], \"m\": [...], "
               "\"lambda\": [...], \"alpha\": [...]} plus \"tau\", \"A\", \"B\" lists for rtau. "
               "Columns: the parameters in that order, then criterion_value, bound, member, "
               "status (ok | invalid_params | numeric_failure). Rows follow lexicographic "
               "grid order.",
    )
    p.add_argument("--spec", required=True, metavar="FILE", help="JSON sweep specification")
    _add_format_flag(p, default="csv")
    p.set_defaults(func=_cmd_sweep)

    return top


def _cmd_moment(args) -> int:
    if args.series:
        if args.l != int(args.l):
            print("note: non-integer moment order is experimental; series summation only",
                  file=sys.stderr)
        mv = poisson_moment_series(args.l, args.m, args.tol)
    else:
        mv = poisson_moment_closed(_int_like(args.l, "l"), args.m)
    _emit(args, mv.to_dict(), ["value", "method", "truncation_terms", "tail_bound"])
    return 0


def _cmd_coeffs(args) -> int:
    from .series import series_to_csv, touchard_series

    tp = TouchardParams(_int_like(args.l, "l"), args.m)
    f = touchard_series(tp, args.order)
    if args.format == "json":
        print(canonical_json({"order": f.order, "coeffs": [float(c) for c in f.coeffs]}))
    else:
        sys.stdout.write(series_to_csv(f))
    return 0


def _cmd_check_class(args) -> int:
    f = _load_series(args)
    p = ClassParams(args.lam, args.alpha)
    report = lemma_sum_M(f, p) if args.klass == "Mstar" else lemma_sum_N(f, p)
    _emit(args, report.to_dict(), report.csv_fields())
    return 0


def _cmd_check_theorem(args) -> int:
    rt = _rtau_from_args(args) if args.which == "rtau" else None
    report = criterion_value(args.which, _int_like(args.l, "l"), args.m,
                             ClassParams(args.lam, args.alpha), rt)
    _emit(args, report.to_dict(), report.csv_fields())
    return 0


def _cmd_threshold(args) -> int:
    rt = _rtau_from_args(args) if args.which == "rtau" else None
    result = find_threshold(args.which, _int_like(args.l, "l"),
                            ClassParams(args.lam, args.alpha), rt, tol_m=args.tol_m)
    record = result.to_dict()
    if args.format == "csv":
        flat = {
            "m_star": result.m_star,
            "bracket_lo": result.bracket[0],
            "bracket_hi": result.bracket[1],
            "residual": result.residual,
            "iterations": result.iterations,
            "criterion": result.criterion,
            "warnings": ";".join(result.warnings),
        }
        _emit(args, flat, list(flat))
    else:
        _emit(args, record)
    return 0


def _cmd_verify_disk(args) -> int:
    from .disk import DiskGrid, samples_to_csv, verify_M, verify_N, verify_rtau

    f = _load_series(args)
    grid = DiskGrid.uniform(args.rmax, args.rings, args.angles)
    keep = args.dump_samples is not None
    if args.which == "rtau":
        report = verify_rtau(f, _rtau_from_args(args), grid, keep_samples=keep)
    else:
        if args.lam is None or args.alpha is None:
            raise ParameterError("verify-disk for M/N needs --lambda and --alpha")
        p = ClassParams(args.lam, args.alpha)
        verify = verify_M if args.which == "M" else verify_N
        report = verify(f, p, grid, keep_samples=keep)
    if keep:
        Path(args.dump_samples).write_text(samples_to_csv(grid, report), encoding="utf-8")
        print(f"wrote per-sample values to {args.dump_samples}", file=sys.stderr)
    record = report.to_dict()
    if args.format == "csv":
        arg = record["arg_of_max"]
        flat = {
            "max_real_part": record["max_real_part"],
            "arg_re": None if arg is None else arg["re"],
            "arg_im": None if arg is None else arg["im"],
            "violations": record["violations"],
            "samples": record["samples"],
            "degenerate_samples": record["degenerate_samples"],
        }
        _emit(args, flat, list(flat))
    else:
        _emit(args, record)
    return 0


def _cmd_sweep(args) -> int:
    try:
        spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise ParameterError(f"sweep spec {args.spec} is not valid JSON: {exc}") from None
    if not isinstance(spec, dict) or "criterion" not in spec:
        raise ParameterError('sweep spec must be a JSON object with a "criterion" key')
    which = spec.pop("criterion")
    table = sweep(which, spec)
    if args.format == "json":
        print(canonical_json(table.to_dict()))
    elif args.format == "csv":
        sys.stdout.write(table.to_csv())
    else:
        sys.stdout.write(",".join(table.columns) + "\n")
        for row in table.rows:
            sys.stdout.write(" ".join(f"{c}={row[c]}" for c in table.columns) + "\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
