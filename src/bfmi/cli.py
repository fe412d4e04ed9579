"""Command-line interface.

Subcommands: compute, verify, karamata, exhaustive, sweep, reduce-check.
Probabilities are exact slash rationals (e.g. ``--p 3/8``); grids come
from ``--p-den D`` as p = k/D for k = 0..D/2.  Exit codes: 0 = all
checks pass, 1 = some check failed, 2 = usage error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from .boolfn import (
    MAX_N,
    Class1,
    Class2,
    Class3,
    Class4,
    TruthTable,
    make_class,
    parse_class_spec,
    profile_histogram,
)
from .karamata import certify, write_prefix_sums
from .mi import histogram_mutual_information, mutual_information
from .verify import (
    DEFAULT_P_GRID,
    _csv_text,
    _json_text,
    exhaustive_check,
    class3_reduction_check,
    margin_passes,
    p_grid,
    report_to_dict,
    reports_to_csv,
    reports_to_json,
    summaries_to_csv,
    summaries_to_json,
    verify_class,
)


def _parse_p(text: str) -> Fraction:
    try:
        p = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc
    if not 0 <= p <= Fraction(1, 2):
        raise argparse.ArgumentTypeError(f"p must be in [0, 1/2], got {p}")
    return p


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _den_grid(text: str) -> tuple[Fraction, ...]:
    # p_grid holds the range rule; argparse puts the option's name before its message
    try:
        return p_grid(_integer(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _grid(args) -> tuple[Fraction, ...]:
    if args.p is None:
        return DEFAULT_P_GRID if args.grid is None else args.grid
    return (args.p,)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit


def _expand_class_specs(text: str, n_min: int, n_max: int):
    """Yield (class, n range) pairs in report order.

    The family names ``all``, ``class3`` and ``class4`` expand to
    concrete specs; each family-expanded ``Class3(r)``/``Class4(r)``
    gets only the n where it exists, max(n_min, r+1)..n_max, and a bare
    ``class3`` or ``class4`` with no member in the range (n_max < 2) is
    an error.  Any other name is a spec (``class1`` is ``class1:i=0``)
    and passes through with the whole range, for ``verify_class`` to judge.
    """
    n_range = range(n_min, n_max + 1)

    def subcubes(*families):
        for r in range(1, n_max):
            for family in families:
                yield family(r), range(max(n_min, r + 1), n_max + 1)

    names = [name.strip().lower() for name in text.split(",") if name.strip()]
    if not names:
        raise ValueError(f"--classes names no class: {text!r}")
    for name in names:
        if name == "all":
            yield Class1(), n_range
            yield Class2(), n_range
            yield from subcubes(Class3, Class4)
        elif name in ("class3", "class4"):
            if n_max < 2:  # a subcube needs 1 <= r <= n-1
                raise ValueError(f"{name} has no member at n <= {n_max}: its subcubes need n >= 2")
            yield from subcubes(Class3 if name == "class3" else Class4)
        else:
            yield parse_class_spec(name), n_range


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors reach ``main``'s handler, not ``sys.exit``."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # each subcommand takes only the options it reads; built on first use, once per process
    common = _Parser(add_help=False)
    common.add_argument("--out", help="write output to this path instead of stdout")
    point = _Parser(add_help=False)
    point.add_argument("--p", type=_parse_p, required=True, help="exact error probability, e.g. 3/8")
    grid = _Parser(add_help=False)
    # --p-den defaults to None, so that an explicit --p-den 64 is seen too
    points = grid.add_mutually_exclusive_group()
    points.add_argument("--p", type=_parse_p, help="one exact p in place of the grid, e.g. 3/8")
    points.add_argument("--p-den", type=_den_grid, dest="grid", metavar="P_DEN",
                        help="grid denominator: p = k/D, k = 0..D/2 (default 64)")
    fmt = _Parser(add_help=False)
    fmt.add_argument("--format", choices=("csv", "json"), default="json")

    parser = _Parser(prog="mi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", parents=[common, point], help="MI, bound and margin for one function")
    p_compute.add_argument("--n", type=_integer)
    source = p_compute.add_mutually_exclusive_group(required=True)
    source.add_argument("--function", help="class spec, e.g. class1:i=0 or class3:r=2:prefix=1")
    source.add_argument("--table", help="truth-table JSON file")
    p_compute.add_argument("--dump-joint", help="write the exact joint table as CSV")

    p_verify = sub.add_parser("verify", parents=[common, grid, fmt], help="bound checks over an (n, p) grid")
    p_verify.add_argument("--classes", default="class1,class2,class3,class4")
    p_verify.add_argument("--n-min", type=_positive_int, default=2)
    p_verify.add_argument("--n-max", type=_integer, default=6)

    p_karamata = sub.add_parser("karamata", parents=[common, grid], help="exact majorization certificate")
    p_karamata.add_argument("--n", type=_integer, required=True)
    p_karamata.add_argument("--dump-sums", help="write per-prefix partial sums as CSV")

    p_exh = sub.add_parser("exhaustive", parents=[common, grid, fmt], help="scan all truth tables of a small n")
    p_exh.add_argument("--n", type=_integer, required=True,
                       help="at most 5; n = 5 runs one worker process per usable CPU (taskset limits them)")

    p_sweep = sub.add_parser("sweep", parents=[common, grid], help="margin curve over p = k/p_den")
    p_sweep.add_argument("--n", type=_integer, required=True)
    p_sweep.add_argument("--function", required=True)

    p_red = sub.add_parser("reduce-check", parents=[common, point],
                           help="subcube MI on n variables vs single-one MI on r")
    p_red.add_argument("--n", type=_integer, required=True)
    p_red.add_argument("--r", type=_integer, required=True)

    return parser


def _cmd_compute(args) -> tuple[str, bool]:
    # only --table, lex and --dump-joint read a table; any other class reduces its histogram
    if args.table:
        with open(args.table) as fh:
            table = TruthTable.from_json(fh.read())
        if args.n is not None and args.n != table.n:
            raise ValueError(f"--n {args.n} disagrees with table file (n={table.n})")
    elif args.n is None:
        raise ValueError("--n is required with --function")
    else:
        cls = parse_class_spec(args.function)
        hist = profile_histogram(args.n, cls)  # judges (n, cls) before any mask is built
        table = make_class(args.n, cls) if hist is None or args.dump_joint else None
    if table is None:
        result = histogram_mutual_information(hist, args.p)
    else:
        from .channel import joint_yz

        joint = joint_yz(table, args.p)
        if args.dump_joint:
            joint.write_csv(args.dump_joint)
        result = mutual_information(joint)
    return _json_text(vars(result)), margin_passes(result.margin_bits)


def _cmd_verify(args) -> tuple[str, bool]:
    if args.n_max > MAX_N:
        raise ValueError(f"--n-max must be at most {MAX_N}, got {args.n_max}")
    if args.n_min > args.n_max:
        raise ValueError(f"--n-min {args.n_min} is greater than --n-max {args.n_max}")
    grid = _grid(args)
    reports = []
    for cls, n_range in _expand_class_specs(args.classes, args.n_min, args.n_max):
        reports.extend(verify_class(cls, n_range, grid))
    text = reports_to_json(reports) if args.format == "json" else reports_to_csv(reports)
    return text, all(r.status == "pass" for r in reports)


def _cmd_karamata(args) -> tuple[str, bool]:
    # a single --p emits its certificate bare; a grid wraps them all
    if args.p is None and args.dump_sums:
        raise ValueError("--dump-sums needs a single --p")
    entries = []
    for p in _grid(args):
        cert = certify(args.n, p)
        if args.dump_sums:
            write_prefix_sums(args.n, p, args.dump_sums)
        entries.append({"n": args.n, "p": str(p), **vars(cert)})
    doc = entries[0] if args.p is not None else {"version": 1, "certificates": entries}
    return _json_text(doc), all(e["holds"] for e in entries)


def _cmd_exhaustive(args) -> tuple[str, bool]:
    summaries = exhaustive_check(args.n, _grid(args))
    text = summaries_to_json(summaries) if args.format == "json" else summaries_to_csv(summaries)
    return text, all(margin_passes(s.max_margin) for s in summaries)


def _cmd_sweep(args) -> tuple[str, bool]:
    reports = verify_class(parse_class_spec(args.function), [args.n], _grid(args))
    text = _csv_text(["p", "mi_bits", "bound_bits", "margin_bits"], map(report_to_dict, reports))
    return text, all(r.status == "pass" for r in reports)


def _cmd_reduce_check(args) -> tuple[str, bool]:
    # the verdict is the exact comparison's; the floats are only reported
    mi_full, mi_reduced, identical = class3_reduction_check(args.n, args.r, args.p)
    doc = {"mi_full": mi_full, "mi_reduced": mi_reduced, "abs_diff": abs(mi_full - mi_reduced)}
    return _json_text(doc), identical


# each command returns (report text, whether every check passed)
_COMMANDS = {
    "compute": _cmd_compute,
    "verify": _cmd_verify,
    "karamata": _cmd_karamata,
    "exhaustive": _cmd_exhaustive,
    "sweep": _cmd_sweep,
    "reduce-check": _cmd_reduce_check,
}


def main(argv=None) -> int:
    # the one place that writes the report and maps its verdict to an exit code
    try:
        args = _build_parser().parse_args(argv)
        text, ok = _COMMANDS[args.command](args)
        _emit(text, args.out)
    except (ValueError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            _to_devnull(sys.stdout)
        try:
            print(f"mi: error: {exc}", file=sys.stderr, flush=True)
        except BrokenPipeError:  # stderr shares stdout's closed pipe: the line has nowhere to go
            _to_devnull(sys.stderr)
        return 2
    return 0 if ok else 1


def _to_devnull(stream) -> None:
    """Point a stream that hit a closed pipe at devnull, so the flush at exit cannot fail (exit 120).

    This is the Python documentation's remedy for EPIPE.
    """
    try:
        fd = stream.fileno()
    except OSError:  # io.UnsupportedOperation: no descriptor behind the stream, nothing to flush at exit
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
