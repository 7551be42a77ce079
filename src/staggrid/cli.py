"""Command-line front end.

Commands:

* ``classify N``: print the parity classification of the center-to-edge
  system for a grid with N edge points.
* ``to-edges``: read a centered field file, recover edges along one axis,
  write the staggered result.
* ``to-centers``: average a staggered field file back onto centers.
* ``audit N_MIN N_MAX``: run the exact-oracle self-audit over a size range.

Exit codes: 0 success, 1 audit found disagreements, 2 usage error, 3 field
file cannot be parsed, 4 strategy/parity mismatch, 5 center data is
inconsistent (no edge solution exists).  The library checks every input;
``main`` only maps its exception types to these codes.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .audit import build_audit_report, render_json, render_text
from .errors import FieldFormatError, InconsistentDataError, ParityError
from .exact import MAX_ORACLE_UNKNOWNS
from .fieldio import read_field, write_field
from .grid import DEFAULT_TOLERANCE, STRATEGIES, solvability_report
from .ndfield import to_centers_along, to_edges_along

#: Exit code of each error type, most specific first: the first match wins.
_EXIT_CODES = ((FieldFormatError, 3), (ParityError, 4), (InconsistentDataError, 5),
               (ValueError, 2), (OSError, 3))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="staggrid",
        description="Center/edge transforms on periodically staggered grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="classify the center-to-edge system for one grid size"
    )
    p_classify.add_argument("n_edges", type=int,
                            help="edge-point count N (at least 3)")
    p_classify.set_defaults(func=_cmd_classify)

    p_edges = sub.add_parser(
        "to-edges", help="recover edge values along one axis of a centered field"
    )
    p_edges.add_argument("--input", required=True, help="centered field file")
    p_edges.add_argument("--axis", type=int, required=True,
                         help="axis to transform")
    p_edges.add_argument("--n-edges", type=int, required=True,
                         help="edge-point count N of the target grid")
    p_edges.add_argument("--strategy", required=True, choices=STRATEGIES,
                         help="how to resolve each line's solution")
    p_edges.add_argument("--pin-index", type=int, default=None,
                         help="1-based edge index to pin (strategy 'pin')")
    p_edges.add_argument("--pin-value", type=float, default=None,
                         help="value for the pinned edge (strategy 'pin')")
    p_edges.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE,
                         help="relative consistency tolerance for even N "
                              f"(default {DEFAULT_TOLERANCE:g})")
    p_edges.add_argument("--output", required=True, help="staggered field file to write")
    p_edges.set_defaults(func=_cmd_to_edges)

    p_centers = sub.add_parser(
        "to-centers", help="average a staggered field back onto centers"
    )
    p_centers.add_argument("--input", required=True, help="staggered field file")
    p_centers.add_argument("--axis", type=int, required=True,
                           help="the staggered axis")
    p_centers.add_argument("--output", required=True, help="centered field file to write")
    p_centers.set_defaults(func=_cmd_to_centers)

    p_audit = sub.add_parser(
        "audit", help="cross-check parity theory against the dense exact oracle"
    )
    p_audit.add_argument("n_min", type=int, help="smallest edge count (at least 3)")
    p_audit.add_argument("n_max", type=int,
                         help=f"largest edge count (at most {MAX_ORACLE_UNKNOWNS + 2})")
    p_audit.add_argument("--format", choices=("text", "structured"), default="text",
                         help="text lines or JSON (default text)")
    p_audit.set_defaults(func=_cmd_audit)

    return parser


def _cmd_classify(args) -> int:
    report = solvability_report(args.n_edges)
    print(f"n_edges {report.n_edges}")
    print(f"n_unknowns {report.n_unknowns}")
    print(f"parity {report.parity}")
    print(f"determinant {report.determinant}")
    print(f"rank {report.rank}")
    print(f"outcome {report.outcome_class}")
    return 0


def _cmd_to_edges(args) -> int:
    field = read_field(args.input)
    result, summary = to_edges_along(
        field, args.axis, args.n_edges, args.strategy,
        tolerance=args.tol, pin_index=args.pin_index, pin_value=args.pin_value,
    )
    write_field(args.output, result)
    print(f"lines={summary.n_lines} unique={summary.unique_lines} "
          f"family={summary.family_lines} inconsistent={summary.inconsistent_lines} "
          f"max_residual={summary.max_residual!r}")
    return 0


def _cmd_to_centers(args) -> int:
    field = read_field(args.input)
    result, summary = to_centers_along(field, args.axis)
    write_field(args.output, result)
    print(f"lines={summary.n_lines}")
    return 0


def _cmd_audit(args) -> int:
    report = build_audit_report(args.n_min, args.n_max)
    rendered = render_text(report) if args.format == "text" else render_json(report)
    sys.stdout.write(rendered)
    return 0 if report.overall_pass else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse exits on usage errors (code 2) and on --help (code 0);
        # fold both into the return-an-int contract.
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
