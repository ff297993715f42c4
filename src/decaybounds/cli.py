"""Command-line front end.

Subcommands: ``bound`` (single-matrix bound vs oracle CSV), ``kron``
(Kronecker-sum column CSV), ``oracle`` (exact column CSV), ``figure``
(bundled presets), ``compare`` (CSV plus dominance summary, optional
self-check) and ``surface`` (full-matrix dump of a grid-operator
function).

Exit codes: 0 success, 1 usage error, 2 numerical failure (a quadrature
did not converge; one stderr line names the distances), 3 dominance
violation detected in self-check mode.
:func:`main` is the one place that turns an input error (``ValueError``,
which ``UsageError`` and ``MatrixFormatError`` subclass, or an ``OSError``
such as a missing matrix file or an ``--out`` path that is a directory)
into exit 1.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

import numpy as np

from . import figures, oracle
from .figures import FIGURE_IDS
from .matrices import KroneckerSum, parse_matrix_spec


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-1e1", "-inf" or "-nan" for an option, not a
        # value, unless this pattern matches it: widen it to float's forms
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)

    def error(self, message):
        raise UsageError(message)


# The bound quadrature has a relative tolerance only, and below 50 eps none
# can be met: QUADPACK's floor for epsrel when epsabs <= 0
# (scipy.integrate.quad rejects smaller ones).
_QUAD_TOL_FLOOR = 50 * np.finfo(float).eps


def _positive_number(text):
    """argparse type of the quadrature tolerance: a finite float of at
    least ``_QUAD_TOL_FLOOR`` (a smaller tolerance, or nan, never stops
    refining)."""
    value = float(text)
    if not (math.isfinite(value) and value >= _QUAD_TOL_FLOOR):
        raise argparse.ArgumentTypeError(
            f"must be finite and >= {_QUAD_TOL_FLOOR:.3g}, got {text}")
    return value


def _finite_number(text):
    """argparse type of --tau and --zeta: a finite float (exp(-inf x) is
    an all-zero column, and 1j * inf is nan + inf j)."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


# argparse: "invalid float value: ..."
_positive_number.__name__ = _finite_number.__name__ = "float"


def _add_matrix_flags(p):
    p.add_argument("--matrix", required=True,
                   help="generator (tridiag, pentadiag, tridiag:a,b,c, "
                        "pentadiag:a,b,c,d,e) or a Matrix Market file path")
    p.add_argument("--n", type=int, default=200,
                   help="matrix order for generators (default 200)")


def _add_common_flags(p):
    p.add_argument("--quad-tol", type=_positive_number, default=1e-8,
                   help="quadrature tolerance (default 1e-8)")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")


def build_parser():
    parser = _Parser(prog="decay",
                     description="Entrywise decay bounds for Hermitian matrix "
                                 "functions, with exact-oracle comparison")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("bound", "compare"):
        p = sub.add_parser(name, help="bound vs oracle for one column")
        _add_matrix_flags(p)
        p.add_argument("--function", default=None,
                       help="inv | exp | phi1 | inv_sqrt | inv_pow:s | "
                            "log1p_inv | expsqrt:t | log1p_over_z")
        p.add_argument("--class", dest="klass", required=True,
                       choices=("laplace", "cauchy", "exp", "resolvent"))
        p.add_argument("--tau", type=_finite_number, default=None,
                       help="--class exp only: exp(-tau M) (default 1)")
        p.add_argument("--zeta", type=_finite_number, default=0.0)
        p.add_argument("--column", type=int, required=True)
        p.add_argument("--distance", choices=("band", "graph"), default="band")
        _add_common_flags(p)
        if name == "compare":
            p.add_argument("--self-check", action="store_true",
                           help="exit 3 if any dominance violation is found")

    p = sub.add_parser("kron", help="Kronecker-sum column bound vs oracle")
    p.add_argument("--factors", required=True,
                   help="comma-separated factor generators/files, e.g. "
                        "tridiag,tridiag")
    p.add_argument("--n", type=int, default=20, help="factor order (default 20)")
    p.add_argument("--function", default=None)
    p.add_argument("--class", dest="klass", required=True,
                   choices=("laplace", "cauchy", "exp"))
    p.add_argument("--tau", type=_finite_number, default=None,
                   help="--class exp only: exp(-tau M) (default 1)")
    p.add_argument("--column", required=True,
                   help="linear index t, or components k1,k2[,k3]")
    _add_common_flags(p)

    p = sub.add_parser("oracle", help="exact column of f(M)")
    _add_matrix_flags(p)
    p.add_argument("--function", required=True)
    p.add_argument("--class", dest="klass", default="laplace",
                   choices=("laplace", "cauchy", "exp", "resolvent"))
    p.add_argument("--tau", type=_finite_number, default=None,
                   help="--class exp only: exp(-tau M) (default 1)")
    p.add_argument("--zeta", type=_finite_number, default=0.0)
    p.add_argument("--column", type=int, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("figure", help="run a bundled figure preset")
    p.add_argument("figure_id", help=f"one of: {', '.join(FIGURE_IDS)}")
    p.add_argument("--matrix-kind", choices=("tridiag", "pentadiag"),
                   default="tridiag")
    p.add_argument("--quad-tol", type=_positive_number, default=1e-10)
    p.add_argument("--out", default=None,
                   help="output CSV path (default <figure-id>-<kind>.csv)")

    p = sub.add_parser("surface", help="full-matrix dump of f(grid operator)")
    p.add_argument("--function", choices=("exp", "inv_sqrt"), default="exp")
    p.add_argument("--tau", type=_finite_number, default=5.0)
    p.add_argument("--grid-n", type=int, default=10)
    p.add_argument("--out", required=True)

    return parser


def _exit_status(summary):
    """0, or 2 after one stderr line naming the first 10 distances (or
    distance tuples) whose quadrature did not converge."""
    failed = summary["nonconverged"]
    if not failed:
        return 0
    shown = ", ".join(
        f"({', '.join(f'{x:g}' for x in d)})" if isinstance(d, tuple)
        else f"{d:g}" for d in failed[:10])
    more = ", ..." if len(failed) > 10 else ""
    print(f"decay: quadrature did not converge at {len(failed)} distance(s): "
          f"{shown}{more}", file=sys.stderr)
    return 2


def _cmd_bound(args):
    M = parse_matrix_spec(args.matrix, args.n)
    if not (1 <= args.column <= M.n):
        raise UsageError(f"--column {args.column} outside 1..{M.n}")
    summary, header, rows = figures.run_compare(
        M, args.column, args.function, args.klass, tau=args.tau,
        zeta=args.zeta, distance_mode=args.distance, quad_tol=args.quad_tol)
    figures._write_csv(args.out, header, rows)
    if args.command == "compare":
        s = summary
        fmt = lambda v: "n/a" if v is None else f"{v:.6g}"
        print(f"# ratio min/median/max {fmt(s['ratio_min'])}/"
              f"{fmt(s['ratio_median'])}/{fmt(s['ratio_max'])} "
              f"violations {s['violations']} resolved {s['resolved']}",
              file=sys.stderr)
        if args.self_check and s["converged"] and s["violations"] > 0:
            return 3
    return _exit_status(summary)


def _cmd_kron(args):
    # one object per distinct spec: a repeated factor shares its cached
    # enclosure and is solved once in the eigendecomposition
    specs = args.factors.split(",")
    parsed = {s: parse_matrix_spec(s, args.n) for s in dict.fromkeys(specs)}
    factors = tuple(parsed[s] for s in specs)
    try:
        A = KroneckerSum(factors=factors)
        if "," in args.column:
            t = A.linearize(tuple(int(c) for c in args.column.split(",")))
        else:
            t = int(args.column)
            if not (1 <= t <= A.total_order):
                raise UsageError(f"--column {t} outside 1..{A.total_order}")
    except IndexError as exc:
        raise UsageError(str(exc)) from exc
    summary, header, rows = figures.run_kron_compare(
        A, t, args.function, args.klass, tau=args.tau, quad_tol=args.quad_tol)
    figures._write_csv(args.out, header, rows)
    return _exit_status(summary)


def _cmd_oracle(args):
    M = parse_matrix_spec(args.matrix, args.n)
    if not (1 <= args.column <= M.n):
        raise UsageError(f"--column {args.column} outside 1..{M.n}")
    f, _, _ = figures.resolve_function(args.function, args.klass, args.tau,
                                       args.zeta)
    col, _ = oracle.function_column(M, f, args.column)
    # a complex column prints its modulus, by the np.abs that compare uses
    values = col if np.isrealobj(col) else np.abs(col)
    rows = list(enumerate(values.tolist(), start=1))
    figures._write_csv(args.out, ("k", "value"), rows)
    return 0


def _cmd_figure(args):
    out = args.out or f"{args.figure_id}-{args.matrix_kind}.csv"
    summary = figures.run_figure(args.figure_id, args.matrix_kind, out,
                                 args.quad_tol)
    print(f"# wrote {out}: rows {summary['rows']} violations "
          f"{summary['violations']} (resolved {summary['resolved']})",
          file=sys.stderr)
    return _exit_status(summary)


def _cmd_surface(args):
    figures.run_surface(args.function, args.tau, args.grid_n, args.out)
    return 0


_COMMANDS = {"bound": _cmd_bound, "compare": _cmd_bound, "kron": _cmd_kron,
             "oracle": _cmd_oracle, "figure": _cmd_figure,
             "surface": _cmd_surface}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"decay: error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"decay: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
