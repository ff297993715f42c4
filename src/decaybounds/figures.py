"""Figure presets and bound/oracle comparison runs.

Each preset pins a matrix, a function and a column and emits CSV plot data
with the exact (dense-oracle) column next to the bound.  Comparison runs
additionally report dominance statistics.  All CSV output is RFC-4180
with a header row and 17 significant digits, and is byte-deterministic.
"""

from __future__ import annotations

import contextlib
import math
import sys

import numpy as np

from . import bounds, oracle
from .graphdist import geodesic_from
from .matrices import (KroneckerSum, SpectralInterval, banded_from_stencil,
                       make_test_matrix, spectral_interval)
from .measures import cauchy_catalog, laplace_catalog

FIGURE_IDS = (
    "fig1-exp",
    "fig2-ls-invsqrt",
    "fig3-ls-phi1",
    "fig4-cs-invsqrt",
    "fig6-kron-phi1",
    "fig7-kron-invsqrt",
)

_DOMINANCE_SLACK = 1e-10


# The presets' standard desk-scale configuration: single matrices of order
# 200, column 127, tau = 4; Kronecker sums of two order-20 factors, column 94.
_N, _T, _TAU = 200, 127, 4.0
_FACTOR_N, _T_KRON = 20, 94


def _write_csv(path, header, rows=(), lines=()):
    """Write CSV to ``path``, or to standard output when it is None: the
    header, ``rows`` (tuples of numbers or None) and then ``lines``, text
    already formatted.  No cell needs quoting: the header is plain words,
    the cells are numbers or empty."""
    template = ",".join(["%.17g"] * len(header)) + "\r\n"

    def line(row):
        try:
            return template % row
        except TypeError:  # an empty cell
            return ",".join(["" if c is None else "%.17g" % c
                             for c in row]) + "\r\n"

    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", newline="")) as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(map(line, rows))
        fh.writelines(lines)


def _ratio_stats(pairs, floor):
    """Dominance statistics over rows where the oracle is resolved."""
    ratios = []
    violations = 0
    for b, o in pairs:
        if b is None or o < floor:
            continue
        if b < o * (1.0 - _DOMINANCE_SLACK):
            violations += 1
        if o > 0:
            ratios.append(b / o)
    return {
        "resolved": len(ratios),
        "violations": violations,
        "ratio_min": min(ratios) if ratios else None,
        "ratio_median": float(np.median(ratios)) if ratios else None,
        "ratio_max": max(ratios) if ratios else None,
    }


# Quadrature presets are argument sets for the comparison drivers:
# (driver, --function, --class).
_DRIVER_PRESETS = {
    "fig2-ls-invsqrt": ("compare", "inv_sqrt", "laplace"),
    "fig3-ls-phi1": ("compare", "phi1", "laplace"),
    "fig6-kron-phi1": ("kron", "phi1", "laplace"),
    "fig7-kron-invsqrt": ("kron", "inv_sqrt", "cauchy"),
}


def _closed_form_rows(figure_id, matrix_kind):
    """Summary and rows (k, oracle, bound) of the presets no comparison
    class covers: the shifted exponential and the closed-form M^{-1/2}."""
    M = make_test_matrix(matrix_kind, _N)
    iv = spectral_interval(M)
    keys = [ds if ds[0] > 0 else None for ds in _distances(M, _T)]
    if figure_id == "fig1-exp":
        # exp(-tau (M - lambda_min)): one factor with spectrum in
        # [0, lambda_max - lambda_min], stated where the report is valid
        f = lambda x: np.exp(-_TAU * (x - iv.lambda_min))
        shifted = SpectralInterval(0.0, iv.lambda_max - iv.lambda_min)
        bounds_at = lambda dss: [r.bound if r.valid else None for r in
                                 bounds.exp_bounds((shifted,), _TAU, dss)]
    else:
        f = lambda x: x ** -0.5
        diag_max = M.diagonal_max()
        bounds_at = lambda dss: [bounds.invsqrt_closed_bound(
            iv, d, diag_max=diag_max) for d, in dss]
    col, bs, summary = _column(M, _T, f, keys, bounds_at)
    rows = [(k, o, b) for k, (o, b) in enumerate(zip(col, bs), start=1)
            if figure_id != "fig1-exp" or o >= summary["oracle_floor"]]
    return summary, rows


def run_figure(figure_id, matrix_kind, out_path, quad_tol):
    """Write the preset's CSV and return dominance/convergence summary.

    Rows where the bound's stated validity precondition fails carry an
    empty bound cell; for the exponential preset, rows whose oracle entry
    falls below the oracle resolution floor are omitted entirely.
    The quadrature presets run through :func:`run_compare` or
    :func:`run_kron_compare` and keep the columns k[, k1, k2], oracle,
    bound.
    """
    if figure_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {figure_id!r}; "
                         f"known: {', '.join(FIGURE_IDS)}")
    if figure_id not in _DRIVER_PRESETS:
        summary, rows = _closed_form_rows(figure_id, matrix_kind)
        header = ("k", "oracle", "bound")
    elif _DRIVER_PRESETS[figure_id][0] == "compare":
        M = make_test_matrix(matrix_kind, _N)
        summary, _, out = run_compare(M, _T, *_DRIVER_PRESETS[figure_id][1:],
                                      quad_tol=quad_tol)
        header = ("k", "oracle", "bound")
        rows = [(k, o, b) for k, _, b, o, _ in out]
    else:
        M = make_test_matrix(matrix_kind, _FACTOR_N)
        # rows below the stated validity d_L >= 2 get no bound
        summary, _, out = run_kron_compare(
            KroneckerSum(factors=(M, M)), _T_KRON,
            *_DRIVER_PRESETS[figure_id][1:], quad_tol=quad_tol,
            least_distance=2.0)
        header = ("k", "k1", "k2", "oracle", "bound")
        rows = [(k, k1, k2, o, b) for k, k1, k2, _, _, b, o in out]
    _write_csv(out_path, header, rows)
    summary.update(figure_id=figure_id, matrix_kind=matrix_kind, rows=len(rows))
    return summary


def resolve_function(name, klass, tau, zeta):
    """Map (--function, --class) to (scalar oracle function, bound kind,
    measure).  The oracle function of the ``demko`` and ``resolvent``
    kinds is a :class:`decaybounds.oracle.ShiftedInverse`, 1/x or 1/(x -
    i zeta), whose column the oracle takes from one banded solve.
    ``tau`` is None unless given; --class exp then takes tau = 1.  Raises
    ValueError on contradictory combinations, among them a nonzero --zeta
    outside --class resolvent and a --tau outside --class exp."""
    if zeta != 0.0 and klass != "resolvent":
        raise ValueError("--zeta applies only to --class resolvent")
    if tau is not None and klass != "exp":
        raise ValueError("--tau applies only to --class exp")
    if klass == "exp":
        if name not in (None, "exp"):
            raise ValueError(f"--class exp is the pure exponential bound; "
                             f"--function {name} contradicts it")
        tau = 1.0 if tau is None else tau
        return (lambda x: np.exp(-tau * x)), "exp", None
    if klass == "resolvent":
        if name not in (None, "inv"):
            raise ValueError("--class resolvent bounds the (shifted) inverse; "
                             f"--function {name} contradicts it")
        if zeta == 0.0:
            return oracle.ShiftedInverse(0.0), "demko", None
        return oracle.ShiftedInverse(1j * zeta), "resolvent", None
    if klass in ("laplace", "cauchy") and name is None:
        raise ValueError(f"--class {klass} needs --function")
    if klass == "laplace":
        measure = laplace_catalog(name)
        if not measure.has_representation:
            raise ValueError(f"function {name!r} is a catalog stub without a "
                             "stored density; no Laplace-class bound available")
        return measure.closed_form, "laplace", measure
    if klass == "cauchy":
        if name == "inv":
            # 1/x is the Markov function of a unit mass at 0: the bound is
            # exactly the resolvent constant times q^d.
            return oracle.ShiftedInverse(0.0), "demko", None
        measure = cauchy_catalog(name)
        return measure.closed_form, "cauchy", measure
    raise ValueError(f"unknown class {klass!r}")


def _summary(pairs, floor, reports, nrows):
    """Dominance statistics plus convergence over the quadrature reports;
    ``nonconverged`` lists the sorted distances whose report did not
    converge."""
    summary = _ratio_stats(pairs, floor)
    nonconverged = sorted(r.distance for r in reports if not r.converged)
    summary.update(
        rows=nrows, converged=not nonconverged, nonconverged=nonconverged,
        max_relative_error_estimate=max(
            (r.error_estimate / r.bound for r in reports if r.bound > 0),
            default=0.0),
        oracle_floor=floor)
    return summary


def _distances(A, t, mode="band"):
    """Per-factor distances of every entry (k, t) of column t: a list of
    tuples, row k at index k - 1; a single matrix is the one-factor case.
    Band distances are |k_L - t_L| / beta_L; graph distances (single
    matrices only) are breadth-first distances in the sparsity-pattern
    graph, inf at an unreachable row."""
    if mode == "graph":
        return [(d,) for d in geodesic_from(A, t).tolist()]
    if isinstance(A, KroneckerSum):
        factors, km = A.factors, A.multi_indices
    else:
        factors, km = (A,), np.arange(1, A.n + 1)[:, None]
    if any(f.beta < 1 for f in factors):
        raise ValueError("band distances need bandwidth beta >= 1 in every "
                         "factor; a diagonal matrix has graph distances only "
                         "(compare --distance graph)")
    d = abs(km - km[t - 1]) / [f.beta for f in factors]
    return list(map(tuple, d.tolist()))


def _column(A, t, f, keys, bounds_at):
    """The pass behind every printed column: (|column t of f(A)|, each
    row's bound, the summary).  The oracle, one
    ``oracle.function_column`` call for the column and its floor, runs
    before any bound.  A row's bound depends on it only through its key,
    a distance or a per-factor distance tuple (None: no bound), so the
    distinct keys go to one ``bounds_at(keys)`` call, which returns
    numbers or quadrature reports.  A report that did not converge is no
    bound: its key gets None.  The summary is ``_summary``'s, over one
    row per key."""
    col, floor = oracle.function_column(A, f, t)
    col = np.abs(col).tolist()
    distinct = list(dict.fromkeys(k for k in keys if k is not None))
    found = bounds_at(distinct)
    reports = [r for r in found if isinstance(r, bounds.DecayBoundReport)]
    values = dict(zip(distinct, (
        getattr(r, "bound", r) if getattr(r, "converged", True) else None
        for r in found)))
    bs = [values.get(k) for k in keys]
    return col, bs, _summary(zip(bs, col), floor, reports, len(keys))


def run_compare(M, t, function, klass, *, tau=None, zeta=0.0,
                distance_mode="band", quad_tol=1e-8):
    """Bound/oracle comparison for one column; returns (summary, header,
    rows) with CSV columns ``k,distance,bound,oracle,ratio``.

    Every bound depends on the row only through its distance, so the
    column's distinct distances are evaluated in one call (one lockstep
    quadrature for the quadrature classes), each value shared by all rows
    at that distance; the summary's convergence figures come from one
    quadrature report per distinct distance.  Dominance violations are
    counted against oracle entries at or above the oracle's resolution
    floor; smaller entries are rounding noise (see
    :func:`decaybounds.oracle.function_column`).

    The enclosure is :func:`decaybounds.matrices.spectral_interval`'s.
    The oracle column is :func:`decaybounds.oracle.function_column`'s,
    which picks its own route from f: one banded solve for the shifted
    inverse of ``demko`` and ``resolvent``, else a Lanczos column.
    Neither forms a dense matrix unless the Lanczos column falls back to
    a dense eigensolve.
    """
    ds = [d for d, in _distances(M, t, distance_mode)]
    f, kind, measure = resolve_function(function, klass, tau, zeta)
    tau = 1.0 if tau is None else tau
    iv = spectral_interval(M)
    if kind == "exp":
        bounds_at = lambda ds: bounds.exp_bounds((iv,), tau, [(d,) for d in ds])
    elif kind == "demko":
        diag_max = M.diagonal_max()
        if not iv.is_positive_definite:
            # the bound's own message, before a solve that may be singular
            bounds.demko_bound(iv, 0.0, diag_max=diag_max)
        bounds_at = lambda ds: [bounds.demko_bound(iv, d, diag_max=diag_max)
                                for d in ds]
    elif kind == "resolvent":
        bounds_at = lambda ds: [bounds.freund_resolvent_bound(iv, zeta, d)
                                for d in ds]
    elif kind == "laplace":
        bounds_at = lambda ds: bounds.laplace_bounds(
            (iv,), measure, [(d,) for d in ds], quad_tol=quad_tol)
    else:
        bounds_at = lambda ds: bounds.cauchy_bounds(iv, measure, ds,
                                                    quad_tol=quad_tol)
    # No bound at an unreachable row, at d = 0 (row t) for exp and the
    # shifted resolvent, nor below the stated d >= 2 of the Laplace class.
    least = 2.0 if kind == "laplace" else 0.0
    keys = [None if math.isinf(d) or d < least
            or (d == 0 and kind in ("exp", "resolvent")) else d for d in ds]
    col, bs, summary = _column(M, t, f, keys, bounds_at)
    rows = [(k, None if math.isinf(d) else d, b, o,
             b / o if b is not None and o > 0 else None)
            for k, (d, b, o) in enumerate(zip(ds, bs, col), start=1)]
    header = ("k", "distance", "bound", "oracle", "ratio")
    return summary, header, rows


def run_kron_compare(A, t, function, klass, *, tau=None, quad_tol=1e-8,
                     least_distance=0.0):
    """Kronecker-sum comparison; returns (summary, header, rows) with CSV
    columns ``k,k1,...,d1,...,bound,oracle``.

    Every bound depends on the row only through its ordered tuple of
    per-factor distances, so the column's distinct tuples are evaluated in
    one call, each value shared by all rows with that tuple; (d1, d2) and
    (d2, d1) are different tuples.  The summary's convergence figures come
    from one report per distinct tuple.  A row with a per-factor distance
    below ``least_distance`` gets no bound (the figure presets: the
    paper's d_L >= 2).
    """
    ds = _distances(A, t)
    f, kind, measure = resolve_function(function, klass, tau, 0.0)
    tau = 1.0 if tau is None else tau
    ivs = tuple(spectral_interval(m) for m in A.factors)
    if kind == "exp":
        bounds_at = lambda dss: bounds.exp_bounds(ivs, tau, dss)
    elif kind in ("laplace", "cauchy"):
        # a Markov function is completely monotonic: its transform is the
        # density of the same envelope integral
        if kind == "cauchy":
            measure = measure.as_laplace()
        bounds_at = lambda dss: bounds.laplace_bounds(ivs, measure, dss,
                                                      quad_tol=quad_tol)
    else:
        raise ValueError(f"--class {klass} --function {function} is not "
                         "available for Kronecker sums")
    # the diagonal entry of exp is not covered
    keys = [None if (kind == "exp" and k == t) or min(d) < least_distance
            else d for k, d in enumerate(ds, start=1)]
    col, bs, summary = _column(A, t, f, keys, bounds_at)
    rows = [(k, *km, *d, b, o) for k, (km, d, b, o)
            in enumerate(zip(A.multi_indices.tolist(), ds, bs, col), start=1)]
    header = (["k"] + [f"k{i+1}" for i in range(len(ivs))]
              + [f"d{i+1}" for i in range(len(ivs))] + ["bound", "oracle"])
    return summary, header, rows


def run_surface(function, tau, grid_n, out_path):
    """Full-matrix dump ``i,j,value`` of f(A) for A the Kronecker sum of
    the 1-D second-difference matrix with itself (the standard 5-point grid
    operator), for external surface plotting."""
    T = banded_from_stencil((-1.0, 2.0, -1.0), grid_n)
    A = KroneckerSum(factors=(T, T))
    if function == "exp":
        f = lambda x: np.exp(-tau * x)
    elif function == "inv_sqrt":
        f = lambda x: x ** -0.5
    else:
        raise ValueError(f"unknown surface function {function!r}")
    F = oracle.matrix_function(A, f)
    _write_csv(out_path, ("i", "j", "value"), lines=_matrix_lines(F))
    return {"rows": F.size, "order": len(F)}


def _matrix_lines(F):
    """Lazy CSV lines ``i,j,value``, one matrix row per item, of the float
    matrix F: each distinct double (bit pattern, so -0.0 and each NaN
    apart) is formatted once by the per-cell ``%.17g``, and each row is
    assembled by one template."""
    n = len(F)
    bits = np.ascontiguousarray(F, dtype=float).view(np.int64)
    bits, where = np.unique(bits, return_inverse=True)
    text = ",".join(["%.17g"] * bits.size) % tuple(bits.view(float).tolist())
    text = np.array(text.split(","), dtype=object)
    parts = [f",{j},%s\r\n" for j in range(1, n + 1)]
    for i, row in enumerate(text[where.reshape(n, n)].tolist(), start=1):
        yield (str(i) + str(i).join(parts)) % tuple(row)
