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

from . import bounds, kron, oracle
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


def _fmt(x):
    return "" if x is None else f"{x:.17g}"


def _write_csv(path, header, rows):
    """Write CSV to ``path``, or to standard output when it is None.  No
    cell needs quoting: the header is plain words, the cells are numbers
    or empty."""
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", newline="")) as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join([_fmt(c) for c in row]) + "\r\n"
                      for row in rows)


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
    """Rows (k, oracle, bound) of the presets no comparison class covers:
    the shifted exponential and the closed-form inverse square root."""
    M = make_test_matrix(matrix_kind, _N)
    iv = spectral_interval(M)
    t, tau, beta = _T, _TAU, M.beta
    if figure_id == "fig1-exp":
        f = lambda x: np.exp(-tau * (x - iv.lambda_min))
        shifted = SpectralInterval(0.0, iv.lambda_max - iv.lambda_min)
    else:
        f = lambda x: x ** -0.5
    floor = oracle.oracle_floor(M, f)
    col = np.abs(oracle.function_column(M, f, t))
    rows = []
    for k in range(1, _N + 1):
        b, d = None, abs(k - t) / beta
        if figure_id == "fig1-exp":
            if col[k - 1] < floor:
                continue
            if k != t and d >= math.sqrt(4.0 * shifted.rho * tau):
                b = bounds.exp_entry_bound(shifted, tau, d)
        elif k != t:
            b = bounds.invsqrt_closed_bound(iv, d, diag_max=M.diagonal_max())
        rows.append((k, float(col[k - 1]), b))
    return rows, floor


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
        rows, floor = _closed_form_rows(figure_id, matrix_kind)
        header = ("k", "oracle", "bound")
        summary = dict(_ratio_stats([(b, o) for _, o, b in rows], floor),
                       converged=True, nonconverged=[],
                       max_relative_error_estimate=0.0,
                       oracle_floor=floor)
    elif _DRIVER_PRESETS[figure_id][0] == "compare":
        M = make_test_matrix(matrix_kind, _N)
        summary, _, out = run_compare(M, _T, *_DRIVER_PRESETS[figure_id][1:],
                                      quad_tol=quad_tol)
        header = ("k", "oracle", "bound")
        rows = [(k, o, b) for k, _, b, o, _ in out]
    else:
        M = make_test_matrix(matrix_kind, _FACTOR_N)
        summary, _, out = run_kron_compare(
            KroneckerSum(factors=(M, M)), _T_KRON,
            *_DRIVER_PRESETS[figure_id][1:], quad_tol=quad_tol)
        header = ("k", "k1", "k2", "oracle", "bound")
        # the extended bounds of rows below the stated validity are blanked
        rows = [(k, k1, k2, o, b if min(d1, d2) >= 2.0 else None)
                for k, k1, k2, d1, d2, b, o in out]
        summary.update(_ratio_stats([(r[-1], r[-2]) for r in rows],
                                    summary["oracle_floor"]))
    _write_csv(out_path, header, rows)
    summary.update(figure_id=figure_id, matrix_kind=matrix_kind, rows=len(rows))
    return summary


def resolve_function(name, klass, tau, zeta):
    """Map (--function, --class) to (scalar oracle function, bound kind,
    measure).  The oracle function of a resolvent with zeta != 0 is the
    shifted inverse 1/(x - i zeta).  ``tau`` is None unless given; --class
    exp then takes tau = 1.  Raises ValueError on contradictory
    combinations, among them a nonzero --zeta outside --class resolvent and
    a --tau outside --class exp."""
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
            return (lambda x: 1.0 / x), "resolvent", None
        shift = 1j * zeta
        return (lambda x: 1.0 / (x - shift)), "resolvent", None
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
            return (lambda x: 1.0 / x), "demko", None
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


def run_compare(M, t, function, klass, *, tau=None, zeta=0.0,
                distance_mode="band", drop_tol=0.0, quad_tol=1e-8,
                max_panels=10000):
    """Bound/oracle comparison for one column; returns (summary, header,
    rows) with CSV columns ``k,distance,bound,oracle,ratio``.

    Every bound depends on the row only through its distance, so the
    column's distinct distances are collected first and evaluated in one
    call (one lockstep quadrature for the quadrature classes), each value
    shared by all rows at that distance; the summary's convergence figures
    come from one quadrature report per distinct distance.  Dominance violations are
    counted against oracle entries at or above the dense oracle's
    resolution floor; smaller entries are rounding noise (see
    :func:`decaybounds.oracle.oracle_floor`).
    """
    n, beta = M.n, M.beta
    if distance_mode == "band" and beta < 1:
        raise ValueError("band distances need bandwidth >= 1 and the matrix "
                         "is diagonal; use --distance graph")
    f, kind, measure = resolve_function(function, klass, tau, zeta)
    tau = 1.0 if tau is None else tau
    iv = spectral_interval(M)
    col = np.abs(oracle.function_column(M, f, t))
    floor = oracle.oracle_floor(M, f)
    dist = geodesic_from(M, t, drop_tol=drop_tol) if distance_mode == "graph" else None

    # The kind's bounds at a list of distances: numbers, quadrature
    # reports, or None where the bound is not stated.  Only row t has d = 0.
    if kind == "exp":
        entries = lambda ds: [bounds.exp_entry_bound(iv, tau, d) if d > 0
                              else None for d in ds]
    elif kind == "demko" or (kind == "resolvent" and zeta == 0.0):
        diag_max = M.diagonal_max()
        entries = lambda ds: [bounds.demko_bound(iv, d, diag_max=diag_max)
                              for d in ds]
    elif kind == "resolvent":
        entries = lambda ds: [bounds.freund_resolvent_bound(iv, zeta, d)
                              if d > 0 else None for d in ds]
    elif kind == "laplace":
        def entries(ds):
            stated = [d for d in ds if d >= 2.0]
            found = dict(zip(stated, bounds.laplace_bounds(
                iv, measure, stated, quad_tol=quad_tol, max_panels=max_panels)))
            return [found.get(d) for d in ds]
    else:
        entries = lambda ds: bounds.cauchy_bounds(
            iv, measure, ds, quad_tol=quad_tol, max_panels=max_panels)

    ds = [dist[k] if dist is not None else abs(k - t) / beta
          for k in range(1, n + 1)]
    distinct = list(dict.fromkeys(d for d in ds if not math.isinf(d)))
    at_distance = dict(zip(distinct, entries(distinct)))
    rows = []
    for k, d in enumerate(ds, start=1):
        o = float(col[k - 1])
        if math.isinf(d):
            rows.append((k, None, None, o, None))
            continue
        b = at_distance[d]
        if isinstance(b, bounds.DecayBoundReport):
            b = b.bound
        ratio = (b / o) if (b is not None and o > 0) else None
        rows.append((k, d, b, o, ratio))
    reports = [r for r in at_distance.values()
               if isinstance(r, bounds.DecayBoundReport)]
    header = ("k", "distance", "bound", "oracle", "ratio")
    summary = _summary([(r[2], r[3]) for r in rows], floor, reports, len(rows))
    return summary, header, rows


def run_kron_compare(A, t, function, klass, *, tau=None, quad_tol=1e-8,
                     max_panels=10000):
    """Kronecker-sum comparison; returns (summary, header, rows) with CSV
    columns ``k,k1,...,d1,...,bound,oracle``.

    Every bound depends on the row only through its ordered tuple of
    per-factor distances, so the column's distinct tuples are collected
    first and evaluated in one call, each value shared by all rows with
    that tuple; (d1, d2) and (d2, d1) are different tuples.  The summary's convergence figures come from one
    report per distinct tuple.
    """
    f, kind, measure = resolve_function(function, klass, tau, 0.0)
    tau = 1.0 if tau is None else tau
    ivs = tuple(spectral_interval(m) for m in A.factors)
    nfac = len(A.factors)
    if kind == "exp":
        evaluate = lambda dss: [kron.exp_kron_bound(ivs, tau, ds) for ds in dss]
    elif kind in ("laplace", "cauchy"):
        bound = (kron.laplace_kron_bounds if kind == "laplace"
                 else kron.cauchy_kron_bounds)
        evaluate = lambda dss: bound(ivs, measure, dss, quad_tol=quad_tol,
                                     max_panels=max_panels)
    else:
        raise ValueError(f"--class {klass} --function {function} is not "
                         "available for Kronecker sums")
    col = np.abs(oracle.function_column(A, f, t))
    floor = oracle.oracle_floor(A, f)
    # the diagonal entry of exp is not covered by the bound
    ds = [None if k == t and kind == "exp" else kron._component_distances(A, k, t)
          for k in range(1, A.total_order + 1)]
    distinct = list(dict.fromkeys(d for d in ds if d is not None))
    at_distances = dict(zip(distinct, evaluate(distinct)))
    rows = []
    for k, d in enumerate(ds, start=1):
        km = A.delinearize(k)
        if d is None:
            rows.append((k, *km, *(0.0,) * nfac, None, float(col[k - 1])))
        else:
            rows.append((k, *km, *d, at_distances[d].bound, float(col[k - 1])))
    header = (["k"] + [f"k{i+1}" for i in range(nfac)]
              + [f"d{i+1}" for i in range(nfac)] + ["bound", "oracle"])
    summary = _summary([(r[-2], r[-1]) for r in rows], floor,
                       list(at_distances.values()), len(rows))
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
    F = oracle.matrix_function(A, f).tolist()
    n = A.total_order
    rows = [(i, j, value) for i, line in enumerate(F, start=1)
            for j, value in enumerate(line, start=1)]
    _write_csv(out_path, ("i", "j", "value"), rows)
    return {"rows": len(rows), "order": n}
