"""Output check for one benchmark job, run after the timed region.

A job passes when its command exited 0, its CSV has the expected header
and row count, no bound cell falls below its oracle cell at or above the
oracle resolution floor, and every cell matches the committed reference:

* bound cells from adaptive quadrature within ``QUAD_FACTOR`` times the
  job's ``--quad-tol``, relative;
* closed-form bound cells within ``CLOSED_RTOL``, relative;
* oracle cells at or above the floor within ``CLOSED_RTOL`` relative plus
  the oracle's own rounding level (floor / 100, see
  ``decaybounds.oracle.oracle_floor``).

Bounds sit 1e2 to 1e5 above the oracle, so dominance alone would pass a
fast path that under-integrates; the reference comparison catches it.
Surface dumps carry no bounds and are compared with f(A) assembled from
the analytic eigenpairs of the 1-D second-difference matrix instead.
"""

from __future__ import annotations

import csv
import math

import numpy as np

QUAD_FACTOR = 10.0
CLOSED_RTOL = 1e-12
DOMINANCE_SLACK = 1e-10      # the slack decaybounds.figures uses itself

# (bound column, oracle column) in each CSV layout
_COLUMNS = {"compare": (2, 3), "figure": (-1, -2), "kron": (-2, -1)}


def _cell(text):
    return math.nan if text == "" else float(text)


def read_cells(path, layout):
    """Header, bound cells and oracle cells of a bound CSV (NaN = empty)."""
    bcol, ocol = _COLUMNS[layout]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = ",".join(rows[0])
    bound = np.array([_cell(r[bcol]) for r in rows[1:]], dtype=float)
    oracle = np.array([_cell(r[ocol]) for r in rows[1:]], dtype=float)
    return header, bound, oracle


def make_reference(path, layout, floor):
    """Reference arrays for one job: oracle cells below the floor are
    rounding noise and stored as NaN."""
    header, bound, oracle = read_cells(path, layout)
    oracle = np.where(np.abs(oracle) >= floor, oracle, np.nan)
    return {"header": np.array([header]), "bound": bound, "oracle": oracle,
            "floor": np.array([floor])}


def check_bounds(path, job, ref):
    """Return (failure reason or None, non-empty bound cells, ratios)."""
    header, bound, oracle = read_cells(path, job.layout)
    if header != str(ref["header"][0]):
        return f"header {header!r} != {str(ref['header'][0])!r}", 0, []
    if bound.size != ref["bound"].size:
        return f"{bound.size} rows, reference has {ref['bound'].size}", 0, []
    floor = float(ref["floor"][0])
    filled = ~np.isnan(bound)
    if not np.array_equal(filled, ~np.isnan(ref["bound"])):
        return "empty bound cells differ from the reference", 0, []
    resolved = filled & (oracle >= floor)
    bad = resolved & (bound < oracle * (1.0 - DOMINANCE_SLACK))
    if bad.any():
        return f"{int(bad.sum())} dominance violations", 0, []
    rtol = CLOSED_RTOL if job.quad_tol is None else QUAD_FACTOR * job.quad_tol
    rb = ref["bound"][filled]
    off = np.abs(bound[filled] - rb) > rtol * np.abs(rb)
    if off.any():
        i = int(np.flatnonzero(off)[0])
        return (f"{int(off.sum())} bound cells off the reference (first "
                f"{bound[filled][i]!r} vs {rb[i]!r}, rtol {rtol:g})"), 0, []
    ro = ref["oracle"]
    keep = ~np.isnan(ro)
    off = np.abs(oracle[keep] - ro[keep]) > CLOSED_RTOL * np.abs(ro[keep]) + floor / 100
    if off.any():
        return f"{int(off.sum())} oracle cells off the reference", 0, []
    ratios = (bound[resolved] / oracle[resolved])[oracle[resolved] > 0]
    return None, int(filled.sum()), ratios.tolist()


def grid_function(function, tau, m):
    """f(A) for A = T (+) T, T = tridiag(-1, 2, -1) of order m, from the
    analytic eigenpairs of T (first Kronecker index fastest)."""
    j = np.arange(1, m + 1)
    mu = 2.0 - 2.0 * np.cos(j * np.pi / (m + 1))
    v = np.sqrt(2.0 / (m + 1)) * np.sin(np.outer(j, j) * np.pi / (m + 1))
    q = np.kron(v, v)
    lam = np.add.outer(mu, mu).ravel()
    fl = np.exp(-tau * lam) if function == "exp" else lam ** -0.5
    return (q * fl) @ q.T, float(np.max(np.abs(fl)))


def check_surface(path, job):
    """Return a failure reason or None for an ``i,j,value`` dump."""
    function, tau, m = job.surface
    exact, fmax = grid_function(function, tau, m)
    n = m * m
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["i", "j", "value"] or len(rows) != n * n + 1:
        return f"surface layout: header {rows[0]}, {len(rows) - 1} rows"
    got = np.array([float(r[2]) for r in rows[1:]]).reshape(n, n)
    rounding = n * np.finfo(float).eps * fmax
    off = np.abs(got - exact) > CLOSED_RTOL * np.abs(exact) + rounding
    if off.any():
        return f"{int(off.sum())} surface cells off the analytic f(A)"
    return None
