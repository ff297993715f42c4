"""Adaptive numerical integration on finite and semi-infinite intervals.

Panel-adaptive Gauss-Kronrod (7/15 pair) with deterministic panel ordering,
a declared left-endpoint singularity substitution and geometric tail
extension.  Integrands receive a numpy array of abscissae and must return
an array of matching leading shape; vector-valued integrands (shape
``(npts, m)``) are supported, with errors measured in the max norm.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

# 15-point Kronrod abscissae (positive half) and weights; embedded 7-point
# Gauss weights for the error estimate.  Values from the standard tables.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XGK[:-1], [0.0], _XGK[-2::-1]])
_W_KRONROD = np.concatenate([_WGK[:-1], [_WGK[-1]], _WGK[-2::-1]])
_W_GAUSS = np.zeros(15)
_W_GAUSS[[1, 3, 5, 7, 9, 11, 13]] = np.concatenate([_WG[:-1], [_WG[-1]], _WG[-2::-1]])

# doubling intervals tried by integrate_semi_infinite before giving up
_MAX_INTERVALS = 200


@dataclass(frozen=True)
class QuadratureResult:
    """Value, error estimate, evaluation count and convergence flag."""

    value: object
    error_estimate: float
    evaluations: int
    converged: bool


def _norm(v):
    a = np.asarray(v)
    if a.ndim == 0:
        return abs(float(a))
    return float(np.max(np.abs(a))) if a.size else 0.0


def _panel(f, a, b):
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _NODES
    y = np.asarray(f(x), dtype=float)
    k = half * np.tensordot(_W_KRONROD, y, axes=(0, 0))
    g = half * np.tensordot(_W_GAUSS, y, axes=(0, 0))
    return k, _norm(k - g)


def _adaptive(f, a, b, atol, rtol, max_panels):
    """Globally adaptive bisection driver; deterministic (value summed in
    interval order, heap ties broken by insertion sequence)."""
    val, err = _panel(f, a, b)
    evaluations = 15
    seq = 0
    heap = [(-err, seq, a, b, val, err)]
    dead = []  # panels too narrow to split further
    n_panels = 1
    total_err = err
    total_val = val
    while True:
        if total_err <= max(atol, rtol * _norm(total_val)):
            converged = True
            break
        if not heap or n_panels >= max_panels:
            converged = False
            break
        worst = heapq.heappop(heap)
        _, _, pa, pb, pval, perr = worst
        mid = 0.5 * (pa + pb)
        if not (pa < mid < pb) or perr == 0.0:
            dead.append(worst)
            continue
        total_err -= perr
        total_val = total_val - pval
        for qa, qb in ((pa, mid), (mid, pb)):
            v, e = _panel(f, qa, qb)
            evaluations += 15
            seq += 1
            total_err += e
            total_val = total_val + v
            heapq.heappush(heap, (-e, seq, qa, qb, v, e))
        n_panels += 1
    panels = sorted(heap + dead, key=lambda p: p[2])
    value = panels[0][4]
    for p in panels[1:]:
        value = value + p[4]
    error = float(sum(p[5] for p in panels))
    return value, error, evaluations, converged


def _substitute_left(f, a, exponent):
    # tau = a + u**m removes an integrable endpoint singularity tau**p, p > -1
    m = max(2, math.ceil(2.0 / (1.0 + exponent)))

    def g(u):
        return f(a + u ** m) * (m * u ** (m - 1))

    return g, m


def integrate(f, a, b, tol=1e-8, *, rtol=None, singularity_a=0.0,
              max_panels=10000):
    """Integrate ``f`` over [a, b] with adaptive Gauss-Kronrod panels.

    ``tol`` is the absolute tolerance; ``rtol`` defaults to ``tol`` so the
    stopping rule is ``err <= max(tol, rtol * |value|)``.  A left-endpoint
    singularity must be declared via ``singularity_a`` as an exponent p in
    (-1, 0]: the integrand behaves like ``(x - a)**p`` near ``a`` and is
    removed by a power substitution before the adaptive pass.

    Non-convergence after ``max_panels`` panels is reported through
    ``converged=False``; no exception is raised.
    """
    if not (a < b):
        if a == b:
            return QuadratureResult(0.0, 0.0, 0, True)
        raise ValueError(f"require a < b, got [{a}, {b}]")
    if not (-1.0 < singularity_a <= 0.0):
        raise ValueError(
            f"singularity exponent must lie in (-1, 0], got {singularity_a}")
    if rtol is None:
        rtol = tol

    if singularity_a < 0.0:
        g, m = _substitute_left(f, a, singularity_a)
        val, err, ev, ok = _adaptive(g, 0.0, (b - a) ** (1.0 / m), tol, rtol, max_panels)
    else:
        val, err, ev, ok = _adaptive(f, a, b, tol, rtol, max_panels)
    if np.ndim(val) == 0:
        val = float(val)
    return QuadratureResult(val, err, ev, ok)


def integrate_semi_infinite(f, a, tol=1e-8, *, rtol=None, singularity_a=0.0,
                            max_panels=10000, initial_width=1.0):
    """Integrate ``f`` over [a, oo) for absolutely integrable ``f`` with
    eventually monotone decay.

    Intervals of geometrically doubling width are integrated until two
    consecutive contributions fall below a tenth of the running tolerance;
    the last contribution is charged to the error estimate as a tail
    allowance.
    """
    if rtol is None:
        rtol = tol
    total = None
    err = 0.0
    evaluations = 0
    converged_all = True
    lo = float(a)
    width = float(initial_width)
    small_streak = 0
    tail = 0.0
    ran_out = True
    for i in range(_MAX_INTERVALS):
        hi = lo + width
        budget = max(64, max_panels - evaluations // 15)
        r = integrate(f, lo, hi, tol=0.0, rtol=rtol,
                      singularity_a=singularity_a if i == 0 else 0.0,
                      max_panels=budget)
        total = r.value if total is None else total + r.value
        err += r.error_estimate
        evaluations += r.evaluations
        converged_all = converged_all and r.converged
        chunk = _norm(r.value)
        tail_tol = max(tol, rtol * _norm(total)) / 10.0
        if chunk <= tail_tol:
            small_streak += 1
            if small_streak >= 2:
                tail = chunk
                ran_out = False
                break
        else:
            small_streak = 0
        lo = hi
        width *= 2.0
    err += tail
    if np.ndim(total) == 0:
        total = float(total)
    return QuadratureResult(total, err, evaluations, converged_all and not ran_out)
