"""Adaptive numerical integration on finite and semi-infinite intervals.

Panel-adaptive Gauss-Kronrod (7/15 pair) with deterministic panel ordering,
a declared left-endpoint singularity substitution and geometric tail
extension, written once as generator steps: a step yields the panels it
needs and receives their (value, error) pairs.  :func:`run_steps` drives
many steps in lockstep with one vectorized kernel call per round.  A
step's result depends on the steps it runs with only through the last
bits of its kernel values: numpy's array ``**`` may round differently
from its scalar ``**`` (its AVX-512 kernels), so a batched value can
differ by an ulp or so from the same value computed alone, and such a bit
can in turn tip a refinement decision.  Integrands are scalar: they
receive a numpy array of abscissae and return an array of the same shape.
The one tolerance is relative: a step stops once its error estimate is at
most ``rtol`` times the magnitude of its value.
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

    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def _evaluate(kernel, panels):
    """Values and error estimates of ``panels``, (step, a, b, substitution)
    tuples, from one call ``kernel(x, step)`` with one row of 15 abscissae
    per panel and the owning step of each row."""
    step, lo, hi, subs = zip(*panels)
    lo, hi = np.array(lo), np.array(hi)
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    jacobians = []
    for a, m in set(subs) - {None}:       # tau = a + u**m
        rows = np.array([s == (a, m) for s in subs])
        u = x[rows]
        x[rows] = a + u ** m
        jacobians.append((rows, m * u ** (m - 1)))
    y = np.asarray(kernel(x, np.array(step)), dtype=float)
    for rows, jac in jacobians:
        y[rows] = y[rows] * jac
    # a row-wise sum (not y @ W) keeps each panel independent of the batch
    k = half * (y * _W_KRONROD).sum(axis=1)
    g = half * (y * _W_GAUSS).sum(axis=1)
    return k.tolist(), np.abs(k - g).tolist()


def run_steps(kernel, steps):
    """Run integration steps (:func:`finite_step`,
    :func:`semi_infinite_step`) in lockstep; returns their
    :class:`QuadratureResult` values in order.

    Each round stacks the pending panels of every step into one
    ``(P, 15)`` abscissa array x and calls ``kernel(x, step)`` once;
    ``step[i]`` is the index of the step owning row i, and the kernel
    returns values of shape ``(P, 15)``."""
    steps = list(steps)
    results = [None] * len(steps)
    sent = [None] * len(steps)
    active = range(len(steps))
    while active:
        asked = []
        for i in active:
            try:
                asked.append((i, steps[i].send(sent[i])))
            except StopIteration as stop:
                results[i] = stop.value
        if asked:
            got = zip(*_evaluate(kernel, [(i, *p) for i, ps in asked
                                          for p in ps]))
            for i, ps in asked:
                sent[i] = [next(got) for _ in ps]
        active = [i for i, _ in asked]
    return results


def _adaptive(a, b, rtol, max_panels, sub):
    """Globally adaptive bisection step; deterministic (value summed in
    interval order, heap ties broken by insertion sequence)."""
    ((val, err),) = yield [(a, b, sub)]
    evaluations = 15
    seq = 0
    heap = [(-err, seq, a, b, val, err)]
    dead = []  # panels too narrow to split further
    n_panels = 1
    total_err = err
    total_val = val
    while True:
        if total_err <= rtol * abs(total_val):
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
        total_val -= pval
        halves = ((pa, mid), (mid, pb))
        got = yield [(qa, qb, sub) for qa, qb in halves]
        for (qa, qb), (v, e) in zip(halves, got):
            evaluations += 15
            seq += 1
            total_err += e
            total_val += v
            heapq.heappush(heap, (-e, seq, qa, qb, v, e))
        n_panels += 1
    panels = sorted(heap + dead, key=lambda p: p[2])
    value = panels[0][4]
    for p in panels[1:]:
        value += p[4]
    error = float(sum(p[5] for p in panels))
    return value, error, evaluations, converged


def finite_step(a, b, rtol, singularity_a, max_panels):
    """Step integrating over [a, b]; see :func:`integrate`."""
    if not (a < b):
        if a == b:
            return QuadratureResult(0.0, 0.0, 0, True)
        raise ValueError(f"require a < b, got [{a}, {b}]")
    if not (-1.0 < singularity_a <= 0.0):
        raise ValueError(
            f"singularity exponent must lie in (-1, 0], got {singularity_a}")
    if singularity_a < 0.0:
        # tau = a + u**m removes an integrable endpoint singularity tau**p
        m = max(2, math.ceil(2.0 / (1.0 + singularity_a)))
        result = yield from _adaptive(0.0, (b - a) ** (1.0 / m), rtol,
                                      max_panels, (a, m))
    else:
        result = yield from _adaptive(a, b, rtol, max_panels, None)
    return QuadratureResult(*result)


def semi_infinite_step(a, rtol, singularity_a, max_panels):
    """Step integrating over [a, oo); see :func:`integrate_semi_infinite`."""
    total = 0.0
    err = 0.0
    evaluations = 0
    converged_all = True
    lo = float(a)
    width = 1.0
    small_streak = 0
    for i in range(_MAX_INTERVALS):
        hi = lo + width
        budget = max(64, max_panels - evaluations // 15)
        r = yield from finite_step(lo, hi, rtol,
                                   singularity_a if i == 0 else 0.0, budget)
        total += r.value
        err += r.error_estimate
        evaluations += r.evaluations
        converged_all = converged_all and r.converged
        chunk = abs(r.value)
        if chunk <= rtol * abs(total) / 10.0:
            small_streak += 1
            if small_streak >= 2:
                # the last contribution is charged as the tail allowance
                return QuadratureResult(total, err + chunk, evaluations,
                                        converged_all)
        else:
            small_streak = 0
        lo = hi
        width *= 2.0
    return QuadratureResult(total, err, evaluations, False)


def _pointwise(f):
    """Kernel of a one-step run: ``f`` on the flattened abscissae."""
    def kernel(x, _):
        return np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    return kernel


def integrate(f, a, b, rtol=1e-8, *, singularity_a=0.0, max_panels=10000):
    """Integrate ``f`` over [a, b] with adaptive Gauss-Kronrod panels.

    The stopping rule is ``err <= rtol * |value|``.  A left-endpoint
    singularity must be declared via ``singularity_a`` as an exponent p in
    (-1, 0]: the integrand behaves like ``(x - a)**p`` near ``a`` and is
    removed by a power substitution before the adaptive pass.

    Non-convergence after ``max_panels`` panels is reported through
    ``converged=False``; no exception is raised.
    """
    step = finite_step(a, b, rtol, singularity_a, max_panels)
    return run_steps(_pointwise(f), [step])[0]


def integrate_semi_infinite(f, a, rtol=1e-8, *, singularity_a=0.0,
                            max_panels=10000):
    """Integrate ``f`` over [a, oo) for absolutely integrable ``f`` with
    eventually monotone decay.

    Intervals of doubling width, starting at 1, are integrated until two
    consecutive contributions fall below ``rtol / 10`` times the running
    total; the last contribution is charged to the error estimate as a
    tail allowance.  Each doubling interval may use the panels that the
    earlier ones left of ``max_panels``, and at least 64.
    """
    step = semi_infinite_step(a, rtol, singularity_a, max_panels)
    return run_steps(_pointwise(f), [step])[0]
