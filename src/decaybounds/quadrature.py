"""Adaptive numerical integration on finite and semi-infinite intervals.

Panel-adaptive Gauss-Kronrod (7/15 pair) with deterministic panel ordering,
a declared left-endpoint singularity substitution and geometric tail
extension.  :func:`run_steps` integrates many steps in lockstep, given as
arrays of lower and upper limits (an upper limit of inf makes a
semi-infinite step) and of singularity exponents, under one tolerance
and one panel budget.  A step runs one adaptive integration at a time (a
finite step one, a semi-infinite step one per doubling interval), so the
step is the one index of the engine: its result (a finite step's run, a
semi-infinite step's running sums), the totals and budget of the run in
progress and the rows asked for next sit in arrays over the steps, and
each panel names its step.  Each round bisects the worst panel of every
running step with one vectorized kernel call, its rows in step order,
and a fixed number of array passes.  A step's result depends on the
steps it runs with only through the last bits of its kernel values:
numpy's array ``**`` may round differently from its scalar ``**`` (its
AVX-512 kernels), so a batched value can differ by an ulp or so from the
same value computed alone, and such a bit can in turn tip a refinement
decision.  Integrands are scalar: they receive a numpy array of abscissae
and return an array of the same shape.  The one tolerance is relative: a
step stops once its error estimate is at most ``rtol`` times the magnitude
of its value.
"""

from __future__ import annotations

import functools
import math
import operator
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

# doubling intervals tried by a semi-infinite step before giving up
_MAX_INTERVALS = 200


@dataclass(frozen=True)
class QuadratureResult:
    """Value, error estimate, evaluation count and convergence flag."""

    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def _panel_rule(kernel, step, lo, hi, sub, pairs):
    """Values and error estimates of the panels [lo, hi] (arrays, one
    entry per panel) from one call ``kernel(x, step)`` with one row of 15
    abscissae per panel and the owning step of each row.  ``sub`` indexes
    each panel's substitution tau = a + u**m in ``pairs`` of (a, m), or
    is -1 for none."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    jacobians = []
    if pairs:
        # one power per substitution over all of its rows at once: an
        # array ``**`` may round an element by its place in the array
        for s in set(sub.tolist()) - {-1}:
            a, m = pairs[s]
            rows = sub == s
            u = x[rows]
            x[rows] = a + u ** m
            jacobians.append((rows, m * u ** (m - 1)))
    y = np.asarray(kernel(x, step), dtype=float)
    for rows, jac in jacobians:
        y[rows] = y[rows] * jac
    # a row-wise sum (not y @ W) keeps each panel independent of the batch
    k = half * (y * _W_KRONROD).sum(axis=1)
    g = half * (y * _W_GAUSS).sum(axis=1)
    return k, np.abs(k - g)


def _worst(key, slot, k):
    """Largest key of each of the k steps and the first row holding it;
    ``slot`` names each row's step (-1 for none) and a step's rows come
    in the order they were made."""
    top = np.empty(k + 1)
    top.fill(-np.inf)
    np.maximum.at(top, slot, key)
    top[k] = np.inf                     # rows of no run match nothing
    at = (key == top[slot]).nonzero()[0]
    first = np.empty(k + 1, np.intp)
    first.fill(key.size)
    np.minimum.at(first, slot[at], at)
    return top[:k], first[:k]


# columns of the panel table
_LO, _HI, _VAL, _ERR = range(4)


class _Steps:
    """State of a :func:`run_steps` batch between rounds, in arrays
    indexed by step.

    A run is one adaptive integration over one interval: a finite step
    is one run, a semi-infinite step one run per doubling interval, so a
    step has at most one run in progress.  Held per step: its result
    (``total``, ``error``, ``evaluations``, ``converged``: the one run of
    a finite step, the running sums of a semi-infinite one) and a
    semi-infinite step's doubling intervals; its run's panels held,
    value and error totals, panel budget and substitution (an index into
    ``pairs`` of (a, m), -1 for none); and its request for the next
    round, ``asks[s, j]`` for row j = (edges[s, j], edges[s, j + 1]): row
    0 alone for a newly opened run, rows 0 and 1 for the halves of a
    running run's worst panel, none once it has no run in progress."""

    def __init__(self, a, b, rtol, singularity, max_panels):
        a, b, sing = (np.asarray(v, dtype=float) for v in (a, b, singularity))
        bad = ~np.isfinite(a)
        if bad.any():
            raise ValueError(f"require a finite lower limit, got {a[bad][0]}")
        self.semi = b == np.inf
        # a semi-infinite step's first interval is [a, a + 1]
        self.hi = np.where(self.semi, a + 1.0, b)
        bad = ~(a <= self.hi)
        if bad.any():
            i = bad.argmax()
            raise ValueError(f"require a <= b, got [{a[i]}, {b[i]}]")
        run = a < self.hi               # an empty interval needs no exponent
        bad = run & ~((-1.0 < sing) & (sing <= 0.0))
        if bad.any():
            raise ValueError("singularity exponent must lie in (-1, 0], "
                             f"got {sing[bad][0]}")
        n = a.size
        self.rtol, self.max_panels = rtol, max_panels
        # -0.0 + x is x bit for bit: a finite step's sums are its run's
        self.total = np.where(self.semi, 0.0, -0.0)
        self.error = np.zeros(n)
        self.evaluations = np.zeros(n, np.int64)
        self.converged = np.ones(n, dtype=bool)
        self.width = np.ones(n)
        self.streak = np.zeros(n, np.intp)
        self.intervals = np.zeros(n, np.intp)
        self.sizes = np.zeros(n, np.intp)
        self.run_value, self.run_error = np.zeros(n), np.zeros(n)
        self.budget = np.full(n, max_panels)
        self.sub = np.full(n, -1, np.intp)
        self.asks = np.zeros((n, 2), dtype=bool)
        self.edges = np.empty((n, 3))
        self.pairs = {}                 # (a, m) -> substitution index
        lo, hi, sub = a.copy(), self.hi.copy(), self.sub.copy()
        for i in (run & (sing < 0.0)).nonzero()[0].tolist():
            # tau = a + u**m on [0, (b - a)**(1/m)] removes an integrable
            # endpoint singularity tau**p
            m = max(2, math.ceil(2.0 / (1.0 + float(sing[i]))))
            lo[i], hi[i] = 0.0, float(hi[i] - a[i]) ** (1.0 / m)
            sub[i] = self.pairs.setdefault((float(a[i]), m), len(self.pairs))
        self.close(self.open(np.arange(n), lo, hi, sub))

    def open(self, steps, lo, hi, sub):
        """Open runs of ``steps`` over [lo, hi]; returns the steps whose
        interval is empty, a zero run that needs no panel."""
        run = lo < hi
        steps, empty = steps[run], steps[~run]
        semi = steps[self.semi[steps]]
        self.budget[semi] = np.maximum(
            64, self.max_panels - self.evaluations[semi] // 15)
        self.sizes[steps] = 0
        # -0.0 + x is x bit for bit: a new run's totals are its panel's
        self.run_value[steps] = self.run_error[steps] = -0.0
        self.sub[steps] = sub[run]
        self.asks[steps, 0] = True
        self.edges[steps, :2] = np.array([lo[run], hi[run]]).T
        return empty

    def close(self, steps, value=0.0, error=0.0, evaluations=0,
              converged=True):
        """Add finished runs of ``steps`` (zero runs by default) to their
        sums; a semi-infinite step goes on to its next interval or ends."""
        while steps.size:
            total = self.total[steps] = self.total[steps] + value
            self.error[steps] += error
            self.evaluations[steps] += evaluations
            self.converged[steps] &= converged
            semi = self.semi[steps]
            steps, total = steps[semi], total[semi]
            chunk = np.abs(np.broadcast_to(value, semi.shape)[semi])
            small = chunk <= self.rtol * np.abs(total) / 10.0
            streak = self.streak[steps] = np.where(
                small, self.streak[steps] + 1, 0)
            # the last contribution is charged as the tail allowance
            tail = streak >= 2
            self.error[steps[tail]] += chunk[tail]
            count = self.intervals[steps] = self.intervals[steps] + 1
            spent = ~tail & (count == _MAX_INTERVALS)
            self.converged[steps[spent]] = False
            steps = steps[~(tail | spent)]
            lo = self.hi[steps]
            width = self.width[steps] = self.width[steps] * 2.0
            self.hi[steps] = lo + width
            steps = self.open(steps, lo, self.hi[steps],
                              np.full(steps.size, -1, np.intp))
            value, error, evaluations, converged = 0.0, 0.0, 0, True

    def run(self, kernel, outer):
        """The rounds of :func:`run_steps`, each a fixed number of array
        passes over the steps and the panels held.

        The panels of runs in progress are rows ``[0, n)`` of ``panels``
        (lo, hi, value, error) in the order they were made, with ``key``,
        which ranks them (the error, inf for nan, -inf once set aside or
        gone), and ``slot``, their step, -1 once gone (split or closed).
        Gone rows are dropped when they outnumber the others or the table
        is full."""
        asks, edges, sizes = self.asks, self.edges, self.sizes
        run_value, run_error = self.run_value, self.run_error
        # row j of step s is entry 2 s + j of ``asked``; its ends are
        # entries 3 s + j and 3 s + j + 1 of ``edge``
        asked, edge = asks.reshape(-1), edges.reshape(-1)
        pairs, k = list(self.pairs), len(asks)
        panels, key, slot = np.empty((0, 4)), np.empty(0), np.empty(0, np.intp)
        n = gone = 0
        while True:
            on = asks[:, 0].nonzero()[0]
            if not on.size:
                return
            row = asked.nonzero()[0]
            step = row >> 1
            at = row + step
            lo, hi = edge[at], edge[at + 1]
            with np.errstate(**outer):
                val, err = _panel_rule(kernel, step, lo, hi, self.sub[step],
                                       pairs)
            sizes[on] += 1

            # the new panels go behind the held ones
            if n + step.size > key.size or 2 * gone > n:
                live = (slot[:n] >= 0).nonzero()[0]
                spare = live.size + 2 * step.size
                panels = np.concatenate((panels[live], np.empty((spare, 4))))
                key = np.concatenate((key[live], np.empty(spare)))
                slot = np.concatenate((slot[live], np.empty(spare, np.intp)))
                n, gone = live.size, 0
            new = slice(n, n + step.size)
            panels[new] = np.array([lo, hi, val, err]).T
            key[new] = np.where(np.isnan(err), np.inf, err)
            slot[new] = step
            n = new.stop
            # in row order: a split's totals become (total + left) + right
            np.add.at(run_value, step, val)
            np.add.at(run_error, step, err)

            converged = run_error <= self.rtol * np.abs(run_value)
            stop = (converged | (sizes >= self.budget))[on]
            go = on[~stop]
            # each running run bisects its worst panel, ties going to the
            # earliest made.  A panel too narrow to split or without error
            # is set aside and the next worst taken; a run left with none
            # stops
            top, first = _worst(key[:n], slot[:n], k)
            while True:
                pick = first[go]
                picked = panels.take(pick, axis=0)
                pa, pb, perr = picked[:, _LO], picked[:, _HI], picked[:, _ERR]
                mid = 0.5 * (pa + pb)
                splits = (pa < mid) & (mid < pb) & (perr != 0.0)
                if splits.all():
                    break
                key[pick[~splits]] = -np.inf
                top, first = _worst(key[:n], slot[:n], k)
                stop |= top[on] == -np.inf
                go = on[~stop]

            if stop.any():
                # value and error of a closing run are summed one panel
                # after another in interval order
                done = on[stop]
                closing = np.zeros(k + 1, dtype=bool)
                closing[done] = True
                held = closing[slot[:n]].nonzero()[0]
                held = held[np.lexsort((panels[held, _LO], slot[held]))]
                values = panels[held, _VAL].tolist()
                errors = panels[held, _ERR].tolist()
                ends = sizes[done].cumsum().tolist()
                value, error = [], []
                for start, end in zip([0] + ends[:-1], ends):
                    value.append(functools.reduce(operator.add,
                                                  values[start:end]))
                    error.append(sum(errors[start:end]))
                slot[held], key[held] = -1, -np.inf
                gone += held.size
                asks[done] = False
                self.close(done, np.array(value), np.array(error, dtype=float),
                           15 * (2 * sizes[done] - 1), converged[done])
            slot[pick], key[pick] = -1, -np.inf
            gone += pick.size
            run_value[go] -= picked[:, _VAL]
            run_error[go] -= picked[:, _ERR]
            asks[go, 1] = True
            edges[go] = np.array([pa, mid, pb]).T


def run_steps(kernel, a, b, rtol, singularity, max_panels):
    """Integrate over [a[i], b[i]] for every step i in lockstep; returns
    the steps' :class:`QuadratureResult` values in order.

    ``a``, ``b`` and ``singularity`` hold one entry per step, ``rtol``
    and ``max_panels`` hold for them all (see :func:`integrate`).  A step
    with ``b[i] = inf`` integrates over [a[i], oo) as
    :func:`integrate_semi_infinite` does; ``a`` must be finite, and a
    ``b`` below ``a`` or nan raises ValueError.  Every piece of state is
    indexed by step: a step has at most one run in progress, and each
    round asks it for one panel when that run is new and for the two
    halves of the run's worst panel after.  The round stacks these rows,
    in step order, into one ``(P, 15)`` abscissa array x and calls
    ``kernel(x, step)`` once; ``step[i]`` is the index of the step owning
    row i, and the kernel returns values of shape ``(P, 15)``."""
    outer = np.geterr()
    # the bookkeeping keeps Python float semantics, where inf and nan
    # pass silently; the panel rule and the kernel run under the caller's
    # settings
    with np.errstate(all="ignore"):
        steps = _Steps(a, b, rtol, singularity, max_panels)
        steps.run(kernel, outer)
    return [QuadratureResult(*r) for r in zip(
        steps.total.tolist(), steps.error.tolist(),
        steps.evaluations.tolist(), steps.converged.tolist())]


def _pointwise(f):
    """Kernel of a one-step run: ``f`` on the flattened abscissae."""
    def kernel(x, _):
        return np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    return kernel


def integrate(f, a, b, rtol=1e-8, *, singularity_a=0.0, max_panels=10000):
    """Integrate ``f`` over [a, b] with adaptive Gauss-Kronrod panels;
    ``b = inf`` integrates over [a, oo) as :func:`integrate_semi_infinite`.

    The stopping rule is ``err <= rtol * |value|``.  A left-endpoint
    singularity must be declared via ``singularity_a`` as an exponent p in
    (-1, 0]: the integrand behaves like ``(x - a)**p`` near ``a`` and is
    removed by a power substitution before the adaptive pass.  ``a`` must
    be finite and ``b`` at least ``a``; otherwise ValueError is raised.

    Non-convergence after ``max_panels`` panels is reported through
    ``converged=False``; no exception is raised.
    """
    return run_steps(_pointwise(f), [a], [b], rtol, [singularity_a],
                     max_panels)[0]


def integrate_semi_infinite(f, a, rtol=1e-8, *, singularity_a=0.0,
                            max_panels=10000):
    """Integrate ``f`` over [a, oo) for absolutely integrable ``f`` with
    eventually monotone decay; ``a`` must be finite.

    Intervals of doubling width, starting at 1, are integrated until two
    consecutive contributions fall below ``rtol / 10`` times the running
    total; the last contribution is charged to the error estimate as a
    tail allowance.  Each doubling interval may use the panels that the
    earlier ones left of ``max_panels``, and at least 64.
    """
    return run_steps(_pointwise(f), [a], [math.inf], rtol, [singularity_a],
                     max_panels)[0]
