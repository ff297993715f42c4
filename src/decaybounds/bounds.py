"""Entrywise decay bounds for functions of a banded Hermitian positive
definite matrix and of Kronecker sums of such matrices.

A single matrix is the one-factor case of a Kronecker sum, since the
semigroup of a sum factorizes entrywise: ``exp_bounds`` and
``laplace_bounds`` take one spectral interval per factor and one
distance per factor.  ``laplace_bounds`` carries the Cauchy class of a
Kronecker sum too, on the measure's Laplace transform
(``CauchyMeasure.as_laplace``).

The two building blocks are the capped two-regime envelope for entries of
the semigroup exp(-tau M) (superexponential tail) and the resolvent decay
constants of Demko/Freund type (exponential tail).  Transform-class bounds
integrate these kernels against the representing measure.

Every bound depends on the entry (k, t) only through a distance d (one
per Kronecker factor), its one spatial input: the band distance
|k - t| / beta of a banded matrix or the geodesic distance in the
sparsity-pattern graph of a general one (:mod:`decaybounds.graphdist`).
The callers compute it (``figures._distances``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

# Not called here: perfbench/tracer.py wraps bounds.integrate* when it
# times the quadrature layer, so the names must exist.
from .quadrature import integrate, integrate_semi_infinite  # noqa: F401
from .quadrature import run_steps

_LOG10 = math.log(10.0)
# Adaptive panels per quadrature segment of each distance; a step that
# exhausts them is reported as not converged.  Read at call time.
_MAX_PANELS = 10000


@dataclass(frozen=True)
class DecayBoundReport:
    """Bound at one distance with provenance: the distance, integral
    pieces, quadrature error estimate and whether the stated validity
    region holds.  A Kronecker report carries its tuple of per-factor
    distances, and so does every ``exp_bounds`` report; a one-factor
    Laplace or Cauchy report carries the number d."""

    distance: object
    bound: float
    pieces: dict = field(default_factory=dict)
    error_estimate: float = 0.0
    evaluations: int = 0
    converged: bool = True
    valid: bool = True


def exp_envelope(rho_tau, d):
    """Capped envelope for |exp(-tau Mhat)| entries at scaled distance d.

    Regime boundaries in rho*tau for fixed d: the superexponential branch
    applies for d >= 2 rho tau, the Gaussian branch for
    sqrt(4 rho tau) <= d <= 2 rho tau (it needs rho tau >= 1), and the
    trivial bound 1 holds everywhere since ||exp(-tau Mhat)|| <= 1.
    Because the entry bound is valid for every polynomial degree up to the
    band distance, each branch may also be evaluated at any smaller
    distance inside its regime window; taking that running minimum keeps
    the envelope nonincreasing in d across the regime junction.
    Vectorized over ``rho_tau`` and ``d``, which broadcast together; each
    entry equals the scalar call at its (rho_tau, d).
    """
    rt = np.asarray(rho_tau, dtype=float)
    d = np.asarray(d, dtype=float)
    scalar = rt.ndim == 0 and d.ndim == 0
    if np.any(rt < 0):
        raise ValueError("rho * tau must be nonnegative")
    # math.log, not np.log: the same bits as a scalar call
    log_d = np.reshape([math.log(x) if x > 0 else 0.0 for x in d.flat], d.shape)
    rt, d, log_d = np.broadcast_arrays(np.atleast_1d(rt), d, log_d)
    out = np.ones(rt.shape)
    gauss = (rt >= 1.0) & (d * d >= 4.0 * rt) & (d > 0)
    if np.any(gauss):
        r = rt[gauss]
        d1 = np.minimum(d[gauss], 2.0 * r)
        out[gauss] = np.minimum(out[gauss], 10.0 * np.exp(-d1 * d1 / (5.0 * r)))
    tail = (rt > 0.0) & (d >= 2.0 * rt) & (d > 0)
    if np.any(tail):
        r = rt[tail]
        logv = (_LOG10 - r - np.log(r)
                + d[tail] * (1.0 + np.log(r) - log_d[tail]))
        out[tail] = np.minimum(out[tail], np.exp(np.minimum(logv, 0.0)))
    out[(rt == 0.0) & (d > 1.0)] = 0.0
    return float(out[0]) if scalar else out


def _positive(distance):
    if distance <= 0:
        raise ValueError("distance must be positive: the bound covers "
                         "off-diagonal entries only")
    return float(distance)


def exp_bounds(intervals, tau, distances):
    """Bounds for |exp(-tau A)|_{k t} at each tuple of per-factor
    distances d_L, not all zero: a list of reports, from one envelope call
    per factor.  ``intervals`` holds one SpectralInterval per Kronecker
    factor; a single matrix is the one-factor case.

    Stated validity needs every distance to clear the envelope's Gaussian
    window, d_L >= sqrt(4 rho_L tau); outside it the capped envelope
    (factor at most exp(-tau lambda_min)) still gives a rigorous value,
    reported with ``valid=False``.
    """
    distances = [tuple(ds) for ds in distances]
    if any(len(ds) != len(intervals) or not any(ds) for ds in distances):
        raise ValueError("each distance tuple needs one distance per factor, "
                         "not all zero: diagonal entries are not covered")
    vals, valid = [1.0] * len(distances), [True] * len(distances)
    for iv, d in zip(intervals, zip(*distances)):
        # each entry equals the scalar call, so every product keeps its bits
        env = exp_envelope(iv.rho * tau, d).tolist()
        scale = math.exp(-tau * iv.lambda_min)
        vals = [v * (scale * e) for v, e in zip(vals, env)]
        window = math.sqrt(4.0 * iv.rho * tau)
        valid = [ok and x >= window for ok, x in zip(valid, d)]
    return [DecayBoundReport(distance=ds, bound=v, valid=ok)
            for ds, v, ok in zip(distances, vals, valid)]


def exp_entry_bound(interval, tau, distance):
    """Upper bound for |exp(-tau M)|_{k t} at distance d > 0: the
    one-factor, one-distance exp_bounds."""
    return exp_bounds((interval,), tau, [(_positive(distance),)])[0].bound


def _demko_kernel(lmin, lmax, s):
    """Constant and rate (C, q) of |(M + s I)^{-1}|_{k t} <= C q^d for
    spectrum(M) in [lmin, lmax], lmin + s > 0; vectorized over s.  With
    a^2 = lmin + s and b^2 = lmax + s, q = (b - a)/(b + a) is formed as
    (lmax - lmin)/(a + b)^2, which subtracts no nearby numbers however
    large s is."""
    a2, b2 = lmin + s, lmax + s
    ab2 = (np.sqrt(a2) + np.sqrt(b2)) ** 2
    # where 2 a^2 b^2 overflows the maximum is 1 / a^2 all the same
    with np.errstate(over="ignore"):
        c = np.maximum(1.0 / a2, ab2 / (2.0 * a2 * b2))
    return c, (lmax - lmin) / ab2


def demko_constant(lambda_min, lambda_max):
    """Scale-invariant resolvent constant max{1/lmin, (1+sqrt(k))^2/(2 lmax)}.

    Equals the diagonal-normalized constant divided by the normalizing
    entry: the formula is homogeneous of degree -1 in the spectrum, so
    normalizing the diagonal to <= 1 and multiplying the bound back by the
    reciprocal cancels exactly.
    """
    if lambda_min <= 0:
        raise ValueError("positive definiteness required")
    return float(_demko_kernel(lambda_min, lambda_max, 0.0)[0])


def demko_bound(interval, distance, *, diag_max):
    """Classical bound |M^{-1}|_{k t} <= C q^d for HPD M, d >= 0.

    The diagonal, whose largest entry is ``diag_max``, is normalized to at
    most one before applying the constant and the bound is multiplied back
    by the reciprocal of the normalizer (a no-op in exact arithmetic, kept
    explicit for fidelity to the normalized statement).
    """
    if not interval.is_positive_definite:
        raise ValueError("the resolvent bound needs a positive definite matrix")
    d = float(distance)
    s = diag_max if diag_max > 1.0 else 1.0
    c, q = _demko_kernel(interval.lambda_min / s, interval.lambda_max / s, 0.0)
    return float((c / s) * q ** d)


def freund_resolvent_bound(interval, zeta, distance):
    """Bound C R^{-d} for |(M - i zeta I)^{-1}|_{k t} at distance d > 0,
    from the ellipse through the origin with foci at the shifted spectral
    endpoints lambda_min - i zeta and lambda_max - i zeta."""
    d = _positive(distance)
    lmin, lmax = interval.lambda_min, interval.lambda_max
    if lmax <= lmin:
        raise ValueError("degenerate spectrum: lambda_min must be < lambda_max")
    delta = lmax - lmin
    alpha = (np.hypot(lmin, zeta) + np.hypot(lmax, zeta)) / delta
    if alpha < 2.0 ** 255:
        r = alpha + np.sqrt(alpha * alpha - 1.0)
        with np.errstate(over="ignore"):
            c = (2.0 * r / delta) * 4.0 * r * r / (r * r - 1.0) ** 2
        if math.isfinite(c):
            return float(c * r ** (-d))
    # C overflows (a spectrum so narrow that 2 r / delta does), or
    # (r^2 - 1)^2 does: the same C R^{-d} in logs, by
    # r^2 - 1 = 2 r sqrt(alpha^2 - 1), so C = 2 r / (delta (alpha^2 - 1))
    log_alpha, inv2 = math.log(alpha), 1.0 / alpha / alpha
    log_r = log_alpha + math.log1p(math.sqrt(1.0 - inv2))
    return math.exp(math.log(2.0) + (1.0 - d) * log_r - math.log(delta)
                    - 2.0 * log_alpha - math.log1p(-inv2))


def _envelope_breakpoints(d, rho):
    """Regime-switch points of the envelope in tau for fixed distance d,
    plus the point where the superexponential branch exits the cap.

    For 1 < d < e the branch value ~ (c rho tau)^{d-1} crosses 1 inside an
    exponentially thin layer at tau = 0; without an explicit breakpoint an
    adaptive rule can miss the layer entirely and overestimate the
    integral, so the crossing is bracketed here."""
    if d <= 0 or rho <= 0:
        return ()
    pts = [d / (2.0 * rho), d * d / (4.0 * rho)]
    if d > 1.0:
        c = _LOG10 + d * (1.0 - math.log(d))
        if c > 0.0:
            # Newton for c + (d-1) log r - r = 0 (the ascending root), so
            # the cap kink lands on a panel edge
            r = math.exp(-c / (d - 1.0))
            for _ in range(6):
                slope = (d - 1.0) / r - 1.0
                if slope <= 0.0:
                    break
                r = max(r - (c + (d - 1.0) * math.log(r) - r) / slope, 0.5 * r)
            tau_star = r / rho
            pts.extend((tau_star / 8.0, tau_star))
    return tuple(pts)


def _orbits(terms, distances):
    """(representatives, index) of the distance tuples under the
    permutations of distances among factors with equal ``terms``
    (lambda_min, rho): the distinct orbits, each as its tuple with the
    distances of every such group of factors in ascending order, and for
    each input tuple the index of its orbit."""
    groups = [[L for L, t in enumerate(terms) if t == term]
              for term in dict.fromkeys(terms)]
    found, index = {}, []
    for ds in distances:
        rep = list(ds)
        for g in groups:
            for L, x in zip(g, sorted(ds[L] for L in g)):
                rep[L] = x
        index.append(found.setdefault(tuple(rep), len(found)))
    return list(found), index


def laplace_bounds(intervals, measure, distances, *, quad_tol=1e-10):
    """Entry bounds for f(A) with f completely monotonic, at each tuple of
    per-factor distances d_L: a list of reports, from one lockstep
    quadrature.  ``intervals`` holds one SpectralInterval per Kronecker
    factor, one to three; a single matrix is the one-factor case, since
    the semigroup of a Kronecker sum factorizes entrywise.  A Markov
    function enters as its transform, ``CauchyMeasure.as_laplace()``.

    Integrates the product envelope prod_L exp(-lambda_min_L tau)
    E(rho_L tau, d_L) against the measure's density on (0, support_upper],
    plus the envelope at each atom.  That product, and so the bound, is
    the same for every permutation of the distances among factors with
    equal (lambda_min, rho): such tuples form one orbit (``_orbits``),
    which is integrated once, and each of its tuples gets a report of its
    own carrying the orbit's numbers.  Each orbit's quadrature is split at
    its factors' envelope breakpoints, and the density's exponent at 0
    applies to the first segment.  A ``log_density`` joins the exponent
    -sum_L lambda_min_L tau before it is exponentiated, so the integrand is
    formed where the density alone overflows.  A one-factor report carries
    the distance d, and its pieces I, II, III sum the segments (and atoms)
    in the superexponential, Gaussian and trivial regimes; a Kronecker
    report carries the tuple, and its bound sums the segments in edge
    order, then the atoms.  The bound is stated for every d_L >= 2; at
    smaller distances the capped envelopes still give a rigorous value,
    reported with ``valid=False``.  The same number bounds
    |f(M + i zeta I)|_{k t} for every real zeta: the shift only rotates
    the semigroup by a unimodular phase.
    """
    if not 1 <= len(intervals) <= 3:
        raise ValueError("Laplace-class bounds support one to three factors")
    if not all(iv.is_positive_definite for iv in intervals):
        raise ValueError("Laplace-class bounds need positive definite factors")
    if not measure.has_representation:
        raise ValueError(f"measure {measure.name!r} has no stored representation")
    distances = [tuple(ds) for ds in distances]
    if any(len(ds) != len(intervals) for ds in distances):
        raise ValueError("each distance tuple needs one distance per factor")
    terms = [(iv.lambda_min, iv.rho) for iv in intervals]
    orbits, orbit_of = _orbits(terms, distances)
    rows = np.array(orbits, dtype=float).reshape(len(orbits), len(terms))
    weight, log_weight = measure.density, measure.log_density
    upper, sing = measure.support_upper, measure.singularity_exponent
    pieces = []
    for ds in rows.tolist():
        cuts = sorted({c for (_, rho), d in zip(terms, ds)
                       for c in _envelope_breakpoints(d, rho) if 0.0 < c < upper})
        edges = [0.0] + cuts + [upper] if weight is not None else [0.0]
        pieces.append([(lo, hi, sing if lo == 0.0 else 0.0)
                       for lo, hi in zip(edges[:-1], edges[1:])])
    # one lockstep step per piece, in row order; group names its row
    group, a, b, exponents = np.array(
        [(i, *p) for i, ps in enumerate(pieces) for p in ps],
        dtype=float).reshape(-1, 4).T
    group = group.astype(int)

    def integrand(taus, step):
        ds = rows[group[step]]
        out = 1.0
        if log_weight is None:
            for L, (lmin, rho) in enumerate(terms):
                out = (out * np.exp(-lmin * taus)
                       * exp_envelope(rho * taus, ds[:, L:L + 1]))
            w = weight(taus)
        else:
            for L, (_, rho) in enumerate(terms):
                out = out * exp_envelope(rho * taus, ds[:, L:L + 1])
            w = np.exp(log_weight(taus) - sum(lmin for lmin, _ in terms) * taus)
        # a weight past the largest double bounds by inf, not inf * 0 = nan
        return np.where(np.isinf(w), np.inf, out * w)

    results = iter(run_steps(integrand, a, b, quad_tol, exponents, _MAX_PANELS))
    found = []
    for row, segs in zip(rows.tolist(), pieces):
        rs = [next(results) for _ in segs]
        segments = [(lo, hi, r.value) for (lo, hi, _), r in zip(segs, rs)]
        segments += [(loc, loc, mass * math.prod(
            math.exp(-lmin * loc) * exp_envelope(rho * loc, d)
            for (lmin, rho), d in zip(terms, row))) for loc, mass in measure.atoms]
        if len(terms) == 1:
            (d,), rho = row, terms[0][1]
            parts = {"I": 0.0, "II": 0.0, "III": 0.0}
            for lo, hi, value in segments:
                mid = 0.5 * (lo + hi) if math.isfinite(hi) else lo + 1.0
                if rho > 0 and mid <= d / (2.0 * rho):
                    parts["I"] += value
                elif rho > 0 and mid <= d * d / (4.0 * rho):
                    parts["II"] += value
                else:
                    parts["III"] += value
            total = parts["I"] + parts["II"] + parts["III"]
        else:
            d, parts, total = tuple(row), {}, 0.0
            for _, _, value in segments:
                total += value
        found.append(DecayBoundReport(
            distance=d, bound=total, pieces=parts,
            error_estimate=sum((r.error_estimate for r in rs), 0.0),
            evaluations=sum(r.evaluations for r in rs),
            converged=all(r.converged for r in rs),
            valid=all(x >= 2.0 for x in row)))
    if len(terms) == 1:
        return [found[i] for i in orbit_of]
    # a Kronecker report carries the tuple it was asked for
    return [replace(found[i], distance=ds)
            for ds, i in zip(distances, orbit_of)]


def laplace_entry_bound(interval, measure, distance, *, quad_tol=1e-10):
    """Entry bound at one distance: the one-factor, one-distance
    laplace_bounds."""
    return laplace_bounds((interval,), measure, [(distance,)],
                          quad_tol=quad_tol)[0]


def cauchy_bounds(interval, measure, distances, *, quad_tol=1e-10):
    """Entry bounds for f(M) with f Markov-type, M HPD, at each of
    ``distances`` (all >= 0): a list of reports, from one lockstep
    quadrature with one step per distance.

    Integrates the shifted-resolvent kernel C(s) q(s)^d of (M + s I)^{-1}
    against the total variation |v(-s)| of the representing measure over
    [-support_upper, inf).  The diagonal normalization used by the
    resolvent constant cancels exactly (see :func:`demko_constant`), so
    the scale-invariant form is integrated.  A measure with a finite
    ``tail_start`` (an oscillating density) is integrated up to
    S = max(tail_start, s0 + 1), s0 = -support_upper, and the rest is
    added in closed form: past S, with a^2 = lmin + s and b^2 = lmax + s,
    C <= 2/a^2, q <= min(q(S), (lmax - lmin)/(4 a^2)) and |v(-s)| <= c/s
    <= c (1 + lmin/S)/a^2 for c = ``tail_bound``, a product whose
    integral is ``tail`` (a and b taken at S).
    """
    if not interval.is_positive_definite:
        raise ValueError("Cauchy-class bounds need a positive definite matrix")
    lmin, lmax = interval.lambda_min, interval.lambda_max
    s0, dist = -measure.support_upper, np.array(distances, dtype=float)
    n = len(dist)
    upper, tail = math.inf, np.zeros(n)
    if math.isfinite(measure.tail_start):
        upper = max(measure.tail_start, s0 + 1.0)
        a, b = math.sqrt(lmin + upper), math.sqrt(lmax + upper)
        q = (lmax - lmin) / (a + b) ** 2
        tail = (2.0 * measure.tail_bound * (1.0 + lmin / upper) * q ** dist
                * (1.0 + dist * (lmax - lmin) * (3.0 * a + b) / (a + b) ** 3)
                / ((lmin + upper) * (dist + 1.0)))

    def integrand(s, step):
        c, q = _demko_kernel(lmin, lmax, s)
        # one exponent per abscissa: with a (P, 1) exponent numpy takes a
        # one-exponent power for each row, whose bits may differ from the
        # elementwise power's, so a row would round by its place in a batch
        d = np.repeat(dist[step], s.shape[1]).reshape(s.shape)
        return c * q ** d * measure.abs_density_s(s)

    results = run_steps(integrand, np.full(n, s0), np.full(n, upper), quad_tol,
                        np.full(n, measure.singularity_exponent), _MAX_PANELS)
    return [DecayBoundReport(
        distance=float(d), bound=r.value + t, error_estimate=r.error_estimate,
        evaluations=r.evaluations, converged=r.converged)
        for d, r, t in zip(distances, results, tail.tolist())]


def cauchy_entry_bound(interval, measure, distance, *, quad_tol=1e-10):
    """Entry bound at one distance: the one-distance cauchy_bounds."""
    return cauchy_bounds(interval, measure, (distance,), quad_tol=quad_tol)[0]


def invsqrt_closed_bound(interval, distance, *, diag_max):
    """Closed-form bound for |M^{-1/2}|_{k t} at distance d > 0:

        (2/pi) (C(0) + C2) q0^d,
        q0 = (sqrt(lmax) - sqrt(lmin)) / (sqrt(lmax) + sqrt(lmin)).

    ``C2`` is the conservative maximum of the two circulating variants
    of the constant.  The diagonal, whose largest entry is ``diag_max``,
    is normalized to at most one first and the bound is rescaled by the
    normalizer^{-1/2} (inverse square roots scale with power -1/2).
    """
    if interval.lambda_min <= 0:
        raise ValueError("the inverse square root needs a positive definite matrix")
    d = _positive(distance)
    s = float(diag_max) if diag_max > 1.0 else 1.0
    lmin, lmax = interval.lambda_min / s, interval.lambda_max / s
    kappa = lmax / lmin
    c0 = demko_constant(lmin, lmax)
    c2 = max(1.0,
             math.sqrt(1.0 + 0.5 * math.sqrt(kappa)),
             math.sqrt(1.0 + math.sqrt(kappa)) / 2.0)
    q0 = (math.sqrt(lmax) - math.sqrt(lmin)) / (math.sqrt(lmax) + math.sqrt(lmin))
    return (2.0 / math.pi) * (c0 + c2) * q0 ** d / math.sqrt(s)
