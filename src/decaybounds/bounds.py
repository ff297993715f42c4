"""Entrywise decay bounds for functions of a single banded Hermitian
positive definite matrix.

The two building blocks are the capped two-regime envelope for entries of
the semigroup exp(-tau M) (superexponential tail) and the resolvent decay
constants of Demko/Freund type (exponential tail).  Transform-class bounds
integrate these kernels against the representing measure.

Distances are band-scaled: d = |k - t| / beta by default, and every bound
accepts an explicit ``distance`` override so geodesic distances can be
substituted for general sparsity patterns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import integrate, integrate_semi_infinite

_LOG10 = math.log(10.0)


@dataclass(frozen=True)
class DecayBoundReport:
    """Per-entry bound with provenance: distance used, integral pieces,
    quadrature error estimate and whether the stated validity region holds."""

    k: object
    t: object
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
    Vectorized over ``rho_tau``.
    """
    rt = np.asarray(rho_tau, dtype=float)
    scalar = rt.ndim == 0
    rt = np.atleast_1d(rt)
    if np.any(rt < 0):
        raise ValueError("rho * tau must be nonnegative")
    d = float(d)
    out = np.ones_like(rt)
    if d > 0:
        gauss = (rt >= 1.0) & (d * d >= 4.0 * rt)
        if np.any(gauss):
            d1 = np.minimum(d, 2.0 * rt[gauss])
            out[gauss] = np.minimum(out[gauss],
                                    10.0 * np.exp(-d1 * d1 / (5.0 * rt[gauss])))
        tail = (rt > 0.0) & (d >= 2.0 * rt)
        if np.any(tail):
            r = rt[tail]
            logv = _LOG10 - r - np.log(r) + d * (1.0 + np.log(r) - math.log(d))
            out[tail] = np.minimum(out[tail], np.exp(np.minimum(logv, 0.0)))
        zero = rt == 0.0
        if np.any(zero) and d > 1.0:
            out[zero] = 0.0
    return float(out[0]) if scalar else out


def _distance(k, t, beta, distance):
    if distance is not None:
        return float(distance)
    if beta <= 0:
        raise ValueError("band distance needs beta >= 1; pass an explicit distance")
    return abs(k - t) / beta


def exp_entry_bound(interval, beta, tau, k, t, *, distance=None):
    """Upper bound for |exp(-tau M)|_{k t}, k != t, M Hermitian PSD with
    spectrum in [lambda_min, lambda_min + 4 rho]."""
    if distance is None and k == t:
        raise ValueError("diagonal entries are not covered by the bound")
    d = _distance(k, t, beta, distance)
    if d <= 0:
        raise ValueError("distance must be positive")
    return math.exp(-tau * interval.lambda_min) * exp_envelope(interval.rho * tau, d)


def _demko_kernel(lmin, lmax, s):
    """Constant and rate (C, q) of |(M + s I)^{-1}|_{k t} <= C q^d for
    spectrum(M) in [lmin, lmax], lmin + s > 0; vectorized over s."""
    kap = (lmax + s) / (lmin + s)
    sq = np.sqrt(kap)
    return (np.maximum(1.0 / (lmin + s), (1.0 + sq) ** 2 / (2.0 * (lmax + s))),
            (sq - 1.0) / (sq + 1.0))


def _freund_kernel(lmin, lmax, zeta, s):
    """Constant and radius (C, R) of |(M + s I - i zeta I)^{-1}|_{k t}
    <= C R^{-d}: the ellipse through the origin with foci at the shifted
    spectral endpoints; vectorized over s."""
    if lmax <= lmin:
        raise ValueError("degenerate spectrum: lambda_min must be < lambda_max")
    delta = lmax - lmin
    alpha = (np.hypot(lmin + s, zeta) + np.hypot(lmax + s, zeta)) / delta
    r = alpha + np.sqrt(alpha * alpha - 1.0)
    return (2.0 * r / delta) * 4.0 * r * r / (r * r - 1.0) ** 2, r


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


def demko_bound(M, interval, k, t, *, distance=None):
    """Classical bound |M^{-1}|_{k t} <= C q^{|k-t|/beta} for banded HPD M.

    The diagonal is normalized to at most one before applying the constant
    and the bound is multiplied back by the reciprocal of the normalizer
    (a no-op in exact arithmetic, kept explicit for fidelity to the
    normalized statement).
    """
    if not interval.is_positive_definite:
        raise ValueError("the resolvent bound needs a positive definite matrix")
    d = _distance(k, t, M.beta, distance)
    s = M.diagonal_max()
    s = s if s > 1.0 else 1.0
    c, q = _demko_kernel(interval.lambda_min / s, interval.lambda_max / s, 0.0)
    return float((c / s) * q ** d)


def freund_resolvent_bound(interval, beta, zeta, k, t, *, distance=None):
    """Bound for |(M - i zeta I)^{-1}|_{k t}, k != t."""
    if distance is None and k == t:
        raise ValueError("the resolvent bound covers off-diagonal entries only")
    c, r = _freund_kernel(interval.lambda_min, interval.lambda_max, zeta, 0.0)
    d = _distance(k, t, beta, distance)
    return float(c * r ** (-d))


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


def _envelope_integral(factors, weight, upper, singularity, atoms, quad_tol,
                       max_panels):
    """Integral of the product envelope prod_L exp(-lambda_min_L tau)
    E(rho_L tau, d_L) against weight(tau) dtau on (0, upper], plus the
    envelope at each atom (location, mass).

    ``factors`` holds one (SpectralInterval, distance) pair per Kronecker
    factor; a single matrix is the one-factor case, since the semigroup of
    a Kronecker sum factorizes entrywise.  The quadrature is split at every
    factor's envelope breakpoints, ``singularity`` (the weight's exponent
    at 0) applies to the first segment, and ``weight=None`` integrates the
    atoms only.  Returns (total, segments, error, evaluations, converged);
    ``segments`` lists (lo, hi, value) in edge order followed by one
    (location, location, value) per atom, and ``total`` sums them in that
    order.
    """
    terms = [(iv.lambda_min, iv.rho, float(d)) for iv, d in factors]
    first, *rest = terms

    def integrand(taus):
        taus = np.asarray(taus, dtype=float)
        lmin, rho, d = first
        out = np.exp(-lmin * taus) * exp_envelope(rho * taus, d)
        for lmin, rho, d in rest:
            out = out * np.exp(-lmin * taus) * exp_envelope(rho * taus, d)
        return out * weight(taus)

    cuts = sorted({c for _, rho, d in terms for c in _envelope_breakpoints(d, rho)
                   if 0.0 < c < upper})
    edges = [0.0] + cuts + [upper]
    segments, err, evals, converged = [], 0.0, 0, True
    if weight is not None:
        for lo, hi in zip(edges[:-1], edges[1:]):
            sing = singularity if lo == 0.0 else 0.0
            if math.isinf(hi):
                r = integrate_semi_infinite(integrand, lo, 0.0, rtol=quad_tol,
                                            singularity_a=sing,
                                            max_panels=max_panels)
            else:
                r = integrate(integrand, lo, hi, 0.0, rtol=quad_tol,
                              singularity_a=sing, max_panels=max_panels)
            segments.append((lo, hi, float(np.asarray(r.value))))
            err += r.error_estimate
            evals += r.evaluations
            converged = converged and r.converged
    for loc, mass in atoms:
        segments.append((loc, loc, mass * math.prod(
            math.exp(-lmin * loc) * exp_envelope(rho * loc, d)
            for lmin, rho, d in terms)))
    total = 0.0
    for _, _, value in segments:
        total += value
    return total, segments, err, evals, converged


def laplace_entry_bound(interval, beta, measure, k, t, *, quad_tol=1e-10,
                        distance=None, on_invalid="raise", max_panels=10000):
    """Entry bound for f(M) with f completely monotonic, M banded HPD.

    Integrates the capped semigroup envelope against the representing
    measure, split at the envelope's regime boundaries.  The report's
    pieces I, II, III sum the segments (and atoms) in the superexponential,
    Gaussian and trivial regimes.  Stated validity requires
    d = |k - t|/beta >= 2; smaller distances either raise
    (``on_invalid='raise'``) or are evaluated with the capped envelope and
    flagged ``valid=False`` (``on_invalid='extend'``).  The same number
    bounds |f(M + i zeta I)|_{k t} for every real zeta: the shift only
    rotates the semigroup by a unimodular phase.
    """
    if not interval.is_positive_definite:
        raise ValueError("Laplace-class bounds need a positive definite matrix")
    if not measure.has_representation:
        raise ValueError(f"measure {measure.name!r} has no stored representation")
    d = _distance(k, t, beta, distance)
    valid = d >= 2.0
    if not valid and on_invalid == "raise":
        raise ValueError(
            f"bound is stated for |k-t|/beta >= 2; got distance {d} "
            "(use on_invalid='extend' for the capped-envelope extension)")
    _, segments, err, evals, converged = _envelope_integral(
        ((interval, d),), measure.density, measure.support_upper,
        measure.singularity_exponent, measure.atoms, quad_tol, max_panels)
    rho = interval.rho
    pieces = {"I": 0.0, "II": 0.0, "III": 0.0}
    for lo, hi, value in segments:
        mid = 0.5 * (lo + hi) if math.isfinite(hi) else lo + 1.0
        if rho > 0 and mid <= d / (2.0 * rho):
            pieces["I"] += value
        elif rho > 0 and mid <= d * d / (4.0 * rho):
            pieces["II"] += value
        else:
            pieces["III"] += value
    total = pieces["I"] + pieces["II"] + pieces["III"]
    return DecayBoundReport(k=k, t=t, distance=d, bound=total, pieces=pieces,
                            error_estimate=err, evaluations=evals,
                            converged=converged, valid=valid)


def _total_variation_quadrature(kernel, measure, quad_tol, max_panels):
    """Integrate kernel(s) |v(-s)| over [-support_upper, inf).

    When the measure declares a smooth tail envelope (oscillatory
    densities), the integrand beyond ``tail_start`` is replaced by
    kernel * envelope: still a rigorous upper bound, but cheap to resolve.
    """
    s0 = -measure.support_upper
    f_abs = lambda s: kernel(s) * measure.abs_density_s(s)
    if measure.tail_envelope is None or not math.isfinite(measure.tail_start):
        r = integrate_semi_infinite(f_abs, s0, 0.0, rtol=quad_tol,
                                    singularity_a=measure.singularity_exponent,
                                    max_panels=max_panels)
        return (float(np.asarray(r.value)), r.error_estimate, r.evaluations,
                r.converged)
    split = max(measure.tail_start, s0 + 1.0)
    head = integrate(f_abs, s0, split, 0.0, rtol=quad_tol,
                     singularity_a=measure.singularity_exponent,
                     max_panels=max_panels)
    f_env = lambda s: kernel(s) * measure.tail_envelope(s)
    tail = integrate_semi_infinite(f_env, split, 0.0, rtol=quad_tol,
                                   max_panels=max_panels)
    return (float(np.asarray(head.value)) + float(np.asarray(tail.value)),
            head.error_estimate + tail.error_estimate,
            head.evaluations + tail.evaluations,
            head.converged and tail.converged)


def cauchy_entry_bound(M, interval, beta, measure, k, t, *, quad_tol=1e-10,
                       distance=None, max_panels=10000):
    """Entry bound for f(M) with f Markov-type, M banded HPD.

    Integrates the shifted-resolvent kernel C(omega) q(omega)^d against the
    total variation of the representing measure.  The diagonal
    normalization used by the resolvent constant cancels exactly (see
    :func:`demko_constant`), so the scale-invariant form is integrated.
    """
    if not interval.is_positive_definite:
        raise ValueError("Cauchy-class bounds need a positive definite matrix")
    d = _distance(k, t, beta, distance)
    lmin, lmax = interval.lambda_min, interval.lambda_max

    def kernel(s):
        c, q = _demko_kernel(lmin, lmax, np.asarray(s, dtype=float))
        return c * q ** d

    value, err, evals, converged = _total_variation_quadrature(
        kernel, measure, quad_tol, max_panels)
    return DecayBoundReport(k=k, t=t, distance=d, bound=value,
                            error_estimate=err, evaluations=evals,
                            converged=converged, valid=True)


def invsqrt_closed_bound(interval, beta, k, t, *, diag_max=None, distance=None):
    """Closed-form bound for |M^{-1/2}|_{k t}, k != t:

        (2/pi) (C(0) + C2) q0^{|k-t|/beta},
        q0 = (sqrt(lmax) - sqrt(lmin)) / (sqrt(lmax) + sqrt(lmin)).

    ``C2`` is the conservative maximum of the two circulating variants
    of the constant.  When ``diag_max`` is supplied the diagonal is normalized to
    at most one first and the bound is rescaled by diag_max^{-1/2}
    (inverse square roots scale with power -1/2).
    """
    if interval.lambda_min <= 0:
        raise ValueError("the inverse square root needs a positive definite matrix")
    if distance is None and k == t:
        raise ValueError("the closed-form bound covers off-diagonal entries only")
    d = _distance(k, t, beta, distance)
    s = 1.0
    if diag_max is not None and diag_max > 1.0:
        s = float(diag_max)
    lmin, lmax = interval.lambda_min / s, interval.lambda_max / s
    kappa = lmax / lmin
    c0 = demko_constant(lmin, lmax)
    c2 = max(1.0,
             math.sqrt(1.0 + 0.5 * math.sqrt(kappa)),
             math.sqrt(1.0 + math.sqrt(kappa)) / 2.0)
    q0 = (math.sqrt(lmax) - math.sqrt(lmin)) / (math.sqrt(lmax) + math.sqrt(lmin))
    return (2.0 / math.pi) * (c0 + c2) * q0 ** d / math.sqrt(s)


def cauchy_shifted_bound(interval, beta, measure, zeta, k, t, *,
                         quad_tol=1e-10, distance=None, max_panels=10000):
    """Entry bound for |f(M - i zeta I)|_{k t}, k != t, f Markov-type.

    Uses the elliptical resolvent kernel with foci at the shifted spectral
    endpoints; the kernel radius grows with |zeta| (the spectrum moves away
    from the integration ray), so the bound improves as |zeta| grows.
    """
    if distance is None and k == t:
        raise ValueError("the shifted bound covers off-diagonal entries only")
    d = _distance(k, t, beta, distance)
    lmin, lmax = interval.lambda_min, interval.lambda_max

    def kernel(s):
        c, r = _freund_kernel(lmin, lmax, zeta, np.asarray(s, dtype=float))
        return c * r ** (-d)

    value, err, evals, converged = _total_variation_quadrature(
        kernel, measure, quad_tol, max_panels)
    return DecayBoundReport(k=k, t=t, distance=d, bound=value,
                            error_estimate=err, evaluations=evals,
                            converged=converged, valid=True)
