"""Decay bounds for functions of Kronecker sums.

For A the Kronecker sum of Hermitian factors, the semigroup factorizes
entrywise, exp(-tau A)[k, t] = prod_L exp(-tau M_L)[k_L, t_L], so
transform-class bounds for f(A) integrate a product of per-factor capped
envelopes.  The non-monotonic, oscillating profile of f(A) columns
comes out of the product structure automatically.  Every bound takes the
factors' spectral intervals and the tuple of per-factor band distances,
its one spatial input.
"""

from __future__ import annotations

import math

from .bounds import DecayBoundReport, _envelope_integral, exp_envelope
# Neither is called here; perfbench/tracer.py wraps kron.spectral_interval
# when it times the enclosure layer and kron.integrate* when it times the
# quadrature layer, so the names must exist.
from .matrices import spectral_interval  # noqa: F401
from .quadrature import integrate, integrate_semi_infinite  # noqa: F401


def _component_distances(A, k, t):
    """Per-factor band distances |k_L - t_L| / beta_L of entry (k, t)."""
    if any(f.beta <= 0 for f in A.factors):
        raise ValueError("band distance needs beta >= 1 in every factor")
    return tuple(abs(a - b) / f.beta for a, b, f in
                 zip(A.delinearize(k), A.delinearize(t), A.factors))


def exp_kron_bound(intervals, tau, distances):
    """Product envelope bound for |exp(-tau A)|_{k t} at per-factor
    distances d_L, not all zero.

    Stated validity needs every component distance to clear the envelope's
    Gaussian window, d_L >= sqrt(4 rho_L tau); outside it the capped
    envelope (factor at most exp(-tau lambda_min)) still gives a rigorous
    value, reported with ``valid=False``.
    """
    if not any(distances):
        raise ValueError("diagonal entries are not covered by the bound")
    val = 1.0
    valid = True
    for iv, d in zip(intervals, distances, strict=True):
        val *= math.exp(-tau * iv.lambda_min) * exp_envelope(iv.rho * tau, d)
        if d < math.sqrt(4.0 * iv.rho * tau):
            valid = False
    return DecayBoundReport(distance=tuple(distances), bound=val, valid=valid)


def _check_validity(dists, on_invalid):
    valid = all(d >= 2.0 for d in dists)
    if not valid and on_invalid == "raise":
        raise ValueError(
            "the Kronecker bound is stated for component distances "
            f"d_i >= 2; got {dists} "
            "(use on_invalid='extend' for the capped-envelope extension)")
    return valid


def _kron_bound(intervals, distances, on_invalid, weight, upper, singularity,
                atoms, quad_tol, max_panels):
    """Shared wrapper of the Laplace and Cauchy routes: the product-envelope
    integral over the factors at their component distances."""
    if len(intervals) not in (2, 3):
        raise ValueError("Kronecker bounds support two or three factors")
    for iv in intervals:
        if not iv.is_positive_definite:
            raise ValueError("Kronecker bounds need positive definite factors")
    dists = tuple(distances)
    valid = _check_validity(dists, on_invalid)
    total, _, err, evals, converged = _envelope_integral(
        tuple(zip(intervals, dists, strict=True)), weight, upper, singularity,
        atoms, quad_tol, max_panels)
    return DecayBoundReport(distance=dists, bound=total,
                            error_estimate=err, evaluations=evals,
                            converged=converged, valid=valid)


def laplace_kron_bound(intervals, measure, distances, *, quad_tol=1e-10,
                       on_invalid="raise", max_panels=10000):
    """Entry bound for f(A), f completely monotonic, A = M_1 (+) M_2 [(+) M_3].

    Integrates the product of per-factor capped envelopes against the
    representing measure; the integration is split at every factor's
    envelope regime boundaries.  Handles two or three factors.
    """
    if not measure.has_representation:
        raise ValueError(f"measure {measure.name!r} has no stored representation")
    return _kron_bound(intervals, distances, on_invalid, measure.density,
                       measure.support_upper, measure.singularity_exponent,
                       measure.atoms, quad_tol, max_panels)


def cauchy_kron_bound(intervals, measure, distances, *, quad_tol=1e-10,
                      on_invalid="raise", max_panels=10000):
    """Entry bound for f(A), f Markov-type with support in (-inf, 0].

    The resolvent route reduces to a Laplace-type integral: the inner
    integral over the measure is its Laplace transform g(tau), and the
    bound is the product-envelope integral against g.  For signed measures
    g is replaced by the measure's closed-form bound on the transform of
    its total variation.
    """
    weight = (measure.variation_transform if measure.signed
              else measure.laplace_transform)
    if weight is None:
        raise ValueError(f"measure {measure.name!r} has no closed-form transform")
    return _kron_bound(intervals, distances, on_invalid, weight, math.inf,
                       measure.transform_singularity, (), quad_tol, max_panels)
