"""Decay bounds for functions of Kronecker sums.

For A the Kronecker sum of banded Hermitian factors, the semigroup
factorizes entrywise, exp(-tau A)[k, t] = prod_L exp(-tau M_L)[k_L, t_L],
so transform-class bounds for f(A) integrate a product of per-factor
capped envelopes.  The non-monotonic, oscillating profile of f(A) columns
comes out of the product structure automatically.
"""

from __future__ import annotations

import math

from .bounds import DecayBoundReport, _distance, _envelope_integral, exp_envelope
from .matrices import spectral_interval
# Not called here; perfbench/tracer.py wraps kron.integrate* when it times
# the quadrature layer, so the names must exist.
from .quadrature import integrate, integrate_semi_infinite  # noqa: F401


def _intervals(A):
    return tuple(spectral_interval(f) for f in A.factors)


def _component_distances(A, k, t):
    km, tm = A.delinearize(k), A.delinearize(t)
    return tuple(_distance(a, b, f.beta, None)
                 for a, b, f in zip(km, tm, A.factors))


def exp_kron_bound(A, tau, k, t, *, intervals=None):
    """Product envelope bound for |exp(-tau A)|_{k t}.

    Stated validity needs every component distance to clear the envelope's
    Gaussian window, |k_L - t_L| >= sqrt(4 rho_L tau) beta_L; outside it
    the capped envelope (factor at most exp(-tau lambda_min)) still gives
    a rigorous value, reported with ``valid=False``.
    """
    if k == t:
        raise ValueError("diagonal entries are not covered by the bound")
    ivs = _intervals(A) if intervals is None else intervals
    dists = _component_distances(A, k, t)
    val = 1.0
    valid = True
    for iv, d in zip(ivs, dists):
        val *= math.exp(-tau * iv.lambda_min) * exp_envelope(iv.rho * tau, d)
        if d < math.sqrt(4.0 * iv.rho * tau):
            valid = False
    return DecayBoundReport(k=A.delinearize(k), t=A.delinearize(t),
                            distance=dists, bound=val, valid=valid)


def _check_validity(dists, on_invalid):
    valid = all(d >= 2.0 for d in dists)
    if not valid and on_invalid == "raise":
        raise ValueError(
            "the Kronecker bound is stated for component distances "
            f"|k_i - t_i|/beta_i >= 2; got {dists} "
            "(use on_invalid='extend' for the capped-envelope extension)")
    return valid


def _kron_bound(A, k, t, intervals, on_invalid, weight, upper, singularity,
                atoms, quad_tol, max_panels):
    """Shared wrapper of the Laplace and Cauchy routes: the product-envelope
    integral over the factors of A at the component distances of (k, t)."""
    if len(A.factors) not in (2, 3):
        raise ValueError("Kronecker bounds support two or three factors")
    ivs = _intervals(A) if intervals is None else intervals
    for iv in ivs:
        if not iv.is_positive_definite:
            raise ValueError("Kronecker bounds need positive definite factors")
    dists = _component_distances(A, k, t)
    valid = _check_validity(dists, on_invalid)
    total, _, err, evals, converged = _envelope_integral(
        tuple(zip(ivs, dists)), weight, upper, singularity, atoms, quad_tol,
        max_panels)
    return DecayBoundReport(k=A.delinearize(k), t=A.delinearize(t),
                            distance=dists, bound=total,
                            error_estimate=err, evaluations=evals,
                            converged=converged, valid=valid)


def laplace_kron_bound(A, measure, k, t, *, quad_tol=1e-10,
                       on_invalid="raise", max_panels=10000, intervals=None):
    """Entry bound for f(A), f completely monotonic, A = M_1 (+) M_2 [(+) M_3].

    Integrates the product of per-factor capped envelopes against the
    representing measure; the integration is split at every factor's
    envelope regime boundaries.  Handles two or three factors.
    """
    if not measure.has_representation:
        raise ValueError(f"measure {measure.name!r} has no stored representation")
    return _kron_bound(A, k, t, intervals, on_invalid, measure.density,
                       measure.support_upper, measure.singularity_exponent,
                       measure.atoms, quad_tol, max_panels)


def cauchy_kron_bound(A, measure, k, t, *, quad_tol=1e-10,
                      on_invalid="raise", max_panels=10000, intervals=None):
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
    return _kron_bound(A, k, t, intervals, on_invalid, weight, math.inf,
                       measure.transform_singularity, (), quad_tol, max_panels)
