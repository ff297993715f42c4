"""Decay bounds for functions of Kronecker sums.

For A the Kronecker sum of Hermitian factors, the semigroup factorizes
entrywise, exp(-tau A)[k, t] = prod_L exp(-tau M_L)[k_L, t_L], so
transform-class bounds for f(A) integrate a product of per-factor capped
envelopes.  The non-monotonic, oscillating profile of f(A) columns
comes out of the product structure automatically.  Every bound takes the
factors' spectral intervals and the tuple of per-factor band distances
(``figures._distances``), its one spatial input.  A single matrix is the
one-factor case, so the product envelope integral and ``exp_bounds`` live
in :mod:`decaybounds.bounds`; this module checks the factors.
"""

from __future__ import annotations

import math

from .bounds import DecayBoundReport, _envelope_integral, exp_bounds
# None is called here; perfbench/tracer.py wraps kron.exp_envelope,
# kron.spectral_interval and kron.integrate* when it times the envelope,
# enclosure and quadrature layers, so the names must exist.
from .bounds import exp_envelope  # noqa: F401
from .matrices import spectral_interval  # noqa: F401
from .quadrature import integrate, integrate_semi_infinite  # noqa: F401


def exp_kron_bound(intervals, tau, distances):
    """Entry bound at one distance tuple: the one-tuple exp_bounds."""
    return exp_bounds(intervals, tau, (distances,))[0]


def _kron_bounds(intervals, distances, weight, upper, singularity, atoms,
                 quad_tol, max_panels, log_weight=None):
    """Shared engine of the Laplace and Cauchy routes: the product-envelope
    integrals over the factors at each tuple of component distances, each
    ``valid`` when every d_L >= 2 (the capped envelopes bound any d_L)."""
    if len(intervals) not in (2, 3):
        raise ValueError("Kronecker bounds support two or three factors")
    for iv in intervals:
        if not iv.is_positive_definite:
            raise ValueError("Kronecker bounds need positive definite factors")
    distances = [tuple(ds) for ds in distances]
    if any(len(ds) != len(intervals) for ds in distances):
        raise ValueError("each distance tuple needs one distance per factor")
    integrals = _envelope_integral(intervals, distances, weight, upper,
                                   singularity, atoms, quad_tol, max_panels,
                                   log_weight)
    return [DecayBoundReport(distance=ds, bound=total, error_estimate=err,
                             evaluations=evals, converged=converged,
                             valid=all(d >= 2.0 for d in ds))
            for ds, (total, _, err, evals, converged)
            in zip(distances, integrals)]


def laplace_kron_bounds(intervals, measure, distances, *, quad_tol=1e-10,
                        max_panels=10000):
    """Entry bounds for f(A), f completely monotonic, A = M_1 (+) M_2
    [(+) M_3], at each tuple of per-factor distances: a list of reports,
    from one lockstep quadrature.

    Integrates the product of per-factor capped envelopes against the
    representing measure; the integration is split at every factor's
    envelope regime boundaries.  Handles two or three factors.
    """
    if not measure.has_representation:
        raise ValueError(f"measure {measure.name!r} has no stored representation")
    return _kron_bounds(intervals, distances, measure.density,
                        measure.support_upper, measure.singularity_exponent,
                        measure.atoms, quad_tol, max_panels,
                        measure.log_density)


def laplace_kron_bound(intervals, measure, distances, *, quad_tol=1e-10,
                       max_panels=10000):
    """Entry bound at one distance tuple: the one-tuple laplace_kron_bounds."""
    return laplace_kron_bounds(intervals, measure, (distances,),
                               quad_tol=quad_tol, max_panels=max_panels)[0]


def cauchy_kron_bounds(intervals, measure, distances, *, quad_tol=1e-10,
                       max_panels=10000):
    """Entry bounds for f(A), f Markov-type with support in (-inf, 0], at
    each tuple of per-factor distances: a list of reports, from one
    lockstep quadrature.

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
    return _kron_bounds(intervals, distances, weight, math.inf,
                        measure.transform_singularity, (), quad_tol, max_panels)


def cauchy_kron_bound(intervals, measure, distances, *, quad_tol=1e-10,
                      max_panels=10000):
    """Entry bound at one distance tuple: the one-tuple cauchy_kron_bounds."""
    return cauchy_kron_bounds(intervals, measure, (distances,),
                              quad_tol=quad_tol, max_panels=max_panels)[0]
