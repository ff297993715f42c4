"""Exact identities and decay bounds for functions of Kronecker sums.

For A the Kronecker sum of banded Hermitian factors, the semigroup
factorizes entrywise, exp(-tau A)[k, t] = prod_L exp(-tau M_L)[k_L, t_L],
so transform-class bounds for f(A) integrate a product of per-factor
capped envelopes.  The non-monotonic, oscillating profile of f(A) columns
comes out of the product structure automatically.
"""

from __future__ import annotations

import math

import numpy as np

from . import oracle
from .bounds import DecayBoundReport, _envelope_integral, exp_envelope
from .matrices import spectral_interval
# Not called here; perfbench/tracer.py wraps kron.integrate* when it times
# the quadrature layer, so the names must exist.
from .quadrature import integrate, integrate_semi_infinite  # noqa: F401


def _intervals(A):
    return tuple(spectral_interval(f) for f in A.factors)


def _component_distances(A, k, t):
    km, tm = A.delinearize(k), A.delinearize(t)
    return tuple(abs(a - b) / f.beta for a, b, f in zip(km, tm, A.factors))


def exp_kron_entry_exact(A, tau, k, t):
    """Exact entry of exp(-tau A) as the product of per-factor entries."""
    km, tm = A.delinearize(k), A.delinearize(t)
    val = 1.0
    for f, a, b in zip(A.factors, km, tm):
        dec = oracle.eigendecomposition(f)
        w, u = dec.eigenvalues, dec.eigenvectors
        val = val * (u[a - 1, :] * np.exp(-tau * w)) @ np.conj(u[b - 1, :])
    return complex(val) if np.iscomplexobj(np.asarray(val)) else float(val)


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


def sincos_kron_exact(A, k, t, which):
    """Exact sin(A) / cos(A) entry for a two-factor Kronecker sum via the
    product identities (sine/cosine addition laws lifted to matrices)."""
    if len(A.factors) != 2:
        raise ValueError("the trigonometric identities cover two factors")
    if which not in ("sin", "cos"):
        raise ValueError(f"which must be 'sin' or 'cos', got {which!r}")
    (k1, k2), (t1, t2) = A.delinearize(k), A.delinearize(t)

    def entry(f, fun, a, b):
        dec = oracle.eigendecomposition(f)
        w, u = dec.eigenvalues, dec.eigenvectors
        return (u[a - 1, :] * fun(w)) @ np.conj(u[b - 1, :])

    m1, m2 = A.factors
    s1, c1 = entry(m1, np.sin, k1, t1), entry(m1, np.cos, k1, t1)
    s2, c2 = entry(m2, np.sin, k2, t2), entry(m2, np.cos, k2, t2)
    val = s1 * c2 + c1 * s2 if which == "sin" else c1 * c2 - s1 * s2
    return complex(val) if np.iscomplexobj(np.asarray(val)) else float(val)


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


def invsqrt_kron_split_bound(A, k, t, *, quad_tol=1e-10, max_panels=10000,
                             intervals=None):
    """Cauchy-Schwarz cross-check for the inverse square root of a
    two-factor sum: pi^{-1/2} prod_L (int E_L(tau)^2 tau^{-1/2} dtau)^{1/2}.

    Never tighter than the direct product integral (it bounds it from
    above by the inequality itself); exposed for validation.
    """
    if len(A.factors) != 2:
        raise ValueError("the split bound is stated for two factors")
    ivs = _intervals(A) if intervals is None else intervals
    dists = _component_distances(A, k, t)
    out = 1.0 / math.sqrt(math.pi)
    for iv, d in zip(ivs, dists):
        val, _, _, _, conv = _envelope_integral(
            ((iv, d), (iv, d)), lambda taus: taus ** -0.5, math.inf, -0.5, (),
            quad_tol, max_panels)
        if not conv:
            raise RuntimeError("split-bound quadrature did not converge")
        out *= math.sqrt(val)
    return out
