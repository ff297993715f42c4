"""Entry bounds for functions of Kronecker sums at one tuple of per-factor
distances: the names the benchmark tracer times.

For A the Kronecker sum of Hermitian factors, the semigroup factorizes
entrywise, exp(-tau A)[k, t] = prod_L exp(-tau M_L)[k_L, t_L], so a
single matrix is the one-factor case and every Kronecker route lives in
:mod:`decaybounds.bounds`: ``exp_bounds``, and ``laplace_bounds``, which
takes a Markov function as its transform (``CauchyMeasure.as_laplace``).
"""

from __future__ import annotations

from .bounds import exp_bounds, laplace_bounds
# None is called here; perfbench/tracer.py wraps kron.exp_envelope,
# kron.spectral_interval and kron.integrate* when it times the envelope,
# enclosure and quadrature layers, so the names must exist.
from .bounds import exp_envelope  # noqa: F401
from .matrices import spectral_interval  # noqa: F401
from .quadrature import integrate, integrate_semi_infinite  # noqa: F401


def exp_kron_bound(intervals, tau, distances):
    """Entry bound at one distance tuple: the one-tuple exp_bounds."""
    return exp_bounds(intervals, tau, (distances,))[0]


def laplace_kron_bound(intervals, measure, distances, *, quad_tol=1e-10):
    """Entry bound at one distance tuple, f completely monotonic: the
    one-tuple laplace_bounds."""
    return laplace_bounds(intervals, measure, (distances,),
                          quad_tol=quad_tol)[0]


def cauchy_kron_bound(intervals, measure, distances, *, quad_tol=1e-10):
    """Entry bound at one distance tuple, f Markov-type: the one-tuple
    laplace_bounds on the measure's transform."""
    return laplace_bounds(intervals, measure.as_laplace(), (distances,),
                          quad_tol=quad_tol)[0]
