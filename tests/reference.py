"""Independent reference computations used only by the test suite.

These deliberately avoid the code paths they are used to check: a
cancellation-free Taylor series for exponentials of matrices with
nonpositive off-diagonal entries (accurate in the relative sense at any
magnitude, far below the eigensolver's noise floor), high-precision
analytic eigenpair sums for the tridiagonal Toeplitz test matrix, exact
rational inversion, Floyd-Warshall distances, and scipy quadrature of
total-variation transforms.  ``laplace_transform_of_cauchy`` evaluates a
Cauchy measure's Laplace transform from its density with the package's
semi-infinite quadrature, for checking the stored closed forms.
"""

import math
from fractions import Fraction

import numpy as np

from decaybounds.quadrature import integrate_semi_infinite


def expm_column_nonneg(a, tau, t, max_terms=2000):
    """Column t (1-based) of exp(-tau a) for a with nonpositive
    off-diagonal entries, via the entrywise-nonnegative series
    exp(-tau a) = exp(-tau c) exp(tau (cI - a)), c = max diagonal.

    Every series term is nonnegative, so each entry is summed without
    cancellation and is accurate in the relative sense down to underflow.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    off = a - np.diag(np.diag(a))
    if off.max() > 0:
        raise ValueError("requires nonpositive off-diagonal entries")
    c = float(np.max(np.diag(a)))
    s = c * np.eye(n) - a
    snorm = np.abs(s).sum(axis=1).max()
    v = np.zeros(n)
    v[t - 1] = 1.0
    acc = v.copy()
    for m in range(1, max_terms):
        v = (tau / m) * (s @ v)
        acc += v
        if m > 2 * tau * snorm and np.all(v <= np.finfo(float).eps * acc):
            break
    return np.exp(-tau * c) * acc


def tridiag_entry_mp(n, f, k, t, dps=80):
    """Entry (k, t) of f(M) for M = tridiag(-1, 4, -1) of order n via the
    analytic eigenpairs lambda_j = 4 - 2 cos(j pi / (n+1)),
    v_j(k) = sqrt(2/(n+1)) sin(j k pi / (n+1)), summed at dps digits.

    ``f`` takes an mpmath float and returns one.
    """
    import mpmath as mp

    with mp.workdps(dps):
        h = mp.pi / (n + 1)
        total = mp.mpf(0)
        for j in range(1, n + 1):
            lam = 4 - 2 * mp.cos(j * h)
            total += mp.sin(j * k * h) * mp.sin(j * t * h) * f(lam)
        return float(total * 2 / (n + 1))


def tridiag_lambda_min(n, dps=50):
    import mpmath as mp

    with mp.workdps(dps):
        return float(4 - 2 * mp.cos(mp.pi / (n + 1)))


def exact_inverse(a_int):
    """Exact inverse of a small integer (or Fraction) matrix by
    fraction-arithmetic Gauss-Jordan elimination."""
    n = len(a_int)
    m = [[Fraction(a_int[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return np.array([[float(m[i][n + j]) for j in range(n)] for i in range(n)])


def floyd_warshall(adjacency):
    """All-pairs shortest path lengths for a 0/1 adjacency matrix."""
    adjacency = np.asarray(adjacency)
    n = adjacency.shape[0]
    dist = np.where(adjacency > 0, 1.0, np.inf)
    np.fill_diagonal(dist, 0.0)
    for mid in range(n):
        dist = np.minimum(dist, dist[:, mid:mid + 1] + dist[mid:mid + 1, :])
    return dist


def expsqrt_variation_transform(tpar, tau):
    """int_0^inf exp(-tau s) |sin(tpar sqrt(s))| / (pi s) ds, the transform
    of the total variation of the expsqrt:<tpar> Markov measure.

    scipy ``quad`` in u = sqrt(s), one half-period of the sine per call so
    every piece is smooth; stops once the remaining tail, at most
    exp(-tau u^2) / (pi tau u^2), is below 1e-13 of the sum.
    """
    from scipy.integrate import quad

    def f(u):
        return math.exp(-tau * u * u) * abs(math.sin(tpar * u)) * 2.0 / (math.pi * u)

    width = math.pi / tpar
    total, j = 0.0, 0
    while True:
        total += quad(f, j * width, (j + 1) * width, epsabs=0.0, epsrel=1e-12)[0]
        j += 1
        x = tau * (j * width) ** 2
        if x > 1.0 and math.exp(-x) / (math.pi * x) < 1e-13 * total:
            return total


def laplace_transform_of_cauchy(measure, tau, tol=1e-10, use_abs=False):
    """g(tau) = int_{-inf}^{upper} exp(tau omega) dgamma(omega), tau > 0.

    The stored closed form is used when available; for total-variation
    integrals of signed measures (``use_abs=True``) or measures without a
    closed form, the integral is evaluated by semi-infinite quadrature.
    Raises when the quadrature does not converge (divergent integrals are
    reported the same way, with a diagnostic).
    """
    if tau <= 0:
        raise ValueError("the transform needs tau > 0")
    if measure.laplace_transform is not None and not (use_abs and measure.signed):
        return float(measure.laplace_transform(tau))
    dens = measure.abs_density_s if use_abs else measure.density_s
    s0 = -measure.support_upper
    f = lambda s: np.exp(-tau * s) * dens(s)
    r = integrate_semi_infinite(f, s0, tol,
                                singularity_a=measure.singularity_exponent)
    if not r.converged:
        raise RuntimeError(
            f"Laplace transform of {measure.name} did not converge at tau={tau}; "
            "the integral may be divergent")
    return r.value
