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

The remaining routes were moved here from the package because only tests
call them; their behaviour is unchanged:

* ``lancaster_column`` (from ``oracle``): a Kronecker-sum resolvent
  column by quadrature of the Sylvester exponential kernel;
* ``exp_kron_entry_exact`` and ``sincos_kron_exact`` (from ``kron``):
  exp(-tau A), sin(A) and cos(A) entries of a Kronecker sum from the
  factors' eigendecompositions;
* ``invsqrt_kron_split_bound`` (from ``kron``): the Cauchy-Schwarz split
  of the Kronecker inverse-square-root bound;
* ``gershgorin_interval`` (the former ``spectral_interval(M,
  "gershgorin")``): the Gershgorin disc enclosure;
* ``laplace_reconstruct`` and ``cauchy_reconstruct`` (the former
  ``LaplaceMeasure.reconstruct`` and ``CauchyMeasure.reconstruct``):
  f(x) from a measure by quadrature.
"""

import math
from fractions import Fraction

import numpy as np

from decaybounds.bounds import _envelope_integral
from decaybounds.kron import _component_distances
from decaybounds.matrices import SpectralInterval, spectral_interval
from decaybounds.oracle import eigendecomposition
from decaybounds.quadrature import integrate, integrate_semi_infinite


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


def lancaster_column(M, omega, t, tol=1e-8):
    """Sylvester-equation column by quadrature of the exponential kernel.

    For Hermitian positive definite M and omega <= 0, the solution of
    M X + X (M - omega I) = E_t with E_t = e_{t1} e_{t2}^T is
    X = int_0^inf exp(-tau M) E_t exp(-tau (M - omega I)) dtau.
    Returns vec(X) with the first index fastest, i.e. the column of
    (A - omega I)^{-1} at index t for A the Kronecker sum of M with itself.
    This route is deliberately independent of a direct dense solve so the
    two can be cross-checked.
    """
    if omega > 0:
        raise ValueError("omega must be <= 0")
    t1, t2 = t
    dec = eigendecomposition(M)
    w, u = dec.eigenvalues, dec.eigenvectors
    if w[0] <= 0:
        raise ValueError("M must be positive definite")
    a = np.conj(u[t1 - 1, :])
    b = np.conj(u[t2 - 1, :])

    def integrand(taus):
        # columns u exp(-tau w) a and u exp(-tau (w - omega)) b per node
        e1 = u @ (np.exp(-np.outer(w, taus)) * a[:, None])            # (n, npts)
        e2 = u @ (np.exp(-np.outer(w - omega, taus)) * b[:, None])    # (n, npts)
        # vec with first index fastest: flat[(k2-1)n + k1 - 1] = X[k1, k2]
        return (e2.T[:, :, None] * e1.T[:, None, :]).reshape(taus.size, -1)

    r = integrate_semi_infinite(integrand, 0.0, tol, initial_width=0.5 / w[0])
    if not r.converged:
        raise RuntimeError("Sylvester kernel quadrature did not converge")
    return np.asarray(r.value)


def exp_kron_entry_exact(A, tau, k, t):
    """Exact entry of exp(-tau A) as the product of per-factor entries."""
    km, tm = A.delinearize(k), A.delinearize(t)
    val = 1.0
    for f, a, b in zip(A.factors, km, tm):
        dec = eigendecomposition(f)
        w, u = dec.eigenvalues, dec.eigenvectors
        val = val * (u[a - 1, :] * np.exp(-tau * w)) @ np.conj(u[b - 1, :])
    return complex(val) if np.iscomplexobj(np.asarray(val)) else float(val)


def sincos_kron_exact(A, k, t, which):
    """Exact sin(A) / cos(A) entry for a two-factor Kronecker sum via the
    product identities (sine/cosine addition laws lifted to matrices)."""
    if len(A.factors) != 2:
        raise ValueError("the trigonometric identities cover two factors")
    if which not in ("sin", "cos"):
        raise ValueError(f"which must be 'sin' or 'cos', got {which!r}")
    (k1, k2), (t1, t2) = A.delinearize(k), A.delinearize(t)

    def entry(f, fun, a, b):
        dec = eigendecomposition(f)
        w, u = dec.eigenvalues, dec.eigenvectors
        return (u[a - 1, :] * fun(w)) @ np.conj(u[b - 1, :])

    m1, m2 = A.factors
    s1, c1 = entry(m1, np.sin, k1, t1), entry(m1, np.cos, k1, t1)
    s2, c2 = entry(m2, np.sin, k2, t2), entry(m2, np.cos, k2, t2)
    val = s1 * c2 + c1 * s2 if which == "sin" else c1 * c2 - s1 * s2
    return complex(val) if np.iscomplexobj(np.asarray(val)) else float(val)


def invsqrt_kron_split_bound(A, k, t, *, quad_tol=1e-10, max_panels=10000,
                             intervals=None):
    """Cauchy-Schwarz cross-check for the inverse square root of a
    two-factor sum: pi^{-1/2} prod_L (int E_L(tau)^2 tau^{-1/2} dtau)^{1/2}.

    Never tighter than the direct product integral (it bounds it from
    above by the inequality itself).
    """
    if len(A.factors) != 2:
        raise ValueError("the split bound is stated for two factors")
    ivs = (tuple(spectral_interval(f) for f in A.factors)
           if intervals is None else intervals)
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


def gershgorin_interval(M):
    """Gershgorin disc enclosure of a banded or sparse Hermitian matrix;
    never tighter than the exact interval."""
    a = M.toarray()
    center = np.diag(a).real
    radius = np.abs(a).sum(axis=1) - np.abs(center)
    return SpectralInterval(float(np.min(center - radius)),
                            float(np.max(center + radius)))


def laplace_reconstruct(measure, x, tol=1e-10):
    """Evaluate f(x) from a Laplace measure's representation (quadrature +
    atoms)."""
    if not measure.has_representation:
        raise ValueError(
            f"measure {measure.name!r} is a catalog stub without a stored "
            "density; only its closed form is available")
    total = 0.0
    if measure.density is not None:
        f = lambda t: np.exp(-x * t) * measure.density(t)
        if math.isinf(measure.support_upper):
            r = integrate_semi_infinite(f, 0.0, tol,
                                        singularity_a=measure.singularity_exponent)
        else:
            r = integrate(f, 0.0, measure.support_upper, tol,
                          singularity_a=measure.singularity_exponent)
        if not r.converged:
            raise RuntimeError(f"reconstruction quadrature failed for {measure.name}")
        total += r.value
    for loc, weight in measure.atoms:
        total += weight * math.exp(-x * loc)
    return total


def cauchy_reconstruct(measure, x, tol=1e-10):
    """Evaluate f(x) = int v(omega)/(x - omega) domega by quadrature."""
    s0 = -measure.support_upper
    f = lambda s: measure.density_s(s) / (x + s)
    r = integrate_semi_infinite(f, s0, tol,
                                singularity_a=measure.singularity_exponent)
    if not r.converged:
        raise RuntimeError(f"reconstruction quadrature failed for {measure.name}")
    return r.value
