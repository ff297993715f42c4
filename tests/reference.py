"""Independent reference computations used only by the test suite.

These deliberately avoid the code paths they are used to check: a
cancellation-free Taylor series for exponentials of matrices with
nonpositive off-diagonal entries (accurate in the relative sense at any
magnitude, far below the eigensolver's noise floor), high-precision
analytic eigenpair sums for the tridiagonal Toeplitz test matrix, exact
rational inversion, Floyd-Warshall distances, and scipy quadrature of
total-variation transforms.  ``envelope_integral_reference`` integrates
the single-matrix Laplace envelope by piecewise scipy quadrature, split
at every kink of the envelope.  ``laplace_transform_of_cauchy`` evaluates a
Cauchy measure's Laplace transform from its density with
``scipy.integrate.quad``, for checking the stored closed forms.

The remaining routes were moved here from the package because only tests
call them; their behaviour is unchanged:

* ``lancaster_column`` (from ``oracle``): a Kronecker-sum resolvent
  column by ``scipy.integrate.quad_vec`` of the Sylvester exponential
  kernel;
* ``exp_kron_entry_exact`` and ``sincos_kron_exact`` (from ``kron``):
  exp(-tau A), sin(A) and cos(A) entries of a Kronecker sum from the
  factors' eigendecompositions;
* ``invsqrt_kron_split_bound`` (from ``kron``): the Cauchy-Schwarz split
  of the Kronecker inverse-square-root bound;
* ``component_distances`` (the former per-entry form of what
  ``figures._distances`` computes for a whole column): the per-factor
  band distances of one entry;
* ``gershgorin_interval`` (the former ``spectral_interval(M,
  "gershgorin")``): the Gershgorin disc enclosure;
* ``kron_toarray`` (the former ``KroneckerSum.toarray``): the dense
  assembly of a Kronecker sum;
* ``laplace_reconstruct`` and ``cauchy_reconstruct`` (the former
  ``LaplaceMeasure.reconstruct`` and ``CauchyMeasure.reconstruct``):
  f(x) from a measure by ``scipy.integrate.quad``.

None of the quadrature routes here runs the package's own quadrature
engine, so they check it independently.

``reference_run_steps`` (with ``reference_finite_step`` and
``reference_semi_infinite_step``) is the lockstep engine as it was
before ``decaybounds.quadrature`` held its steps in arrays: generator
steps, one heap per step.  The array engine must give the same results
field for field.

``stdlib_csv_write`` renders a CSV through the standard library's
``csv.writer``, the reference for the package's own CSV writer.

``chebyshev_tail_bound`` is the Chebyshev tail S of f on the enclosure,
read from ``decaybounds.chebyshev``'s one transform: the bound that is to
replace the envelope integrals, checked here before any command prints
it.
"""

import contextlib
import csv
import functools
import heapq
import math
import sys
from fractions import Fraction

import numpy as np

from decaybounds import chebyshev
from decaybounds.bounds import laplace_bounds
from decaybounds.figures import _distances
from decaybounds.matrices import (KroneckerSum, SpectralInterval,
                                  spectral_interval)
from decaybounds.measures import LaplaceMeasure
from decaybounds.oracle import eigendecomposition
from decaybounds.quadrature import (_MAX_INTERVALS, _NODES, _W_GAUSS, _W_KRONROD,
                                    QuadratureResult)


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


def tridiag_column_mp(n, f, t, dps=30):
    """Column t of f(M) for M = tridiag(-1, 4, -1) of order n from the same
    analytic eigenpairs as ``tridiag_entry_mp``, every entry at once: the
    products j k of the sines take only 2 (n + 1) values mod 2 (n + 1),
    each evaluated once.  ``f`` takes an mpmath float and returns one."""
    import mpmath as mp

    with mp.workdps(dps):
        h = mp.pi / (n + 1)
        sines = [mp.sin(r * h) for r in range(2 * (n + 1))]
        weights = [sines[j * t % (2 * (n + 1))] * f(4 - 2 * mp.cos(j * h))
                   for j in range(1, n + 1)]
        return np.array([float(mp.fsum(
            sines[j * k % (2 * (n + 1))] * w
            for j, w in enumerate(weights, start=1)) * 2 / (n + 1))
            for k in range(1, n + 1)])


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


def banded_inverse_column_mp(M, t, dps=50):
    """Column t (1-based) of M^{-1} as mpmath floats, by banded Gaussian
    elimination without pivoting at ``dps`` digits on the exact binary
    values of M's entries.

    For an M-matrix (nonpositive off-diagonal entries, positive pivots)
    every elimination and substitution step adds terms of one sign, so
    no step cancels and each entry keeps nearly all ``dps`` digits at any
    magnitude; mpmath's exponent range does not underflow.
    """
    import mpmath as mp

    with mp.workdps(dps):
        n, beta = M.n, M.beta
        coo = M.matrix.tocoo()
        if np.any(coo.data[coo.row != coo.col] > 0):
            raise ValueError("requires nonpositive off-diagonal entries")
        rows = [dict() for _ in range(n)]
        for i, j, v in zip(coo.row.tolist(), coo.col.tolist(),
                           coo.data.real.tolist()):
            rows[i][j] = rows[i].get(j, mp.mpf(0)) + mp.mpf(v)
        b = [mp.mpf(int(i == t - 1)) for i in range(n)]
        for k in range(n):
            for i in range(k + 1, min(n, k + beta + 1)):
                if k not in rows[i]:
                    continue
                factor = rows[i].pop(k) / rows[k][k]
                for j in range(k + 1, min(n, k + beta + 1)):
                    if j in rows[k]:
                        rows[i][j] = rows[i].get(j, mp.mpf(0)) - factor * rows[k][j]
                b[i] -= factor * b[k]
        x = [mp.mpf(0)] * n
        for i in range(n - 1, -1, -1):
            x[i] = (b[i] - mp.fsum(v * x[j] for j, v in rows[i].items()
                                   if j > i)) / rows[i][i]
        return x


def banded_kron_estimate(A, t, measure, quad_tol):
    """The banded-matrix estimate that the Kronecker bounds improve on:
    the one-factor Laplace route applied to A = M_1 (+) ... as one matrix
    of bandwidth n_1 ... n_{L-1} beta_L, at the band distance |k - t| /
    that bandwidth, over the enclosure [sum lambda_min, sum lambda_max]
    of A.  One bound per row k of column t (1-based), as a list."""
    ivs = factor_intervals(A)
    iv = SpectralInterval(sum(v.lambda_min for v in ivs),
                          sum(v.lambda_max for v in ivs))
    beta = max(math.prod(A.orders[:i]) * f.beta
               for i, f in enumerate(A.factors))
    ds = [(abs(k - t) / beta,) for k in range(1, A.total_order + 1)]
    return [r.bound for r in laplace_bounds((iv,), measure, ds,
                                            quad_tol=quad_tol)]


def chebyshev_tail_bound(A, f, t, mode="band"):
    """S(m) for every row k of column t (1-based) of f(A), A a single
    matrix or a Kronecker sum of L factors: a list, None at an unreachable
    row.  S(m) is the sum over J >= m of |c_J|, the coefficients of f(x_1
    + ... + x_L) on the factors' enclosures (``chebyshev.tail``), and m_L
    = min(N, ceil(d_L)) for the row's per-factor distances d_L
    (``figures._distances``, band or graph).  T_j of a factor mapped onto
    [-1, 1] vanishes at (k_L, t_L) for j < d_L and is at most 1 in
    modulus, so the exact coefficients would make S an entrywise bound.

    S is not yet rigorous: the computed coefficients differ from c_J by
    aliasing and rounding, neither of which is charged, and coefficients
    at 8 eps max|f| count as zero.  The DCT-I's c_0 is twice the T_0
    coefficient (and c_N twice T_N's), so S overstates where some m_L =
    0, which is the safe direction.  ``ValueError`` where the grid does
    not resolve f."""
    factors = A.factors if isinstance(A, KroneckerSum) else (A,)
    _, tail = chebyshev.tail(f, tuple(spectral_interval(m) for m in factors))
    if tail is None:
        raise ValueError("the Chebyshev grid does not resolve f")
    n = len(tail) - 1
    return [None if math.isinf(max(ds)) else
            float(tail[tuple(min(n, math.ceil(d)) for d in ds)])
            for ds in _distances(A, t, mode)]


def grid_file(tmp_path, m=12):
    """Perturbed 5-point operator on an m x m grid, an M-matrix whose
    diagonal dominates by 0.3 to 0.6, written as a Matrix Market file
    under ``tmp_path``; returns its path."""
    import scipy.io
    import scipy.sparse

    rng = np.random.default_rng(45)
    t = scipy.sparse.diags([-1.0, 0.0, -1.0], [-1, 0, 1], shape=(m, m))
    off = scipy.sparse.triu(scipy.sparse.kronsum(t, t), 1).tocoo()
    off.data = off.data * rng.uniform(0.9, 1.1, off.nnz)
    off = off + off.T
    a = off + scipy.sparse.diags(-np.asarray(off.sum(axis=1)).ravel()
                                 + rng.uniform(0.3, 0.6, m * m))
    path = tmp_path / "grid.mtx"
    scipy.io.mmwrite(str(path), a, symmetry="symmetric")
    return str(path)


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


def _quad(f, a, b, tol, singularity_a, what):
    """int_a^b f (b may be inf) by ``scipy.integrate.quad`` to
    max(tol, tol * |value|).  A left-endpoint singularity (x - a)**p,
    ``singularity_a`` = p in (-1, 0), is first weakened by x = a + u**2.
    Raises RuntimeError naming ``what`` when QUADPACK reports a failure
    (divergent integrals are reported the same way).  The subdivision
    limit is high because the expsqrt densities oscillate without end."""
    from scipy.integrate import quad

    if singularity_a < 0.0:
        g, lo, hi = (lambda u: 2.0 * u * f(a + u * u)), 0.0, math.sqrt(b - a)
    else:
        g, lo, hi = f, a, b
    value, _, _, *failure = quad(g, lo, hi, epsabs=tol, epsrel=tol,
                                 limit=10000, full_output=1)
    if failure:
        raise RuntimeError(f"{what} did not converge: {failure[0]}")
    return value


def laplace_transform_of_cauchy(measure, tau, tol=1e-10, use_abs=False):
    """g(tau) = int_{-inf}^{upper} exp(tau omega) dgamma(omega), tau > 0.

    The stored closed form is used when available; for total-variation
    integrals of signed measures (``use_abs=True``) or measures without a
    closed form, the integral is evaluated by scipy quadrature.  Raises
    when the quadrature does not converge.
    """
    if tau <= 0:
        raise ValueError("the transform needs tau > 0")
    if measure.laplace_transform is not None and not (use_abs and measure.signed):
        return float(measure.laplace_transform(tau))
    dens = (measure.abs_density_s if use_abs
            else lambda s: measure.density(-s))
    return _quad(lambda s: math.exp(-tau * s) * float(dens(s)),
                 -measure.support_upper, math.inf, tol,
                 measure.singularity_exponent,
                 f"Laplace transform of {measure.name} at tau={tau}")


def lancaster_column(M, omega, t, tol=1e-8):
    """Sylvester-equation column by quadrature of the exponential kernel.

    For Hermitian positive definite M and omega <= 0, the solution of
    M X + X (M - omega I) = E_t with E_t = e_{t1} e_{t2}^T is
    X = int_0^inf exp(-tau M) E_t exp(-tau (M - omega I)) dtau.
    Returns vec(X) with the first index fastest, i.e. the column of
    (A - omega I)^{-1} at index t for A the Kronecker sum of M with itself.
    This route is deliberately independent of a direct dense solve so the
    two can be cross-checked; ``tol`` is the absolute and relative
    tolerance of ``scipy.integrate.quad_vec`` in the max norm.
    """
    from scipy.integrate import quad_vec

    if omega > 0:
        raise ValueError("omega must be <= 0")
    t1, t2 = t
    dec = eigendecomposition(M)
    w, u = dec.eigenvalues, dec.eigenvectors
    if w[0] <= 0:
        raise ValueError("M must be positive definite")
    a = np.conj(u[t1 - 1, :])
    b = np.conj(u[t2 - 1, :])

    def integrand(tau):
        # the columns u exp(-tau w) a and u exp(-tau (w - omega)) b
        e1 = u @ (np.exp(-tau * w) * a)
        e2 = u @ (np.exp(-tau * (w - omega)) * b)
        # vec with first index fastest: flat[(k2-1)n + k1 - 1] = X[k1, k2]
        return np.outer(e2, e1).ravel()

    value, _, info = quad_vec(integrand, 0.0, math.inf, epsabs=tol,
                              epsrel=tol, norm="max", full_output=True)
    if not info.success:
        raise RuntimeError("Sylvester kernel quadrature did not converge: "
                           f"{info.message}")
    return value


def exp_kron_entry_exact(A, tau, k, t):
    """Exact entry of exp(-tau A) as the product of per-factor entries."""
    km, tm = A.multi_indices[k - 1].tolist(), A.multi_indices[t - 1].tolist()
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
    (k1, k2), (t1, t2) = A.multi_indices[[k - 1, t - 1]].tolist()

    def entry(f, fun, a, b):
        dec = eigendecomposition(f)
        w, u = dec.eigenvalues, dec.eigenvectors
        return (u[a - 1, :] * fun(w)) @ np.conj(u[b - 1, :])

    m1, m2 = A.factors
    s1, c1 = entry(m1, np.sin, k1, t1), entry(m1, np.cos, k1, t1)
    s2, c2 = entry(m2, np.sin, k2, t2), entry(m2, np.cos, k2, t2)
    val = s1 * c2 + c1 * s2 if which == "sin" else c1 * c2 - s1 * s2
    return complex(val) if np.iscomplexobj(np.asarray(val)) else float(val)


def invsqrt_kron_split_bound(A, k, t, *, quad_tol=1e-10, intervals=None):
    """Cauchy-Schwarz cross-check for the inverse square root of a
    two-factor sum: pi^{-1/2} prod_L (int E_L(tau)^2 tau^{-1/2} dtau)^{1/2}.

    Never tighter than the direct product integral (it bounds it from
    above by the inequality itself).
    """
    if len(A.factors) != 2:
        raise ValueError("the split bound is stated for two factors")
    ivs = factor_intervals(A) if intervals is None else intervals
    dists = component_distances(A, k, t)
    out = 1.0 / math.sqrt(math.pi)
    squared = LaplaceMeasure(name="tau^-1/2", closed_form=None,
                             density=lambda taus: taus ** -0.5,
                             singularity_exponent=-0.5)
    for iv, d in zip(ivs, dists):
        (rep,) = laplace_bounds((iv, iv), squared, [(d, d)], quad_tol=quad_tol)
        if not rep.converged:
            raise RuntimeError("split-bound quadrature did not converge")
        out *= math.sqrt(rep.bound)
    return out


def component_distances(A, k, t):
    """Per-factor band distances |k_L - t_L| / beta_L of one entry (k, t),
    entry by entry: the loop reference for the column-wide
    ``figures._distances``."""
    return tuple(abs(a - b) / f.beta for a, b, f in
                 zip(A.multi_indices[k - 1].tolist(),
                     A.multi_indices[t - 1].tolist(), A.factors))


def factor_intervals(A):
    """Spectral intervals of the factors of a Kronecker sum, the first
    argument of the Kronecker bounds."""
    return tuple(spectral_interval(f) for f in A.factors)


def kron_toarray(A):
    """Dense assembly sum_L I (x) ... (x) M_L (x) ... (x) I of a Kronecker
    sum, the first factor's index fastest (the package works from the
    factors); capped at order 4096."""
    if A.total_order > 4096:
        raise ValueError("dense assembly capped at order 4096; "
                         f"requested {A.total_order}")
    eyes = [np.eye(n) for n in A.orders]
    acc = np.zeros((A.total_order, A.total_order))
    for pos, f in enumerate(A.factors):
        mats = list(eyes)
        mats[pos] = f.toarray()
        acc = acc + functools.reduce(np.kron, mats[::-1])
    return acc


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
        total += _quad(lambda t: math.exp(-x * t) * float(measure.density(t)),
                       0.0, measure.support_upper, tol,
                       measure.singularity_exponent,
                       f"reconstruction quadrature for {measure.name}")
    for loc, weight in measure.atoms:
        total += weight * math.exp(-x * loc)
    return total


def cauchy_reconstruct(measure, x, tol=1e-10):
    """Evaluate f(x) = int v(omega)/(x - omega) domega by quadrature."""
    return _quad(lambda s: float(measure.density(-s)) / (x + s),
                 -measure.support_upper, math.inf, tol,
                 measure.singularity_exponent,
                 f"reconstruction quadrature for {measure.name}")


def stdlib_csv_write(path, header, rows):
    """The package's CSV format through ``csv.writer``: a header row, then
    every cell with 17 significant digits and None as an empty cell;
    standard output when ``path`` is None."""
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", newline="")) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(["" if c is None else f"{c:.17g}" for c in row])


def _gauss_superexp_crossing(d, rho):
    """tau where the Gaussian branch at d1 = 2 r (10 e^{-0.8 r}) meets the
    superexponential branch inside piece I, r = rho tau in [1, d/2]; None
    when they do not cross there."""
    from scipy.optimize import brentq

    def gap(r):   # log Gaussian - log superexponential
        return 0.2 * r + math.log(r) - d * (1.0 + math.log(r) - math.log(d))

    if d <= 2.0 or rho <= 0 or gap(1.0) * gap(d / 2.0) >= 0:
        return None
    return brentq(gap, 1.0, d / 2.0, xtol=1e-14, rtol=1e-15) / rho


def envelope_integral_reference(interval, measure, distance, rtol=1e-12,
                                log_density=None):
    """The single-matrix Laplace envelope integral of
    :func:`decaybounds.bounds.laplace_entry_bound` (atoms included) by
    piecewise ``scipy.integrate.quad`` in u = sqrt(tau).

    The pieces are split at every envelope breakpoint and at the crossing
    of the Gaussian and superexponential branches inside piece I, so each
    piece is smooth; the substitution removes a tau^{-1/2} endpoint
    singularity of the weight.  ``log_density``, when given, is log w(tau)
    in place of the measure's density, and the weight enters as
    exp(log w(tau) - lambda_min tau): finite where w alone overflows.
    """
    from scipy.integrate import quad

    from decaybounds.bounds import _envelope_breakpoints, exp_envelope

    d, lmin, rho = float(distance), interval.lambda_min, interval.rho
    upper = measure.support_upper
    cuts = set(_envelope_breakpoints(d, rho))
    cross = _gauss_superexp_crossing(d, rho)
    if cross is not None:
        cuts.add(cross)
    edges = [0.0] + sorted(c for c in cuts if 0.0 < c < upper) + [upper]

    def f(u):
        tau = u * u
        if tau == 0.0:
            return 0.0
        if log_density is not None:
            return (math.exp(log_density(tau) - lmin * tau)
                    * exp_envelope(rho * tau, d) * 2.0 * u)
        return (math.exp(-lmin * tau) * exp_envelope(rho * tau, d)
                * float(measure.density(tau)) * 2.0 * u)

    total = 0.0
    if measure.density is not None:
        for lo, hi in zip(edges[:-1], edges[1:]):
            total += quad(f, math.sqrt(lo), math.sqrt(hi), epsabs=0.0,
                          epsrel=rtol, limit=500)[0]
    for loc, mass in measure.atoms:
        total += mass * math.exp(-lmin * loc) * exp_envelope(rho * loc, d)
    return total


# -- the generator lockstep engine ---------------------------------------
#
# The quadrature engine as it was before ``decaybounds.quadrature`` held
# its steps in arrays, kept unchanged as the reference that the array
# engine must equal field for field (tests/test_quadrature.py): a step is
# a generator that yields the panels it needs and receives their (value,
# error) pairs; each step keeps its own heap of panels.

def _evaluate(kernel, panels):
    """Values and error estimates of ``panels``, (step, a, b, substitution)
    tuples, from one call ``kernel(x, step)`` with one row of 15 abscissae
    per panel and the owning step of each row."""
    step, lo, hi, subs = zip(*panels)
    lo, hi = np.array(lo), np.array(hi)
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    jacobians = []
    for a, m in set(subs) - {None}:       # tau = a + u**m
        rows = np.array([s == (a, m) for s in subs])
        u = x[rows]
        x[rows] = a + u ** m
        jacobians.append((rows, m * u ** (m - 1)))
    y = np.asarray(kernel(x, np.array(step)), dtype=float)
    for rows, jac in jacobians:
        y[rows] = y[rows] * jac
    # a row-wise sum (not y @ W) keeps each panel independent of the batch
    k = half * (y * _W_KRONROD).sum(axis=1)
    g = half * (y * _W_GAUSS).sum(axis=1)
    return k.tolist(), np.abs(k - g).tolist()


def reference_run_steps(kernel, steps):
    """Run integration steps (:func:`reference_finite_step`,
    :func:`reference_semi_infinite_step`) in lockstep; returns their
    :class:`QuadratureResult` values in order.

    Each round stacks the pending panels of every step into one
    ``(P, 15)`` abscissa array x and calls ``kernel(x, step)`` once;
    ``step[i]`` is the index of the step owning row i, and the kernel
    returns values of shape ``(P, 15)``."""
    steps = list(steps)
    results = [None] * len(steps)
    sent = [None] * len(steps)
    active = range(len(steps))
    while active:
        asked = []
        for i in active:
            try:
                asked.append((i, steps[i].send(sent[i])))
            except StopIteration as stop:
                results[i] = stop.value
        if asked:
            got = zip(*_evaluate(kernel, [(i, *p) for i, ps in asked
                                          for p in ps]))
            for i, ps in asked:
                sent[i] = [next(got) for _ in ps]
        active = [i for i, _ in asked]
    return results


def _adaptive(a, b, rtol, max_panels, sub):
    """Globally adaptive bisection step; deterministic (value summed in
    interval order, heap ties broken by insertion sequence)."""
    ((val, err),) = yield [(a, b, sub)]
    evaluations = 15
    seq = 0
    heap = [(-err, seq, a, b, val, err)]
    dead = []  # panels too narrow to split further
    n_panels = 1
    total_err = err
    total_val = val
    while True:
        if total_err <= rtol * abs(total_val):
            converged = True
            break
        if not heap or n_panels >= max_panels:
            converged = False
            break
        worst = heapq.heappop(heap)
        _, _, pa, pb, pval, perr = worst
        mid = 0.5 * (pa + pb)
        if not (pa < mid < pb) or perr == 0.0:
            dead.append(worst)
            continue
        total_err -= perr
        total_val -= pval
        halves = ((pa, mid), (mid, pb))
        got = yield [(qa, qb, sub) for qa, qb in halves]
        for (qa, qb), (v, e) in zip(halves, got):
            evaluations += 15
            seq += 1
            total_err += e
            total_val += v
            heapq.heappush(heap, (-e, seq, qa, qb, v, e))
        n_panels += 1
    panels = sorted(heap + dead, key=lambda p: p[2])
    value = panels[0][4]
    for p in panels[1:]:
        value += p[4]
    error = float(sum(p[5] for p in panels))
    return value, error, evaluations, converged


def reference_finite_step(a, b, rtol, singularity_a, max_panels):
    """Step integrating over [a, b]; see ``integrate``."""
    if not (a < b):
        if a == b:
            return QuadratureResult(0.0, 0.0, 0, True)
        raise ValueError(f"require a < b, got [{a}, {b}]")
    if not (-1.0 < singularity_a <= 0.0):
        raise ValueError(
            f"singularity exponent must lie in (-1, 0], got {singularity_a}")
    if singularity_a < 0.0:
        # tau = a + u**m removes an integrable endpoint singularity tau**p
        m = max(2, math.ceil(2.0 / (1.0 + singularity_a)))
        result = yield from _adaptive(0.0, (b - a) ** (1.0 / m), rtol,
                                      max_panels, (a, m))
    else:
        result = yield from _adaptive(a, b, rtol, max_panels, None)
    return QuadratureResult(*result)


def reference_semi_infinite_step(a, rtol, singularity_a, max_panels):
    """Step integrating over [a, oo); see ``integrate_semi_infinite``."""
    total = 0.0
    err = 0.0
    evaluations = 0
    converged_all = True
    lo = float(a)
    width = 1.0
    small_streak = 0
    for i in range(_MAX_INTERVALS):
        hi = lo + width
        budget = max(64, max_panels - evaluations // 15)
        r = yield from reference_finite_step(lo, hi, rtol,
                                   singularity_a if i == 0 else 0.0, budget)
        total += r.value
        err += r.error_estimate
        evaluations += r.evaluations
        converged_all = converged_all and r.converged
        chunk = abs(r.value)
        if chunk <= rtol * abs(total) / 10.0:
            small_streak += 1
            if small_streak >= 2:
                # the last contribution is charged as the tail allowance
                return QuadratureResult(total, err + chunk, evaluations,
                                        converged_all)
        else:
            small_streak = 0
        lo = hi
        width *= 2.0
    return QuadratureResult(total, err, evaluations, False)
