"""Exact dense reference computations.

Eigendecomposition is the single reference path for every matrix function
here; it is the ground truth each decay bound is compared against at desk
scale.  Decompositions are cached per matrix object and never mutated.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .quadrature import integrate_semi_infinite


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    eigenvalues: np.ndarray   # ascending
    eigenvectors: np.ndarray  # unitary, columns


_CACHE = weakref.WeakKeyDictionary()


def eigendecomposition(M):
    """Eigendecomposition of a Hermitian matrix object, cached per object."""
    hit = _CACHE.get(M)
    if hit is not None:
        return hit
    w, u = np.linalg.eigh(M.toarray())
    dec = EigenDecomposition(eigenvalues=w, eigenvectors=u)
    _CACHE[M] = dec
    return dec


def matrix_function(M, f):
    """f(M) = U f(Lambda) U* for Hermitian M; output re-Hermitianized.

    ``f`` is a scalar function applied to the eigenvalue array; it must be
    finite on the spectrum (e.g. an inverse square root of an indefinite
    matrix is rejected).
    """
    dec = eigendecomposition(M)
    fw = np.asarray(f(dec.eigenvalues))
    if not np.all(np.isfinite(fw)):
        raise ValueError("function is undefined or non-finite on the spectrum")
    u = dec.eigenvectors
    out = (u * fw) @ u.conj().T
    return 0.5 * (out + out.conj().T)


def function_column(M, f, t):
    """Column t (1-based) of f(M) without forming the full matrix."""
    dec = eigendecomposition(M)
    fw = np.asarray(f(dec.eigenvalues))
    if not np.all(np.isfinite(fw)):
        raise ValueError("function is undefined or non-finite on the spectrum")
    u = dec.eigenvectors
    return u @ (fw * np.conj(u[t - 1, :]))


def resolvent_column(M, shift, t):
    """Solve (M - shift I) x = e_t; ``shift`` may be complex."""
    a = M.toarray().astype(complex if np.iscomplexobj(np.asarray(shift)) or
                           isinstance(shift, complex) else float)
    n = a.shape[0]
    dec = eigendecomposition(M)
    if np.min(np.abs(dec.eigenvalues - shift)) == 0.0:
        raise ValueError(f"shift {shift} is an eigenvalue; resolvent undefined")
    rhs = np.zeros(n, dtype=a.dtype)
    rhs[t - 1] = 1.0
    return np.linalg.solve(a - shift * np.eye(n, dtype=a.dtype), rhs)


def oracle_floor(M, f):
    """Absolute resolution floor of the eigendecomposition path.

    Entries of U f(Lambda) U* are sums of n terms of size up to max|f|, so
    below roughly n * eps * max|f| they consist of rounding noise.  The
    floor is 100 times that level; dominance checks only compare above it.
    """
    dec = eigendecomposition(M)
    fmax = float(np.max(np.abs(f(dec.eigenvalues))))
    n = dec.eigenvalues.size
    return 100.0 * n * np.finfo(float).eps * fmax


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
