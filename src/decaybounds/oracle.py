"""Exact dense reference computations.

Eigendecomposition is the single reference path for every matrix function
here; it is the ground truth each decay bound is compared against at desk
scale.  Decompositions are cached per matrix object and never mutated.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np


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


def _on_spectrum(f, w):
    """f on the eigenvalues w; a ValueError where it is not finite."""
    with np.errstate(divide="ignore", invalid="ignore"):
        fw = np.asarray(f(w))
    if not np.all(np.isfinite(fw)):
        raise ValueError("function is undefined or non-finite on the spectrum")
    return fw


def matrix_function(M, f):
    """f(M) = U f(Lambda) U* for Hermitian M; output re-Hermitianized.

    ``f`` is a scalar function applied to the eigenvalue array; it must be
    finite on the spectrum (e.g. an inverse square root of an indefinite
    matrix is rejected).
    """
    dec = eigendecomposition(M)
    fw = _on_spectrum(f, dec.eigenvalues)
    u = dec.eigenvectors
    out = (u * fw) @ u.conj().T
    return 0.5 * (out + out.conj().T)


def function_column(M, f, t):
    """Column t (1-based) of f(M) without forming the full matrix."""
    dec = eigendecomposition(M)
    fw = _on_spectrum(f, dec.eigenvalues)
    u = dec.eigenvectors
    return u @ (fw * np.conj(u[t - 1, :]))


def resolvent_column(M, shift, t):
    """Column t of (M - shift I)^{-1}; ``shift`` may be complex."""
    return function_column(M, lambda x: 1.0 / (x - shift), t)


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
