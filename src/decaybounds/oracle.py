"""Exact reference computations.

Eigendecomposition is the single reference path for every matrix function
here; it is the ground truth each decay bound is compared against at desk
scale.  Decompositions are cached per matrix object and never mutated.
The spectral enclosure of any matrix that is not real tridiagonal reads
its ends off this decomposition, so each matrix costs one eigensolve.
A real tridiagonal matrix (``M.tridiagonal``) is never made dense: its
eigenpairs come from LAPACK's tridiagonal divide and conquer
(``dstevd``).  numpy's dense ``eigh`` calls ``dsyevd``, whose Householder
reduction of such a matrix is the identity and which then runs the same
divide and conquer on the same numbers, so with BLAS on one thread both
give the same bits.  (Its merges multiply through BLAS, and numpy and
scipy ship their own builds: under threaded BLAS the eigenvectors may
differ in the last bits.)  Every other matrix takes one dense
``dsyevd``/``zheevd`` solve, through scipy on a Fortran-order copy that
it overwrites: the routine numpy's ``eigh`` calls, on the same numbers,
without numpy's extra copy of the matrix.  A Kronecker sum is never
assembled: its eigenpairs are sums of factor eigenvalues and Kronecker
products of factor eigenvectors, so a column of f(A) is a tensor
contraction with the factors' U, O(N sum_L n_L) work.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .matrices import KroneckerSum


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """M = U diag(w) U*; for a Kronecker sum U = kron(U_L, ..., U_1) is
    kept as the ``factors``' decompositions and w is unsorted."""

    eigenvalues: np.ndarray   # ascending for a single matrix
    eigenvectors: np.ndarray | None  # unitary, columns
    factors: tuple = ()


_CACHE = weakref.WeakKeyDictionary()


def _combine(op, per_factor):
    """op(x_L, ... op(x_2, x_1)): the first factor's index runs fastest."""
    return functools.reduce(lambda acc, x: op(x, acc), per_factor)


def eigendecomposition(M):
    """Eigendecomposition of a Hermitian matrix object, cached per object;
    for a Kronecker sum, built from the factors' (each cached itself)."""
    hit = _CACHE.get(M)
    if hit is not None:
        return hit
    if isinstance(M, KroneckerSum):
        # through the module global, so a wrapped name sees factor calls
        parts = tuple(eigendecomposition(f) for f in M.factors)
        w = _combine(np.add.outer, [p.eigenvalues for p in parts]).ravel()
        dec = EigenDecomposition(eigenvalues=w, eigenvectors=None, factors=parts)
    else:
        tri = M.tridiagonal
        if tri is not None:
            w, u = scipy.linalg.eigh_tridiagonal(*tri, lapack_driver="stevd")
        elif not np.all(np.isfinite(M.matrix.data)):
            # LAPACK's answer to one varies: nan eigenvalues, or an error
            # naming a submatrix
            raise np.linalg.LinAlgError(
                "Eigenvalues did not converge: the matrix has a non-finite entry")
        else:
            # the Fortran-order copy is overwritten, not copied once more
            w, u = scipy.linalg.eigh(M.toarray(), driver="evd",
                                     overwrite_a=True, check_finite=False)
        # C order, as numpy's eigh returns it: ``u @ v`` in function_column
        # then adds its terms in the same order
        u = np.ascontiguousarray(u)
        dec = EigenDecomposition(eigenvalues=w, eigenvectors=u)
    _CACHE[M] = dec
    return dec


def _on_spectrum(f, w):
    """f on the eigenvalues w; a ValueError where it is not finite."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        fw = np.asarray(f(w))
    if not np.all(np.isfinite(fw)):
        raise ValueError("function is undefined or non-finite on the spectrum")
    return fw


def matrix_function(M, f):
    """f(M) = U f(Lambda) U* for Hermitian M; output re-Hermitianized.

    ``f`` is a scalar function applied to the eigenvalue array; it must be
    finite on the spectrum (e.g. an inverse square root of an indefinite
    matrix is rejected).  A Kronecker sum's U is formed up to order 4096.
    """
    dec = eigendecomposition(M)
    fw = _on_spectrum(f, dec.eigenvalues)
    u = dec.eigenvectors
    if dec.factors:
        if fw.size > 4096:
            raise ValueError("dense f(A) of a Kronecker sum capped at order "
                             f"4096; requested {fw.size}")
        u = _combine(np.kron, [p.eigenvectors for p in dec.factors])
    out = (u * fw) @ u.conj().T
    return 0.5 * (out + out.conj().T)


def function_column(M, f, t):
    """Column t (1-based) of f(M) without forming the full matrix."""
    dec = eigendecomposition(M)
    fw = _on_spectrum(f, dec.eigenvalues)
    if not dec.factors:
        u = dec.eigenvectors
        return u @ (fw * np.conj(u[t - 1, :]))
    # U* e_t is the outer product of the conjugated factor rows at t_L, an
    # (n_L, ..., n_1) tensor; U_1, U_2, ... in turn contract its last axis
    # and put the result first, so after all L the order is restored
    c = _combine(np.multiply.outer, [np.conj(p.eigenvectors[s - 1, :]) for p, s
                                     in zip(dec.factors, M.delinearize(t))])
    c = fw.reshape(c.shape) * c
    for p in dec.factors:
        c = np.tensordot(p.eigenvectors, c, axes=(1, -1))
    return c.ravel()


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
