"""Exact reference computations.

Two reference paths give the ground truth each decay bound is compared
against at desk scale.  A shifted inverse (M - shift I)^{-1}, the f of
``--class resolvent`` and of ``--class cauchy --function inv``, takes
one banded LU solve per column (``resolvent_column``): O(n beta^2) work,
no eigendecomposition and no dense matrix, and for an M-matrix accurate
cell by cell down to underflow, where the floor of the eigendecomposition
path sits near n eps max|f|.  Every other matrix function takes the
eigendecomposition.  Decompositions are cached per matrix object and
never mutated.  On that path the spectral enclosure of any matrix that
is not real tridiagonal reads its ends off this decomposition, so each
matrix costs one eigensolve.
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
contraction with the factors' U, O(N sum_L n_L) work.  A single matrix
is the one-factor case of the same contraction.
"""

from __future__ import annotations

import ctypes
import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .matrices import KroneckerSum, banded_solver, require_finite

# glibc's mallopt parameter numbers
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 16 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


def _map_large_blocks():
    """Pin glibc's mmap threshold at 16 MiB, so that every block that
    large, such as an eigenvector matrix of order 2000 (32 MB) or its
    ``dstevd`` workspace, is mapped on its own and goes back to the system
    when freed.  Left dynamic, glibc raises the threshold to the largest
    block freed so far (up to 32 MiB) and the trim threshold to twice
    that; later dense arrays then come from the heap, whose freed top it
    keeps, and the peak resident size of a process that runs many columns
    depends on the order of its matrices (135, 165 or 196 MB for the same
    jobs).  Pinning one threshold pins both, so the trim threshold is set
    to twice the mmap threshold, as the dynamic rule would: the heap keeps
    its freed top for the smaller arrays that follow rather than fault
    them in afresh.  A no-op without glibc."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_map_large_blocks()


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
        else:
            require_finite(M)
            # the Fortran-order copy is overwritten, not copied once more
            w, u = scipy.linalg.eigh(M.toarray(), driver="evd",
                                     overwrite_a=True, check_finite=False)
        # C order, as numpy's eigh returns it: the contraction in
        # function_column then adds its terms in the same order
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
    if dec.factors and fw.size > 4096:
        raise ValueError("dense f(A) of a Kronecker sum capped at order "
                         f"4096; requested {fw.size}")
    u = _combine(np.kron, [p.eigenvectors for p in dec.factors or (dec,)])
    out = (u * fw) @ u.conj().T
    return 0.5 * (out + out.conj().T)


def function_column(M, f, t):
    """Column t (1-based) of f(M) without forming the full matrix: a
    tensor contraction with the factors' eigenvectors, a single matrix
    being the one-factor case (where it is ``U (f(w) * conj(U[t-1]))``)."""
    dec = eigendecomposition(M)
    fw = _on_spectrum(f, dec.eigenvalues)
    parts = dec.factors or (dec,)
    # U* e_t is the outer product of the conjugated factor rows at t_L, an
    # (n_L, ..., n_1) tensor; U_1, U_2, ... in turn contract its last axis
    # and put the result first, so after all L the order is restored
    ts = np.unravel_index(t - 1, [p.eigenvalues.size for p in parts], order="F")
    c = _combine(np.multiply.outer, [np.conj(p.eigenvectors[s, :])
                                     for p, s in zip(parts, ts)])
    c = fw.reshape(c.shape) * c
    for p in parts:
        c = np.tensordot(p.eigenvectors, c, axes=(1, -1))
    return c.ravel()


def resolvent_column(M, shift, t):
    """Column t (1-based) of (M - shift I)^{-1}, ``shift`` real or complex:
    one banded LU solve (LAPACK ``?gbtrf``/``?gbtrs``, complex when the
    shift or M is), O(n beta^2) work, with no eigendecomposition and no
    dense matrix.  A shift at which ``?gbcon`` finds M - shift I
    numerically singular raises ``ValueError``: a reciprocal condition
    number below n eps, where the solve's error bound n eps / rcond
    passes 1 and no digit of the column is certain (at a computed
    eigenvalue it reads a few eps)."""
    if not 1 <= t <= M.n:
        raise ValueError(f"column {t} is out of bounds for order {M.n}")
    solve, rcond = banded_solver(M, shift)
    if not rcond >= M.n * np.finfo(float).eps:
        raise ValueError(f"M - ({shift}) I is numerically singular "
                         f"(reciprocal condition number {rcond:.3g})")
    e = np.zeros(M.n)
    e[t - 1] = 1.0
    return solve(e)


def resolvent_floor(n, interval, shift):
    """Absolute resolution floor of a column of (M - shift I)^{-1} of
    order n, from the spectral ``interval``: 100 n eps / |dist(Re shift,
    interval) + i Im shift|.  max|1/(x - shift)| over the spectrum is at
    most the reciprocal of that distance, so for a positive definite M
    this is ``oracle_floor``'s level up to the ulps of the ends, and for
    an indefinite one it is never lower; it is infinite for a real shift
    inside the interval."""
    shift = complex(shift)
    gap = max(interval.lambda_min - shift.real,
              shift.real - interval.lambda_max, 0.0)
    distance = abs(complex(gap, shift.imag))
    fmax = 1.0 / distance if distance else math.inf
    return 100.0 * n * np.finfo(float).eps * fmax


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
