"""Exact reference computations.

``function_column(M, f, t)`` returns column t of f(M) together with its
resolution floor, 100 n eps max|f|, from one dispatch on (M, f): the
floor is where dominance checks start, and the Lanczos column is run to
a hundredth of it, so the two are one computation.  It picks one of
three routes from its inputs alone, never from timing; none of the
first two forms a dense matrix or an eigendecomposition of order n.

* A shifted inverse, f = ``ShiftedInverse(shift)``, which is 1 / (x -
  shift): the f of ``--class resolvent`` and of ``--class cauchy
  --function inv``.  Its column is one banded LU solve
  (``resolvent_column``): O(n beta^2) work, and for an M-matrix accurate
  cell by cell down to underflow; its floor is ``resolvent_floor``.  A
  plain function with the same values, such as ``lambda x: 1 / x``, is
  not recognised and takes the next route.
* Any other f of a single matrix is evaluated once on the Chebyshev grid
  of the spectral enclosure (``chebyshev.tail``); max|f| there gives the
  floor, with no eigenvalue.  The column is a Lanczos one: m steps from
  e_t on the CSR matrix, with full reorthogonalisation, give V_m and the
  tridiagonal T_m, and the column is V_m f(T_m) e_1, with f(T_m) from
  the eigenpairs of T_m.  For Hermitian M its error is at most twice the
  best polynomial error of degree m - 1 of f on the spectrum (Saad, SIAM
  J. Numer. Anal. 29, 1992), a bound that survives rounding (Musco,
  Musco and Sidford, SODA 2018).  m is the least with 2 S(m) <= floor /
  100, S the Chebyshev tail of f on that grid, and the run stops once
  two iterates 8 steps apart agree to 1e-15 max|f| over the Ritz
  values.  The column uses neither the enclosure's bound nor a measure,
  so it stays an independent check of both.
* The eigendecomposition: the Kronecker sums and dense f(A) of
  ``matrix_function``, and the fallback of a single matrix whose grid
  does not resolve f, whose step count passes min(n / 4, 400), whose
  iterates do not agree by then, or whose f is not finite inside the
  enclosure (its floor then comes from f on the eigenvalues).  A single
  matrix takes one dense ``dsyevd``/``zheevd`` solve through scipy, on a
  Fortran-order copy that it overwrites.  A Kronecker sum is never
  assembled: one solve per distinct factor object gives its eigenpairs,
  and its column (O(N sum_L n_L) work) and dense f(A) are contractions
  with the factors' U.  Nothing is kept between calls.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import chebyshev
from .matrices import (KroneckerSum, banded_solver, require_finite,
                       spectral_interval)

# a Lanczos column runs at most min(n // 4, _MAX_STEPS) steps, and stops
# once iterates _STRIDE steps apart agree to _AGREE max|f(theta)|
_MAX_STEPS = 400
_STRIDE = 8
_AGREE = 1e-15
# entries of a factor's pair products formed at a time in matrix_function
_PAIR_BLOCK = 2 ** 20


@dataclass(frozen=True)
class ShiftedInverse:
    """The scalar function 1 / (x - shift), ``shift`` real or complex: an f
    whose column and floor the oracle takes from one banded solve."""

    shift: complex

    def __call__(self, x):
        return 1.0 / (x - self.shift)


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """M = U diag(w) U*; for a Kronecker sum U = kron(U_L, ..., U_1) is
    kept as the ``factors``' decompositions and w is unsorted."""

    eigenvalues: np.ndarray   # ascending for a single matrix
    eigenvectors: np.ndarray | None  # unitary, columns
    factors: tuple = ()


def _combine(op, per_factor):
    """op(x_L, ... op(x_2, x_1)): the first factor's index runs fastest."""
    return functools.reduce(lambda acc, x: op(x, acc), per_factor)


def eigendecomposition(M):
    """Eigendecomposition of a Hermitian matrix object; for a Kronecker
    sum, built from one decomposition per distinct factor object, so a
    factor repeated as one object shares one decomposition."""
    if isinstance(M, KroneckerSum):
        # through the module global, so a wrapped name sees factor calls
        solved = {f: eigendecomposition(f) for f in dict.fromkeys(M.factors)}
        parts = tuple(solved[f] for f in M.factors)
        w = _combine(np.add.outer, [p.eigenvalues for p in parts]).ravel()
        return EigenDecomposition(eigenvalues=w, eigenvectors=None,
                                  factors=parts)
    require_finite(M)
    # the Fortran-order copy is overwritten, not copied once more
    w, u = scipy.linalg.eigh(M.toarray(), driver="evd",
                             overwrite_a=True, check_finite=False)
    # C order, as numpy's eigh returns it: the contraction in eigen_column
    # then adds its terms in the same order
    return EigenDecomposition(eigenvalues=w,
                              eigenvectors=np.ascontiguousarray(u))


def _on_spectrum(f, w):
    """f on the eigenvalues w; a ValueError where it is not finite."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        fw = np.asarray(f(w))
    if not np.all(np.isfinite(fw)):
        raise ValueError("function is undefined or non-finite on the spectrum")
    return fw


def matrix_function(M, f):
    """f(M) = U f(Lambda) U* for Hermitian M; re-Hermitianized where
    f(Lambda) is real, and complex where f is.

    ``f`` is a scalar function applied to the eigenvalue array; it must be
    finite on the spectrum (e.g. an inverse square root of an indefinite
    matrix is rejected).  A Kronecker sum's f(A) is formed up to order
    4096, and never its U: entry ((k_L), (t_L)) is the contraction of
    G = f(w_1 (+) ... (+) w_L) with each factor's pair products
    P_L[(k_L, t_L), a] = U_L[k_L, a] conj(U_L[t_L, a]) (``_pair_contraction``),
    O(N^2 max n_L) work.  A real factor's products are formed for k_L <=
    t_L only and gathered for both orders, so f(A) is bitwise symmetric
    under each factor's own transposition, and a factor repeated as one
    object makes it bitwise symmetric under swapping its places too.
    """
    dec = eigendecomposition(M)
    fw = _on_spectrum(f, dec.eigenvalues)
    if not dec.factors:
        u = dec.eigenvectors
        out = (u * fw) @ u.conj().T
    elif fw.size > 4096:
        raise ValueError("dense f(A) of a Kronecker sum capped at order "
                         f"4096; requested {fw.size}")
    else:
        # as in eigen_column: each factor in turn contracts the last axis
        # and puts its pair axis first, so the pairs end in (p_L, ..., p_1)
        c = fw.reshape([p.eigenvalues.size for p in reversed(dec.factors)])
        gather = []
        for p in dec.factors:
            c, index = _pair_contraction(p.eigenvectors, c)
            gather.insert(0, index.ravel())
        # the pairs of a factor repeated as one decomposition object may
        # trade places without changing the exact entry: every such
        # permutation reads its value from the one with ascending pairs
        axes = dec.factors[::-1]
        pick = list(np.indices(c.shape, sparse=True))
        for p in dict.fromkeys(axes):
            at = [i for i, q in enumerate(axes) if q is p]
            if len(at) > 1:
                ordered = np.sort(np.broadcast_arrays(*(pick[i] for i in at)),
                                  axis=0)
                for i, g in zip(at, ordered):
                    pick[i] = g
        # axes (k_L, t_L, ..., k_1, t_1), then rows (k_L..k_1), columns
        # (t_L..t_1): the first factor's index runs fastest in both
        c = c[tuple(pick)][np.ix_(*gather)].reshape(
            [n for p in axes for n in (p.eigenvalues.size,) * 2])
        L = len(dec.factors)
        out = c.transpose([*range(0, 2 * L, 2), *range(1, 2 * L, 2)]).reshape(
            fw.size, fw.size)
    return 0.5 * (out + out.conj().T) if np.isrealobj(fw) else out


def _pair_contraction(u, c):
    """(sum_a P[(i, j), a] c[..., a] on a new first axis, index): the
    contraction of the last axis of ``c`` with the products P[(i, j), a]
    = u[i, a] conj(u[j, a]) of pairs of rows of ``u``, and index[i, j],
    the position of the pair (i, j) on that axis.  A real u has one pair
    per i <= j, shared by (i, j) and (j, i); a complex one has every
    ordered pair.  P is formed ``_PAIR_BLOCK`` entries at a time, so a
    factor of order n never holds its n^3 / 2 products at once."""
    n = len(u)
    if np.iscomplexobj(u):
        index = np.arange(n * n).reshape(n, n)
        i, j = np.divmod(index.ravel(), n)
    else:
        i, j = np.triu_indices(n)
        index = np.empty((n, n), dtype=np.intp)
        index[i, j] = index[j, i] = np.arange(i.size)
    step = max(1, _PAIR_BLOCK // n)
    return np.concatenate([
        np.tensordot(u[i[s:s + step]] * np.conj(u[j[s:s + step]]), c,
                     axes=(1, -1)) for s in range(0, i.size, step)]), index


def function_column(M, f, t):
    """(column t (1-based) of f(M), its resolution floor 100 n eps max|f|)
    by the route the module docstring gives for (M, f).  Entries of U
    f(Lambda) U* are sums of n terms of size up to max|f|, so below about
    n eps max|f| they are rounding noise: dominance checks compare only
    above the floor.  ``ValueError`` where f is not finite at an end of
    the enclosure (or, on the eigendecomposition route, on the spectrum)."""
    if isinstance(M, KroneckerSum):
        return eigen_column(M, f, t)
    if isinstance(f, ShiftedInverse):
        return (resolvent_column(M, f.shift, t),
                resolvent_floor(M.n, spectral_interval(M), f.shift))
    if not 1 <= t <= M.n:
        raise ValueError(f"column {t} is out of bounds for order {M.n}")
    fmax, tail = chebyshev.tail(f, (spectral_interval(M),))
    if math.isinf(fmax):
        return eigen_column(M, f, t)
    floor, cap = _floor(M.n, fmax), min(M.n // 4, _MAX_STEPS)
    if tail is not None:
        # the least m with 2 S(m) <= floor / 100: Saad's error bound
        steps = int(np.argmax(2.0 * tail <= floor / 100))
        col = _lanczos_column(M, f, t, steps, cap) if steps <= cap else None
        if col is not None:
            return col, floor
    return eigen_column(M, f, t)[0], floor


def _floor(n, fx):
    """100 n eps max|f| from values ``fx`` of f."""
    return 100.0 * n * np.finfo(float).eps * float(np.max(np.abs(fx)))


def eigen_column(M, f, t):
    """(column t (1-based) of f(M), 100 n eps max|f(w)|) from the
    eigendecomposition, f taken once on its eigenvalues w: a tensor
    contraction with the factors' eigenvectors, a single matrix being the
    one-factor case (where it is ``U (f(w) * conj(U[t-1]))``)."""
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
    return c.ravel(), _floor(fw.size, fw)


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
    this is the level 100 n eps max|f| of ``function_column`` up to the
    ulps of the ends, and for an indefinite one it is never lower; it is
    infinite for a real shift inside the interval."""
    shift = complex(shift)
    gap = max(interval.lambda_min - shift.real,
              shift.real - interval.lambda_max, 0.0)
    distance = abs(complex(gap, shift.imag))
    return _floor(n, 1.0 / distance if distance else math.inf)


def _lanczos_column(M, f, t, steps, cap):
    """V_m f(T_m) e_1 of a Lanczos run from e_t with full
    reorthogonalisation (classical Gram-Schmidt, twice).  Every
    ``_STRIDE`` steps from ``steps`` - ``_STRIDE`` on, the column is formed;
    the run returns the first one at or past ``steps`` that agrees with
    the one before it to ``_AGREE`` max|f(theta)|, or the column at once
    when the Krylov space is invariant.  max|f(theta)| = ||f(T_m)|| bounds
    every entry of the column, and V f(T_m) e_1 is formed to a few eps of
    it; a test against the largest entry, often 10 to 100 times smaller,
    would sit below that rounding and pass by chance.  None when no iterate
    agrees within ``cap`` steps, or f is not finite at a Ritz value."""
    a = M.matrix
    basis = np.zeros((min(cap, steps + 2 * _STRIDE) + 1, M.n), a.dtype)
    basis[0, t - 1] = 1.0
    alpha, beta, last = [], [], None
    exhausted = np.finfo(float).eps * M.norm1
    for j in range(cap):
        v = basis[:j + 1]
        w = a @ v[j]
        diagonal = 0.0
        for _ in range(2):
            h = np.conj(v @ np.conj(w))
            w -= h @ v
            diagonal += h[j].real
        alpha.append(diagonal)
        b = float(np.linalg.norm(w))
        m = j + 1
        if b <= exhausted or (m % _STRIDE == 0 and m >= steps - _STRIDE):
            col, scale = _ritz_column(v, alpha, beta, f)
            if col is None or b <= exhausted:
                return col
            if last is not None and m >= steps and (
                    np.max(np.abs(col - last)) <= _AGREE * scale):
                return col
            last = col
        if m == len(basis):
            basis = np.concatenate([basis, np.zeros_like(basis)])[:cap + 1]
        beta.append(b)
        basis[m] = w / b
    return None


def _ritz_column(v, alpha, beta, f):
    """(V f(T) e_1, max|f(theta)|) for the Lanczos basis ``v`` (rows) and
    T = tridiag(beta, alpha, beta): T's eigenpairs S diag(theta) S^T give
    S f(theta) S^T e_1.  (None, 0) where f is not finite at a Ritz
    value theta."""
    theta, s = scipy.linalg.eigh_tridiagonal(alpha, beta)
    with np.errstate(all="ignore"):
        ft = np.asarray(f(theta))
    if not np.all(np.isfinite(ft)):
        return None, 0.0
    return (s @ (ft * s[0])) @ v, float(np.max(np.abs(ft)))
