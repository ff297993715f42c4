"""Matrix arguments: one CSR Hermitian storage class, band and test-matrix
constructors, spectral enclosures and Kronecker-sum index arithmetic.

All row/column indices in the public interface are 1-based, matching the
usual linear-algebra convention used throughout the package (columns such
as t=127 or t=94 read the same in code, CSV output and tests).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse


class MatrixFormatError(ValueError):
    """Raised when an input file cannot be parsed as a Hermitian matrix."""


@dataclass(frozen=True, eq=False)
class SparseHermitianMatrix:
    """Hermitian matrix in CSR storage with a symmetric pattern; band
    matrices are the case whose pattern is the offsets -beta..beta."""

    n: int
    matrix: object  # scipy CSR

    def __post_init__(self):
        m = scipy.sparse.csr_matrix(self.matrix)
        if m.shape != (self.n, self.n):
            raise ValueError("shape disagrees with declared order")
        skew = m - m.conj().T
        scale = max(1.0, abs(m).max() if m.nnz else 1.0)
        if skew.nnz and abs(skew).max() > 1e-12 * scale:
            raise ValueError("matrix is not Hermitian")
        object.__setattr__(self, "matrix", m)

    def toarray(self):
        """Dense copy, real when no stored entry has a nonzero imaginary
        part; in Fortran order, the layout LAPACK reads, so an eigensolve
        can overwrite it instead of copying it."""
        m = self.matrix
        real = np.iscomplexobj(m.data) and not np.any(m.data.imag)
        return (m.real if real else m).toarray(order="F")

    def diagonal_max(self):
        return float(np.max(self.matrix.diagonal().real))

    @functools.cached_property
    def beta(self):
        """Bandwidth max |i - j| over the stored entries."""
        coo = self.matrix.tocoo()
        if coo.nnz == 0:
            return 0
        return int(np.max(np.abs(coo.row - coo.col)))

    @functools.cached_property
    def tridiagonal(self):
        """(diagonal, subdiagonal) float arrays of a real, finite matrix of
        bandwidth at most 1; None for any other matrix.  Real means what
        ``toarray`` means: no stored entry has a nonzero imaginary part.
        The subdiagonal is the lower triangle, which the dense LAPACK
        solvers read.  A non-finite entry keeps the dense path, and its
        error message."""
        data = self.matrix.data
        if (self.beta > 1 or not np.all(np.isfinite(data))
                or (np.iscomplexobj(data) and np.any(data.imag))):
            return None
        return (self.matrix.diagonal().real.astype(float),
                self.matrix.diagonal(-1).real.astype(float))


def banded_from_stencil(stencil, n):
    """Hermitian Toeplitz band matrix from an odd-length stencil
    ``(c_-beta, ..., c_0, ..., c_beta)`` with c_{-j} = conj(c_j).  Every
    offset -beta..beta is stored, zeros included, so ``beta`` is the
    stencil's bandwidth."""
    stencil = [complex(s) if isinstance(s, complex) else float(s) for s in stencil]
    if len(stencil) % 2 == 0:
        raise ValueError("stencil length must be odd")
    beta = (len(stencil) - 1) // 2
    if n < 2 * beta + 1:
        raise ValueError(f"order {n} too small for bandwidth {beta}")
    mid = beta
    for j in range(1, beta + 1):
        if not np.isclose(stencil[mid - j], np.conj(stencil[mid + j])):
            raise ValueError("stencil is not Hermitian")
    # row i holds offsets -beta..beta that stay inside 1..n; the
    # subdiagonals are the conjugates of the superdiagonals
    values = np.array([np.conj(stencil[mid + j]) for j in range(beta, 0, -1)]
                      + stencil[mid:])
    cols = np.arange(n)[:, None] + np.arange(-beta, beta + 1)
    inside = (cols >= 0) & (cols < n)
    indptr = np.concatenate(([0], np.cumsum(inside.sum(axis=1))))
    matrix = scipy.sparse.csr_matrix(
        (np.broadcast_to(values, cols.shape)[inside], cols[inside], indptr),
        shape=(n, n))
    return SparseHermitianMatrix(n=n, matrix=matrix)


_TEST_STENCILS = {
    "tridiag": (-1.0, 4.0, -1.0),
    "pentadiag": (-0.5, -1.0, 4.0, -1.0, -0.5),
}


def make_test_matrix(kind, n):
    """The two standard test matrices: tridiag(-1,4,-1) and
    pentadiag(-0.5,-1,4,-1,-0.5)."""
    if kind not in _TEST_STENCILS:
        raise ValueError(f"unknown test matrix kind {kind!r}")
    return banded_from_stencil(_TEST_STENCILS[kind], n)


def parse_matrix_spec(spec, n=None):
    """Build a matrix from a generator string or a Matrix Market path.

    Generator strings: ``tridiag``, ``pentadiag`` (standard stencils) or
    ``tridiag:a,b,c`` / ``pentadiag:a,b,c,d,e`` with explicit values; these
    require ``n``.  Anything else is treated as a file path.
    """
    head, _, rest = spec.partition(":")
    if head in _TEST_STENCILS:
        if n is None:
            raise ValueError("generator strings require the matrix order n")
        if rest:
            values = [float(v) for v in rest.split(",")]
            expected = {"tridiag": 3, "pentadiag": 5}[head]
            if len(values) != expected:
                raise ValueError(f"{head} generator takes {expected} values")
            return banded_from_stencil(values, n)
        return make_test_matrix(head, n)
    return load_matrix_market(spec)


def load_matrix_market(path):
    """Read a symmetric/hermitian Matrix Market coordinate file."""
    try:
        rows, cols, _, fmt, _, symmetry = scipy.io.mminfo(path)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise MatrixFormatError(f"cannot parse {path}: {exc}") from exc
    if symmetry not in ("symmetric", "hermitian"):
        raise MatrixFormatError(
            f"{path}: header declares {symmetry!r}; a symmetric or hermitian "
            "qualifier is required")
    if rows != cols:
        raise MatrixFormatError(f"{path}: matrix is not square ({rows}x{cols})")
    if fmt != "coordinate":
        raise MatrixFormatError(f"{path}: only coordinate format is supported")
    mat = scipy.io.mmread(path).tocsr()
    return SparseHermitianMatrix(n=rows, matrix=mat)


@dataclass(frozen=True)
class SpectralInterval:
    """Enclosure [lambda_min, lambda_max] of the spectrum."""

    lambda_min: float
    lambda_max: float

    def __post_init__(self):
        if self.lambda_min > self.lambda_max:
            raise ValueError("lambda_min exceeds lambda_max")

    @property
    def rho(self):
        return (self.lambda_max - self.lambda_min) / 4.0

    @property
    def is_positive_definite(self):
        return self.lambda_min > 0


def spectral_interval(M):
    """Spectral interval [w_1, w_n] of a Hermitian matrix from its extreme
    computed eigenvalues.

    A real tridiagonal matrix (``M.tridiagonal``) goes to LAPACK's
    ``dstevd``, which scales it as ``dsyevd`` does and then runs
    ``dsterf``: O(n^2) work and no dense matrix, and the bits of numpy's
    dense ``eigvalsh``, whose Householder reduction of a matrix that is
    already tridiagonal is the identity.  Any other matrix reads its ends
    off the oracle's cached eigendecomposition, so the oracle pass that
    follows reuses the one dense solve.
    """
    tri = M.tridiagonal
    if tri is not None:
        w = scipy.linalg.eigvalsh_tridiagonal(*tri, lapack_driver="stevd")
    else:
        # imported here, as oracle imports this module; the attribute
        # lookup lets a wrapped or patched eigendecomposition see the call
        from . import oracle
        w = oracle.eigendecomposition(M).eigenvalues
    return SpectralInterval(float(w[0]), float(w[-1]))


@dataclass(frozen=True, eq=False)
class KroneckerSum:
    """Kronecker sum of Hermitian factors.

    Multi-indices pair component L with ``factors[L-1]`` and are linearized
    with the first component varying fastest, so for two factors of order n
    the linear index is k = k1 + (k2 - 1) n.  With this convention
    k=94, n=20 corresponds to (k1, k2) = (14, 5) and the dense assembly
    satisfies exp(-tau A) entry (k, t) = prod_L exp(-tau M_L)[k_L, t_L].
    """

    factors: tuple

    def __post_init__(self):
        if len(self.factors) < 2:
            raise ValueError("a Kronecker sum needs at least two factors")

    @functools.cached_property
    def orders(self):
        return tuple(f.n for f in self.factors)

    @functools.cached_property
    def total_order(self):
        return math.prod(self.orders)

    @functools.cached_property
    def multi_indices(self):
        """(total_order, L) array; row k - 1 is the multi-index of k."""
        return np.stack(np.unravel_index(np.arange(self.total_order),
                                         self.orders, order="F"), axis=1) + 1

    def linearize(self, multi):
        """1-based multi-index -> 1-based linear index."""
        if len(multi) != len(self.factors):
            raise ValueError("component count disagrees with factor count")
        lin, stride = 0, 1
        for comp, n in zip(multi, self.orders):
            if not (1 <= comp <= n):
                raise IndexError(f"component {comp} outside 1..{n}")
            lin, stride = lin + (comp - 1) * stride, stride * n
        return lin + 1

    def delinearize(self, k):
        """1-based linear index -> 1-based multi-index tuple."""
        if not (1 <= k <= self.total_order):
            raise IndexError(f"linear index {k} outside 1..{self.total_order}")
        return tuple(self.multi_indices[k - 1].tolist())

    def toarray(self):
        """Dense assembly, for the tests only (the oracle works from the
        factors); capped at order 4096."""
        if self.total_order > 4096:
            raise ValueError("dense assembly capped at order 4096; "
                             f"requested {self.total_order}")
        eyes = [np.eye(n) for n in self.orders]
        acc = np.zeros((self.total_order, self.total_order))
        for pos, f in enumerate(self.factors):
            mats = list(eyes)
            mats[pos] = f.toarray()
            acc = acc + functools.reduce(np.kron, mats[::-1])
        return acc

