"""Matrix arguments: one CSR Hermitian storage class, band and test-matrix
constructors, spectral enclosures and Kronecker-sum index arithmetic.

The enclosure [lambda_min, lambda_max] (``spectral_interval``) is the one
spectral input of every bound, and the oracle reads it only to choose its
Lanczos step count and its floor.  It is computed here with no
eigenvectors and no dense matrix: LAPACK's eigenvalue-only tridiagonal
solve for a real tridiagonal matrix, band Cholesky inertia tests for any
other.  ``require_finite`` rejects, before any LAPACK call or Krylov
step, a matrix whose entries or 1-norm are not finite.

All row/column indices in the public interface are 1-based, matching the
usual linear-algebra convention used throughout the package (columns such
as t=127 or t=94 read the same in code, CSV output and tests).
"""

from __future__ import annotations

import functools
import math
import weakref
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
    matrices are the case whose pattern is the offsets -beta..beta.
    Complex input whose imaginary parts are all zero is stored as its
    real part, so every route reads a real matrix as real."""

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
        if np.iscomplexobj(m.data) and not np.any(m.data.imag):
            m = m.real
        object.__setattr__(self, "matrix", m)

    def toarray(self):
        """Dense copy in Fortran order, the layout LAPACK reads, so an
        eigensolve can overwrite it instead of copying it."""
        return self.matrix.toarray(order="F")

    def diagonal_max(self):
        return float(np.max(self.matrix.diagonal().real))

    def band(self, lower, upper):
        """LAPACK band storage of the stored entries at offsets i - j from
        -``upper`` to ``lower``: row upper + i - j of column j holds entry
        (i, j), and rows with no entry are zero."""
        coo = self.matrix.tocoo()
        data = coo.data
        keep = (coo.row - coo.col <= lower) & (coo.col - coo.row <= upper)
        ab = np.zeros((lower + upper + 1, self.n), dtype=data.dtype)
        np.add.at(ab, (upper + coo.row[keep] - coo.col[keep], coo.col[keep]),
                  data[keep])
        return ab

    @functools.cached_property
    def beta(self):
        """Bandwidth max |i - j| over the stored entries."""
        coo = self.matrix.tocoo()
        if coo.nnz == 0:
            return 0
        return int(np.max(np.abs(coo.row - coo.col)))

    @functools.cached_property
    def norm1(self):
        """1-norm max_j sum_i |m_ij|; inf where it overflows."""
        if self.matrix.nnz == 0:
            return 0.0
        with np.errstate(over="ignore"):
            return float(np.max(abs(self.matrix).sum(axis=0)))

    @functools.cached_property
    def tridiagonal(self):
        """(diagonal, subdiagonal) float arrays of a real, finite matrix of
        bandwidth at most 1; None for any other matrix, a non-finite one
        included: the input of ``spectral_interval``'s ``dstevd``."""
        data = self.matrix.data
        if (self.beta > 1 or not np.all(np.isfinite(data))
                or np.iscomplexobj(data)):
            return None
        return (self.matrix.diagonal().astype(float),
                self.matrix.diagonal(-1).astype(float))


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


def require_finite(M):
    """Raise ``LinAlgError`` on a matrix with a non-finite entry, before
    LAPACK sees it: its answer to one varies (nan eigenvalues, or an error
    naming a submatrix).  Raise ``ValueError`` on a matrix whose 1-norm
    overflows: every route sums its entries (Gershgorin radii, shifted
    factorizations, Krylov vectors), and would overflow as well."""
    if not np.all(np.isfinite(M.matrix.data)):
        raise np.linalg.LinAlgError(
            "Eigenvalues did not converge: the matrix has a non-finite entry")
    if not math.isfinite(M.norm1):
        raise ValueError("the matrix's 1-norm overflows (a column sum of "
                         "|entries| exceeds the largest double); scale it")


def banded_solver(M, shift):
    """(solve, rcond) for M - shift I from one banded LU factorization,
    LAPACK's ``?gbtrf``, complex when the shift or M is: O(n beta^2)
    work and no dense matrix.  ``solve(b)`` runs ``?gbtrs``; ``rcond`` is
    ``?gbcon``'s reciprocal condition number in the 1-norm, 0 when a
    pivot is exactly zero."""
    require_finite(M)
    beta = M.beta
    # beta rows above the band take the fill of the row interchanges
    ab = M.band(beta, 2 * beta)
    if np.iscomplexobj(shift) or np.iscomplexobj(ab):
        ab = ab.astype(complex)
    ab[2 * beta] -= shift
    gbtrf, gbtrs, gbcon = scipy.linalg.get_lapack_funcs(
        ("gbtrf", "gbtrs", "gbcon"), dtype=ab.dtype)
    anorm = float(np.max(np.sum(np.abs(ab), axis=0)))
    lu, piv, info = gbtrf(ab, beta, beta, overwrite_ab=True)
    rcond = gbcon(beta, beta, lu, piv, anorm)[0] if info == 0 else 0.0
    return (lambda b: gbtrs(lu, beta, beta, b, piv)[0]), rcond


def _least_eigenvalue(M, sign):
    """Least eigenvalue of ``sign`` M (+1 or -1) from Cholesky inertia
    tests: the band Cholesky factorization ``?pbtrf`` of sign M - sigma I
    succeeds only when sigma lies below the spectrum, O(n beta^2) work.

    The bracket [lo, hi] starts at the Gershgorin lower bound and the
    least diagonal entry.  A successful factor raises lo to its shift
    and runs two ``?pbtrs`` inverse-iteration solves from a fixed start;
    their Rayleigh quotient q lowers hi, and as an eigenvalue lies within
    the residual norm r of q, the next shift sits at q - r (but no lower
    than the bracket's midpoint, and at least 1 eps ||M||_1 below hi).  A
    failed factor lowers hi to its shift and bisects.  The loop stops
    once the bracket is 2 eps ||M||_1 wide and returns the last finite
    quotient clamped into it (the least diagonal entry, the quotient at
    a unit vector, when no solve ran)."""
    beta = M.beta
    ab = np.asfortranarray(sign * M.band(0, beta))   # factored in place
    pbtrf, pbtrs = scipy.linalg.get_lapack_funcs(("pbtrf", "pbtrs"),
                                                  dtype=ab.dtype)
    a = abs(M.matrix).tocoo()
    off = a.row != a.col
    radius = np.bincount(a.row[off], a.data[off], minlength=M.n)
    diagonal = ab[beta].real
    lo, hi = float(np.min(diagonal - radius)), float(np.min(diagonal))
    # 2 eps ||M||_1, scaled before the sum so that it cannot overflow
    scale = 2.0 * np.finfo(float).eps
    tol = float(np.max(scale * np.abs(diagonal) + scale * radius))
    start = np.random.default_rng(0).uniform(1.0, 2.0, M.n)
    end, shift = hi, lo
    while hi - lo > tol:
        shifted = ab.copy(order="F")
        shifted[beta] -= shift
        factor, info = pbtrf(shifted, overwrite_ab=True)
        if info:
            hi = shift
            shift = 0.5 * (lo + hi)
        else:
            lo, step, x = shift, math.inf, start
            with np.errstate(all="ignore"):     # non-finite r: no quotient
                for _ in range(2):
                    x = pbtrs(factor, x)[0]
                    x = x / np.linalg.norm(x)
                y = sign * (M.matrix @ x)
                q = float(np.vdot(x, y).real)
                r = float(np.linalg.norm(y - q * x))
            if math.isfinite(r):
                end, hi, step = q, min(hi, q), r
            shift = min(hi - 0.5 * tol, max(end - step, 0.5 * (lo + hi)))
        if not lo < shift < hi:
            break       # a bracket only a few subnormal ulps wide
    return min(max(end, lo), hi)


_INTERVALS = weakref.WeakKeyDictionary()


def spectral_interval(M):
    """Spectral interval [w_1, w_n] of a Hermitian matrix, cached per
    matrix object, with no eigenvectors and no dense matrix.

    A real tridiagonal matrix (``M.tridiagonal``) goes to LAPACK's
    ``dstevd``, which scales it as ``dsyevd`` does and then runs
    ``dsterf``: O(n^2) work, and the bits of numpy's dense ``eigvalsh``,
    whose Householder reduction of a matrix that is already tridiagonal
    is the identity.  Any other matrix, Kronecker factors and the figure
    presets included, brackets each end by band Cholesky inertia tests
    (``_least_eigenvalue`` on M and on -M): 4 to 30 O(n beta^2)
    factorizations an end on the benchmark's matrices.  Each such end is
    a Rayleigh quotient clamped into a bracket 2 eps ||M||_1 wide, and
    may differ from a dense solve's in the last bits.
    """
    hit = _INTERVALS.get(M)
    if hit is not None:
        return hit
    require_finite(M)
    tri = M.tridiagonal
    if tri is not None:
        w = scipy.linalg.eigvalsh_tridiagonal(*tri, lapack_driver="stevd")
        iv = SpectralInterval(float(w[0]), float(w[-1]))
    else:
        iv = SpectralInterval(_least_eigenvalue(M, 1.0),
                              -_least_eigenvalue(M, -1.0))
    _INTERVALS[M] = iv
    return iv


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
