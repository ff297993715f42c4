"""The real tridiagonal route: the enclosure from LAPACK's tridiagonal
solver, with no dense matrix and the dense path's numbers.  The
eigendecomposition of a tridiagonal matrix is the dense solve, as of any
other."""

import numpy as np
import pytest
import scipy.io
import scipy.sparse

from decaybounds import (KroneckerSum, SparseHermitianMatrix,
                         banded_from_stencil, eigendecomposition,
                         function_column, parse_matrix_spec,
                         spectral_interval)
from decaybounds.figures import run_compare


def _tridiagonal(d, e):
    e = np.asarray(e, dtype=float)
    return SparseHermitianMatrix(n=len(d), matrix=scipy.sparse.diags(
        [e, np.asarray(d, dtype=float), e], [-1, 0, 1], format="csr"))


def _no_dense(monkeypatch):
    def toarray(self):
        raise AssertionError("a dense matrix was formed")
    monkeypatch.setattr(SparseHermitianMatrix, "toarray", toarray)


def _tridiagonal_file(tmp_path):
    path = tmp_path / "tri.mtx"
    scipy.io.mmwrite(str(path), scipy.sparse.diags(
        [-0.9, 3.7, -0.9], [-1, 0, 1], shape=(30, 30)), symmetry="symmetric")
    return parse_matrix_spec(str(path))


@pytest.mark.parametrize("build", [
    lambda tmp: parse_matrix_spec("tridiag:-1.1,4.3,-1.1", 40),
    _tridiagonal_file,
])
def test_tridiagonal_forms_no_dense_matrix(build, tmp_path, monkeypatch):
    m = build(tmp_path)
    # the enclosure and the banded solve of a shifted inverse
    with monkeypatch.context() as patch:
        _no_dense(patch)
        iv = spectral_interval(m)
        assert 0 < iv.lambda_min < iv.lambda_max
        summary, _, rows = run_compare(m, 10, "inv", "cauchy")
        assert len(rows) == m.n
        assert summary["violations"] == 0
    # at orders 30 and 40 the Lanczos cap n / 4 is 7 and 10 steps, so
    # these columns fall back to the eigendecomposition
    assert eigendecomposition(m).eigenvalues.size == m.n
    assert function_column(m, lambda x: 1.0 / x, 10)[0].shape == (m.n,)
    for function, klass in [("inv_sqrt", "laplace"), ("exp", "exp")]:
        summary, _, rows = run_compare(m, 10, function, klass)
        assert len(rows) == m.n
        assert summary["violations"] == 0
    a = KroneckerSum(factors=(m, m))
    assert function_column(a, np.exp, 12)[0].shape == (m.n ** 2,)


def test_diagonal_graph_compare_forms_no_dense_matrix(monkeypatch):
    m = SparseHermitianMatrix(n=5, matrix=scipy.sparse.diags(np.arange(1.0, 6.0)))
    with monkeypatch.context() as patch:
        _no_dense(patch)
        assert spectral_interval(m).lambda_max == 5.0
        _, _, rows = run_compare(m, 2, "inv", "cauchy", distance_mode="graph")
        assert [r[2] is not None
                for r in rows] == [False, True, False, False, False]
    # a Lanczos cap of n / 4 = 1 step: the eigendecomposition's column
    assert function_column(m, lambda x: 1.0 / x, 2)[0].tolist() == [
        0, 0.5, 0, 0, 0]


_RNG = np.random.default_rng(20150127)
_CASES = {
    "order-1": ([2.5], []),
    "order-2": ([1.0, 3.0], [-0.75]),
    "order-25": (4 + _RNG.normal(size=25), -1 + 0.2 * _RNG.normal(size=24)),
    # dstedc solves orders above 25 by divide and conquer
    "order-26": (4 + _RNG.normal(size=26), -1 + 0.2 * _RNG.normal(size=25)),
    "zero-subdiagonal": (4 + _RNG.normal(size=40),
                         np.where(np.arange(39) % 7 == 3, 0.0, _RNG.normal(size=39))),
    "indefinite": (_RNG.normal(size=60), _RNG.normal(size=59)),
    # dstevd rescales such a matrix as numpy's dsyevd does; dsterf alone
    # would not, and its values would differ in the last bits
    "large-norm": (1e200 * _RNG.normal(size=30), 1e200 * _RNG.normal(size=29)),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_tridiagonal_eigenvalues_equal_dense_bitwise(case):
    m = _tridiagonal(*_CASES[case])
    assert m.tridiagonal is not None
    dense = np.linalg.eigvalsh(m.toarray())
    iv = spectral_interval(m)
    assert (iv.lambda_min, iv.lambda_max) == (dense[0], dense[-1])
    assert np.array_equal(eigendecomposition(m).eigenvalues,
                          np.linalg.eigh(m.toarray())[0])
    assert eigendecomposition(m).eigenvectors.flags.c_contiguous


@pytest.mark.parametrize("case", ["order-26", "zero-subdiagonal", "indefinite"])
@pytest.mark.parametrize("f", [np.exp, np.cos, lambda x: 1.0 / (x - 0.5j)],
                         ids=["exp", "cos", "resolvent"])
def test_tridiagonal_columns_match_dense(case, f):
    # within a hundredth of the floor, not bit for bit: under threaded BLAS
    # the two paths' eigenvectors may differ in the last bits
    m = _tridiagonal(*_CASES[case])
    w, u = np.linalg.eigh(m.toarray())
    for t in (1, m.n // 2, m.n):
        dense = u @ (f(w) * u[t - 1, :])
        col, floor = function_column(m, f, t)
        assert np.max(np.abs(col - dense)) <= floor / 100


def test_real_valued_complex_tridiagonal_takes_tridiagonal_route():
    stencil = (-1 + 0j, 4.0, -1 + 0j)
    assert np.iscomplexobj(np.array(stencil))
    m = banded_from_stencil(stencil, 30)
    assert not np.iscomplexobj(m.matrix.data)
    assert m.tridiagonal is not None
    assert np.array_equal(eigendecomposition(m).eigenvalues,
                          np.linalg.eigh(m.toarray())[0])


@pytest.mark.parametrize("m", [
    banded_from_stencil((1j, 4.0, -1j), 30),
    parse_matrix_spec("pentadiag", 30),
], ids=["complex-hermitian", "pentadiag"])
def test_other_matrices_keep_dense_route(m, monkeypatch):
    # one dense matrix, the eigendecomposition's: the enclosure (Cholesky
    # brackets) forms none
    assert m.tridiagonal is None
    calls = []
    dense = SparseHermitianMatrix.toarray
    monkeypatch.setattr(SparseHermitianMatrix, "toarray",
                        lambda self: calls.append(1) or dense(self))
    spectral_interval(m)
    assert calls == []
    eigendecomposition(m)
    assert len(calls) == 1


def test_non_finite_tridiagonal_keeps_dense_error():
    # numpy's own error, as before the tridiagonal route
    m = parse_matrix_spec("tridiag:-1,nan,-1", 30)
    assert m.tridiagonal is None
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        spectral_interval(m)


@pytest.mark.parametrize("n", [500, 2000])
@pytest.mark.parametrize("a,b", [(-1.0, 4.0), (0.7, -1.3)])
def test_tridiagonal_interval_meets_analytic_extremes(n, a, b):
    # tridiag(a, b, a) has eigenvalues b + 2 a cos(k pi / (n + 1)); each end
    # must lie within 4 eps ||M||_1 of the analytic one (containment is not
    # asserted: a computed eigenvalue may sit on either side)
    import mpmath as mp
    iv = spectral_interval(parse_matrix_spec(f"tridiag:{a},{b},{a}", n))
    tol = 4 * np.finfo(float).eps * (abs(b) + 2 * abs(a))
    with mp.workdps(30):
        half = 2 * abs(a) * mp.cos(mp.pi / (n + 1))
        assert abs(iv.lambda_min - (b - half)) <= tol
        assert abs(iv.lambda_max - (b + half)) <= tol
