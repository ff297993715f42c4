"""One dense eigensolve per matrix: the spectral enclosure of a matrix that
is not real tridiagonal reads its ends off the oracle's decomposition."""

import numpy as np
import pytest
import scipy.io
import scipy.linalg
import scipy.sparse

from decaybounds import (KroneckerSum, SparseHermitianMatrix,
                         eigendecomposition, parse_matrix_spec,
                         spectral_interval)
from decaybounds.figures import run_compare, run_kron_compare


def _count_dense_solves(monkeypatch):
    """Count scipy's dense ``eigh`` calls; numpy's dense solvers fail."""
    calls = []
    real = scipy.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape[0])
        return real(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("a second dense eigensolve ran")

    monkeypatch.setattr(scipy.linalg, "eigh", counted)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    monkeypatch.setattr(scipy.linalg, "eigvalsh", forbidden)
    return calls


def _grid_file(tmp_path, m=12):
    """Perturbed 5-point operator on an m x m grid, as a Matrix Market file."""
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


def _assert_interval_is_oracle_ends(m):
    w = eigendecomposition(m).eigenvalues
    iv = spectral_interval(m)
    assert (iv.lambda_min, iv.lambda_max) == (w[0], w[-1])


@pytest.mark.parametrize("function, klass", [
    ("inv_sqrt", "laplace"), ("inv", "cauchy"), ("exp", "exp")])
def test_compare_on_pentadiag_solves_once(function, klass, monkeypatch):
    m = parse_matrix_spec("pentadiag:-0.45,-1.05,4.1,-1.05,-0.45", 60)
    calls = _count_dense_solves(monkeypatch)
    summary, _, rows = run_compare(m, 25, function, klass, quad_tol=1e-6)
    assert calls == [60]
    assert len(rows) == 60 and summary["violations"] == 0
    _assert_interval_is_oracle_ends(m)
    assert calls == [60]


def test_graph_compare_on_grid_file_solves_once(tmp_path, monkeypatch):
    m = parse_matrix_spec(_grid_file(tmp_path))
    assert m.tridiagonal is None
    calls = _count_dense_solves(monkeypatch)
    summary, _, rows = run_compare(m, 70, "inv", "cauchy",
                                   distance_mode="graph")
    assert calls == [144]
    assert len(rows) == 144 and summary["violations"] == 0
    _assert_interval_is_oracle_ends(m)


def test_kron_compare_solves_once_per_dense_factor(monkeypatch):
    penta = parse_matrix_spec("pentadiag", 9)
    tri = parse_matrix_spec("tridiag", 8)
    calls = _count_dense_solves(monkeypatch)
    # the tridiagonal factor takes LAPACK's tridiagonal route
    summary, _, rows = run_kron_compare(KroneckerSum(factors=(penta, tri)),
                                        40, "phi1", "laplace", quad_tol=1e-6)
    assert calls == [9]
    assert len(rows) == 72 and summary["violations"] == 0
    # a factor repeated as one object is solved once
    run_kron_compare(KroneckerSum(factors=(penta, penta)), 40, "inv_sqrt",
                     "cauchy", quad_tol=1e-6)
    assert calls == [9]
    _assert_interval_is_oracle_ends(penta)


def test_non_finite_dense_matrix_fails_before_lapack(monkeypatch):
    m = parse_matrix_spec("pentadiag:-0.5,-1,nan,-1,-0.5", 30)
    calls = _count_dense_solves(monkeypatch)
    for call in (spectral_interval, eigendecomposition):
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            call(m)
    assert calls == []


@pytest.mark.parametrize("m", [20, 45])
def test_dense_interval_meets_analytic_extremes(m):
    # the 5-point grid operator T (+) T, T = tridiag(-1, 4, -1) of order m,
    # has eigenvalues 8 - 2 cos(i pi / (m + 1)) - 2 cos(j pi / (m + 1)); each
    # end must lie within 4 eps ||M||_1 of the analytic one (containment is
    # not asserted: a computed eigenvalue may sit on either side)
    import mpmath as mp
    t = scipy.sparse.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(m, m))
    grid = SparseHermitianMatrix(n=m * m, matrix=scipy.sparse.kronsum(t, t))
    assert grid.beta == m and grid.tridiagonal is None
    iv = spectral_interval(grid)
    tol = 4 * np.finfo(float).eps * 12.0
    with mp.workdps(30):
        half = 4 * mp.cos(mp.pi / (m + 1))
        assert abs(iv.lambda_min - (8 - half)) <= tol
        assert abs(iv.lambda_max - (8 + half)) <= tol
