"""One dense eigensolve per matrix: the spectral enclosure of a matrix that
is not real tridiagonal reads its ends off the oracle's decomposition.
A shifted inverse (``--class resolvent``, ``--class cauchy --function
inv``) runs none: its column is one banded solve and its ends come from a
band eigenvalue solve."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from decaybounds import (KroneckerSum, SparseHermitianMatrix,
                         eigendecomposition, oracle, parse_matrix_spec,
                         resolvent_column, spectral_interval)
from decaybounds.cli import main
from decaybounds.figures import run_compare, run_kron_compare
from decaybounds.matrices import band_interval
from reference import grid_file as _grid_file


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


def _assert_interval_is_oracle_ends(m):
    w = eigendecomposition(m).eigenvalues
    iv = spectral_interval(m)
    assert (iv.lambda_min, iv.lambda_max) == (w[0], w[-1])


# (function, class, dense solves): the shifted inverse 1/x runs none
@pytest.mark.parametrize("function, klass, solves", [
    ("inv_sqrt", "laplace", [60]), ("inv", "cauchy", []), ("exp", "exp", [60])],
    ids=["inv_sqrt-laplace", "inv-cauchy", "exp-exp"])
def test_compare_on_pentadiag_solves_once(function, klass, solves,
                                          monkeypatch):
    m = parse_matrix_spec("pentadiag:-0.45,-1.05,4.1,-1.05,-0.45", 60)
    calls = _count_dense_solves(monkeypatch)
    summary, _, rows = run_compare(m, 25, function, klass, quad_tol=1e-6)
    assert calls == solves
    assert len(rows) == 60 and summary["violations"] == 0
    if solves:
        _assert_interval_is_oracle_ends(m)
        assert calls == solves


def test_graph_compare_on_grid_file_solves_once(tmp_path, monkeypatch):
    # a shifted inverse: no dense solve at all
    m = parse_matrix_spec(_grid_file(tmp_path))
    assert m.tridiagonal is None
    calls = _count_dense_solves(monkeypatch)
    summary, _, rows = run_compare(m, 70, "inv", "cauchy",
                                   distance_mode="graph")
    assert calls == []
    assert len(rows) == 144 and summary["violations"] == 0


def _forbid_eigensolves(monkeypatch):
    """Make every eigendecomposition, dense or tridiagonal ``eigh`` and
    dense matrix fail; eigenvalue-only band solves still run."""
    def forbidden(*args, **kwargs):
        raise AssertionError("an eigendecomposition or dense matrix")

    monkeypatch.setattr(oracle, "eigendecomposition", forbidden)
    for module, name in [(scipy.linalg, "eigh"), (np.linalg, "eigh"),
                         (scipy.linalg, "eigh_tridiagonal")]:
        monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(SparseHermitianMatrix, "toarray", forbidden)


# (class flags, run_compare's class and zeta) of the shifted inverses
_SHIFTED_INVERSES = [(["--class", "resolvent"], "resolvent", 0.0),
                     (["--class", "resolvent", "--zeta", "0.7"], "resolvent", 0.7),
                     (["--class", "cauchy"], "cauchy", 0.0)]


@pytest.mark.parametrize("spec", ["tridiag", "pentadiag", "grid"])
@pytest.mark.parametrize("flags, klass, zeta", _SHIFTED_INVERSES,
                         ids=["resolvent-0", "resolvent-zeta", "cauchy-inv"])
def test_shifted_inverse_runs_no_eigendecomposition(spec, flags, klass, zeta,
                                                    tmp_path, monkeypatch):
    if spec == "grid":
        matrix, order, distance, t = (_grid_file(tmp_path), [],
                                      ["--distance", "graph"], 70)
    else:
        matrix, order, distance, t = spec, ["--n", "80"], [], 33
    m = parse_matrix_spec(matrix, 80)
    _forbid_eigensolves(monkeypatch)
    summary, _, rows = run_compare(m, t, "inv", klass, zeta=zeta,
                                   distance_mode="graph" if distance else "band")
    assert len(rows) == m.n and summary["violations"] == 0
    assert summary["resolved"] > 0
    # `decay oracle` takes the same route
    for command, extra in [("compare", distance), ("oracle", [])]:
        assert main([command, "--matrix", matrix, *order, *flags, "--function",
                     "inv", "--column", str(t), *extra,
                     "--out", str(tmp_path / "o.csv")]) == 0


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


def test_non_finite_band_matrix_fails_before_lapack(monkeypatch):
    m = parse_matrix_spec("pentadiag:-0.5,-1,nan,-1,-0.5", 30)
    lapack = []
    monkeypatch.setattr(scipy.linalg, "eigvals_banded",
                        lambda *args, **kwargs: lapack.append(1))
    for call in (band_interval, lambda m: resolvent_column(m, 0.0, 3)):
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            call(m)
    assert lapack == []


def _assert_grid_extremes(m, interval):
    # the 5-point grid operator T (+) T, T = tridiag(-1, 4, -1) of order m,
    # has eigenvalues 8 - 2 cos(i pi / (m + 1)) - 2 cos(j pi / (m + 1)); each
    # end must lie within 4 eps ||M||_1 of the analytic one (containment is
    # not asserted: a computed eigenvalue may sit on either side)
    import mpmath as mp
    t = scipy.sparse.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(m, m))
    grid = SparseHermitianMatrix(n=m * m, matrix=scipy.sparse.kronsum(t, t))
    assert grid.beta == m and grid.tridiagonal is None
    iv = interval(grid)
    tol = 4 * np.finfo(float).eps * 12.0
    with mp.workdps(30):
        half = 4 * mp.cos(mp.pi / (m + 1))
        assert abs(iv.lambda_min - (8 - half)) <= tol
        assert abs(iv.lambda_max - (8 + half)) <= tol


@pytest.mark.parametrize("m", [20, 45])
def test_dense_interval_meets_analytic_extremes(m):
    _assert_grid_extremes(m, spectral_interval)


@pytest.mark.parametrize("m", [20, 45])
def test_band_interval_meets_analytic_extremes(m, monkeypatch):
    # the ends of a shifted inverse: one band eigenvalue solve
    _forbid_eigensolves(monkeypatch)
    _assert_grid_extremes(m, band_interval)


@pytest.mark.parametrize("spec", ["pentadiag:0,0,3,0,0",
                                  "pentadiag:0,1e-200,3,1e-200,0"])
def test_band_interval_of_a_scalar_spectrum(spec):
    # M - 3 I is zero, or so small that inverse iteration overflows: the
    # refinement keeps the band solver's ends, with no warning
    iv = band_interval(parse_matrix_spec(spec, 30))
    assert (iv.lambda_min, iv.lambda_max) == (3.0, 3.0)
