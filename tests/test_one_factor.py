"""A single matrix is the one-factor case of the Kronecker routes: its
distances, exponential bounds and oracle columns come from the same code
and must equal the single-matrix formulas bit for bit."""

import csv
import math

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, strategies as st

from decaybounds import (KroneckerSum, SparseHermitianMatrix,
                         SpectralInterval, banded_from_stencil,
                         eigendecomposition, exp_entry_bound, exp_envelope,
                         function_column, geodesic_from, make_test_matrix,
                         resolvent_column, spectral_interval)
from decaybounds.bounds import exp_bounds
from decaybounds.figures import _distances, run_figure
from decaybounds.oracle import eigen_column


@pytest.mark.parametrize("kind, n, t", [("tridiag", 40, 1), ("tridiag", 40, 17),
                                        ("pentadiag", 41, 41),
                                        ("pentadiag", 41, 20)])
def test_single_matrix_distances_are_band_and_graph_distances(kind, n, t):
    m = make_test_matrix(kind, n)
    assert _distances(m, t) == [(abs(k - t) / m.beta,)
                                for k in range(1, n + 1)]
    assert _distances(m, t, "graph") == [
        (d,) for d in geodesic_from(m, t).tolist()]


def test_single_matrix_graph_distances_keep_unreachable_rows():
    a = scipy.sparse.block_diag([np.array([[2.0, 1.0], [1.0, 2.0]]),
                                 np.array([[3.0]]),
                                 np.array([[2.0, 0.1], [0.1, 2.0]])]).tocsr()
    m = SparseHermitianMatrix(n=5, matrix=a)
    assert _distances(m, 1, "graph") == [(0.0,), (1.0,), (math.inf,),
                                         (math.inf,), (math.inf,)]
    # a diagonal matrix has no band distance, but graph distances
    d = SparseHermitianMatrix(n=3, matrix=scipy.sparse.diags([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="--distance graph"):
        _distances(d, 2)
    assert _distances(d, 2, "graph") == [(math.inf,), (0.0,), (math.inf,)]


_FUNCTIONS = [lambda x: np.exp(-0.7 * x), lambda x: x ** -0.5,
              lambda x: 1.0 / (x - 0.4j)]


@pytest.mark.parametrize("kind, n", [("tridiag", 50), ("pentadiag", 50),
                                     ("tridiag", 333), ("pentadiag", 600)])
@pytest.mark.parametrize("f", _FUNCTIONS)
def test_single_matrix_column_is_the_matmul_bit_for_bit(kind, n, f):
    # the one-factor contraction, the route a Lanczos column falls back
    # to, adds its terms as U (f(w) * conj(U[t-1]))
    m = make_test_matrix(kind, n)
    dec = eigendecomposition(m)
    u, fw = dec.eigenvectors, f(dec.eigenvalues)
    for t in (1, n // 3, n):
        assert np.array_equal(eigen_column(m, f, t)[0],
                              u @ (fw * np.conj(u[t - 1])))


def test_complex_typed_matrix_column_is_the_matmul_bit_for_bit():
    m = banded_from_stencil((0.3 - 0.2j, -1.0j, 4.0, 1.0j, 0.3 + 0.2j), 80)
    dec = eigendecomposition(m)
    u, fw = dec.eigenvectors, np.exp(-dec.eigenvalues)
    assert np.array_equal(eigen_column(m, lambda x: np.exp(-x), 33)[0],
                          u @ (fw * np.conj(u[32])))


def test_column_outside_the_order_is_rejected():
    # the multi-index of t is unravelled, so t = 0 cannot wrap to row -1
    m = make_test_matrix("tridiag", 6)
    for a, order in ((m, 6), (KroneckerSum(factors=(m, m)), 36)):
        for t in (0, order + 1):
            with pytest.raises(ValueError, match="out of bounds"):
                function_column(a, np.exp, t)
    # nor can the banded solve's right-hand side e_t
    for t in (0, 7):
        with pytest.raises(ValueError, match="out of bounds"):
            resolvent_column(m, 0.0, t)


_INTERVALS = st.builds(lambda lmin, width: SpectralInterval(lmin, lmin + width),
                       st.floats(0.0, 5.0), st.floats(0.01, 16.0))


@given(iv=_INTERVALS, tau=st.floats(0.01, 10.0),
       ds=st.lists(st.integers(1, 400).map(lambda i: i / 2), min_size=1,
                   max_size=30))
def test_one_factor_exp_bounds_equal_exp_entry_bound(iv, tau, ds):
    reports = exp_bounds((iv,), tau, [(d,) for d in ds])
    assert [r.distance for r in reports] == [(d,) for d in ds]
    assert [r.bound for r in reports] == [exp_entry_bound(iv, tau, d)
                                          for d in ds]
    # the scalar formula of one matrix: exp(-tau lambda_min) E(rho tau, d)
    assert [r.bound for r in reports] == [
        math.exp(-tau * iv.lambda_min) * exp_envelope(iv.rho * tau, d)
        for d in ds]
    assert [r.valid for r in reports] == [d >= math.sqrt(4.0 * iv.rho * tau)
                                          for d in ds]


@pytest.mark.parametrize("kind", ["tridiag", "pentadiag"])
def test_fig1_blank_cells_are_the_rows_inside_the_gaussian_window(
        tmp_path, kind):
    out = tmp_path / "fig1.csv"
    run_figure("fig1-exp", kind, str(out), 1e-10)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    m, t, tau = make_test_matrix(kind, 200), 127, 4.0
    iv = spectral_interval(m)
    window = math.sqrt(4.0 * iv.rho * tau)
    blanks = 0
    for k, _, bound in rows:
        d = abs(int(k) - t) / m.beta
        if d < window:
            assert bound == "", k
            blanks += 1
        else:
            assert float(bound) == exp_envelope(iv.rho * tau, d), k
    assert 0 < blanks < len(rows)
