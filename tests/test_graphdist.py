import math

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, strategies as st

from decaybounds import (SparseHermitianMatrix, banded_from_stencil,
                         cauchy_catalog, cauchy_entry_bound, demko_bound,
                         exp_entry_bound, function_column, geodesic_from,
                         laplace_catalog, laplace_entry_bound,
                         make_test_matrix, spectral_interval)
from decaybounds.figures import run_compare
from reference import floyd_warshall


def test_path_graph_distances():
    m = make_test_matrix("tridiag", 5)
    dv = geodesic_from(m, 1)
    assert np.array_equal(dv, [0, 1, 2, 3, 4])


def test_pentadiag_ceiling_formula():
    m = make_test_matrix("pentadiag", 9)
    dv = geodesic_from(m, 1)
    expect = [math.ceil(abs(j - 1) / 2) for j in range(1, 10)]
    assert np.array_equal(dv, expect)


def test_disconnected_blocks_are_unreachable():
    a = scipy.sparse.block_diag([
        np.array([[2.0, 1.0], [1.0, 2.0]]),
        np.array([[3.0]]),
    ]).tocsr()
    m = SparseHermitianMatrix(n=3, matrix=a)
    dv = geodesic_from(m, 1)
    assert dv[1] == 1.0
    assert math.isinf(dv[2])


@pytest.mark.parametrize("beta", [1, 2, 3])
def test_full_band_matches_ceiling_exhaustively(beta):
    stencil = [-0.25] * beta + [4.0] + [-0.25] * beta
    for n in (2 * beta + 1, 17, 100):
        m = banded_from_stencil(stencil, n)
        for t in range(1, n + 1, max(1, n // 7)):
            dv = geodesic_from(m, t)
            for j in range(1, n + 1):
                assert dv[j - 1] == math.ceil(abs(j - t) / beta)


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 24))
def test_bfs_matches_floyd_warshall(seed, n):
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n)) < 0.2
    adj = np.triu(adj, 1)
    adj = adj + adj.T
    m = SparseHermitianMatrix(
        n=n, matrix=scipy.sparse.csr_matrix(adj.astype(float) + 2 * n * np.eye(n)))
    fw = floyd_warshall(adj)
    t = int(rng.integers(1, n + 1))
    dv = geodesic_from(m, t)
    assert np.array_equal(dv, fw[t - 1])


def test_bfs_matches_floyd_warshall_at_64():
    rng = np.random.default_rng(7)
    adj = rng.random((64, 64)) < 0.05
    adj = np.triu(adj, 1)
    adj = adj + adj.T
    m = SparseHermitianMatrix(
        n=64, matrix=scipy.sparse.csr_matrix(adj.astype(float) + 200 * np.eye(64)))
    fw = floyd_warshall(adj)
    for t in (1, 30, 64):
        assert np.array_equal(geodesic_from(m, t), fw[t - 1])


def test_graph_bounds_never_exceed_band_bounds():
    # ceil(|k-t|/beta) >= |k-t|/beta and every kernel is nonincreasing
    m = make_test_matrix("pentadiag", 50)
    iv = spectral_interval(m)
    t = 25
    dv = geodesic_from(m, t)
    measure = laplace_catalog("inv_sqrt")
    cmeasure = cauchy_catalog("inv_sqrt")
    s = m.diagonal_max()
    for k in range(1, 51):
        d_graph, d_band = dv[k - 1], abs(k - t) / m.beta
        if k != t:
            assert (exp_entry_bound(iv, 4.0, d_graph)
                    <= exp_entry_bound(iv, 4.0, d_band) * (1 + 1e-12))
        assert (demko_bound(iv, d_graph, diag_max=s)
                <= demko_bound(iv, d_band, diag_max=s) * (1 + 1e-12))
        if abs(k - t) >= 2 * m.beta:
            g = laplace_entry_bound(iv, measure, d_graph)
            b = laplace_entry_bound(iv, measure, d_band)
            assert g.bound <= b.bound * (1 + 1e-10)
        g = cauchy_entry_bound(iv, cmeasure, d_graph)
        b = cauchy_entry_bound(iv, cmeasure, d_band)
        assert g.bound <= b.bound * (1 + 1e-10)


def test_arrowhead_pattern_no_decay():
    # dense first row/column: every node is two hops from every other, so
    # neither the bound nor the truth decays along the (2, j) family
    n = 40
    a = np.eye(n) * 4.0
    a[0, 1:] = -0.1
    a[1:, 0] = -0.1
    m = SparseHermitianMatrix(n=n, matrix=scipy.sparse.csr_matrix(a))
    iv = spectral_interval(m)
    dv = geodesic_from(m, 2)
    assert all(dv[j - 1] == 2.0 for j in range(3, n + 1))
    inv = np.abs(function_column(m, lambda x: 1.0 / x, 2)[0])
    bounds = [demko_bound(iv, dv[j - 1], diag_max=m.diagonal_max())
              for j in range(3, n + 1)]
    assert len(set(bounds)) == 1  # flat bound along the family
    assert np.ptp(inv[2:]) <= 1e-12  # oracle is flat too
    assert all(b >= inv[j - 1] * (1 - 1e-10) for j, b in zip(range(3, n + 1), bounds))


def test_graph_compare_unreachable_rows_have_no_bound():
    a = scipy.sparse.block_diag([
        np.array([[4.0, -1.0], [-1.0, 4.0]]),
        np.array([[4.0]]),
    ]).tocsr()
    m = SparseHermitianMatrix(n=3, matrix=a)
    _, _, rows = run_compare(m, 1, "inv", "cauchy", distance_mode="graph")
    # an infinite distance does not justify a zero bound: both cells stay empty
    assert rows[2][1] is None and rows[2][2] is None
    assert rows[1][1] == 1.0 and rows[1][2] is not None


def test_source_out_of_range():
    m = make_test_matrix("tridiag", 5)
    with pytest.raises(IndexError):
        geodesic_from(m, 6)


@given(st.integers(0, 2 ** 32 - 1))
def test_distances_symmetric_with_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 16))
    adj = rng.random((n, n)) < 0.3
    adj = np.triu(adj, 1)
    adj = adj + adj.T
    m = SparseHermitianMatrix(
        n=n, matrix=scipy.sparse.csr_matrix(adj.astype(float) + 2 * n * np.eye(n)))
    vectors = [geodesic_from(m, t) for t in range(1, n + 1)]
    i, j, k = (int(x) % n + 1 for x in rng.integers(0, n, size=3))
    assert vectors[i - 1][i - 1] == 0.0
    assert vectors[i - 1][j - 1] == vectors[j - 1][i - 1]
    assert (vectors[i - 1][j - 1]
            <= vectors[i - 1][k - 1] + vectors[k - 1][j - 1])
