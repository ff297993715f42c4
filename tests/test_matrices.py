import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, strategies as st

from decaybounds import (KroneckerSum, MatrixFormatError,
                         SparseHermitianMatrix, banded_from_stencil,
                         load_matrix_market, make_test_matrix,
                         parse_matrix_spec, spectral_interval)
from reference import gershgorin_interval, kron_toarray


def test_tridiag_entries():
    m = make_test_matrix("tridiag", 3)
    assert np.array_equal(m.toarray(),
                          [[4, -1, 0], [-1, 4, -1], [0, -1, 4]])


def test_pentadiag_middle_row():
    m = make_test_matrix("pentadiag", 5)
    assert np.array_equal(m.toarray()[2], [-0.5, -1, 4, -1, -0.5])


def test_size_guards():
    with pytest.raises(ValueError):
        make_test_matrix("tridiag", 2)
    with pytest.raises(ValueError):
        make_test_matrix("pentadiag", 4)
    with pytest.raises(ValueError):
        make_test_matrix("heptadiag", 9)


def test_test_matrix_order_guard_is_the_stencil_guard():
    # one check: banded_from_stencil's n >= 2 beta + 1
    for kind, n, beta in (("tridiag", 2, 1), ("pentadiag", 4, 2)):
        with pytest.raises(ValueError,
                           match=f"order {n} too small for bandwidth {beta}"):
            make_test_matrix(kind, n)
    assert make_test_matrix("pentadiag", 5).n == 5


def test_complex_typed_real_matrix_densifies_like_the_real_one():
    # a complex stencil whose imaginary parts are all zero is stored real:
    # the dense copy is the real-typed matrix's, in Fortran order, and so
    # are the bits of its eigendecomposition
    from decaybounds import eigendecomposition
    stencil = (-0.5, -1.0, 4.0, -1.0, -0.5)
    real = banded_from_stencil(stencil, 120)
    typed = [complex(c) for c in stencil]
    assert np.iscomplexobj(np.array(typed))
    cplx = banded_from_stencil(typed, 120)
    assert not np.iscomplexobj(cplx.matrix.data)
    a = cplx.toarray()
    assert a.dtype == np.float64 and a.flags.f_contiguous
    assert np.array_equal(a, real.toarray())
    dr, dc = eigendecomposition(real), eigendecomposition(cplx)
    assert np.array_equal(dc.eigenvalues, dr.eigenvalues)
    assert np.array_equal(dc.eigenvectors, dr.eigenvectors)


def test_entry_accessor_hermitian():
    m = banded_from_stencil((1 - 2j, 0.5j, 4.0, -0.5j, 1 + 2j), 6)
    a = m.toarray()
    assert np.max(np.abs(a - a.conj().T)) == 0
    assert a[1, 0] == np.conj(a[0, 1])
    assert a[0, 3] == 0.0


def test_stencil_rejects_non_hermitian():
    with pytest.raises(ValueError):
        banded_from_stencil((-1.0, 4.0, 2.0), 5)


def test_generator_strings():
    m = parse_matrix_spec("tridiag:-1,4,-1", 6)
    assert np.array_equal(m.toarray(), make_test_matrix("tridiag", 6).toarray())
    p = parse_matrix_spec("pentadiag", 7)
    assert p.beta == 2
    with pytest.raises(ValueError):
        parse_matrix_spec("tridiag:-1,4", 6)
    with pytest.raises(ValueError):
        parse_matrix_spec("tridiag", None)


def test_stencil_bandwidth_counts_zero_offsets():
    # every stencil offset is stored, so zero outer values keep the bandwidth
    m = parse_matrix_spec("pentadiag:0,-1,4,-1,0", 9)
    assert m.beta == 2
    assert np.array_equal(m.toarray(), parse_matrix_spec("tridiag", 9).toarray())
    assert parse_matrix_spec("tridiag:0,4,0", 6).beta == 1


def test_spectral_interval_paper_values(tridiag200, pentadiag200):
    _, iv3 = tridiag200
    _, iv5 = pentadiag200
    assert abs(4.0 * iv3.rho - 3.9995) <= 5e-4
    assert abs(4.0 * iv5.rho - 4.4989) <= 5e-4


def test_spectral_interval_identity():
    m = banded_from_stencil((0.0, 1.0, 0.0), 8)
    iv = spectral_interval(m)
    assert iv.lambda_min == pytest.approx(1.0, abs=1e-12)
    assert iv.lambda_max == pytest.approx(1.0, abs=1e-12)
    assert iv.rho == pytest.approx(0.0, abs=1e-12)


def test_gershgorin_contains_exact_tridiag():
    m = make_test_matrix("tridiag", 50)
    ex = spectral_interval(m)
    gg = gershgorin_interval(m)
    assert gg.lambda_min <= ex.lambda_min <= ex.lambda_max <= gg.lambda_max
    assert gg.lambda_min == pytest.approx(2.0)
    assert gg.lambda_max == pytest.approx(6.0)


@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 14), st.integers(1, 3))
def test_gershgorin_contains_exact_random(seed, n, beta):
    rng = np.random.default_rng(seed)
    beta = min(beta, n - 1)
    diags = tuple(rng.normal(size=n - j) + (4.0 if j == 0 else 0.0)
                  for j in range(beta + 1))
    upper = scipy.sparse.diags(diags, range(beta + 1), shape=(n, n))
    m = SparseHermitianMatrix(n=n, matrix=upper + scipy.sparse.triu(upper, 1).T)
    ex = spectral_interval(m)
    gg = gershgorin_interval(m)
    tol = 1e-10
    assert gg.lambda_min <= ex.lambda_min + tol
    assert gg.lambda_max >= ex.lambda_max - tol


def test_kron_sum_of_hpd_is_hpd():
    a = KroneckerSum(factors=(make_test_matrix("tridiag", 8),
                              make_test_matrix("pentadiag", 6)))
    w = np.linalg.eigvalsh(kron_toarray(a))
    assert w[0] > 0


def test_kron_linearize_first_cell():
    a = KroneckerSum(factors=(make_test_matrix("tridiag", 20),) * 2)
    assert a.linearize((1, 1)) == 1
    assert tuple(a.multi_indices[94 - 1].tolist()) == (14, 5)
    assert a.linearize(tuple(a.multi_indices[257 - 1].tolist())) == 257
    with pytest.raises(IndexError):
        a.linearize((21, 1))


@given(st.integers(2, 3), st.lists(st.integers(3, 7), min_size=3, max_size=3),
       st.integers(0, 10 ** 6))
def test_kron_index_round_trip(d, orders, probe):
    factors = tuple(make_test_matrix("tridiag", n) for n in orders[:d])
    a = KroneckerSum(factors=factors)
    k = probe % a.total_order + 1
    assert a.linearize(tuple(a.multi_indices[k - 1].tolist())) == k


def test_kron_linearization_matches_dense_assembly():
    # the multi-index pairing must agree with the dense Kronecker assembly
    m1 = make_test_matrix("tridiag", 4)
    m2 = make_test_matrix("pentadiag", 5)
    a = KroneckerSum(factors=(m1, m2))
    dense = kron_toarray(a)
    d1, d2 = m1.toarray(), m2.toarray()
    for k in range(1, a.total_order + 1):
        k1, k2 = tuple(a.multi_indices[k - 1].tolist())
        for t in range(1, a.total_order + 1):
            t1, t2 = tuple(a.multi_indices[t - 1].tolist())
            expect = d1[k1 - 1, t1 - 1] * (k2 == t2) + (k1 == t1) * d2[k2 - 1, t2 - 1]
            assert dense[k - 1, t - 1] == expect


def test_kron_dense_assembly_cap():
    m = make_test_matrix("tridiag", 70)
    a = KroneckerSum(factors=(m, m))
    with pytest.raises(ValueError):
        kron_toarray(a)


MM_TRIDIAG = """%%MatrixMarket matrix coordinate real symmetric
3 3 5
1 1 4.0
2 1 -1.0
2 2 4.0
3 2 -1.0
3 3 4.0
"""


def test_matrix_market_round_trip(tmp_path):
    path = tmp_path / "tri.mtx"
    path.write_text(MM_TRIDIAG)
    m = load_matrix_market(str(path))
    assert np.array_equal(m.toarray(), make_test_matrix("tridiag", 3).toarray())
    assert m.beta == 1
    assert m.diagonal_max() == 4.0


def test_matrix_market_rejects_general_header(tmp_path):
    path = tmp_path / "gen.mtx"
    path.write_text(MM_TRIDIAG.replace("symmetric", "general"))
    with pytest.raises(MatrixFormatError):
        load_matrix_market(str(path))


def test_matrix_market_rejects_empty(tmp_path):
    path = tmp_path / "empty.mtx"
    path.write_text("")
    with pytest.raises(MatrixFormatError):
        load_matrix_market(str(path))
