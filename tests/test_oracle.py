import itertools
import warnings

import numpy as np
import pytest

from decaybounds import (KroneckerSum, banded_from_stencil, cauchy_catalog,
                         eigendecomposition, function_column, laplace_catalog,
                         load_matrix_market, make_test_matrix, matrix_function,
                         oracle, parse_matrix_spec,
                         resolvent_column, spectral_interval)
from reference import (banded_inverse_column_mp, exact_inverse, grid_file,
                       kron_toarray, lancaster_column, tridiag_column_mp)


@pytest.fixture(scope="module")
def tridiag50():
    return make_test_matrix("tridiag", 50)


def test_eigendecomposition_invariants(tridiag50):
    dec = eigendecomposition(tridiag50)
    a = tridiag50.toarray()
    w, u = dec.eigenvalues, dec.eigenvectors
    assert np.all(np.diff(w) >= 0)
    assert np.max(np.abs(a @ u - u * w)) <= 1e-10 * np.max(np.abs(a))
    assert np.max(np.abs(u.conj().T @ u - np.eye(50))) <= 1e-12


def test_identity_function_recovers_matrix(tridiag50):
    f = matrix_function(tridiag50, lambda x: x)
    assert np.max(np.abs(f - tridiag50.toarray())) <= 1e-12 * 6


def test_square_consistency(tridiag50):
    a = tridiag50.toarray()
    f = matrix_function(tridiag50, lambda x: x * x)
    assert np.max(np.abs(f - a @ a)) <= 1e-10


def test_inverse_against_direct_solve(tridiag50):
    f = matrix_function(tridiag50, lambda x: 1.0 / x)
    direct = np.linalg.inv(tridiag50.toarray())
    assert np.max(np.abs(f - direct)) <= 1e-10


def test_semigroup_property():
    m = make_test_matrix("pentadiag", 30)
    e1 = matrix_function(m, lambda x: np.exp(-0.7 * x))
    e2 = matrix_function(m, lambda x: np.exp(-1.6 * x))
    e3 = matrix_function(m, lambda x: np.exp(-2.3 * x))
    assert np.max(np.abs(e1 @ e2 - e3)) <= 1e-9


def test_output_hermitian(tridiag50):
    f = matrix_function(tridiag50, lambda x: x ** -0.5)
    assert np.max(np.abs(f - f.conj().T)) <= 1e-12


def test_function_column_matches_full(tridiag50):
    f = matrix_function(tridiag50, np.exp)
    col, _ = function_column(tridiag50, np.exp, 17)
    assert np.max(np.abs(f[:, 16] - col)) <= 1e-10 * np.max(np.abs(f))


# (f, its mpmath form): the functions the Lanczos column is checked on
_LANCZOS_CASES = {
    "phi1": (laplace_catalog("phi1").closed_form,
             lambda mp, x: -mp.expm1(-x) / x),
    "inv_sqrt": (lambda x: x ** -0.5, lambda mp, x: x ** -0.5),
    "log1p_over_z": (cauchy_catalog("log1p_over_z").closed_form,
                     lambda mp, x: mp.log1p(x) / x),
    "exp": (lambda x: np.exp(-2.5 * x), lambda mp, x: mp.exp(-2.5 * x)),
}


def _lanczos_columns(monkeypatch, m, f, columns):
    """function_column at ``columns`` with the eigendecomposition
    forbidden, so that each is a Lanczos column, with the floor.  The
    orders below leave the 24 to 72 steps these columns take well under
    the cap of n / 4."""
    def forbidden(*args):
        raise AssertionError("the Lanczos column fell back")

    monkeypatch.setattr(oracle, "eigendecomposition", forbidden)
    out = [function_column(m, f, t) for t in columns]
    monkeypatch.undo()
    # the floor does not depend on the column
    assert len({floor for _, floor in out}) == 1
    return [col for col, _ in out], out[0][1]


def _assert_within_floor(col, exact, floor):
    # every cell above the floor within a hundredth of it
    above = np.abs(exact) >= floor
    assert above.sum() >= 10
    assert np.max(np.abs(col - exact)[above]) <= floor / 100


@pytest.mark.parametrize("name", sorted(_LANCZOS_CASES))
def test_lanczos_column_meets_the_analytic_tridiagonal_column(name,
                                                              monkeypatch):
    import mpmath as mp
    f, f_mp = _LANCZOS_CASES[name]
    m, columns = make_test_matrix("tridiag", 240), (1, 80, 240)
    cols, floor = _lanczos_columns(monkeypatch, m, f, columns)
    for t, col in zip(columns, cols):
        exact = tridiag_column_mp(240, lambda x: f_mp(mp, x), t)
        _assert_within_floor(col, exact, floor)


def _complex_hermitian_file(tmp_path):
    """A complex Hermitian pentadiagonal matrix of order 300, positive
    definite by diagonal dominance, as a Matrix Market file."""
    import scipy.io
    import scipy.sparse
    rng = np.random.default_rng(7)
    n = 300
    diagonals = {0: 4.0 + rng.uniform(-0.2, 0.2, n)}
    for k, size in ((1, 0.8), (2, 0.5)):
        d = size * np.exp(2j * np.pi * rng.uniform(size=n - k))
        diagonals[k], diagonals[-k] = d, np.conj(d)
    a = scipy.sparse.diags(list(diagonals.values()), list(diagonals.keys()),
                           format="coo")
    path = tmp_path / "herm300.mtx"
    scipy.io.mmwrite(str(path), a, symmetry="hermitian")
    return str(path)


@pytest.mark.parametrize("spec", ["pentadiag", "grid", "complex"])
@pytest.mark.parametrize("name", sorted(_LANCZOS_CASES))
def test_lanczos_column_meets_the_dense_column(spec, name, tmp_path,
                                               monkeypatch):
    f, _ = _LANCZOS_CASES[name]
    if spec == "grid":
        m = parse_matrix_spec(grid_file(tmp_path, 20))
    elif spec == "complex":
        m = parse_matrix_spec(_complex_hermitian_file(tmp_path))
        assert np.iscomplexobj(m.matrix.data) and m.tridiagonal is None
    else:
        m = make_test_matrix("pentadiag", 300)
    columns = (1, m.n // 3, m.n)
    dense = [oracle.eigen_column(m, f, t)[0] for t in columns]
    cols, floor = _lanczos_columns(monkeypatch, m, f, columns)
    for col, exact in zip(cols, dense):
        assert np.iscomplexobj(col) == (spec == "complex")
        _assert_within_floor(col, exact, floor)


def test_undefined_function_rejected():
    shifted = banded_from_stencil((-1.0, 1.0, -1.0), 10)  # indefinite
    with pytest.raises(ValueError), np.errstate(invalid="ignore"):
        matrix_function(shifted, lambda x: x ** -0.5)


def test_resolvent_column_against_exact_rational_inverse():
    m = make_test_matrix("tridiag", 5)
    exact = exact_inverse([[4 if i == j else (-1 if abs(i - j) == 1 else 0)
                            for j in range(5)] for i in range(5)])
    col = resolvent_column(m, 0.0, 3)
    assert np.max(np.abs(col - exact[:, 2])) <= 1e-14


def test_resolvent_imaginary_shift_finite(tridiag50):
    col = resolvent_column(tridiag50, 1j, 10)
    assert np.all(np.isfinite(col))
    a = tridiag50.toarray().astype(complex)
    rhs = np.zeros(50, dtype=complex)
    rhs[9] = 1.0
    assert np.max(np.abs((a - 1j * np.eye(50)) @ col - rhs)) <= 1e-12


def test_resolvent_eigenvalue_shift_rejected(tridiag50):
    lam = eigendecomposition(tridiag50).eigenvalues[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            resolvent_column(tridiag50, lam, 1)


@pytest.mark.parametrize("kind", ["tridiag", "pentadiag"])
def test_resolvent_column_matches_mpmath_at_every_cell(kind):
    # the banded solve of an M-matrix is accurate cell by cell, down to
    # the smallest entries (6.6e-40 and 2.9e-92 here, far below the
    # eigensolve floor): componentwise relative error at most 1e-12
    import mpmath as mp
    m = make_test_matrix(kind, 160)
    for t in (1, 40, 160):
        col = resolvent_column(m, 0.0, t)
        exact = banded_inverse_column_mp(m, t)
        assert np.isrealobj(col) and np.all(col > 0)
        err = [float(abs(mp.mpf(float(c)) / e - 1)) for c, e in zip(col, exact)]
        assert max(err) <= 1e-12, (t, max(err))
        assert min(col) < 1e-25


def test_lancaster_matches_direct_kronecker_solve():
    m = make_test_matrix("tridiag", 10)
    a = KroneckerSum(factors=(m, m))
    omega = -1.0
    t = 37
    col = lancaster_column(m, omega, tuple(a.multi_indices[t - 1].tolist()),
                           tol=1e-9)
    rhs = np.zeros(100)
    rhs[t - 1] = 1.0
    direct = np.linalg.solve(kron_toarray(a) - omega * np.eye(100), rhs)
    assert np.max(np.abs(col - direct)) <= 1e-6


def test_lancaster_identity_matrix_scalar_case():
    from decaybounds import banded_from_stencil
    eye = banded_from_stencil((0.0, 1.0, 0.0), 4)
    col = lancaster_column(eye, 0.0, (2, 3), tol=1e-10)
    x = col.reshape(4, 4, order="F")
    # I X + X I = E  =>  X = E / 2
    expect = np.zeros((4, 4))
    expect[1, 2] = 0.5
    assert np.max(np.abs(x - expect)) <= 1e-9


def test_lancaster_real_for_real_symmetric():
    m = make_test_matrix("pentadiag", 6)
    col = lancaster_column(m, -0.5, (2, 5), tol=1e-9)
    assert np.isrealobj(col)


def test_lancaster_rejects_positive_omega():
    m = make_test_matrix("tridiag", 5)
    with pytest.raises(ValueError):
        lancaster_column(m, 0.5, (1, 1))


# ------------------------------------------- factorized Kronecker oracle

_COMPLEX_MTX = """%%MatrixMarket matrix coordinate complex hermitian
4 4 7
1 1 3.0 0.0
2 2 3.5 0.0
3 3 3.0 0.0
4 4 4.0 0.0
2 1 -1.0 0.5
3 2 -0.5 -1.0
4 3 -1.0 0.25
"""


def test_complex_hermitian_matrix_takes_the_complex_band_routes(tmp_path):
    # a complex matrix file: zgbtrf for the column, zpbtrf inertia tests
    # for the ends, against dense LAPACK
    path = tmp_path / "herm.mtx"
    path.write_text(_COMPLEX_MTX)
    m = load_matrix_market(path)
    a = m.toarray()
    assert np.iscomplexobj(a) and m.tridiagonal is None
    w = np.linalg.eigvalsh(a)
    iv = spectral_interval(m)
    assert abs(iv.lambda_min - w[0]) <= 8 * np.finfo(float).eps * w[-1]
    assert abs(iv.lambda_max - w[-1]) <= 8 * np.finfo(float).eps * w[-1]
    for shift in (0.0, 0.5j, 2.0):
        col = resolvent_column(m, shift, 2)
        exact = np.linalg.solve(a - shift * np.eye(4), np.eye(4)[:, 1])
        assert np.max(np.abs(col - exact)) <= 1e-14 * np.max(np.abs(exact))


def _kron_cases(tmp_path):
    path = tmp_path / "herm.mtx"
    path.write_text(_COMPLEX_MTX)
    m5 = make_test_matrix("tridiag", 5)
    m7 = make_test_matrix("pentadiag", 7)
    m4 = banded_from_stencil((-0.5, 3.0, -0.5), 4)
    return [KroneckerSum(factors=(m5, m7)), KroneckerSum(factors=(m5, m7, m4)),
            KroneckerSum(factors=(load_matrix_market(path), m5))]


@pytest.mark.parametrize("f", [lambda x: x ** -0.5,
                               lambda x: np.exp(-0.8 * x),
                               lambda x: 1.0 / (x - 0.7j)])
def test_kron_oracle_matches_assembled_eigh(f, tmp_path):
    # the dense route the oracle used before it worked from the factors
    eps = np.finfo(float).eps
    for a in _kron_cases(tmp_path):
        w, u = np.linalg.eigh(kron_toarray(a))
        dense = (u * f(w)) @ u.conj().T
        scale = np.max(np.abs(dense))
        floor = 100.0 * w.size * eps * np.max(np.abs(f(w)))
        for t in (1, 6, a.total_order // 2, a.total_order):
            col, got = function_column(a, f, t)
            assert np.max(np.abs(col - dense[:, t - 1])) <= 100 * eps * scale
            assert got == pytest.approx(floor, rel=8 * eps)
        assert np.max(np.abs(matrix_function(a, f) - dense)) <= (
            100 * eps * scale)


def test_kron_decomposition_shares_a_repeated_factor(tmp_path):
    # one decomposition per distinct factor object, each a factor's own
    # bit for bit; a factor repeated as one object shares one, which the
    # swap symmetry of matrix_function reads
    m5 = make_test_matrix("tridiag", 5)
    repeated = KroneckerSum(factors=(m5, make_test_matrix("pentadiag", 7), m5))
    for a in [*_kron_cases(tmp_path), repeated]:
        dec = eigendecomposition(a)
        assert dec.eigenvectors is None
        for p, m in zip(dec.factors, a.factors):
            own = eigendecomposition(m)
            assert np.array_equal(p.eigenvalues, own.eigenvalues)
            assert np.array_equal(p.eigenvectors, own.eigenvectors)
        assert [[p is q for q in dec.factors] for p in dec.factors] == [
            [m is n for n in a.factors] for m in a.factors]
        # first index fastest: entry k is the sum at the multi-index of k
        for k in (1, 2, a.total_order):
            assert dec.eigenvalues[k - 1] == sum(
                p.eigenvalues[i - 1] for p, i in zip(
                    dec.factors, tuple(a.multi_indices[k - 1].tolist())))
    assert dec.factors[0] is dec.factors[2]
    np.testing.assert_allclose(
        np.sort(eigendecomposition(_kron_cases(tmp_path)[1]).eigenvalues),
        np.linalg.eigvalsh(kron_toarray(_kron_cases(tmp_path)[1])), rtol=1e-14)


def test_kron_matrix_function_is_symmetric_bitwise():
    m = banded_from_stencil((-1.0, 2.0, -1.0), 6)
    f = matrix_function(KroneckerSum(factors=(m, m)), lambda x: x ** -0.5)
    assert np.array_equal(f, f.T)


@pytest.mark.parametrize("orders", [(6, 6), (5, 7, 4), (4, 4, 4), (5, 3, 5)])
def test_real_kron_matrix_function_is_symmetric_per_factor_bitwise(orders):
    # f(A) of a real sum is symmetric under each factor's own transposition
    # (k_L <-> t_L), and a factor repeated as one object may swap places
    # with itself: both hold bit for bit
    made = {n: make_test_matrix("pentadiag" if n == 7 else "tridiag", n)
            for n in set(orders)}
    factors = tuple(made[n] for n in orders)
    a = KroneckerSum(factors=factors)
    L = len(orders)
    f = matrix_function(a, lambda x: x ** -0.5).reshape(orders[::-1] * 2)
    for axis in range(L):
        swapped = list(range(2 * L))
        swapped[axis], swapped[L + axis] = L + axis, axis
        assert np.array_equal(f, f.transpose(swapped)), axis
    for i, j in itertools.combinations(range(L), 2):
        if factors[L - 1 - i] is factors[L - 1 - j]:
            swapped = list(range(2 * L))
            for x, y in ((i, j), (L + i, L + j)):
                swapped[x], swapped[y] = y, x
            assert np.array_equal(f, f.transpose(swapped)), (i, j)
    dense = np.linalg.eigh(kron_toarray(a))
    exact = (dense[1] * dense[0] ** -0.5) @ dense[1].T
    assert np.max(np.abs(f.reshape(exact.shape) - exact)) <= (
        100 * np.finfo(float).eps * np.max(np.abs(exact)))


def test_matrix_function_keeps_a_complex_f():
    # f(A) of a complex-valued f is complex: 1 / (x - 0.7i) is the shifted
    # inverse, for a single matrix and for a Kronecker sum
    m = make_test_matrix("tridiag", 6)
    k = KroneckerSum(factors=(m, m))
    for a, dense in ((m, m.toarray()), (k, kron_toarray(k))):
        exact = np.linalg.inv(dense - 0.7j * np.eye(len(dense)))
        f = matrix_function(a, lambda x: 1.0 / (x - 0.7j))
        assert np.max(np.abs(f - exact)) <= 100 * np.finfo(float).eps * (
            np.max(np.abs(exact)))
        assert np.max(np.abs(f.imag)) > 0.01


def test_kron_dense_function_capped_and_column_uncapped():
    m = make_test_matrix("tridiag", 65)
    a = KroneckerSum(factors=(m, m))
    with pytest.raises(ValueError, match="4096"):
        matrix_function(a, np.exp)
    col, _ = function_column(a, lambda x: np.exp(-x), a.linearize((30, 40)))
    assert col.shape == (65 * 65,)
