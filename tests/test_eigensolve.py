"""No command on a single matrix runs an eigendecomposition of order n.

The spectral enclosure of a real tridiagonal matrix comes from LAPACK's
eigenvalue-only ``dstevd``, and that of any other matrix from band
Cholesky inertia tests.  The column of a shifted inverse (``--class
resolvent``, ``--class cauchy --function inv``) is one banded solve; that
of any other f is a Lanczos run whose tridiagonal T_m is far smaller than
n.  Only a Kronecker sum's factors, the dense f(A) of a surface dump, and
a Lanczos column that falls back (an f whose Chebyshev tail on the
enclosure predicts more than min(n / 4, 400) steps) decompose a
matrix."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from decaybounds import (KroneckerSum, SparseHermitianMatrix,
                         SpectralInterval, eigendecomposition, oracle,
                         parse_matrix_spec, resolvent_column,
                         spectral_interval)
from decaybounds import cli
from decaybounds.cli import main
from decaybounds.figures import (FIGURE_IDS, run_compare, run_figure,
                                 run_kron_compare)
from decaybounds.oracle import ShiftedInverse
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


# the shifted inverse 1/x takes a banded solve, inv_sqrt and exp a Lanczos
# column of 48 and 32 steps; an order of 300 keeps that well under n / 4
@pytest.mark.parametrize("function, klass", [
    ("inv_sqrt", "laplace"), ("inv", "cauchy"), ("exp", "exp")],
    ids=["inv_sqrt-laplace", "inv-cauchy", "exp-exp"])
def test_compare_on_pentadiag_solves_once(function, klass, monkeypatch):
    m = parse_matrix_spec("pentadiag:-0.45,-1.05,4.1,-1.05,-0.45", 300)
    calls = _count_dense_solves(monkeypatch)
    summary, _, rows = run_compare(m, 83, function, klass, quad_tol=1e-6)
    assert calls == []
    assert len(rows) == 300 and summary["violations"] == 0
    assert summary["resolved"] > 0


def test_graph_compare_on_grid_file_solves_once(tmp_path, monkeypatch):
    # a shifted inverse: no dense solve at all
    m = parse_matrix_spec(_grid_file(tmp_path))
    assert m.tridiagonal is None
    calls = _count_dense_solves(monkeypatch)
    summary, _, rows = run_compare(m, 70, "inv", "cauchy",
                                   distance_mode="graph")
    assert calls == []
    assert len(rows) == 144 and summary["violations"] == 0


def _forbid_eigensolves(monkeypatch, order=None):
    """Make every eigendecomposition, dense ``eigh``, band eigenvalue solve
    and dense matrix fail, and every tridiagonal ``eigh`` of order
    ``order`` or more (of any order when None): a Lanczos run's T_m is
    smaller.  The tridiagonal eigenvalue-only ``dstevd`` of the enclosure
    (``eigvalsh_tridiagonal``, which calls scipy's own ``eigh_tridiagonal``
    and not the patched name) and band factorizations still run."""
    def forbidden(*args, **kwargs):
        raise AssertionError("an eigensolve or dense matrix")

    real = scipy.linalg.eigh_tridiagonal

    def tridiagonal(d, e, *args, **kwargs):
        if order is None or len(d) >= order:
            forbidden()
        return real(d, e, *args, **kwargs)

    monkeypatch.setattr(oracle, "eigendecomposition", forbidden)
    for module, name in [(scipy.linalg, "eigh"), (np.linalg, "eigh"),
                         (scipy.linalg, "eigvals_banded")]:
        monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", tridiagonal)
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


@pytest.mark.parametrize("spec", ["tridiag", "pentadiag", "grid"])
@pytest.mark.parametrize("shift", [0.0, 0.7j], ids=["0", "0.7j"])
def test_oracle_recognises_a_shifted_inverse_from_f(spec, shift, tmp_path,
                                                     monkeypatch):
    # the banded solve's column and floor, bit for bit, with no
    # eigendecomposition
    matrix = _grid_file(tmp_path) if spec == "grid" else spec
    m, f = parse_matrix_spec(matrix, 80), ShiftedInverse(shift)
    _forbid_eigensolves(monkeypatch)
    for t in (1, 33, m.n):
        col, floor = oracle.function_column(m, f, t)
        assert np.array_equal(col, resolvent_column(m, shift, t))
        assert floor == oracle.resolvent_floor(m.n, spectral_interval(m),
                                               shift)


def test_plain_inverse_takes_the_lanczos_column(monkeypatch):
    # the same values from a plain function: not a shifted inverse
    m = parse_matrix_spec("tridiag", 300)
    lanczos = []
    real = oracle._lanczos_column

    def recorded(*args):
        col = real(*args)
        lanczos.append(col is not None)
        return col

    def forbidden(*args):
        raise AssertionError("the banded solve ran")

    monkeypatch.setattr(oracle, "_lanczos_column", recorded)
    monkeypatch.setattr(oracle, "resolvent_column", forbidden)
    col, _ = oracle.function_column(m, lambda x: 1.0 / x, 121)
    assert lanczos == [True] and col.shape == (300,)


@pytest.mark.parametrize("kind", ["tridiag", "pentadiag"])
@pytest.mark.parametrize("figure_id", FIGURE_IDS[:4])
def test_figure_presets_take_the_lanczos_column(figure_id, kind, tmp_path,
                                               monkeypatch):
    # the order-200 presets run near the cap of n / 4 = 50 steps (48 steps
    # for fig2 and fig4 on pentadiag): a fallback to the eigendecomposition
    # must not pass silently
    lanczos = []
    real = oracle._lanczos_column

    def recorded(*args):
        col = real(*args)
        lanczos.append(col is not None)
        return col

    def forbidden(*args):
        raise AssertionError("the Lanczos column fell back")

    monkeypatch.setattr(oracle, "_lanczos_column", recorded)
    monkeypatch.setattr(oracle, "eigendecomposition", forbidden)
    summary = run_figure(figure_id, kind, str(tmp_path / "f.csv"), 1e-10)
    assert lanczos == [True]
    assert summary["violations"] == 0


# every f that is not a shifted inverse, by its (--class, --function) flags
_FUNCTIONS = [["--class", "laplace", "--function", "inv_sqrt"],
              ["--class", "laplace", "--function", "phi1"],
              ["--class", "cauchy", "--function", "log1p_over_z"],
              ["--class", "exp", "--function", "exp", "--tau", "2"]]


@pytest.mark.parametrize("spec", ["tridiag", "pentadiag", "grid"])
@pytest.mark.parametrize("flags", _FUNCTIONS,
                         ids=["lap-inv_sqrt", "lap-phi1", "cau-log1p_over_z",
                              "exp"])
def test_single_matrix_functions_run_no_eigendecomposition(
        spec, flags, tmp_path, monkeypatch):
    # the Lanczos column: 24 to 48 steps here, under n / 4 = 75 (100 on
    # the 20 x 20 grid)
    if spec == "grid":
        matrix, order, distance, t = (_grid_file(tmp_path, 20), [],
                                      ["--distance", "graph"], 190)
    else:
        matrix, order, distance, t = spec, ["--n", "300"], [], 121
    _forbid_eigensolves(monkeypatch, order=300)
    compared, printed = tmp_path / "c.csv", tmp_path / "o.csv"
    common = ["--matrix", matrix, *order, *flags, "--column", str(t)]
    assert main(["compare", *common, *distance, "--self-check",
                 "--out", str(compared)]) == 0
    # `decay oracle` prints the column that `decay compare` does
    assert main(["oracle", *common, "--out", str(printed)]) == 0
    with open(compared) as fh:
        column = [line.split(",")[3] for line in fh.read().splitlines()[1:]]
    with open(printed) as fh:
        values = [line.split(",")[1] for line in fh.read().splitlines()[1:]]
    assert column == ["%.17g" % abs(float(v)) for v in values]
    assert len(column) == (400 if spec == "grid" else 300)


def test_ill_conditioned_column_takes_the_dense_route(tmp_path, monkeypatch):
    # kappa 4e3: the Chebyshev tail of x^-1/2 predicts some 1000 steps, past
    # the cap of 250, so the column is the eigendecomposition's, bit for bit
    argv = ["compare", "--matrix", "tridiag:-1,2.001,-1", "--n", "1000",
            "--class", "laplace", "--function", "inv_sqrt", "--column", "500",
            "--self-check", "--out", str(tmp_path / "c.csv")]
    lanczos = []
    monkeypatch.setattr(oracle, "_lanczos_column",
                        lambda *args: lanczos.append(args))
    assert main(argv) == 0
    assert lanczos == []
    m = parse_matrix_spec("tridiag:-1,2.001,-1", 1000)
    dense = np.abs(oracle.eigen_column(m, lambda x: x ** -0.5, 500)[0])
    with open(tmp_path / "c.csv") as fh:
        column = [line.split(",")[3] for line in fh.read().splitlines()[1:]]
    assert column == ["%.17g" % v for v in dense.tolist()]


def test_kron_compare_solves_once_per_dense_factor(monkeypatch):
    penta = parse_matrix_spec("pentadiag", 9)
    tri = parse_matrix_spec("tridiag", 8)
    calls = _count_dense_solves(monkeypatch)
    # each factor, the tridiagonal one too, takes one dense solve
    summary, _, rows = run_kron_compare(KroneckerSum(factors=(penta, tri)),
                                        40, "phi1", "laplace", quad_tol=1e-6)
    assert calls == [9, 8]
    assert len(rows) == 72 and summary["violations"] == 0
    # a factor repeated as one object is solved once per call
    calls.clear()
    run_kron_compare(KroneckerSum(factors=(penta, penta)), 40, "inv_sqrt",
                     "cauchy", quad_tol=1e-6)
    assert calls == [9]


def test_kron_parses_a_repeated_factor_spec_once(monkeypatch, tmp_path):
    # one object per distinct --factors spec, so a factor named three
    # times takes one enclosure and one dense solve
    parsed = []
    real = cli.parse_matrix_spec
    monkeypatch.setattr(cli, "parse_matrix_spec",
                        lambda *args: parsed.append(args) or real(*args))
    calls = _count_dense_solves(monkeypatch)
    out = tmp_path / "k.csv"
    assert cli.main(["kron", "--factors", "tridiag,pentadiag,tridiag",
                     "--n", "5", "--class", "laplace", "--function", "phi1",
                     "--column", "63", "--out", str(out)]) == 0
    assert parsed == [("tridiag", 5), ("pentadiag", 5)]
    assert calls == [5, 5]
    calls.clear()
    assert cli.main(["kron", "--factors", "tridiag,tridiag,tridiag",
                     "--n", "5", "--class", "exp", "--column", "63",
                     "--out", str(out)]) == 0
    assert calls == [5]


def test_kron_command_decomposes_the_sum_once(monkeypatch, tmp_path):
    # one eigendecomposition of the sum gives the column and its floor,
    # and it solves each distinct factor object once
    seen = []
    real = oracle.eigendecomposition
    monkeypatch.setattr(oracle, "eigendecomposition",
                        lambda M: seen.append(M) or real(M))
    calls = _count_dense_solves(monkeypatch)
    assert cli.main(["kron", "--factors", "tridiag,pentadiag,tridiag",
                     "--n", "5", "--class", "laplace", "--function", "phi1",
                     "--column", "63", "--out", str(tmp_path / "k.csv")]) == 0
    assert len(seen) == 3 and isinstance(seen[0], KroneckerSum)
    assert seen[1:] == list(seen[0].factors[:2])
    assert calls == [5, 5]


def test_lanczos_column_evaluates_f_on_the_enclosure_once(monkeypatch):
    # the floor, and the Lanczos target a hundredth of it, come from the
    # one evaluation of f on the enclosure grid
    m = parse_matrix_spec("pentadiag", 300)
    sizes = []
    f = lambda x: sizes.append(np.size(x)) or x ** -0.5
    _forbid_eigensolves(monkeypatch, order=300)
    col, floor = oracle.function_column(m, f, 121)
    assert sizes.count(oracle._GRID + 1) == 1 and len(sizes) > 1
    assert floor == 100 * 300 * np.finfo(float).eps * (
        spectral_interval(m).lambda_min ** -0.5)
    # and the compare driver makes that one oracle call
    grids = []
    real = oracle._on_enclosure
    monkeypatch.setattr(oracle, "_on_enclosure",
                        lambda *args: grids.append(args) or real(*args))
    summary, _, _ = run_compare(m, 121, "inv_sqrt", "laplace")
    assert len(grids) == 1 and summary["oracle_floor"] == floor


def test_non_finite_dense_matrix_fails_before_lapack(monkeypatch):
    m = parse_matrix_spec("pentadiag:-0.5,-1,nan,-1,-0.5", 30)
    calls = _count_dense_solves(monkeypatch)
    for call in (spectral_interval, eigendecomposition):
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            call(m)
    assert calls == []


def test_non_finite_band_matrix_fails_before_lapack(monkeypatch):
    # the band routes fetch their LAPACK routines (?pbtrf for the ends,
    # ?gbtrf for the column) only after the finiteness check
    m = parse_matrix_spec("pentadiag:-0.5,-1,nan,-1,-0.5", 30)
    lapack = []
    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs",
                        lambda *args, **kwargs: lapack.append(args))
    for call in (spectral_interval, lambda m: resolvent_column(m, 0.0, 3)):
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


def _dense_ends(m):
    w = eigendecomposition(m).eigenvalues
    return SpectralInterval(float(w[0]), float(w[-1]))


@pytest.mark.parametrize("m", [20, 45])
def test_dense_interval_meets_analytic_extremes(m):
    # the ends of the eigendecomposition that a Lanczos column falls back to
    _assert_grid_extremes(m, _dense_ends)


@pytest.mark.parametrize("m", [20, 45])
def test_band_interval_meets_analytic_extremes(m, monkeypatch):
    # the enclosure: band Cholesky inertia tests
    _forbid_eigensolves(monkeypatch)
    _assert_grid_extremes(m, spectral_interval)


@pytest.mark.parametrize("spec", ["pentadiag:0,0,3,0,0",
                                  "pentadiag:0,1e-200,3,1e-200,0"])
def test_band_interval_of_a_scalar_spectrum(spec):
    # M - 3 I is zero, or so small that the Gershgorin bound rounds to
    # the diagonal: the bracket starts closed, with no warning
    iv = spectral_interval(parse_matrix_spec(spec, 30))
    assert (iv.lambda_min, iv.lambda_max) == (3.0, 3.0)


def _random_band(rng, n, beta, dtype):
    """Hermitian band matrix of order n and bandwidth beta with standard
    normal entries (real and imaginary parts for a complex dtype)."""
    diagonals = {}
    for k in range(1, beta + 1):
        d = rng.standard_normal(n - k)
        if dtype is complex:
            d = d + 1j * rng.standard_normal(n - k)
        diagonals[k], diagonals[-k] = d, np.conj(d)
    diagonals[0] = rng.standard_normal(n)
    return SparseHermitianMatrix(n=n, matrix=scipy.sparse.diags(
        list(diagonals.values()), list(diagonals.keys()), format="csr"))


def _doubled_pentadiag():
    block = parse_matrix_spec("pentadiag", 150).matrix
    return SparseHermitianMatrix(
        n=300, matrix=scipy.sparse.block_diag([block, block], format="csr"))


def _exact_rayleigh_quotient(m, v):
    """v* M v / v* v to 60 digits: within |M v - q v|^2 / gap of an
    eigenvalue, and so a reference well below eps ||M|| wherever v is an
    eigenvector to working precision."""
    import mpmath as mp
    coo = m.matrix.tocoo()
    with mp.workdps(60):
        x = [mp.mpc(complex(c)) for c in v]
        num = mp.fsum(mp.conj(x[i]) * mp.mpc(complex(a)) * x[j]
                      for a, i, j in zip(coo.data, coo.row, coo.col))
        return float(mp.re(num) / mp.fsum(abs(c) ** 2 for c in x))


@pytest.mark.parametrize("make", [
    lambda: parse_matrix_spec("pentadiag", 1000),
    _doubled_pentadiag,
    lambda: _random_band(np.random.default_rng(3), 200, 3, float),
    lambda: _random_band(np.random.default_rng(4), 120, 2, complex)],
    ids=["toeplitz-narrow-top-gap", "doubled-ends", "indefinite-beta3",
         "complex-hermitian"])
def test_band_interval_matches_a_dense_solve(make, monkeypatch):
    # each end within 8 eps ||M||_1 of the dense solve's, and certified by
    # a band Cholesky factorization just past it.  The dense ends are the
    # Rayleigh quotients of eigh's extreme eigenvectors, taken exactly: on
    # the indefinite matrix numpy's eigvalsh puts lambda_min 11 eps ||M||_1
    # above them, and a 40-digit mpmath eigensolve agrees with them to
    # 0.04 eps ||M||_1
    m = make()
    assert m.tridiagonal is None
    a = m.toarray()
    w, v = np.linalg.eigh(a)
    ends = [_exact_rayleigh_quotient(m, v[:, j]) for j in (0, -1)]
    tol = 8 * np.finfo(float).eps * np.max(np.sum(np.abs(a), axis=0))
    assert abs(ends[0] - w[0]) <= 2 * tol and abs(ends[1] - w[-1]) <= 2 * tol
    ab = m.band(0, m.beta)
    _forbid_eigensolves(monkeypatch)
    iv = spectral_interval(m)
    assert abs(iv.lambda_min - ends[0]) <= tol
    assert abs(iv.lambda_max - ends[1]) <= tol
    for sign, end in ((1.0, iv.lambda_min), (-1.0, iv.lambda_max)):
        shifted = sign * ab
        shifted[m.beta] -= sign * end - tol
        scipy.linalg.cholesky_banded(shifted, lower=False)
