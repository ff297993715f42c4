import contextlib
import csv
import io
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, strategies as st

from decaybounds import (KroneckerSum, SparseHermitianMatrix,
                         banded_from_stencil, bounds, cauchy_catalog, figures,
                         kron, make_test_matrix, oracle, oracle_floor,
                         parse_matrix_spec, spectral_interval)
from decaybounds.cli import main
from decaybounds.figures import run_compare, run_figure, run_kron_compare
from reference import stdlib_csv_write

def _write_banded_mtx(path, n=12):
    lines = ["%%MatrixMarket matrix coordinate real symmetric",
             f"{n} {n} {2 * n - 1}"]
    for i in range(1, n + 1):
        lines.append(f"{i} {i} 4.0")
    for i in range(2, n + 1):
        lines.append(f"{i} {i - 1} -1.0")
    path.write_text("\n".join(lines) + "\n")


def _read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def test_bound_csv_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bound", "--matrix", "tridiag", "--n", "40", "--function",
            "inv_sqrt", "--class", "cauchy", "--column", "20"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = _read_csv(out1)
    assert header == ["k", "distance", "bound", "oracle", "ratio"]
    assert len(rows) == 40


def test_csv_is_rfc4180_crlf(tmp_path):
    out = tmp_path / "a.csv"
    assert main(["bound", "--matrix", "tridiag", "--n", "10", "--function",
                 "inv", "--class", "laplace", "--column", "5",
                 "--out", str(out)]) == 0
    assert b"\r\n" in out.read_bytes()


def test_compare_self_check_passes(tmp_path):
    out = tmp_path / "c.csv"
    code = main(["compare", "--matrix", "tridiag", "--n", "50", "--function",
                 "inv", "--class", "cauchy", "--column", "25",
                 "--self-check", "--out", str(out)])
    assert code == 0


def test_identity_matrix_compare_no_violations(tmp_path):
    out = tmp_path / "i.csv"
    code = main(["compare", "--matrix", "tridiag:0,1,0", "--n", "12",
                 "--function", "inv_sqrt", "--class", "cauchy",
                 "--column", "6", "--self-check", "--out", str(out)])
    assert code == 0


def test_usage_errors_exit_one(tmp_path):
    assert main(["bound", "--matrix", "tridiag", "--n", "10", "--function",
                 "inv_sqrt", "--class", "exp", "--column", "3"]) == 1
    assert main(["figure", "fig9-nope", "--out", str(tmp_path / "x.csv")]) == 1
    assert main(["bound", "--matrix", "nosuchfile.mtx", "--function", "inv",
                 "--class", "laplace", "--column", "3"]) == 1
    assert main(["bound", "--matrix", "tridiag", "--n", "10", "--function",
                 "exp_inv", "--class", "laplace", "--column", "3"]) == 1


def test_figure_fig1_dominates_and_median_ratio(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["figure", "fig1-exp", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["k", "oracle", "bound"]
    ratios = []
    for k, o, b in rows:
        if b:
            assert float(b) >= float(o) * (1 - 1e-10)
            ratios.append(float(b) / float(o))
    assert ratios
    assert 1.0 <= float(np.median(ratios)) <= 1e3


def test_figure_validity_cells_empty(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["figure", "fig2-ls-invsqrt", "--matrix-kind", "pentadiag",
                 "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    for k, o, b in rows:
        if abs(int(k) - 127) < 4:  # 2 * beta with beta = 2
            assert b == ""
        else:
            assert b != ""


def test_kron_figure_csv(tmp_path):
    out = tmp_path / "fig6.csv"
    assert main(["figure", "fig6-kron-phi1", "--out", str(out),
                 "--quad-tol", "1e-8"]) == 0
    header, rows = _read_csv(out)
    assert header == ["k", "k1", "k2", "oracle", "bound"]
    assert len(rows) == 400
    k, k1, k2 = (int(rows[93][i]) for i in range(3))
    assert (k, k1, k2) == (94, 14, 5)


def test_graph_mode_banded_file_matches_band_mode(tmp_path):
    mtx = tmp_path / "band.mtx"
    _write_banded_mtx(mtx)
    out_band = tmp_path / "band.csv"
    out_graph = tmp_path / "graph.csv"
    base = ["bound", "--matrix", str(mtx), "--function", "inv",
            "--class", "cauchy", "--column", "6"]
    assert main(base + ["--out", str(out_band)]) == 0
    assert main(base + ["--distance", "graph", "--out", str(out_graph)]) == 0
    _, rows_band = _read_csv(out_band)
    _, rows_graph = _read_csv(out_graph)
    for rb, rg in zip(rows_band, rows_graph):
        # tridiagonal file: graph distance equals band distance exactly
        assert float(rg[1]) == float(rb[1])
        assert float(rg[2]) == pytest.approx(float(rb[2]), rel=1e-12)


def test_graph_mode_pentadiag_bound_never_looser(tmp_path):
    out_band = tmp_path / "b.csv"
    out_graph = tmp_path / "g.csv"
    base = ["bound", "--matrix", "pentadiag", "--n", "30", "--function",
            "inv_sqrt", "--class", "laplace", "--column", "15"]
    assert main(base + ["--out", str(out_band)]) == 0
    assert main(base + ["--distance", "graph", "--out", str(out_graph)]) == 0
    _, rows_band = _read_csv(out_band)
    _, rows_graph = _read_csv(out_graph)
    for rb, rg in zip(rows_band, rows_graph):
        if rb[2] and rg[2]:
            assert float(rg[2]) <= float(rb[2]) * (1 + 1e-10)


def test_oracle_command_matches_library(tmp_path):
    out = tmp_path / "o.csv"
    assert main(["oracle", "--matrix", "tridiag", "--n", "10", "--function",
                 "exp", "--class", "exp", "--tau", "2.0", "--column", "4",
                 "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    from decaybounds import function_column
    m = make_test_matrix("tridiag", 10)
    col = function_column(m, lambda x: np.exp(-2.0 * x), 4)
    for (k, v), expect in zip(rows, col):
        assert float(v) == pytest.approx(expect, abs=1e-15)


def test_surface_dump(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["surface", "--function", "exp", "--tau", "5.0",
                 "--grid-n", "6", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["i", "j", "value"]
    assert len(rows) == 36 * 36


def test_surface_reuses_mirror_strings_byte_for_byte(tmp_path):
    # the dump formats the upper triangle once; the bytes are those of the
    # per-cell format of the same matrix
    out = tmp_path / "s.csv"
    assert main(["surface", "--function", "inv_sqrt", "--grid-n", "5",
                 "--out", str(out)]) == 0
    t = banded_from_stencil((-1.0, 2.0, -1.0), 5)
    f = oracle.matrix_function(KroneckerSum(factors=(t, t)), lambda x: x ** -0.5)
    assert out.read_bytes().decode() == "i,j,value\r\n" + "".join(
        f"{i},{j},{v:.17g}\r\n" for i, row in enumerate(f.tolist(), start=1)
        for j, v in enumerate(row, start=1))


_SPECIAL = [0.0, -0.0, 5e-324, -2.2250738585072014e-308 / 3, 1e308, -1e308,
            math.nan, math.inf, -math.inf]


@given(st.lists(st.integers(-2 ** 62, 2 ** 62) | st.floats(allow_nan=True)
                | st.sampled_from(_SPECIAL), min_size=1, max_size=40))
def test_symmetric_lines_match_per_cell_format(values):
    n = math.isqrt(len(values))
    a = np.array(values[:n * n], dtype=float).reshape(n, n)
    f = np.where(np.triu(np.ones((n, n), dtype=bool)), a, a.T)  # F == F.T
    assert "".join(figures._symmetric_lines(f)) == "".join(
        f"{i},{j},{v:.17g}\r\n" for i, row in enumerate(f.tolist(), start=1)
        for j, v in enumerate(row, start=1))


_CELLS = (st.none() | st.integers(-2 ** 62, 2 ** 62)
          | st.floats(allow_nan=True, allow_infinity=True)
          | st.sampled_from(_SPECIAL))


@given(st.lists(st.tuples(_CELLS, _CELLS, _CELLS), max_size=20))
def test_csv_rows_match_per_cell_format(rows):
    # the one-template row format writes the bytes of the per-cell format
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        figures._write_csv(None, ("k", "oracle", "bound"), rows)
    assert buf.getvalue() == "k,oracle,bound\r\n" + "".join(
        ",".join("" if c is None else f"{c:.17g}" for c in row) + "\r\n"
        for row in rows)


def test_seventeen_significant_digits(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["bound", "--matrix", "tridiag", "--n", "10", "--function",
                 "inv", "--class", "cauchy", "--column", "5",
                 "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    val = rows[0][3]
    assert len(val.replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_run_figure_library_api(tmp_path):
    summary = run_figure("fig4-cs-invsqrt", "tridiag", str(tmp_path / "f4.csv"),
                         1e-10)
    assert summary["violations"] == 0
    assert summary["converged"]


def test_run_compare_library_api():
    m = make_test_matrix("tridiag", 50)
    summary, header, rows = run_compare(m, 25, "inv", "cauchy")
    assert summary["violations"] == 0
    assert summary["ratio_min"] is not None and summary["ratio_min"] >= 1.0


def test_non_convergence_exits_two(tmp_path, capsys):
    out = tmp_path / "n.csv"
    code = main(["bound", "--matrix", "tridiag", "--n", "60", "--function",
                 "inv_sqrt", "--class", "laplace", "--column", "30",
                 "--quad-max-panels", "2", "--out", str(out)])
    assert code == 2
    assert out.exists()  # output is still written for inspection
    # one stderr line names the failing distances, the first 10 of them
    summary, _, _ = run_compare(make_test_matrix("tridiag", 60), 30,
                                "inv_sqrt", "laplace", max_panels=2)
    failed = summary["nonconverged"]
    assert len(failed) > 10 and failed == sorted(failed)
    shown = ", ".join(f"{d:g}" for d in failed[:10])
    assert capsys.readouterr().err.splitlines() == [
        f"decay: quadrature did not converge at {len(failed)} distance(s): "
        f"{shown}, ..."]
    # compare prints its ratio line first
    code = main(["compare", "--matrix", "tridiag", "--n", "12", "--function",
                 "inv_sqrt", "--class", "laplace", "--column", "6",
                 "--quad-max-panels", "2", "--self-check", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0].startswith("# ratio ")
    assert err[1].startswith("decay: quadrature did not converge at ")


def test_kron_non_convergence_exits_two(tmp_path, capsys):
    out = tmp_path / "k.csv"
    code = main(["kron", "--factors", "tridiag,tridiag", "--n", "4",
                 "--function", "inv_sqrt", "--class", "laplace",
                 "--column", "2,2", "--quad-max-panels", "2", "--out", str(out)])
    assert code == 2
    assert out.exists()
    assert capsys.readouterr().err.splitlines() == [
        "decay: quadrature did not converge at 3 distance(s): "
        "(0, 2), (2, 0), (2, 2)"]
    # more than 10 failing tuples: the first 10, then "..."
    code = main(["kron", "--factors", "tridiag,tridiag", "--n", "6",
                 "--function", "log1p_over_z", "--class", "cauchy",
                 "--column", "2,2", "--quad-max-panels", "2", "--out", str(out)])
    assert code == 2
    summary, _, _ = run_kron_compare(
        KroneckerSum(factors=(make_test_matrix("tridiag", 6),) * 2), 8,
        "log1p_over_z", "cauchy", max_panels=2)
    failed = summary["nonconverged"]
    assert len(failed) > 10 and failed == sorted(failed)
    shown = ", ".join(f"({d1:g}, {d2:g})" for d1, d2 in failed[:10])
    assert capsys.readouterr().err.splitlines() == [
        f"decay: quadrature did not converge at {len(failed)} distance(s): "
        f"{shown}, ..."]


def test_kron_exp_command(tmp_path):
    out = tmp_path / "ke.csv"
    assert main(["kron", "--factors", "tridiag,tridiag", "--n", "6",
                 "--class", "exp", "--tau", "1.0", "--column", "3,4",
                 "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["k", "k1", "k2", "d1", "d2", "bound", "oracle"]
    # dominance row by row on the emitted values
    for row in rows:
        if row[5]:
            assert float(row[5]) >= float(row[6]) * (1 - 1e-10)


def test_kron_never_assembles_the_sum(monkeypatch, tmp_path):
    def no_assembly(self):
        raise AssertionError("decay kron assembled the Kronecker sum")

    monkeypatch.setattr(KroneckerSum, "toarray", no_assembly)
    for klass in (["--class", "exp"], ["--class", "laplace", "--function",
                                       "phi1"]):
        assert main(["kron", "--factors", "tridiag,pentadiag", "--n", "8",
                     *klass, "--column", "3,4",
                     "--out", str(tmp_path / "k.csv")]) == 0


def test_kron_order_64000_column(tmp_path):
    # far above the old assembly cap of order 4096: the oracle column is
    # the product of per-factor exponential entries, to rounding
    out = tmp_path / "k40.csv"
    assert main(["kron", "--factors", "tridiag,tridiag,tridiag", "--n", "40",
                 "--class", "exp", "--tau", "1", "--column", "20,20,20",
                 "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert len(rows) == 64000
    e = scipy.linalg.expm(-make_test_matrix("tridiag", 40).toarray())[:, 19]
    expect = np.multiply.outer(e, np.multiply.outer(e, e)).ravel()
    got = np.array([float(r[8]) for r in rows])
    assert np.max(np.abs(got - expect)) <= 100 * np.finfo(float).eps * expect.max()
    m = make_test_matrix("tridiag", 40)
    floor = oracle_floor(KroneckerSum(factors=(m, m, m)), lambda x: np.exp(-x))
    resolved = [(r[7], float(r[8])) for r in rows if float(r[8]) >= floor]
    assert len(resolved) > 1000
    assert all(float(b) >= o * (1 - 1e-10) for b, o in resolved if b)
    # two order-70 factors, order 4900, once over the cap, now run as well
    assert main(["kron", "--factors", "tridiag,tridiag", "--n", "70",
                 "--class", "exp", "--column", "35,35",
                 "--out", str(out)]) == 0


def test_kron_three_factor_command(tmp_path):
    out = tmp_path / "k3.csv"
    assert main(["kron", "--factors", "tridiag,tridiag,tridiag", "--n", "4",
                 "--function", "phi1", "--class", "laplace",
                 "--column", "2,3,1", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["k", "k1", "k2", "k3", "d1", "d2", "d3", "bound", "oracle"]
    assert len(rows) == 64


def test_self_check_violation_exits_three(monkeypatch, tmp_path):
    # the exit-code wiring for detected violations (the shipped bounds are
    # valid, so a violation is injected at the summary level)
    import decaybounds.figures as figures_mod

    real = figures_mod.run_compare

    def tampered(*args, **kwargs):
        summary, header, rows = real(*args, **kwargs)
        summary["violations"] = 1
        return summary, header, rows

    monkeypatch.setattr(figures_mod, "run_compare", tampered)
    code = main(["compare", "--matrix", "tridiag", "--n", "12", "--function",
                 "inv", "--class", "cauchy", "--column", "6", "--self-check",
                 "--out", str(tmp_path / "v.csv")])
    assert code == 3


def test_missing_function_is_a_usage_error():
    assert main(["bound", "--matrix", "tridiag", "--n", "10",
                 "--class", "laplace", "--column", "3"]) == 1
    assert main(["bound", "--matrix", "tridiag", "--n", "10",
                 "--class", "cauchy", "--column", "3"]) == 1


def test_kron_missing_function_is_a_usage_error():
    assert main(["kron", "--factors", "tridiag,tridiag", "--n", "6",
                 "--class", "laplace", "--column", "3"]) == 1


def test_out_of_range_columns_are_usage_errors(tmp_path):
    out = str(tmp_path / "x.csv")
    assert main(["bound", "--matrix", "tridiag", "--n", "10", "--function",
                 "inv", "--class", "cauchy", "--column", "15", "--out", out]) == 1
    assert main(["kron", "--factors", "tridiag,tridiag", "--n", "6",
                 "--function", "phi1", "--class", "laplace",
                 "--column", "1,2,3", "--out", out]) == 1
    assert main(["kron", "--factors", "tridiag,tridiag", "--n", "6",
                 "--function", "phi1", "--class", "laplace",
                 "--column", "99", "--out", out]) == 1
    assert main(["oracle", "--matrix", "tridiag", "--n", "10", "--function",
                 "inv", "--class", "laplace", "--column", "0", "--out", out]) == 1


@pytest.mark.parametrize("argv", [
    ["compare", "--matrix", "pentadiag", "--n", "30", "--function",
     "inv_sqrt", "--class", "laplace", "--column", "12"],
    ["kron", "--factors", "tridiag,pentadiag", "--n", "6", "--function",
     "inv_sqrt", "--class", "cauchy", "--column", "2,5"],
])
def test_stdout_csv_matches_out_file(argv, tmp_path, capsys):
    out = tmp_path / "o.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


@pytest.mark.parametrize("rows", [
    [],
    [(None, 1, 2.0), (3, None, -0.0), (4, 5.0, None), (None, None, None)],
    [(0, 1e-312, float("inf")), (-7, -float("inf"), 5e-324),
     (123456789, 0.1 + 0.2, 1.2345678901234567e-300),
     (2 ** 60, 2 / 3, -1.7976931348623157e308), (10, 1e16 + 2, 1e-17)],
])
def test_csv_writer_matches_stdlib_csv(rows, tmp_path, capsys):
    header = ("k", "oracle", "bound")
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    figures._write_csv(got, header, rows)
    stdlib_csv_write(want, header, rows)
    assert got.read_bytes() == want.read_bytes()
    capsys.readouterr()
    figures._write_csv(None, header, rows)
    out = capsys.readouterr().out
    stdlib_csv_write(None, header, rows)
    assert out == capsys.readouterr().out
    assert out.encode() == got.read_bytes()


def test_kron_cauchy_signed_measure_command(tmp_path):
    # expsqrt has a signed Markov measure: the Kronecker route integrates
    # against its closed-form total-variation transform
    out = tmp_path / "k.csv"
    assert main(["kron", "--factors", "tridiag,tridiag", "--n", "20",
                 "--class", "cauchy", "--function", "expsqrt:1",
                 "--column", "94", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert len(rows) == 400
    m = make_test_matrix("tridiag", 20)
    floor = oracle_floor(KroneckerSum(factors=(m, m)),
                         cauchy_catalog("expsqrt:1").closed_form)
    resolved = 0
    for row in rows:
        b, o = float(row[5]), float(row[6])
        if o >= floor:
            assert b >= o * (1 - 1e-10)
            resolved += 1
    assert resolved > 200


def _write_diagonal_mtx(path, n=5):
    lines = ["%%MatrixMarket matrix coordinate real symmetric", f"{n} {n} {n}"]
    lines += [f"{i} {i} {i + 1}.0" for i in range(1, n + 1)]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("argv", [
    ["surface", "--grid-n", "1", "--out", "{tmp}/x.csv"],
    # 65^2 exceeds the cap on a dense f(A) of a Kronecker sum
    ["surface", "--grid-n", "65", "--out", "{tmp}/x.csv"],
    # tridiag(1, 0, 1) is indefinite: x^-1/2 is undefined on its spectrum
    ["oracle", "--matrix", "tridiag:1,0,1", "--n", "10", "--function",
     "inv_sqrt", "--class", "laplace", "--column", "3"],
    ["kron", "--factors", "tridiag,tridiag", "--n", "6", "--class", "exp",
     "--function", "phi1", "--column", "3"],
    # band distances need bandwidth >= 1
    ["compare", "--matrix", "{tmp}/diag.mtx", "--class", "cauchy",
     "--function", "inv", "--column", "2"],
    ["bound", "--matrix", "tridiag", "--n", "10", "--function", "inv",
     "--class", "cauchy", "--column", "5", "--out", "{tmp}/missing/x.csv"],
    # --out naming an existing directory
    ["bound", "--matrix", "tridiag", "--n", "10", "--function", "inv",
     "--class", "cauchy", "--column", "2", "--out", "{tmp}"],
    # quadrature settings that never converge or admit no panel
    ["compare", "--matrix", "tridiag", "--n", "200", "--class", "laplace",
     "--function", "inv_sqrt", "--column", "100", "--quad-tol", "0"],
    ["compare", "--matrix", "tridiag", "--n", "200", "--class", "laplace",
     "--function", "inv_sqrt", "--column", "100", "--quad-tol", "nan"],
    ["compare", "--matrix", "tridiag", "--n", "200", "--class", "laplace",
     "--function", "inv_sqrt", "--column", "100", "--quad-max-panels", "0"],
    ["bound", "--matrix", "tridiag", "--n", "10", "--function", "inv_sqrt",
     "--class", "cauchy", "--column", "5", "--quad-tol=-1e-8"],
    ["kron", "--factors", "tridiag,tridiag", "--n", "5", "--class", "laplace",
     "--function", "phi1", "--column", "13", "--quad-tol", "inf"],
    ["kron", "--factors", "tridiag,tridiag", "--n", "5", "--class", "laplace",
     "--function", "phi1", "--column", "13", "--quad-max-panels=-3"],
    ["figure", "fig2-ls-invsqrt", "--quad-tol", "0", "--out", "{tmp}/f.csv"],
    ["figure", "fig1-exp", "--quad-tol=-inf", "--out", "{tmp}/f.csv"],
    # relative tolerances below 50 eps cannot be met
    ["compare", "--matrix", "tridiag", "--n", "200", "--class", "laplace",
     "--function", "inv_sqrt", "--column", "100", "--quad-tol", "1e-16"],
    ["compare", "--matrix", "tridiag", "--n", "200", "--class", "laplace",
     "--function", "inv_sqrt", "--column", "100", "--quad-tol", "2e-15"],
    ["compare", "--matrix", "tridiag", "--n", "200", "--class", "laplace",
     "--function", "inv_sqrt", "--column", "100", "--quad-tol", "1e-14"],
    # catalog parameters must be finite, and Gamma(sigma) must not overflow
    ["compare", "--matrix", "tridiag", "--n", "20", "--class", "laplace",
     "--function", "inv_pow:172", "--column", "10"],
    ["compare", "--matrix", "tridiag", "--n", "20", "--class", "laplace",
     "--function", "inv_pow:inf", "--column", "10"],
    ["compare", "--matrix", "tridiag", "--n", "20", "--class", "cauchy",
     "--function", "expsqrt:inf", "--column", "10"],
    # a drop tolerance of nan or inf would drop every pattern edge
    ["compare", "--matrix", "tridiag", "--n", "20", "--class", "cauchy",
     "--function", "inv", "--column", "10", "--distance", "graph",
     "--pattern-drop-tol", "nan"],
    ["compare", "--matrix", "tridiag", "--n", "20", "--class", "cauchy",
     "--function", "inv", "--column", "10", "--distance", "graph",
     "--pattern-drop-tol", "inf"],
    # a drop tolerance applies only to graph distances
    ["compare", "--matrix", "tridiag", "--n", "20", "--class", "cauchy",
     "--function", "inv", "--column", "10", "--pattern-drop-tol", "nan"],
    ["bound", "--matrix", "tridiag", "--n", "20", "--class", "cauchy",
     "--function", "inv", "--column", "10", "--pattern-drop-tol", "0"],
    # exp(-tau x) overflows on the spectrum: an error, and no numpy warning
    ["compare", "--matrix", "tridiag", "--n", "20", "--class", "exp",
     "--tau", "-1000", "--column", "10"],
    ["oracle", "--matrix", "tridiag", "--n", "20", "--class", "exp",
     "--function", "exp", "--tau", "-1000", "--column", "10"],
    ["kron", "--factors", "tridiag,tridiag", "--n", "5", "--class", "exp",
     "--tau", "-1000", "--column", "13"],
    ["surface", "--function", "exp", "--tau", "-100", "--out", "{tmp}/x.csv"],
])
def test_input_errors_exit_one_with_message(argv, tmp_path, capsys):
    _write_diagonal_mtx(tmp_path / "diag.mtx")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("decay: error: ") and "Traceback" not in err
    assert err.count("\n") == 1
    # a rejected quadrature setting is named in the message
    assert all(a.partition("=")[0] in err
               for a in argv if a.startswith("--quad"))


def test_too_small_test_matrix_exits_one_with_the_stencil_message(capsys):
    argv = ["compare", "--matrix", "tridiag", "--n", "2", "--class", "exp",
            "--column", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "decay: error: order 2 too small for bandwidth 1\n")


def test_diagonal_matrix_needs_graph_distance(tmp_path, capsys):
    path = tmp_path / "diag.mtx"
    _write_diagonal_mtx(path)
    argv = ["compare", "--matrix", str(path), "--class", "cauchy",
            "--function", "inv", "--column", "2", "--out", str(tmp_path / "d.csv")]
    assert main(argv) == 1
    assert "--distance graph" in capsys.readouterr().err
    assert main(argv + ["--distance", "graph"]) == 0
    _, rows = _read_csv(tmp_path / "d.csv")
    # no other node is reachable from column 2: only the diagonal is bounded
    assert [r[2] != "" for r in rows] == [False, True, False, False, False]
    m = SparseHermitianMatrix(n=5, matrix=scipy.sparse.diags(np.arange(1.0, 6.0)))
    with pytest.raises(ValueError, match="--distance graph"):
        run_compare(m, 2, "inv", "cauchy")
    _, _, rows = run_compare(m, 2, "inv", "cauchy", distance_mode="graph")
    assert rows[1][2] >= 0.5 * (1 - 1e-10)


def test_kron_takes_matrix_market_factors(tmp_path):
    # a tridiag(-1, 4, -1) file is the same factor as the generator
    mtx = tmp_path / "tri.mtx"
    _write_banded_mtx(mtx, n=6)
    tail = ["--n", "6", "--class", "laplace", "--function", "phi1",
            "--column", "8", "--out"]
    assert main(["kron", "--factors", "tridiag,tridiag", *tail,
                 str(tmp_path / "gen.csv")]) == 0
    assert main(["kron", "--factors", f"{mtx},tridiag", *tail,
                 str(tmp_path / "file.csv")]) == 0
    assert ((tmp_path / "file.csv").read_bytes()
            == (tmp_path / "gen.csv").read_bytes())


def test_zero_off_diagonal_stencil_has_no_graph_edges(tmp_path):
    out = tmp_path / "z.csv"
    assert main(["compare", "--matrix", "tridiag:0,4,0", "--n", "6",
                 "--class", "cauchy", "--function", "inv", "--column", "3",
                 "--distance", "graph", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    # the stored zeros are not edges: every other row is unreachable
    assert [r[1] for r in rows] == ["", "", "0", "", "", ""]


def test_quad_tol_floor_is_named(capsys):
    assert main(["bound", "--matrix", "tridiag", "--n", "10", "--function",
                 "inv_sqrt", "--class", "cauchy", "--column", "5",
                 "--quad-tol", "1e-15"]) == 1
    assert ">= 1.11e-14" in capsys.readouterr().err


def test_zeta_needs_resolvent_class(monkeypatch, capsys):
    def no_eigensolve(*args):
        raise AssertionError("eigensolve before the --zeta check")

    monkeypatch.setattr(oracle, "eigendecomposition", no_eigensolve)
    monkeypatch.setattr(figures, "spectral_interval", no_eigensolve)
    for command in ("bound", "compare", "oracle"):
        assert main([command, "--matrix", "tridiag", "--n", "30", "--column",
                     "10", "--class", "cauchy", "--function", "inv_sqrt",
                     "--zeta", "3"]) == 1
        assert "--class resolvent" in capsys.readouterr().err


def test_tau_needs_exp_class(monkeypatch, capsys):
    def no_eigensolve(*args):
        raise AssertionError("eigensolve before the --tau check")

    monkeypatch.setattr(oracle, "eigendecomposition", no_eigensolve)
    monkeypatch.setattr(figures, "spectral_interval", no_eigensolve)
    single = ["--matrix", "tridiag", "--n", "30", "--column", "10"]
    for argv in (["bound", *single], ["compare", *single], ["oracle", *single],
                 ["kron", "--factors", "tridiag,tridiag", "--n", "5",
                  "--column", "13"]):
        # an explicit --tau is rejected even at its default value
        assert main(argv + ["--class", "laplace", "--function", "inv_sqrt",
                            "--tau", "1"]) == 1
        assert "--class exp" in capsys.readouterr().err
    with pytest.raises(ValueError, match="--class exp"):
        run_compare(make_test_matrix("tridiag", 30), 10, "inv", "cauchy",
                    tau=2.0)


def test_exp_class_tau_defaults_to_one():
    m = make_test_matrix("tridiag", 30)
    _, _, implicit = run_compare(m, 10, "exp", "exp")
    _, _, explicit = run_compare(m, 10, "exp", "exp", tau=1.0)
    assert implicit == explicit


def test_shifted_resolvent_floor_comes_from_the_shifted_inverse(tmp_path,
                                                                capsys):
    # tridiag(1, 0, 1) of order 11 is singular, so 1/x has no finite floor,
    # but |1/(x - i)| <= 1 on its spectrum
    m = parse_matrix_spec("tridiag:1,0,1", 11)
    summary, _, _ = run_compare(m, 3, None, "resolvent", zeta=1.0)
    assert summary["oracle_floor"] == oracle_floor(m, lambda x: 1.0 / (x - 1j))
    assert summary["resolved"] == 10 and summary["violations"] == 0
    assert main(["compare", "--matrix", "tridiag:1,0,1", "--n", "11",
                 "--column", "3", "--class", "resolvent", "--zeta", "1",
                 "--self-check", "--out", str(tmp_path / "r.csv")]) == 0
    assert "violations 0 resolved 10" in capsys.readouterr().err


def _record_engine(monkeypatch, module, name, position):
    """Wrap module.name so that the distances argument (at ``position``) of
    every call is recorded, one list per call."""
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(list(args[position]))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("mode", ["band", "graph"])
@pytest.mark.parametrize("klass, function, name", [
    ("laplace", "inv_sqrt", "laplace_entry_bound"),
    ("cauchy", "log1p_over_z", "cauchy_entry_bound")])
def test_run_compare_evaluates_each_distance_once(monkeypatch, mode, klass,
                                                  function, name):
    # one engine call per column, each distinct distance in it once
    m, t, tol = make_test_matrix("pentadiag", 30), 12, 1e-6
    if klass == "laplace":
        calls = _record_engine(monkeypatch, bounds, "laplace_bounds", 2)
    else:
        calls = _record_engine(monkeypatch, bounds,
                               "_total_variation_quadrature", 2)
    _, _, rows = run_compare(m, t, function, klass, distance_mode=mode,
                             quad_tol=tol)
    bounded = [(k, d, b) for k, d, b, _, _ in rows if b is not None]
    distances = [d for _, d, _ in bounded]
    # rows share distances on both sides of t; each is evaluated once
    assert len(set(distances)) < len(distances)
    assert len(calls) == 1
    seen = [d[0] if klass == "laplace" else d for d in calls[0]]
    assert sorted(seen) == sorted(set(distances))
    # every row is the public per-distance bound, bit for bit
    real = getattr(bounds, name)
    _, _, measure = figures.resolve_function(function, klass, None, 0.0)
    iv = spectral_interval(m)
    for k, d, b in bounded:
        assert b == real(iv, measure, d, quad_tol=tol).bound, k


@pytest.mark.parametrize("klass, function, name", [
    ("laplace", "phi1", "laplace_kron_bound"),
    ("cauchy", "inv_sqrt", "cauchy_kron_bound"),
    ("exp", None, "exp_kron_bound")])
def test_run_kron_compare_evaluates_each_distance_tuple_once(
        monkeypatch, klass, function, name):
    # one engine call per column, each distinct distance tuple in it once
    a = KroneckerSum(factors=(make_test_matrix("tridiag", 6),
                              make_test_matrix("pentadiag", 6)))
    t, tol = a.linearize((3, 1)), 1e-6
    if klass == "exp":
        calls = _record_engine(monkeypatch, bounds, "exp_bounds", 2)
    else:
        calls = _record_engine(monkeypatch, bounds, "laplace_bounds", 2)
    _, _, rows = run_kron_compare(a, t, function, klass, quad_tol=tol)
    # exp gives the diagonal entry (row t) no bound
    bounded = [r for r in rows if klass != "exp" or r[0] != t]
    assert [r[-2] for r in rows if r not in bounded] in ([], [None])
    tuples = [(d1, d2) for _, _, _, d1, d2, _, _ in bounded]
    assert len(set(tuples)) < len(tuples)
    assert len(calls) == 1
    seen = calls[0]
    assert sorted(seen) == sorted(set(tuples))
    # the factors differ, so (d1, d2) and (d2, d1) are different entries
    assert seen.count((1.0, 2.0)) == 1 and seen.count((2.0, 1.0)) == 1
    real = getattr(kron, name)
    ivs = tuple(spectral_interval(f) for f in a.factors)
    if klass == "exp":
        per_tuple = lambda ds: real(ivs, 1.0, ds)
    else:
        _, _, measure = figures.resolve_function(function, klass, None, 0.0)
        per_tuple = lambda ds: real(ivs, measure, ds, quad_tol=tol)
    for k, *_, b, _ in bounded:
        assert b == per_tuple(figures._distances(a, t)[k - 1]).bound, k


@pytest.mark.parametrize("kind", ["tridiag", "pentadiag"])
def test_figure_fig4_evaluates_each_distance_once(monkeypatch, tmp_path,
                                                  kind):
    # one closed-form call per distinct distance, and the CSV of the
    # per-row recipe: the oracle column, the bound at every k != t
    real = bounds.invsqrt_closed_bound
    calls = []

    def counted(interval, distance, **kwargs):
        calls.append(distance)
        return real(interval, distance, **kwargs)

    monkeypatch.setattr(bounds, "invsqrt_closed_bound", counted)
    out = tmp_path / "fig4.csv"
    assert main(["figure", "fig4-cs-invsqrt", "--matrix-kind", kind,
                 "--out", str(out)]) == 0
    m, t = make_test_matrix(kind, 200), 127
    ds = [abs(k - t) / m.beta for k in range(1, 201)]
    assert sorted(calls) == sorted(set(ds) - {0.0})
    assert len(calls) == 126
    iv, diag_max = spectral_interval(m), m.diagonal_max()
    col = np.abs(oracle.function_column(m, lambda x: x ** -0.5, t))
    expect = tmp_path / "expect.csv"
    figures._write_csv(str(expect), ("k", "oracle", "bound"), [
        (k, float(col[k - 1]),
         real(iv, d, diag_max=diag_max) if k != t else None)
        for k, d in enumerate(ds, start=1)])
    assert out.read_bytes() == expect.read_bytes()


@pytest.mark.parametrize("sigma", ["140", "171"])
def test_inv_pow_large_sigma_runs_clean(capsys, sigma):
    # tau^(sigma-1) overflows a double here; the density never forms it
    argv = ["compare", "--matrix", "tridiag", "--n", "20", "--class",
            "laplace", "--function", f"inv_pow:{sigma}", "--column", "10"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    out, err = capsys.readouterr()
    assert "violations 0 " in err
    _, *rows = out.splitlines()
    ratios = [float(r.split(",")[-1]) for r in rows if r.split(",")[-1]]
    assert len(ratios) == 17 and all(math.isfinite(x) for x in ratios)


def test_inv_pow_weight_past_the_largest_double_runs_clean(capsys):
    # lambda_min = 0.072: the density tau^170 / Gamma(171) overflows where
    # the bound integrand peaks, near tau = 2350, but the integrand is 1e195
    argv = ["compare", "--matrix", "tridiag:-1,2.05,-1", "--n", "20",
            "--class", "laplace", "--function", "inv_pow:171", "--column", "10"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    out, err = capsys.readouterr()
    assert "violations 0 resolved 17" in err
    lmin = 2.05 - 2 * math.cos(math.pi / 21)
    cells = [r.split(",") for r in out.splitlines()[1:]]
    bounded = [(float(b), float(o)) for _, _, b, o, _ in cells if b]
    assert len(bounded) == 17
    # every cell is finite, dominates its oracle and stays below the
    # trivial bound ||f(M)|| = lambda_min^-171 that a unit envelope gives
    for b, o in bounded:
        assert o <= b <= lmin ** -171 * (1 + 1e-6)


@pytest.mark.parametrize("command", ["compare", "bound", "oracle"])
def test_non_finite_dense_matrix_exits_one(command, capsys):
    argv = [command, "--matrix", "pentadiag:-0.5,-1,nan,-1,-0.5", "--n", "30",
            "--class", "laplace", "--function", "inv_sqrt", "--column", "10"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("decay: error: ") and "did not converge" in err
    assert "Traceback" not in err and err.count("\n") == 1


# The documented (--class, --function) vocabulary of the README.
_VOCABULARY = ([("laplace", f) for f in ("inv", "exp", "phi1", "inv_sqrt",
                                         "inv_pow:0.5", "log1p_inv")]
               + [("cauchy", f) for f in ("inv", "inv_sqrt", "expsqrt:1",
                                          "log1p_over_z")]
               + [("exp", "exp"), ("resolvent", "inv")])


def _vocabulary_commands():
    """(argv, takes --zeta) for each command, pair and test matrix."""
    quad = ["--quad-tol", "1e-6"]
    for klass, function in _VOCABULARY:
        pair = ["--class", klass, "--function", function]
        for kind in ("tridiag", "pentadiag"):
            single = ["--matrix", kind, "--n", "16", "--column", "6", *pair]
            for command in ("bound", "compare"):
                for distance in ("band", "graph"):
                    yield [command, *single, "--distance", distance, *quad], True
            yield ["oracle", *single], True
            yield ["kron", "--factors", f"tridiag,{kind}", "--n", "5",
                   "--column", "13", *pair, *quad], False


def test_documented_vocabulary_runs_cleanly(tmp_path, capsys):
    """Every documented command and (--class, --function) pair at small
    order exits 0 or 1 without a traceback or a warning, and a nonzero
    --zeta or a --tau other than 1 either changes the CSV or is
    rejected."""

    def run(argv, out):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 1), (argv, err)
        assert "Traceback" not in err and "Warning" not in err, (argv, err)
        return code

    base, changed = tmp_path / "base.csv", tmp_path / "changed.csv"
    for argv, takes_zeta in _vocabulary_commands():
        code = run(argv, base)
        for flag in ([["--zeta", "3"]] if takes_zeta else []) + [["--tau", "2"]]:
            if run(argv + flag, changed) == 0:
                assert code == 0 and base.read_bytes() != changed.read_bytes(), \
                    (argv, flag)
