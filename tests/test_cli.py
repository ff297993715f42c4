import csv

import numpy as np
import pytest

from decaybounds import (KroneckerSum, cauchy_catalog, make_test_matrix,
                         oracle_floor)
from decaybounds.cli import main
from decaybounds.figures import FigureSpec, run_compare, run_figure

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


def test_seventeen_significant_digits(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["bound", "--matrix", "tridiag", "--n", "10", "--function",
                 "inv", "--class", "cauchy", "--column", "5",
                 "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    val = rows[0][3]
    assert len(val.replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_run_figure_library_api(tmp_path):
    spec = FigureSpec(figure_id="fig4-cs-invsqrt", matrix_kind="tridiag")
    summary = run_figure(spec, str(tmp_path / "f4.csv"))
    assert summary["violations"] == 0
    assert summary["converged"]


def test_run_compare_library_api(tmp_path):
    m = make_test_matrix("tridiag", 50)
    summary, header, rows = run_compare(m, 25, "inv", "cauchy",
                                        out_path=str(tmp_path / "c.csv"))
    assert summary["violations"] == 0
    assert summary["ratio_min"] is not None and summary["ratio_min"] >= 1.0


def test_non_convergence_exits_two(tmp_path):
    out = tmp_path / "n.csv"
    code = main(["bound", "--matrix", "tridiag", "--n", "60", "--function",
                 "inv_sqrt", "--class", "laplace", "--column", "30",
                 "--quad-max-panels", "2", "--out", str(out)])
    assert code == 2
    assert out.exists()  # output is still written for inspection


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
