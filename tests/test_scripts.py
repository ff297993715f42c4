import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts/reproduce_figures.py"


def test_reproduce_figures_calls_every_preset(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("reproduce_figures", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    figure_calls, surface_calls = [], []

    def run_figure(*args):
        figure_calls.append(args)
        return {"rows": 1, "violations": 0, "converged": True,
                "ratio_min": None, "ratio_max": None}

    monkeypatch.setattr(script, "run_figure", run_figure)
    monkeypatch.setattr(script, "run_surface",
                        lambda *args: surface_calls.append(args))
    assert script.main(["--out-dir", str(tmp_path)]) == 0
    assert figure_calls == [
        (fid, kind, str(tmp_path / f"{fid}-{kind}.csv"), 1e-10)
        for fid in script.FIGURE_IDS for kind in ("tridiag", "pentadiag")]
    assert len(figure_calls) == 12
    assert surface_calls == [
        (function, 5.0, 10, str(tmp_path / f"surface-{function}.csv"))
        for function in ("exp", "inv_sqrt")]
