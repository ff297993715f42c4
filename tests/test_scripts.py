import importlib
import importlib.util
import inspect
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts/reproduce_figures.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_figures_calls_every_preset(monkeypatch, tmp_path):
    script = _load("reproduce_figures", SCRIPT)
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


def test_reproduce_figures_rejects_bad_quad_tol(monkeypatch, tmp_path):
    script = _load("reproduce_figures", SCRIPT)
    calls = []
    monkeypatch.setattr(script, "run_figure", lambda *args: calls.append(args))
    with pytest.raises(SystemExit) as exc:
        script.main(["--out-dir", str(tmp_path), "--quad-tol", "0"])
    assert exc.value.code == 2
    assert calls == []


@pytest.fixture
def perfbench_on_path(monkeypatch):
    """perfbench/ importable for one test; what importing run.py sets
    (BLAS thread variables, no bytecode) and the perfbench modules it
    loads are undone afterwards, so later tests see neither."""
    perfbench = ROOT / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    loaded = set(sys.modules)
    yield
    for name in set(sys.modules) - loaded:
        path = getattr(sys.modules[name], "__file__", None)
        if path and pathlib.Path(path).parent == perfbench:
            del sys.modules[name]


def test_job_digests_repeat_on_the_figure_presets(perfbench_on_path):
    # the byte-identity gate between two checkouts needs digests that do
    # not change from one run to the next
    script = _load("job_digests", ROOT / "scripts/job_digests.py")
    jobs = script.workloads.figure_jobs()
    first = script.digest_lines("figures-kron", jobs)
    assert len(first) == 12
    assert [line.split()[:3] for line in first] == [
        ["figures-kron", job.key, "0"] for job in jobs]
    assert script.digest_lines("figures-kron", jobs) == first


def test_quad_rounds_repeat_on_the_figure_presets(perfbench_on_path):
    # the per-layer counts compare two checkouts of one algorithm, so
    # they must not change from one run to the next
    script = _load("quad_rounds", ROOT / "scripts/quad_rounds.py")
    jobs = [job for job in script.workloads.figure_jobs()
            if job.key.startswith("fig3-")]

    def counts():
        return [line.split()[:6]
                for line in script.job_lines("figures-kron", jobs)]

    first = counts()
    assert [c[1] for c in first] == [job.key for job in jobs] + ["total"]
    assert all(int(n) > 0 for c in first for n in c[2:])
    assert counts() == first


def test_public_names_resolve_once():
    import decaybounds
    assert [name for name in decaybounds.__all__
            if not hasattr(decaybounds, name)] == []
    assert len(set(decaybounds.__all__)) == len(decaybounds.__all__)


def test_tracer_targets_exist():
    # the benchmark tracer reports a layer as unmeasured when a wrapped
    # name is missing, so a deletion here must not go unnoticed
    tracer = _load("perfbench_tracer", ROOT / "perfbench/tracer.py")
    missing = [(module, attribute)
               for _, module, attribute, _ in tracer.TARGETS
               if not hasattr(importlib.import_module(f"decaybounds.{module}"),
                              attribute)]
    assert missing == []


def test_kron_defines_only_the_tracer_names():
    # every Kronecker route is bounds.laplace_bounds or bounds.exp_bounds
    # on a tuple of factors; kron.py keeps only the one-tuple names that
    # the tracer times, so no Kronecker-only route grows back beside them
    from decaybounds import kron
    tracer = _load("perfbench_tracer", ROOT / "perfbench/tracer.py")
    traced = {attribute for _, module, attribute, _ in tracer.TARGETS
              if module == "kron"}
    defined = {name for name, obj in vars(kron).items()
               if inspect.isfunction(obj) and obj.__module__ == kron.__name__}
    assert defined and defined <= traced, defined - traced


def test_tracer_targets_see_the_distance_and_envelope_calls(monkeypatch,
                                                            tmp_path):
    # the tracer wraps module attributes, so the calls it measures must go
    # through them: the graph-distance layer through figures.geodesic_from,
    # every exponential bound through bounds.exp_envelope, once per column
    from decaybounds import bounds, figures, make_test_matrix
    tracer = _load("perfbench_tracer", ROOT / "perfbench/tracer.py")
    assert ("graphdist", "figures", "geodesic_from", "bfs") in tracer.TARGETS
    assert ("bounds", "bounds", "exp_envelope", "envelope") in tracer.TARGETS
    counts = {}

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(figures, "geodesic_from")
    count(bounds, "exp_envelope")
    m = make_test_matrix("pentadiag", 40)
    figures.run_compare(m, 11, "inv", "cauchy", distance_mode="graph")
    assert counts == {"geodesic_from": 1}
    figures.run_compare(m, 11, None, "exp", tau=2.0)
    assert counts == {"geodesic_from": 1, "exp_envelope": 1}
    figures.run_figure("fig1-exp", "tridiag", str(tmp_path / "f.csv"), 1e-10)
    assert counts == {"geodesic_from": 1, "exp_envelope": 2}
