import ast
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
        pathlib.Path(args[2]).write_text("k,oracle,bound\r\n1,2,3\r\n"
                                         "2,1,2\r\n3,0.5,\r\n")
        return {"rows": 3, "violations": 0, "converged": True,
                "ratio_min": None, "ratio_max": None, "oracle_floor": 0.0}

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


def test_reproduce_figures_prints_rank_correlation(monkeypatch, tmp_path,
                                                  capsys):
    # the bound follows the decay of the Kronecker presets' entries
    script = _load("reproduce_figures", SCRIPT)
    monkeypatch.setattr(script, "FIGURE_IDS",
                        ("fig6-kron-phi1", "fig7-kron-invsqrt"))
    assert script.main(["--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    rhos = [float(line.split("spearman=")[1].split()[0])
            for line in out if "spearman=" in line]
    assert len(rhos) == 4 and min(rhos) >= 0.95


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


def test_cell_moves_repeat_on_the_figure_presets(perfbench_on_path,
                                                monkeypatch, capsys):
    # the byte-identity gate between two checkouts needs jobs that do not
    # change from one run to the next: the 12 presets of this checkout,
    # run twice, exit 0 and move no byte
    script = _load("cell_moves", ROOT / "scripts/cell_moves.py")
    import workloads
    keys = [job.key for job in workloads.figure_jobs()]
    runs = []
    real = script._run_child
    monkeypatch.setattr(script, "_run_child",
                        lambda *args: runs.append(real(*args)) or runs[-1])
    argv = [str(ROOT), "--workload", "figures-kron"]
    assert script.main(argv + [a for key in keys for a in ("--job", key)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "figures-kron: 0 of 12 jobs moved"]
    assert len(runs) == 2
    assert [[run[key]["rc"] for key in keys] for run in runs] == [[0] * 12] * 2


def test_quad_rounds_repeat_on_the_figure_presets(perfbench_on_path):
    # the per-layer counts compare two checkouts of one algorithm, so
    # they must not change from one run to the next
    script = _load("quad_rounds", ROOT / "scripts/quad_rounds.py")
    jobs = [job for job in script.workloads.figure_jobs()
            if job.key.startswith("fig3-")]

    def counts():
        return [line.split()[:8]
                for line in script.job_lines("figures-kron", jobs)]

    first = counts()
    assert [c[1] for c in first] == [job.key for job in jobs] + ["total"]
    assert all(int(n) > 0 for c in first for n in c[2:])
    assert counts() == first


def test_cell_moves_of_a_tree_against_itself_are_zero(perfbench_on_path,
                                                    capsys):
    # a job whose ends come from band Cholesky inertia tests, run in two
    # child processes of the same checkout: no cell moves
    script = _load("cell_moves", ROOT / "scripts/cell_moves.py")
    assert script.main([str(ROOT), "--job", "resolvent-0/2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "dense-oracle: 0 of 1 jobs moved"]
    import numpy as np
    cells = np.array([1.0, np.nan, 0.5])
    assert script.largest_move(cells, cells) == 0.0
    assert script.largest_move(cells * (1 + 2 ** -52), cells) == 2 ** -52


def test_cell_moves_margin_counts_the_oracle_floor():
    # check.py allows an oracle cell CLOSED_RTOL |ref| + floor / 100: a
    # move inside that slack reads a margin of at least 1, one past it
    # less than 1, though both pass CLOSED_RTOL many times over
    import numpy as np
    script = _load("cell_moves", ROOT / "scripts/cell_moves.py")
    rtol, floor = 1e-12, 1e-10
    other = np.array([1.0, 1e-9, np.nan, 0.25])
    inside = other + np.array([0.0, 0.9 * floor / 100, 0.0, 0.0])
    past = other + np.array([0.0, 1.1 * floor / 100, 0.0, 0.0])
    assert script.least_margin(inside, other, rtol, floor / 100) >= 1
    assert script.least_margin(past, other, rtol, floor / 100) < 1
    assert script.least_margin(other, other, rtol, floor / 100) == np.inf
    assert script.least_margin(other[2:3], other[2:3], rtol, 0.0) is None
    # with no floor the margin is rtol over the largest relative move
    moved = other * (1 + 4e-13)
    assert script.least_margin(moved, other, rtol, 0.0) == pytest.approx(
        rtol / script.largest_move(moved, other), rel=1e-6)


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


def test_every_package_function_has_a_caller():
    # a function or method that no other code of the package names, and
    # that the benchmark tracer does not wrap, is reached by tests alone:
    # delete it rather than keep it beside the routes the drivers take
    tracer = _load("perfbench_tracer", ROOT / "perfbench/tracer.py")
    exempt = {attribute for _, _, attribute, _ in tracer.TARGETS}
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((ROOT / "src/decaybounds").glob("*.py"))
             if path.stem not in ("__init__", "__main__")}
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    uncalled = []
    for stem, tree in trees.items():
        defs = [(None, node) for node in tree.body
                if isinstance(node, functions)]
        defs += [(cls.name, node) for cls in tree.body
                 if isinstance(cls, ast.ClassDef) for node in cls.body
                 if isinstance(node, functions)]
        for owner, node in defs:
            name = node.name
            if (name.startswith("__") and name.endswith("__")
                    or name in named or name in exempt
                    or (stem, name) == ("cli", "main")):
                continue
            uncalled.append(f"{stem}.{owner + '.' if owner else ''}{name}")
    assert uncalled == []


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
