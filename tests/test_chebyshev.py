"""The one Chebyshev transform of f on the enclosure
(``decaybounds.chebyshev``) against independent references, and the tail
S it gives (``reference.chebyshev_tail_bound``) against the oracle on
every benchmark job template.

S is item (0) of the Chebyshev-tail bound: no command prints it yet, so
these tests check what it is to replace the envelope integrals with."""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest
import scipy.io

from decaybounds import (KroneckerSum, chebyshev, cli, figures,
                         laplace_catalog, make_test_matrix, oracle,
                         parse_matrix_spec, spectral_interval)
from reference import chebyshev_tail_bound

EPS = np.finfo(float).eps
ROOT = pathlib.Path(__file__).resolve().parents[1]

_MPMATH = {
    "inv_sqrt": lambda mp, x: 1 / mp.sqrt(x),
    "phi1": lambda mp, x: -mp.expm1(-x) / x,
    "exp": lambda mp, x: mp.exp(-x),
}


def _gauss_chebyshev(g, interval, count, nodes=128, dps=30):
    """The first ``count`` Chebyshev coefficients of g on ``interval`` by
    Gauss-Chebyshev quadrature at ``nodes`` points in mpmath at ``dps``
    digits: (2 / K) sum_k g(x(cos theta_k)) cos(j theta_k)."""
    import mpmath as mp

    with mp.workdps(dps):
        lo, hi = mp.mpf(interval.lambda_min), mp.mpf(interval.lambda_max)
        theta = [mp.pi * (k + mp.mpf(1) / 2) / nodes for k in range(nodes)]
        values = [g(mp, (lo + hi) / 2 + (hi - lo) / 2 * mp.cos(th))
                  for th in theta]
        return np.array([float(2 * mp.fsum(v * mp.cos(j * th) for v, th
                                           in zip(values, theta)) / nodes)
                         for j in range(count)])


@pytest.mark.parametrize("name", sorted(_MPMATH))
def test_coefficients_match_mpmath(name):
    # measured 0.18 (inv_sqrt), 0.29 (phi1) and 0.46 (exp) eps max|f|
    iv = spectral_interval(make_test_matrix("tridiag", 200))
    fx, c = chebyshev.transform(laplace_catalog(name).closed_form, (iv,))
    exact = _gauss_chebyshev(_MPMATH[name], iv, 40)
    # the grid ascends, so its coefficients are (-1)^j c_j: compare moduli
    gap = np.abs(c[1:40] - np.abs(exact[1:40]))
    assert np.max(gap) <= 4 * EPS * np.max(np.abs(fx))


def test_two_factor_coefficients_are_the_outer_product():
    # exp(-(x_1 + x_2)) = exp(-x_1) exp(-x_2): measured 0.31 eps max|f|
    f = lambda x: np.exp(-x)
    ivs = (spectral_interval(make_test_matrix("tridiag", 200)),
           spectral_interval(make_test_matrix("pentadiag", 200)))
    assert chebyshev.grid_size(2) == chebyshev.grid_size(1)
    both = chebyshev.transform(f, ivs)[1]
    each = [chebyshev.transform(f, (iv,))[1] for iv in ivs]
    fmax = np.exp(-ivs[0].lambda_min - ivs[1].lambda_min)
    assert np.max(np.abs(both - np.outer(*each))) <= 4 * EPS * fmax


def test_grid_size_is_derived_from_the_factor_count():
    assert [chebyshev.grid_size(L) for L in (1, 2, 3)] == [1024, 1024, 64]


@pytest.mark.parametrize("spec, n", [("tridiag", 200), ("pentadiag", 200),
                                     ("tridiag:-1,2.001,-1", 1000)])
@pytest.mark.parametrize("name", ["inv_sqrt", "phi1", "exp", "log1p_inv"])
def test_one_factor_coefficients_are_one_fft_of_the_even_extension(spec, n,
                                                                   name):
    # the Lanczos step counts come from these bits
    iv = spectral_interval(parse_matrix_spec(spec, n))
    fx, c = chebyshev.transform(laplace_catalog(name).closed_form, (iv,))
    assert fx.shape == (1025,)
    direct = np.abs(np.fft.fft(np.concatenate([fx, fx[-2:0:-1]]))[:1025])
    direct /= 1024
    assert np.array_equal(c, direct)


def _workloads():
    """``perfbench/workloads.py``, read as a module of its own name; its
    dataclass looks itself up in ``sys.modules``."""
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "perfbench/workloads.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _workloads()
_TEMPLATES = [(w, t) for w in ("quad-column", "figures-kron")
              for t in _WORKLOADS.TEMPLATES[w] if not t.startswith("surface")]


def _job_inputs(job, tmp_path):
    """(A, f, t, distance mode) of a compare or kron job's command line."""
    args = cli.build_parser().parse_args(list(job.argv))
    for name, m, seed in job.files:
        scipy.io.mmwrite(str(tmp_path / name), _WORKLOADS.grid_matrix(
            np.random.default_rng(seed), m), symmetry="symmetric")
    f, _, _ = figures.resolve_function(args.function, args.klass, args.tau,
                                       getattr(args, "zeta", 0.0))
    if args.command == "kron":
        factors = [parse_matrix_spec(s, args.n)
                   for s in args.factors.split(",")]
        return KroneckerSum(factors=tuple(factors)), f, int(args.column), "band"
    names = {name for name, _, _ in job.files}
    matrix = str(tmp_path / args.matrix) if args.matrix in names else args.matrix
    return parse_matrix_spec(matrix, args.n), f, args.column, args.distance


@pytest.mark.parametrize("workload, template", _TEMPLATES)
def test_tail_bound_dominates_the_oracle(workload, template, tmp_path):
    # variant 0 of every template; least ratios measured 2.3 (cau-inv_sqrt)
    # to 9.2 (kron3-lap-inv_sqrt)
    A, f, t, mode = _job_inputs(_WORKLOADS.variant(workload, template, 0),
                                tmp_path)
    col, floor = oracle.function_column(A, f, t)
    tail = chebyshev_tail_bound(A, f, t, mode)
    cells = [(s, o) for s, o in zip(tail, np.abs(col).tolist())
             if o >= floor]
    assert len(cells) >= 20
    assert all(s >= o * (1 - 1e-10) for s, o in cells)
