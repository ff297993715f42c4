"""Acceptance gate: one test per shipped correctness criterion, each at its
stated tolerance, printing a pass line when it holds.

Dominance comparisons against the dense eigendecomposition oracle apply
above that oracle's resolution floor (roughly n * eps * max|f| -- below
it the computed column is rounding noise; ``function_column`` returns it
with the column).  For the matrix exponential the check
additionally runs at EVERY covered index against a cancellation-free
nonnegative-series oracle that stays accurate at any magnitude.
"""

import math
import time

import numpy as np
import pytest

from decaybounds import (KroneckerSum, banded_from_stencil, cauchy_catalog,
                         demko_bound, function_column, geodesic_from,
                         invsqrt_closed_bound, laplace_catalog,
                         make_test_matrix, spectral_interval)
from decaybounds.bounds import (cauchy_entry_bound, exp_entry_bound,
                                laplace_entry_bound)
from decaybounds.kron import cauchy_kron_bound, laplace_kron_bound
from reference import (cauchy_reconstruct, component_distances,
                       expm_column_nonneg, factor_intervals, kron_toarray,
                       lancaster_column, laplace_reconstruct,
                       laplace_transform_of_cauchy, sincos_kron_exact)

SLACK = 1.0 - 1e-10
KINDS = ("tridiag", "pentadiag")


def _report(criterion, detail):
    print(f"criterion {criterion}: PASS - {detail}")


def test_criterion_01_spectral_reproduction():
    start = time.perf_counter()
    tau = 4.0
    values = {}
    for kind, expect in (("tridiag", 3.9995), ("pentadiag", 4.4989)):
        m = make_test_matrix(kind, 200)
        iv = spectral_interval(m)
        got = tau * iv.rho
        assert abs(got - expect) <= 5e-4, (kind, got)
        values[kind] = got
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, f"tau*rho = {values['tridiag']:.6f} / {values['pentadiag']:.6f} "
               f"(targets 3.9995 / 4.4989), {elapsed:.2f}s")


def test_criterion_02_exponential_dominance_and_superexponential_decay():
    start = time.perf_counter()
    tau, t = 4.0, 127
    checked = 0
    for kind in KINDS:
        m = make_test_matrix(kind, 200)
        iv = spectral_interval(m)
        f = lambda x: np.exp(-tau * x)
        col_eig, floor = function_column(m, f, t)
        col_eig = np.abs(col_eig)
        col_deep = expm_column_nonneg(m.toarray(), tau, t)
        lo = math.sqrt(4.0 * iv.rho * tau) * m.beta
        bounds = {}
        for k in range(1, 201):
            if k == t or abs(k - t) < lo:
                continue
            b = exp_entry_bound(iv, tau, abs(k - t) / m.beta)
            bounds[k] = b
            assert b >= col_deep[k - 1] * SLACK, (kind, k)
            if col_eig[k - 1] >= floor:
                assert b >= col_eig[k - 1] * SLACK, (kind, k)
            checked += 1
        # superexponential tail: consecutive ratios strictly decrease
        ds = np.arange(math.ceil(2 * iv.rho * tau) + 1, (200 - t) // m.beta)
        vals = np.array([bounds[t + int(d) * m.beta] for d in ds])
        ratios = vals[1:] / vals[:-1]
        assert np.all(np.diff(ratios) < 0), kind
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, f"zero violations at {checked} covered indices "
               f"(series oracle at all, eigensolver oracle above its floor); "
               f"log-ratio test passed, {elapsed:.2f}s")


@pytest.mark.parametrize("fname", ["inv_sqrt", "phi1"])
def test_criterion_03_laplace_bounds_dominate(fname):
    start = time.perf_counter()
    t = 127
    measure = laplace_catalog(fname)
    worst_err = 0.0
    for kind in KINDS:
        m = make_test_matrix(kind, 200)
        iv = spectral_interval(m)
        col, floor = function_column(m, measure.closed_form, t)
        col = np.abs(col)
        for k in range(1, 201):
            if abs(k - t) < 2 * m.beta:
                continue
            rep = laplace_entry_bound(iv, measure, abs(k - t) / m.beta,
                                      quad_tol=1e-10)
            assert rep.converged
            if rep.bound > 0:
                worst_err = max(worst_err, rep.error_estimate / rep.bound)
            assert rep.error_estimate <= 1e-8 * max(rep.bound, 1e-300)
            if col[k - 1] >= floor:
                assert rep.bound >= col[k - 1] * SLACK, (kind, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(3, f"{fname}: dominance on both matrices, max relative error "
               f"estimate {worst_err:.2e} <= 1e-8, {elapsed:.2f}s per figure")


def test_criterion_04_cauchy_closed_bound_superiority():
    t = 127
    measure = laplace_catalog("inv_sqrt")
    tighter = total = 0
    for kind in KINDS:
        m = make_test_matrix(kind, 200)
        iv = spectral_interval(m)
        col, floor = function_column(m, lambda x: x ** -0.5, t)
        col = np.abs(col)
        kind_tighter = kind_total = 0
        for k in range(1, 201):
            if abs(k - t) < 2 * m.beta:
                continue
            d = abs(k - t) / m.beta
            cs = invsqrt_closed_bound(iv, d, diag_max=m.diagonal_max())
            ls = laplace_entry_bound(iv, measure, d).bound
            kind_total += 1
            if cs <= ls:
                kind_tighter += 1
            if col[k - 1] >= floor:
                assert cs >= col[k - 1] * SLACK, (kind, k)
        assert kind_tighter / kind_total >= 0.95, (kind, kind_tighter, kind_total)
        tighter += kind_tighter
        total += kind_total
    _report(4, f"closed-form bound tighter on {tighter}/{total} valid rows "
               f"(>= 95% per matrix) and dominates the oracle everywhere valid")


def test_criterion_05_kronecker_identity_suite():
    import scipy.linalg
    m = make_test_matrix("tridiag", 10)
    a = KroneckerSum(factors=(m, m))
    ad = kron_toarray(a)
    md = m.toarray()
    worst = 0.0
    for tau in (0.5, 1.0, 4.0):
        dense = scipy.linalg.expm(-tau * ad)
        product = np.kron(scipy.linalg.expm(-tau * md), scipy.linalg.expm(-tau * md))
        worst = max(worst, float(np.max(np.abs(dense - product))))
    assert worst <= 1e-10
    m8 = make_test_matrix("tridiag", 8)
    a8 = KroneckerSum(factors=(m8, m8))
    w, u = np.linalg.eigh(kron_toarray(a8))
    worst_tr = 0.0
    for which, fun in (("sin", np.sin), ("cos", np.cos)):
        dense = (u * fun(w)) @ u.T
        for k in range(1, 65):
            for t in range(1, 65):
                got = sincos_kron_exact(a8, k, t, which)
                worst_tr = max(worst_tr, abs(got - dense[k - 1, t - 1]))
    assert worst_tr <= 1e-10
    _report(5, f"exponential identity max deviation {worst:.2e}, "
               f"trigonometric {worst_tr:.2e} (<= 1e-10)")


def test_criterion_06_kron_bounds_dominate_and_oscillate():
    start = time.perf_counter()
    t = 94
    cases = [("laplace", laplace_catalog("phi1")),
             ("cauchy", cauchy_catalog("inv_sqrt"))]
    for kind in KINDS:
        m = make_test_matrix(kind, 20)
        a = KroneckerSum(factors=(m, m))
        t1 = (t - 1) % 20 + 1
        for route, measure in cases:
            col, floor = function_column(a, measure.closed_form, t)
            col = np.abs(col)
            bounds = np.empty(400)
            bound = (laplace_kron_bound if route == "laplace"
                     else cauchy_kron_bound)
            ivs = factor_intervals(a)
            for k in range(1, 401):
                rep = bound(ivs, measure, component_distances(a, k, t),
                            quad_tol=1e-9)
                assert rep.converged
                bounds[k - 1] = rep.bound
                if col[k - 1] >= floor:
                    assert rep.bound >= col[k - 1] * SLACK, (kind, route, k)
            # oscillation: within every consecutive block the bound attains
            # its maximum at the within-block position of t (plateau ties
            # at quadrature tolerance) and the resolved oracle peaks there
            for blk in range(20):
                seg_b = bounds[blk * 20:(blk + 1) * 20]
                assert seg_b[t1 - 1] >= np.max(seg_b) * (1 - 1e-7), (kind, route, blk)
                seg_o = col[blk * 20:(blk + 1) * 20]
                if np.max(seg_o) >= 10 * floor:
                    assert int(np.argmax(seg_o)) == t1 - 1, (kind, route, blk)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(6, f"both routes dominate with zero violations and peak at "
               f"k1={t1} in every resolved block, {elapsed:.1f}s total")


def test_criterion_07_sylvester_kernel_column():
    m = make_test_matrix("tridiag", 10)
    a = KroneckerSum(factors=(m, m))
    omega, t = -1.0, 37
    col = lancaster_column(m, omega, tuple(a.multi_indices[t - 1].tolist()),
                           tol=1e-8)
    rhs = np.zeros(100)
    rhs[t - 1] = 1.0
    direct = np.linalg.solve(kron_toarray(a) - omega * np.eye(100), rhs)
    dev = float(np.max(np.abs(col - direct)))
    assert dev <= 1e-6
    _report(7, f"quadrature column matches the direct solve to {dev:.2e} "
               "max-norm (<= 1e-6)")


def test_criterion_08_dual_class_consistency():
    cm = cauchy_catalog("inv_sqrt")
    lm = laplace_catalog("inv_sqrt")
    for tau in (0.1, 1.0, 10.0):
        g = laplace_transform_of_cauchy(cm, tau)
        w = float(lm.density(np.asarray(tau)))
        assert abs(g - w) <= 1e-8 * abs(w), tau
    m = make_test_matrix("tridiag", 20)
    a = KroneckerSum(factors=(m, m))
    worst = 0.0
    ivs = factor_intervals(a)
    for k in (30, 94 - 45, 201, 350):
        ds = component_distances(a, k, 94)
        ls = laplace_kron_bound(ivs, lm, ds, quad_tol=1e-10)
        cs = cauchy_kron_bound(ivs, cm, ds, quad_tol=1e-10)
        tol = ls.error_estimate + cs.error_estimate + 1e-13 * ls.bound
        assert abs(ls.bound - cs.bound) <= tol, k
        if ls.bound > 0:
            worst = max(worst, abs(ls.bound - cs.bound) / ls.bound)
    _report(8, f"transform equals density at all probe points; Kronecker "
               f"routes agree to {worst:.2e} relative")


def test_criterion_09_graph_distance_reduction():
    # exhaustive ceiling-formula check on full-band matrices
    for beta in (1, 2, 3):
        stencil = [-0.25] * beta + [4.0] + [-0.25] * beta
        for n in (2 * beta + 1, 33, 100):
            m = banded_from_stencil(stencil, n)
            for t in range(1, n + 1):
                dv = geodesic_from(m, t)
                for j in range(1, n + 1):
                    assert dv[j - 1] == math.ceil(abs(j - t) / beta), (beta, n, t, j)
    # graph-mode bounds never exceed band-mode bounds
    m = make_test_matrix("pentadiag", 40)
    iv = spectral_interval(m)
    t = 20
    dv = geodesic_from(m, t)
    lmea = laplace_catalog("phi1")
    cmea = cauchy_catalog("inv_sqrt")
    s = m.diagonal_max()
    for k in range(1, 41):
        dg, db = dv[k - 1], abs(k - t) / 2
        assert demko_bound(iv, dg, diag_max=s) <= \
            demko_bound(iv, db, diag_max=s) * (1 + 1e-12)
        if k != t:
            assert exp_entry_bound(iv, 4.0, dg) <= \
                exp_entry_bound(iv, 4.0, db) * (1 + 1e-12)
        if abs(k - t) >= 4:
            assert laplace_entry_bound(iv, lmea, dg).bound <= \
                laplace_entry_bound(iv, lmea, db).bound * (1 + 1e-9)
        assert cauchy_entry_bound(iv, cmea, dg).bound <= \
            cauchy_entry_bound(iv, cmea, db).bound * (1 + 1e-9)
    _report(9, "geodesic distance equals ceil(|i-j|/beta) exhaustively "
               "(beta in {1,2,3}, n up to 100); graph-mode bounds never "
               "exceed band-mode bounds")


def test_criterion_10_measure_reconstruction():
    names_l = ("inv", "exp", "phi1", "inv_sqrt", "inv_pow:0.5", "inv_pow:3",
               "log1p_inv")
    names_c = ("inv_sqrt", "expsqrt:1.0", "log1p_over_z")
    points = (0.5, 1.0, 2.0, 5.0)
    worst = 0.0
    for name in names_l:
        mea = laplace_catalog(name)
        for x in points:
            rel = abs(laplace_reconstruct(mea, x) - mea.closed_form(x)) / abs(mea.closed_form(x))
            worst = max(worst, rel)
            assert rel <= 1e-6, (name, x)
    for name in names_c:
        mea = cauchy_catalog(name)
        for x in points:
            rel = abs(cauchy_reconstruct(mea, x) - mea.closed_form(x)) / abs(mea.closed_form(x))
            worst = max(worst, rel)
            assert rel <= 1e-6, (name, x)
    _report(10, f"every represented catalog measure reconstructs its closed "
                f"form to {worst:.2e} relative (<= 1e-6); exp_inv is a "
                "documented stub without representation data")
