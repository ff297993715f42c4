import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, strategies as st

from decaybounds import (KroneckerSum, LaplaceMeasure, SparseHermitianMatrix,
                         SpectralInterval, cauchy_catalog, cauchy_kron_bound,
                         exp_envelope, exp_kron_bound,
                         function_column, laplace_catalog, laplace_entry_bound,
                         laplace_kron_bound, make_test_matrix,
                         banded_from_stencil, oracle_floor, spectral_interval)
from decaybounds.bounds import exp_bounds
from decaybounds.figures import _distances, run_kron_compare
from reference import (component_distances, exp_kron_entry_exact,
                       expm_column_nonneg, factor_intervals,
                       invsqrt_kron_split_bound, lancaster_column,
                       sincos_kron_exact)

SLACK = 1.0 - 1e-10


@pytest.fixture(scope="module")
def kron10():
    m = make_test_matrix("tridiag", 10)
    return KroneckerSum(factors=(m, m))


# -------------------------------------------------------- exact identities

@pytest.mark.parametrize("tau", [0.5, 1.0, 4.0])
def test_exp_kron_identity_dense(tau):
    m = make_test_matrix("tridiag", 10)
    a = KroneckerSum(factors=(m, m))
    em = scipy.linalg.expm(-tau * m.toarray())
    dense = scipy.linalg.expm(-tau * a.toarray())
    assert np.max(np.abs(dense - np.kron(em, em))) <= 1e-10


def test_exp_kron_entry_matches_dense(kron10):
    dense = scipy.linalg.expm(-1.0 * kron10.toarray())
    for k, t in ((1, 1), (37, 94), (94, 37), (100, 55)):
        assert exp_kron_entry_exact(kron10, 1.0, k, t) == pytest.approx(
            dense[k - 1, t - 1], abs=1e-10)


def test_exp_kron_entry_tau_zero_is_identity(kron10):
    assert exp_kron_entry_exact(kron10, 0.0, 7, 7) == pytest.approx(1.0, abs=1e-12)
    assert exp_kron_entry_exact(kron10, 0.0, 7, 8) == pytest.approx(0.0, abs=1e-12)


def test_exp_kron_three_factors_matches_dense():
    m = make_test_matrix("tridiag", 5)
    a = KroneckerSum(factors=(m, m, m))
    dense = scipy.linalg.expm(-0.5 * a.toarray())
    for k, t in ((1, 125), (63, 2), (88, 88)):
        assert exp_kron_entry_exact(a, 0.5, k, t) == pytest.approx(
            dense[k - 1, t - 1], abs=1e-10)


def test_sincos_identities_dense():
    m1 = make_test_matrix("tridiag", 8)
    m2 = make_test_matrix("pentadiag", 8)
    a = KroneckerSum(factors=(m1, m2))
    ad = a.toarray()
    w, u = np.linalg.eigh(ad)
    dense_sin = (u * np.sin(w)) @ u.T
    dense_cos = (u * np.cos(w)) @ u.T
    for k, t in ((1, 64), (20, 45), (33, 33), (64, 7)):
        assert sincos_kron_exact(a, k, t, "sin") == pytest.approx(
            dense_sin[k - 1, t - 1], abs=1e-10)
        assert sincos_kron_exact(a, k, t, "cos") == pytest.approx(
            dense_cos[k - 1, t - 1], abs=1e-10)


def test_sin_with_zero_second_factor():
    m = make_test_matrix("tridiag", 6)
    zero = banded_from_stencil((0.0, 0.0, 0.0), 6)
    a = KroneckerSum(factors=(m, zero))
    w, u = np.linalg.eigh(m.toarray())
    sin_m = (u * np.sin(w)) @ u.T
    # sin(M (+) 0) entries vanish unless the second components agree
    k = a.linearize((2, 3))
    assert sincos_kron_exact(a, k, a.linearize((5, 3)), "sin") == pytest.approx(
        sin_m[1, 4], abs=1e-12)
    assert sincos_kron_exact(a, k, a.linearize((5, 4)), "sin") == pytest.approx(
        0.0, abs=1e-12)


def test_sincos_requires_two_factors():
    m = make_test_matrix("tridiag", 4)
    a = KroneckerSum(factors=(m, m, m))
    with pytest.raises(ValueError):
        sincos_kron_exact(a, 1, 2, "sin")
    b = KroneckerSum(factors=(m, m))
    with pytest.raises(ValueError):
        sincos_kron_exact(b, 1, 2, "tan")


# ------------------------------------------------------ exponential bound

def test_exp_kron_bound_dominates_dense_column():
    m = make_test_matrix("tridiag", 20)
    a = KroneckerSum(factors=(m, m))
    tau, t = 5.0, 94
    col = np.abs(function_column(a, lambda x: np.exp(-tau * x), t))
    # deep check via the cancellation-free series per factor
    m_dense = m.toarray()
    t1, t2 = a.delinearize(t)
    c1 = expm_column_nonneg(m_dense, tau, t1)
    c2 = expm_column_nonneg(m_dense, tau, t2)
    floor = oracle_floor(a, lambda x: np.exp(-tau * x))
    ivs = factor_intervals(a)
    for k in range(1, 401):
        if k == t:
            continue
        rep = exp_kron_bound(ivs, tau, component_distances(a, k, t))
        k1, k2 = a.delinearize(k)
        deep = c1[k1 - 1] * c2[k2 - 1]
        assert rep.bound >= deep * SLACK
        if col[k - 1] >= floor:
            assert rep.bound >= col[k - 1] * SLACK


def test_exp_kron_bound_distinct_factor_bandwidths():
    m1 = make_test_matrix("tridiag", 12)
    m2 = make_test_matrix("pentadiag", 12)
    a = KroneckerSum(factors=(m1, m2))
    tau, t = 1.0, 66
    col = np.abs(function_column(a, lambda x: np.exp(-tau * x), t))
    floor = oracle_floor(a, lambda x: np.exp(-tau * x))
    t1, t2 = a.delinearize(t)
    ivs = factor_intervals(a)
    for k in range(1, 145):
        if k == t or col[k - 1] < floor:
            continue
        rep = exp_kron_bound(ivs, tau, component_distances(a, k, t))
        k1, k2 = a.delinearize(k)
        assert rep.distance == (abs(k1 - t1) / 1, abs(k2 - t2) / 2)
        assert rep.bound >= col[k - 1] * SLACK


def test_exp_kron_bound_extended_regime_flag():
    m = make_test_matrix("tridiag", 20)
    a = KroneckerSum(factors=(m, m))
    iv = spectral_interval(m)
    tau = 5.0
    t = 94
    # same second component: that factor cannot clear the Gaussian window
    k = a.linearize((1, 5))
    rep = exp_kron_bound((iv, iv), tau, component_distances(a, k, t))
    assert not rep.valid
    cap = math.exp(-tau * iv.lambda_min)
    k1 = 1
    d1 = abs(k1 - 14)
    from decaybounds import exp_envelope
    expect = (math.exp(-tau * iv.lambda_min) * exp_envelope(iv.rho * tau, d1)) * cap
    assert rep.bound == pytest.approx(expect, rel=1e-12)


def test_exp_kron_bound_rejects_diagonal(kron10):
    with pytest.raises(ValueError):
        exp_kron_bound(factor_intervals(kron10), 1.0, (0.0, 0.0))


_INTERVALS = st.builds(lambda lmin, width: SpectralInterval(lmin, lmin + width),
                       st.floats(0.0, 5.0), st.floats(0.01, 16.0))
# band distances are multiples of 1/beta; zero components are common
_COMPONENTS = st.one_of(st.just(0.0), st.integers(1, 160).map(lambda i: i / 2))


@given(data=st.data(), nfac=st.sampled_from([2, 3]),
       tau=st.floats(0.01, 10.0))
def test_exp_kron_bounds_equal_the_per_tuple_bound_bit_for_bit(data, nfac,
                                                                tau):
    ivs = tuple(data.draw(_INTERVALS) for _ in range(nfac))
    tuples = data.draw(st.lists(st.tuples(*[_COMPONENTS] * nfac).filter(any),
                                min_size=1, max_size=40))
    reports = exp_bounds(ivs, tau, tuples)
    assert [r.distance for r in reports] == tuples
    for ds, rep in zip(tuples, reports):
        assert rep == exp_kron_bound(ivs, tau, ds)
        # the scalar product over the factors, in factor order
        val = 1.0
        for iv, d in zip(ivs, ds):
            val *= math.exp(-tau * iv.lambda_min) * exp_envelope(iv.rho * tau, d)
        assert rep.bound == val
        assert rep.valid == all(d >= math.sqrt(4.0 * iv.rho * tau)
                                for iv, d in zip(ivs, ds))


def test_exp_kron_bounds_reject_a_diagonal_tuple_anywhere(kron10):
    ivs = factor_intervals(kron10)
    with pytest.raises(ValueError):
        exp_bounds(ivs, 1.0, [(1.0, 0.0), (0.0, 0.0)])
    with pytest.raises(ValueError):
        exp_bounds(ivs, 1.0, [(1.0, 2.0, 3.0)])
    assert exp_bounds(ivs, 1.0, []) == []


# -------------------------------------------------- transform-class bounds

@pytest.mark.parametrize("kind", ["tridiag", "pentadiag"])
def test_laplace_kron_phi1_dominates_and_oscillates(kind):
    m = make_test_matrix(kind, 20)
    a = KroneckerSum(factors=(m, m))
    measure = laplace_catalog("phi1")
    t = 94
    col = np.abs(function_column(a, measure.closed_form, t))
    floor = oracle_floor(a, measure.closed_form)
    bounds = np.empty(400)
    ivs = factor_intervals(a)
    for k in range(1, 401):
        rep = laplace_kron_bound(ivs, measure, component_distances(a, k, t),
                                 quad_tol=1e-9)
        assert rep.converged
        bounds[k - 1] = rep.bound
        if col[k - 1] >= floor:
            assert rep.bound >= col[k - 1] * SLACK
    # within each consecutive block the bound attains its maximum at the
    # within-block position of t and is nonincreasing away from it
    t1 = (t - 1) % 20 + 1
    for blk in range(20):
        seg = bounds[blk * 20:(blk + 1) * 20]
        peak = seg[t1 - 1]
        # plateau entries agree only to the quadrature tolerance
        assert peak >= np.max(seg) * (1 - 1e-7)
        assert np.all(np.diff(seg[t1 - 1:]) <= 1e-7 * peak)
        assert np.all(np.diff(seg[:t1]) >= -1e-7 * peak)


def test_cauchy_kron_invsqrt_dominates():
    m = make_test_matrix("tridiag", 20)
    a = KroneckerSum(factors=(m, m))
    measure = cauchy_catalog("inv_sqrt")
    t = 94
    col = np.abs(function_column(a, measure.closed_form, t))
    floor = oracle_floor(a, measure.closed_form)
    ivs = factor_intervals(a)
    for k in range(1, 401, 2):
        rep = cauchy_kron_bound(ivs, measure, component_distances(a, k, t),
                                quad_tol=1e-9)
        assert rep.converged
        if col[k - 1] >= floor:
            assert rep.bound >= col[k - 1] * SLACK


def test_kron_invsqrt_two_routes_agree(kron10):
    # same integrand by the dual-class identity g = w
    ls = laplace_catalog("inv_sqrt")
    cs = cauchy_catalog("inv_sqrt")
    ivs = factor_intervals(kron10)
    for k in (17, 50, 83):
        ds = component_distances(kron10, k, 94)
        a = laplace_kron_bound(ivs, ls, ds).bound
        b = cauchy_kron_bound(ivs, cs, ds).bound
        assert b == pytest.approx(a, rel=1e-8)


def test_kron_split_bound_dominates_direct(kron10):
    cs = cauchy_catalog("inv_sqrt")
    ivs = factor_intervals(kron10)
    for k in (17, 50, 83):
        direct = cauchy_kron_bound(
            ivs, cs, component_distances(kron10, k, 94)).bound
        split = invsqrt_kron_split_bound(kron10, k, 94)
        assert split >= direct * SLACK


def test_kron_atom_measure_reduces_to_exp_kron(kron10):
    measure = laplace_catalog("exp")
    ivs = factor_intervals(kron10)
    for k in (3, 40, 77):
        ds = component_distances(kron10, k, 94)
        rep = laplace_kron_bound(ivs, measure, ds)
        expect = exp_kron_bound(ivs, 1.0, ds)
        assert rep.bound == pytest.approx(expect.bound, rel=1e-12)


def test_kron_validity_guard(kron10):
    measure = laplace_catalog("phi1")
    ivs, ds = factor_intervals(kron10), component_distances(kron10, 94, 95)
    rep = laplace_kron_bound(ivs, measure, ds)
    assert not rep.valid


def test_laplace_kron_three_factors_dominates():
    m = make_test_matrix("tridiag", 5)
    a = KroneckerSum(factors=(m, m, m))
    measure = laplace_catalog("phi1")
    t = 63
    col = np.abs(function_column(a, measure.closed_form, t))
    floor = oracle_floor(a, measure.closed_form)
    ivs = factor_intervals(a)
    for k in range(1, 126, 2):
        rep = laplace_kron_bound(ivs, measure, component_distances(a, k, t))
        if col[k - 1] >= floor:
            assert rep.bound >= col[k - 1] * SLACK


def test_laplace_kron_three_factors_single_active_distance():
    # distances (d1, 0, 0): the product integral equals the single-factor
    # bound taken against the measure damped by the two idle factors
    m = make_test_matrix("tridiag", 5)
    a = KroneckerSum(factors=(m, m, m))
    iv = spectral_interval(m)
    phi1 = laplace_catalog("phi1")
    t = a.linearize((1, 3, 4))
    k = a.linearize((5, 3, 4))
    rep = laplace_kron_bound((iv, iv, iv), phi1, component_distances(a, k, t))
    damped = LaplaceMeasure(
        name="phi1-damped",
        closed_form=phi1.closed_form,
        density=lambda taus: phi1.density(taus) * np.exp(-2 * iv.lambda_min * taus),
        support_upper=phi1.support_upper)
    single = laplace_entry_bound(iv, damped, 4.0)
    assert rep.bound == pytest.approx(single.bound, rel=1e-9)


def test_kron_atom_measure_three_factors(kron10):
    m = make_test_matrix("tridiag", 5)
    a = KroneckerSum(factors=(m, m, m))
    measure = laplace_catalog("exp")
    ivs, ds = factor_intervals(a), component_distances(a, 7, 100)
    rep = laplace_kron_bound(ivs, measure, ds)
    expect = exp_kron_bound(ivs, 1.0, ds)
    assert rep.bound == pytest.approx(expect.bound, rel=1e-12)


def test_kron_factor_symmetry(kron10):
    measure = laplace_catalog("phi1")
    t = kron10.linearize((3, 8))
    k = kron10.linearize((7, 2))
    t_swap = kron10.linearize((8, 3))
    k_swap = kron10.linearize((2, 7))
    ivs = factor_intervals(kron10)
    a = laplace_kron_bound(
        ivs, measure, component_distances(kron10, k, t)).bound
    b = laplace_kron_bound(ivs, measure,
                           component_distances(kron10, k_swap, t_swap)).bound
    assert a == pytest.approx(b, rel=1e-12)


def test_kron_resolvent_entry_via_sylvester_kernel(kron10):
    # resolvent-style check of the quadrature route against a dense solve
    m = make_test_matrix("tridiag", 10)
    omega = -1.0
    t = 37
    col = lancaster_column(m, omega, kron10.delinearize(t), tol=1e-8)
    rhs = np.zeros(100)
    rhs[t - 1] = 1.0
    direct = np.linalg.solve(kron10.toarray() - omega * np.eye(100), rhs)
    assert np.max(np.abs(col - direct)) <= 1e-6


def test_kron_bounds_reject_many_factors():
    m = make_test_matrix("tridiag", 3)
    a = KroneckerSum(factors=(m, m, m, m))
    with pytest.raises(ValueError):
        laplace_kron_bound(factor_intervals(a), laplace_catalog("phi1"),
                           component_distances(a, 1, 2))


def test_kron_bounds_need_one_distance_per_factor(kron10):
    ivs = factor_intervals(kron10)
    for ds in ((3.0,), (3.0, 4.0, 5.0)):
        with pytest.raises(ValueError, match="one distance per factor"):
            laplace_kron_bound(ivs, laplace_catalog("phi1"), ds)
        with pytest.raises(ValueError, match="one distance per factor"):
            cauchy_kron_bound(ivs, cauchy_catalog("inv_sqrt"), ds)


def test_diagonal_factor_has_no_band_distance():
    d = SparseHermitianMatrix(n=4, matrix=scipy.sparse.diags(np.arange(1.0, 5.0)))
    a = KroneckerSum(factors=(make_test_matrix("tridiag", 4), d))
    with pytest.raises(ValueError, match="beta >= 1"):
        run_kron_compare(a, 6, "exp", "exp")


def test_column_distances_match_entrywise_reference():
    a = KroneckerSum(factors=(make_test_matrix("tridiag", 5),
                              make_test_matrix("pentadiag", 7),
                              make_test_matrix("tridiag", 4)))
    for t in (1, 17, a.total_order):
        assert _distances(a, t) == [
            component_distances(a, k, t) for k in range(1, a.total_order + 1)]
