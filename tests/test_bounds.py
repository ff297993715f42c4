import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from decaybounds import (SpectralInterval, banded_from_stencil,
                         cauchy_catalog, cauchy_entry_bound,
                         cauchy_shifted_bound, demko_bound, demko_constant,
                         eigendecomposition, exp_entry_bound, exp_envelope,
                         freund_resolvent_bound, function_column,
                         invsqrt_closed_bound, laplace_catalog,
                         laplace_entry_bound, make_test_matrix, oracle_floor,
                         parse_matrix_spec, resolvent_column,
                         spectral_interval)
from reference import (envelope_integral_reference, expm_column_nonneg,
                       gershgorin_interval, tridiag_entry_mp,
                       tridiag_lambda_min)

SLACK = 1.0 - 1e-10


# ---------------------------------------------------------------- envelope

def test_envelope_regime_boundary_takes_the_minimum():
    # at d = 2 rho tau both closed forms are valid; the smaller one wins
    rt, d = 4.0, 8.0
    gauss = 10.0 * math.exp(-d * d / (5.0 * rt))
    tail = 10.0 * math.exp(-rt) / rt * (math.e * rt / d) ** d
    assert exp_envelope(rt, d) == pytest.approx(min(gauss, tail), rel=1e-12)


def test_envelope_trivial_region_is_capped_at_one():
    # d below the Gaussian window: only the trivial bound is available
    assert exp_envelope(4.0, 2.0) == 1.0


def test_envelope_deep_tail_value_and_decrease():
    rt = 1.0
    expect = 10.0 * math.exp(-1.0) * (math.e / 100.0) ** 100
    got = exp_envelope(rt, 100.0)
    assert got == pytest.approx(expect, rel=1e-10)
    assert 0.0 < got < exp_envelope(rt, 99.0)


@given(st.floats(0.25, 50.0), st.floats(0.01, 400.0), st.floats(0.01, 30.0))
def test_envelope_nonincreasing_in_distance(rt, d, step):
    assert exp_envelope(rt, d + step) <= exp_envelope(rt, d) * (1 + 1e-12)


def test_envelope_superexponential_tail_log_concave():
    # in the pure superexponential regime the ratio of consecutive values
    # strictly decreases
    rt = 4.0
    ds = np.arange(10.0, 40.0)
    vals = np.array([exp_envelope(rt, d) for d in ds])
    ratios = vals[1:] / vals[:-1]
    assert np.all(np.diff(ratios) < 0)


def test_envelope_vectorized_over_rho_tau():
    rts = np.array([0.0, 0.5, 2.0, 4.0])
    vec = exp_envelope(rts, 9.0)
    assert vec.shape == (4,)
    for rt, v in zip(rts, vec):
        assert v == exp_envelope(float(rt), 9.0)


def test_envelope_with_array_distance_is_bitwise_scalar():
    # a (P, 1) column of distances against a (P, 15) block of rho * tau, as
    # the lockstep quadrature calls it, and a 1-D row of distances
    ds = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.3, 9.0, 63.0, 118.0, 280.0])
    rts = np.random.default_rng(7).exponential(20.0, (ds.size, 15))
    rts[:, 0] = 0.0
    rts[:, 1] = 1.0
    block = exp_envelope(rts, ds[:, None])
    assert block.shape == rts.shape
    for i, d in enumerate(ds):
        for j, rt in enumerate(rts[i]):
            assert block[i, j] == exp_envelope(float(rt), float(d)), (i, j)
    row = exp_envelope(4.0, ds)
    assert [float(v) for v in row] == [exp_envelope(4.0, float(d)) for d in ds]


def test_phi_guards_diagonal():
    # spectrum [0, 4 rho] with rho = 1 and tau = 4: the entry bound is the
    # bare envelope at rho * tau = 4
    iv = SpectralInterval(0.0, 4.0)
    with pytest.raises(ValueError):
        exp_entry_bound(iv, 4.0, 0.0)
    assert exp_entry_bound(iv, 4.0, 8.0) == exp_envelope(4.0, 8.0)


# ------------------------------------------------------- exponential bound

def test_exp_bound_shift_invariance():
    m = make_test_matrix("tridiag", 40)
    iv = spectral_interval(m)
    delta = 0.7
    shifted = type(iv)(iv.lambda_min + delta, iv.lambda_max + delta)
    tau = 4.0
    for k in (3, 10, 30):
        b0 = exp_entry_bound(iv, tau, abs(k - 20))
        b1 = exp_entry_bound(shifted, tau, abs(k - 20))
        assert b1 == pytest.approx(b0 * math.exp(-tau * delta), rel=1e-12)


def test_exp_bound_rejects_diagonal():
    iv = spectral_interval(make_test_matrix("tridiag", 10))
    with pytest.raises(ValueError):
        exp_entry_bound(iv, 4.0, 0.0)


@pytest.mark.parametrize("kind", ["tridiag", "pentadiag"])
def test_exp_bound_dominates_deep_series_oracle(kind):
    # cancellation-free series oracle: valid at every magnitude, so the
    # covered regimes can be checked at every index
    n, tau, t = 200, 4.0, 127
    m = make_test_matrix(kind, n)
    iv = spectral_interval(m)
    col = expm_column_nonneg(m.toarray(), tau, t)
    lo = math.sqrt(4.0 * iv.rho * tau) * m.beta
    checked = 0
    for k in range(1, n + 1):
        if k == t or abs(k - t) < lo:
            continue
        assert exp_entry_bound(iv, tau, abs(k - t) / m.beta) >= col[k - 1] * SLACK
        checked += 1
    assert checked > 150


def test_exp_bound_dominates_highprec_analytic_entries():
    # spot checks far below the double-precision floor, against 80-digit
    # analytic eigenpair sums for the tridiagonal test matrix
    n, tau, t = 200, 4.0, 127
    m = make_test_matrix("tridiag", n)
    iv = spectral_interval(m)
    lmin = tridiag_lambda_min(n)
    for k in (87, 67, 47, 27):
        import mpmath as mp
        truth = abs(tridiag_entry_mp(
            n, lambda lam: mp.e ** (-tau * lam), k, t, dps=120))
        bound = exp_entry_bound(iv, tau, abs(k - t))
        assert bound >= truth * SLACK
        assert truth > 0


# ------------------------------------------------------------ Demko bound

def test_demko_zero_for_scaled_identity():
    from decaybounds import banded_from_stencil
    m = banded_from_stencil((0.0, 3.0, 0.0), 6)
    iv = spectral_interval(m)
    assert demko_bound(iv, 3.0, diag_max=m.diagonal_max()) == \
        pytest.approx(0.0, abs=1e-14)


def test_demko_normalization_cancels():
    m = make_test_matrix("tridiag", 60)
    iv = spectral_interval(m)
    kappa = iv.lambda_max / iv.lambda_min
    q = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
    for k, t in ((5, 30), (30, 30), (58, 12)):
        direct = demko_constant(iv.lambda_min, iv.lambda_max) * q ** abs(k - t)
        assert demko_bound(iv, abs(k - t), diag_max=m.diagonal_max()) == \
            pytest.approx(direct, rel=1e-12)


def test_demko_dominates_inverse_column():
    m = make_test_matrix("tridiag", 200)
    iv = spectral_interval(m)
    inv_col = np.abs(function_column(m, lambda x: 1.0 / x, 127))
    floor = oracle_floor(m, lambda x: 1.0 / x)
    ratios = []
    for k in range(1, 201):
        b = demko_bound(iv, abs(k - 127), diag_max=m.diagonal_max())
        if inv_col[k - 1] >= floor:
            assert b >= inv_col[k - 1] * SLACK
            ratios.append(inv_col[k - 1] / b)
    # sharpness: within two orders of magnitude at the tightest point
    assert 0.01 < max(ratios) <= 1.0


def test_demko_diagonal_dominates():
    m = make_test_matrix("pentadiag", 50)
    iv = spectral_interval(m)
    inv_diag = abs(function_column(m, lambda x: 1.0 / x, 25)[24])
    assert demko_bound(iv, 0.0, diag_max=m.diagonal_max()) >= inv_diag


def test_demko_requires_positive_definite():
    m = make_test_matrix("tridiag", 10)
    iv = type(spectral_interval(m))(-1.0, 2.0)
    with pytest.raises(ValueError):
        demko_bound(iv, 4.0, diag_max=m.diagonal_max())


# ----------------------------------------------------------- Freund bound

def _freund_radius(lmin, lmax, zeta):
    # the bound is C R^{-d}: consecutive distances give the radius R
    iv = SpectralInterval(lmin, lmax)
    return (freund_resolvent_bound(iv, zeta, 3.0)
            / freund_resolvent_bound(iv, zeta, 4.0))


def test_freund_parameters_closed_form():
    # spectrum [2, 6], zeta = 0: ellipse parameter alpha = 2, radius 2 + sqrt 3
    r = _freund_radius(2.0, 6.0, 0.0)
    assert (r + 1.0 / r) / 2.0 == pytest.approx(2.0)
    assert r == pytest.approx(2.0 + math.sqrt(3.0))


def test_freund_radius_grows_with_shift():
    # the spectrum moves away from the singularity as |zeta| grows, so the
    # decay radius improves and the bound tightens
    r0 = _freund_radius(2.0, 6.0, 0.0)
    r3 = _freund_radius(2.0, 6.0, 1e3)
    assert r3 > r0
    zs = [0.0, 0.5, 1.0, 5.0, 50.0, 1e3]
    radii = [_freund_radius(2.0, 6.0, z) for z in zs]
    assert all(r2 > r1 for r1, r2 in zip(radii, radii[1:]))


def test_freund_dominates_resolvent_columns():
    m = make_test_matrix("tridiag", 80)
    iv = spectral_interval(m)
    for zeta in (0.0, 1.0, 10.0):
        col = np.abs(resolvent_column(m, 1j * zeta, 40))
        floor = oracle_floor(m, lambda x: 1.0 / np.abs(x - 1j * zeta))
        for k in range(1, 81):
            if k == 40 or col[k - 1] < floor:
                continue
            assert freund_resolvent_bound(iv, zeta, abs(k - 40)) >= col[k - 1] * SLACK


def test_freund_guards():
    iv = spectral_interval(make_test_matrix("tridiag", 10))
    with pytest.raises(ValueError):
        freund_resolvent_bound(iv, 0.0, 0.0)
    with pytest.raises(ValueError):
        freund_resolvent_bound(SpectralInterval(2.0, 2.0), 1.0, 2.0)


# --------------------------------------------------- resolvent parameters

def _demko_rate(iv):
    # unit-diagonal identity storage keeps the normalizer at one; the
    # bound is C q^d, so consecutive distances give the rate q
    s = banded_from_stencil((0.0, 1.0, 0.0), 4).diagonal_max()
    return (demko_bound(iv, 4.0, diag_max=s)
            / demko_bound(iv, 3.0, diag_max=s))


@given(st.floats(0.1, 10.0), st.floats(0.0, 1000.0))
def test_shifted_kernel_never_worse_than_unshifted(width, shift):
    # the resolvent at omega = -shift is the inverse of M + shift I
    lmin = 1.0
    base = SpectralInterval(lmin, lmin + width)
    shifted = SpectralInterval(lmin + shift, lmin + width + shift)
    assert (shifted.lambda_max / shifted.lambda_min
            <= base.lambda_max / base.lambda_min + 1e-12)
    assert _demko_rate(shifted) <= _demko_rate(base) + 1e-12


# ---------------------------------------------------- Laplace-class bound

@pytest.mark.parametrize("fname", ["inv_sqrt", "phi1"])
def test_laplace_bound_dominates_oracle(fname, test_matrix_200):
    m, iv = test_matrix_200
    measure = laplace_catalog(fname)
    col = np.abs(function_column(m, measure.closed_form, 127))
    floor = oracle_floor(m, measure.closed_form)
    for k in range(1, m.n + 1):
        if abs(k - 127) < 2 * m.beta:
            continue
        rep = laplace_entry_bound(iv, measure, abs(k - 127) / m.beta)
        assert rep.converged
        if col[k - 1] >= floor:
            assert rep.bound >= col[k - 1] * SLACK


def test_laplace_bound_deep_highprec_spot_checks():
    import mpmath as mp
    n, t = 200, 127
    m = make_test_matrix("tridiag", n)
    iv = spectral_interval(m)
    cases = [
        ("inv_sqrt", lambda lam: 1 / mp.sqrt(lam)),
        ("phi1", lambda lam: (1 - mp.e ** -lam) / lam),
    ]
    for fname, f_mp in cases:
        measure = laplace_catalog(fname)
        for k in (97, 67, 37):
            truth = abs(tridiag_entry_mp(n, f_mp, k, t, dps=150))
            rep = laplace_entry_bound(iv, measure, abs(k - t))
            assert rep.bound >= truth * SLACK


def test_laplace_phi1_first_piece_dominates_far_out():
    m = make_test_matrix("tridiag", 100)
    iv = spectral_interval(m)
    measure = laplace_catalog("phi1")
    for k in (60, 75, 90):
        rep = laplace_entry_bound(iv, measure, abs(k - 50))
        total = rep.bound
        assert rep.distance >= 10
        assert rep.pieces["I"] / total > 0.9


@pytest.mark.parametrize("mode", ["exact", "gershgorin"])
@pytest.mark.parametrize("fname", ["inv_sqrt", "phi1", "exp", "log1p_inv",
                                   "inv_pow:0.55"])
def test_laplace_pieces_sum_to_bound(fname, mode):
    # the regime pieces are a relabelling of the one envelope integral;
    # phi1 has finite support and exp is a single atom
    m = make_test_matrix("pentadiag", 60)
    iv = spectral_interval(m) if mode == "exact" else gershgorin_interval(m)
    measure = laplace_catalog(fname)
    for d in (1.0, 2.0, 20.0):
        rep = laplace_entry_bound(iv, measure, d)
        assert rep.valid == (d >= 2.0)
        assert rep.converged
        assert min(rep.pieces.values()) >= 0.0
        assert rep.pieces["I"] + rep.pieces["II"] + rep.pieces["III"] == rep.bound


@pytest.mark.parametrize("sigma", [140.0, 171.0])
def test_inv_pow_large_sigma_matches_a_log_space_reference(sigma):
    # tau^(sigma-1) and Gamma(sigma) overflow on their own near sigma = 171;
    # the density is their finite quotient, and the bound matches a quad
    # reference that carries the weight in log space
    import mpmath as mp
    measure = laplace_catalog(f"inv_pow:{sigma:g}")
    for tau in (30.0, 140.0, 400.0):
        exact = float(mp.mpf(tau) ** (sigma - 1) / mp.gamma(sigma))
        assert float(measure.density(np.asarray(tau))) == pytest.approx(
            exact, rel=1e-12)
    iv = spectral_interval(make_test_matrix("tridiag", 20))
    log_w = lambda tau: (sigma - 1.0) * math.log(tau) - math.lgamma(sigma)
    for d in (1.0, 2.0, 5.0, 9.0):
        rep = laplace_entry_bound(iv, measure, d, quad_tol=1e-8)
        assert rep.converged
        assert rep.bound == pytest.approx(envelope_integral_reference(
            iv, measure, d, log_density=log_w), rel=1e-12), d


def test_overflowing_weight_bounds_by_inf_not_nan():
    # with lambda_min small the tail reaches tau where the inv_pow:171
    # density itself overflows while the envelope has underflowed to 0;
    # integrated as a plain density, inf is still an upper bound, inf * 0
    # = nan is none
    iv = SpectralInterval(0.05, 4.05)
    measure = laplace_catalog("inv_pow:171")
    plain = dataclasses.replace(measure, log_density=None)
    with np.errstate(over="ignore", invalid="ignore"):
        for d in (2.0, 9.0):
            rep = laplace_entry_bound(iv, plain, d, quad_tol=1e-8,
                                      max_panels=100)
            assert rep.bound == math.inf, d
    # the catalog's log density joins the exponent: a finite bound, at most
    # the lambda_min^-171 that a unit envelope gives
    for d in (2.0, 9.0):
        rep = laplace_entry_bound(iv, measure, d, quad_tol=1e-8,
                                  max_panels=100)
        assert rep.converged and 0 < rep.bound <= 0.05 ** -171 * (1 + 1e-7), d


@pytest.mark.parametrize("fname", ["inv_pow:0.55", "inv_pow:2.5",
                                   "inv_pow:60"])
def test_inv_pow_log_density_matches_the_density_route(fname):
    # where the density is finite both routes integrate the same function
    measure = laplace_catalog(fname)
    plain = dataclasses.replace(measure, log_density=None)
    iv = spectral_interval(make_test_matrix("pentadiag", 40))
    for d in (2.0, 5.0, 12.0):
        a = laplace_entry_bound(iv, measure, d, quad_tol=1e-10)
        b = laplace_entry_bound(iv, plain, d, quad_tol=1e-10)
        assert a.converged and b.converged
        assert a.bound == pytest.approx(b.bound, rel=1e-9), d


def test_laplace_atom_measure_reduces_to_exp_bound():
    m = make_test_matrix("tridiag", 60)
    iv = spectral_interval(m)
    measure = laplace_catalog("exp")
    for k in (10, 25, 28):
        rep = laplace_entry_bound(iv, measure, abs(k - 30))
        assert rep.bound == exp_entry_bound(iv, 1.0, abs(k - 30))
        assert rep.error_estimate == 0.0


def test_laplace_validity_guard_and_extension():
    m = make_test_matrix("pentadiag", 30)
    iv = spectral_interval(m)
    measure = laplace_catalog("inv")
    rep = laplace_entry_bound(iv, measure, 0.5)
    assert not rep.valid
    assert rep.bound > 0


def test_laplace_shifted_dominates_complex_shift_oracle():
    # principal-branch oracle for f(M + i zeta I), f = inverse square root
    n, t, zeta = 50, 25, 1.0
    m = make_test_matrix("tridiag", n)
    iv = spectral_interval(m)
    dec = eigendecomposition(m)
    fvals = (dec.eigenvalues + 1j * zeta) ** -0.5
    col = np.abs(dec.eigenvectors @ (fvals * dec.eigenvectors[t - 1, :]))
    floor = oracle_floor(m, lambda x: np.abs((x + 1j * zeta) ** -0.5))
    measure = laplace_catalog("inv_sqrt")
    for k in range(1, n + 1):
        if abs(k - t) < 2 or col[k - 1] < floor:
            continue
        rep = laplace_entry_bound(iv, measure, abs(k - t))
        assert rep.bound >= col[k - 1] * SLACK


def test_envelope_integral_reference_agrees_away_from_the_crossing():
    # where no kink falls inside a panel, the adaptive value and the
    # piecewise scipy reference agree far inside the tolerance
    iv = spectral_interval(make_test_matrix("tridiag", 200))
    for fname in ("inv_sqrt", "phi1", "exp"):
        measure = laplace_catalog(fname)
        for d in (2.0, 5.0, 12.0):
            got = laplace_entry_bound(iv, measure, d, quad_tol=1e-12).bound
            ref = envelope_integral_reference(iv, measure, d)
            assert got == pytest.approx(ref, rel=1e-9), (fname, d)


@pytest.mark.xfail(strict=True, reason=(
    "the crossing of the Gaussian branch at d1 = 2r with the "
    "superexponential branch inside piece I is not a panel edge, and the "
    "adaptive rule under-integrates the kink there (1.2e-7 to 1.9e-7 "
    "relative below the reference, error estimate <= 9.5e-9)"))
def test_laplace_bound_not_below_envelope_integral_at_the_crossing():
    m = parse_matrix_spec("tridiag:-1.0772,4.1069,-1.0772", 560)
    iv, measure, tol = spectral_interval(m), laplace_catalog("inv_sqrt"), 1e-8
    below = [d for d in (63.0, 118.0, 280.0)
             if laplace_entry_bound(iv, measure, d, quad_tol=tol).bound
             < envelope_integral_reference(iv, measure, d) * (1 - tol)]
    assert not below


# ----------------------------------------------------- Cauchy-class bound

def test_cauchy_bound_dominates_oracle(test_matrix_200):
    m, iv = test_matrix_200
    measure = cauchy_catalog("inv_sqrt")
    col = np.abs(function_column(m, measure.closed_form, 127))
    floor = oracle_floor(m, measure.closed_form)
    for k in range(1, m.n + 1, 3):
        rep = cauchy_entry_bound(iv, measure, abs(k - 127) / m.beta)
        assert rep.converged
        if col[k - 1] >= floor:
            assert rep.bound >= col[k - 1] * SLACK


def test_cauchy_bound_zero_for_scaled_identity():
    from decaybounds import banded_from_stencil
    m = banded_from_stencil((0.0, 2.0, 0.0), 8)
    iv = spectral_interval(m)
    rep = cauchy_entry_bound(iv, cauchy_catalog("inv_sqrt"), 4.0)
    assert rep.bound == pytest.approx(0.0, abs=1e-13)


def test_cauchy_log1p_kernel_envelope_monotone():
    # with support ending at -1, the kernel at omega <= -1 never exceeds
    # its value at the endpoint
    iv = spectral_interval(make_test_matrix("tridiag", 40))
    d = 6.0
    def kernel(s):
        kap = (iv.lambda_max + s) / (iv.lambda_min + s)
        q = (math.sqrt(kap) - 1) / (math.sqrt(kap) + 1)
        return demko_constant(iv.lambda_min + s, iv.lambda_max + s) * q ** d
    k1 = kernel(1.0)
    for s in (1.0, 2.0, 5.0, 20.0, 100.0):
        assert kernel(s) <= k1 * (1 + 1e-12)


def test_cauchy_log1p_bound_dominates():
    m = make_test_matrix("tridiag", 50)
    iv = spectral_interval(m)
    measure = cauchy_catalog("log1p_over_z")
    col = np.abs(function_column(m, measure.closed_form, 25))
    floor = oracle_floor(m, measure.closed_form)
    for k in range(1, 51, 2):
        rep = cauchy_entry_bound(iv, measure, abs(k - 25))
        if col[k - 1] >= floor:
            assert rep.bound >= col[k - 1] * SLACK


# ------------------------------------------- closed-form inverse sqrt

def test_invsqrt_closed_bound_dominates(test_matrix_200):
    m, iv = test_matrix_200
    col = np.abs(function_column(m, lambda x: x ** -0.5, 127))
    floor = oracle_floor(m, lambda x: x ** -0.5)
    for k in range(1, m.n + 1):
        if abs(k - 127) < 2 * m.beta or col[k - 1] < floor:
            continue
        b = invsqrt_closed_bound(iv, abs(k - 127) / m.beta,
                                 diag_max=m.diagonal_max())
        assert b >= col[k - 1] * SLACK


def test_invsqrt_closed_bound_deep_highprec():
    import mpmath as mp
    n, t = 200, 127
    m = make_test_matrix("tridiag", n)
    iv = spectral_interval(m)
    for k in (97, 47, 7):
        truth = abs(tridiag_entry_mp(n, lambda lam: 1 / mp.sqrt(lam), k, t, dps=150))
        b = invsqrt_closed_bound(iv, abs(k - t), diag_max=4.0)
        assert b >= truth * SLACK


def test_invsqrt_closed_scaled_identity():
    from decaybounds import banded_from_stencil
    iv = spectral_interval(banded_from_stencil((0.0, 2.0, 0.0), 8))
    assert invsqrt_closed_bound(iv, 4.0) == pytest.approx(0.0, abs=1e-14)


def test_invsqrt_closed_exponent_uses_band_distance():
    iv = spectral_interval(make_test_matrix("pentadiag", 60))
    b4 = invsqrt_closed_bound(iv, 2.0, diag_max=4.0)
    b6 = invsqrt_closed_bound(iv, 3.0, diag_max=4.0)
    q0 = ((math.sqrt(iv.lambda_max / 4) - math.sqrt(iv.lambda_min / 4))
          / (math.sqrt(iv.lambda_max / 4) + math.sqrt(iv.lambda_min / 4)))
    assert b6 / b4 == pytest.approx(q0, rel=1e-12)


def test_invsqrt_closed_guards():
    iv = spectral_interval(make_test_matrix("tridiag", 10))
    with pytest.raises(ValueError):
        invsqrt_closed_bound(iv, 0.0)


# ----------------------------------------------------- shifted Cauchy

def test_cauchy_shifted_reduces_to_freund_kernel_and_dominates():
    n, t = 50, 25
    m = make_test_matrix("tridiag", n)
    iv = spectral_interval(m)
    measure = cauchy_catalog("inv_sqrt")
    col = np.abs(function_column(m, measure.closed_form, t))
    floor = oracle_floor(m, measure.closed_form)
    for k in range(1, n + 1, 4):
        if k == t:
            continue
        rep = cauchy_shifted_bound(iv, measure, 0.0, abs(k - t))
        assert rep.converged and np.isfinite(rep.bound)
        if col[k - 1] >= floor:
            assert rep.bound >= col[k - 1] * SLACK


def test_cauchy_shifted_improves_with_shift():
    # the kernel radius grows with |zeta|, so the bound decreases
    iv = spectral_interval(make_test_matrix("tridiag", 50))
    measure = cauchy_catalog("inv_sqrt")
    vals = [cauchy_shifted_bound(iv, measure, z, 15.0).bound
            for z in (0.0, 1.0, 10.0, 100.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_cauchy_shifted_guards():
    iv = spectral_interval(make_test_matrix("tridiag", 10))
    measure = cauchy_catalog("inv_sqrt")
    with pytest.raises(ValueError):
        cauchy_shifted_bound(iv, measure, 1.0, 0.0)
    with pytest.raises(ValueError):
        cauchy_shifted_bound(SpectralInterval(2.0, 2.0), measure, 1.0, 2.0)


def test_exp_bound_next_to_diagonal_is_the_trivial_cap():
    m = make_test_matrix("tridiag", 60)
    iv = spectral_interval(m)
    t = 30
    # d = 1 sits below the Gaussian window at rho*tau ~ 4: only the
    # norm bound exp(-tau lambda_min) survives
    assert exp_entry_bound(iv, 4.0, 1.0) == pytest.approx(
        math.exp(-4.0 * iv.lambda_min), rel=1e-14)


def test_cauchy_expsqrt_total_variation_converges_and_dominates():
    # oscillatory |density|: the smooth tail envelope keeps the integral
    # cheap while staying a rigorous upper bound
    m = make_test_matrix("tridiag", 30)
    iv = spectral_interval(m)
    measure = cauchy_catalog("expsqrt:1.5")
    col = np.abs(function_column(m, measure.closed_form, 15))
    floor = oracle_floor(m, measure.closed_form)
    for k in range(1, 31):
        rep = cauchy_entry_bound(iv, measure, abs(k - 15), quad_tol=1e-8)
        assert rep.converged
        if col[k - 1] >= floor:
            assert rep.bound >= col[k - 1] * SLACK


def test_bounds_remain_valid_on_gershgorin_enclosure():
    # every bound only needs a spectral enclosure; the disc interval gives
    # looser but still dominating values
    m = make_test_matrix("pentadiag", 120)
    gg = gershgorin_interval(m)
    t = 60
    lm = laplace_catalog("inv_sqrt")
    cm = cauchy_catalog("inv_sqrt")
    col = np.abs(function_column(m, lambda x: x ** -0.5, t))
    floor = oracle_floor(m, lambda x: x ** -0.5)
    col_exp = np.abs(function_column(m, lambda x: np.exp(-4.0 * x), t))
    floor_exp = oracle_floor(m, lambda x: np.exp(-4.0 * x))
    for k in range(1, 121, 2):
        d = abs(k - t) / 2
        if k != t and col_exp[k - 1] >= floor_exp:
            assert exp_entry_bound(gg, 4.0, d) >= col_exp[k - 1] * SLACK
        if col[k - 1] < floor:
            continue
        if abs(k - t) >= 4:
            assert laplace_entry_bound(gg, lm, d).bound >= col[k - 1] * SLACK
            assert invsqrt_closed_bound(gg, d, diag_max=4.0) >= col[k - 1] * SLACK
        assert cauchy_entry_bound(gg, cm, d).bound >= col[k - 1] * SLACK


def test_bounds_on_complex_hermitian_storage():
    from decaybounds import banded_from_stencil
    h = banded_from_stencil((complex(-0.4, 0.6), complex(-1, -0.5), 4.0,
                             complex(-1, 0.5), complex(-0.4, -0.6)), 80)
    iv = spectral_interval(h)
    assert iv.lambda_min > 0
    t = 40
    col = np.abs(function_column(h, lambda x: x ** -0.5, t))
    floor = oracle_floor(h, lambda x: x ** -0.5)
    lm = laplace_catalog("inv_sqrt")
    cm = cauchy_catalog("inv_sqrt")
    for k in range(1, 81, 3):
        d = abs(k - t) / 2
        if col[k - 1] < floor:
            continue
        if abs(k - t) >= 4:
            assert laplace_entry_bound(iv, lm, d).bound >= col[k - 1] * SLACK
        assert cauchy_entry_bound(iv, cm, d).bound >= col[k - 1] * SLACK


def test_explicit_zero_distance_rejected_by_offdiagonal_bounds():
    iv = spectral_interval(make_test_matrix("tridiag", 10))
    with pytest.raises(ValueError):
        exp_entry_bound(iv, 4.0, 0.0)


def test_laplace_bound_zero_for_scaled_identity():
    from decaybounds import banded_from_stencil
    iv = spectral_interval(banded_from_stencil((0.0, 3.0, 0.0), 9))
    rep = laplace_entry_bound(iv, laplace_catalog("inv"), 4.0)
    assert rep.bound == 0.0
    assert rep.converged


# ------------------------------------------------------- monotone in d

_MONOTONE_CASES = (
    [("laplace", name) for name in ("inv", "exp", "phi1", "inv_sqrt",
                                    "log1p_inv", "inv_pow:0.55")]
    + [("cauchy", name) for name in ("inv_sqrt", "log1p_over_z",
                                     "expsqrt:1.2")]
    + [("exp", tau) for tau in (0.3, 1.0, 4.0)])


@pytest.mark.parametrize("kind", ["tridiag", "pentadiag"])
@pytest.mark.parametrize("klass, arg", _MONOTONE_CASES)
def test_bounds_never_grow_with_distance(kind, klass, arg):
    # each bound at the band distances from 2 up is at most the previous
    # one, exactly: a farther entry never gets a weaker bound
    from decaybounds.bounds import cauchy_bounds, exp_bounds, laplace_bounds
    m = make_test_matrix(kind, 300)
    iv = spectral_interval(m)
    ds = [d / m.beta for d in range(2 * m.beta, 300)]
    if klass == "laplace":
        reports = laplace_bounds((iv,), laplace_catalog(arg),
                                 [(d,) for d in ds])
    elif klass == "cauchy":
        reports = cauchy_bounds(iv, cauchy_catalog(arg), ds)
    else:
        reports = exp_bounds((iv,), arg, [(d,) for d in ds])
    values = [r.bound for r in reports]
    assert len(values) == len(ds) > 100
    for i in range(1, len(values)):
        assert values[i] <= values[i - 1], (ds[i], values[i - 1], values[i])
