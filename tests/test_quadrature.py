import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from decaybounds.quadrature import integrate, integrate_semi_infinite


def test_constant():
    r = integrate(lambda x: np.ones_like(x), 0.0, 1.0, 1e-10)
    assert r.converged
    assert abs(r.value - 1.0) <= 1e-10


def test_inverse_sqrt_endpoint_singularity():
    r = integrate(lambda x: x ** -0.5, 0.0, 1.0, 1e-8, singularity_a=-0.5)
    assert r.converged
    assert abs(r.value - 2.0) <= 1e-8


def test_exponential_against_closed_form():
    exact = (1.0 - math.exp(-4.0)) / 4.0
    r = integrate(lambda x: np.exp(-4.0 * x), 0.0, 1.0, 1e-10)
    assert r.converged
    assert abs(r.value - exact) <= 1e-10


def test_semi_infinite_power_tail():
    r = integrate_semi_infinite(lambda x: x ** -1.5, 1.0, 1e-8)
    assert r.converged
    assert abs(r.value - 2.0) <= 1e-7


def test_semi_infinite_exponential():
    r = integrate_semi_infinite(lambda x: np.exp(-x), 0.0, 1e-10)
    assert r.converged
    assert abs(r.value - 1.0) <= 1e-9


def test_semi_infinite_gamma_half():
    r = integrate_semi_infinite(lambda x: np.exp(-x) * x ** -0.5, 0.0, 1e-8,
                                singularity_a=-0.5)
    assert r.converged
    assert abs(r.value - math.sqrt(math.pi)) <= 1e-8


def test_error_estimate_honored_when_converged():
    r = integrate(lambda x: np.sin(10 * x) ** 2 + x, 0.0, 3.0, 1e-9)
    assert r.converged
    assert r.error_estimate <= max(1e-9, 1e-9 * abs(r.value))


def test_non_convergence_reported_not_raised():
    # the un-declared singularity starves a tiny panel budget
    r = integrate(lambda x: x ** -0.9, 0.0, 1.0, 1e-12, max_panels=8)
    assert not r.converged


def test_degenerate_interval():
    r = integrate(lambda x: x, 2.0, 2.0, 1e-10)
    assert r.converged and r.value == 0.0


def test_invalid_interval_raises():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 1.0, 0.0, 1e-8)


def test_invalid_singularity_exponent_raises():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 0.0, 1.0, 1e-8, singularity_a=-1.5)


def test_determinism_bit_identical():
    f = lambda x: np.exp(-x) * np.cos(3 * x) + x ** 2
    r1 = integrate(f, 0.0, 5.0, 1e-11)
    r2 = integrate(f, 0.0, 5.0, 1e-11)
    assert r1.value == r2.value
    assert r1.error_estimate == r2.error_estimate
    assert r1.evaluations == r2.evaluations


def test_vector_valued_integrand():
    # simultaneously integrate [exp(-x), x] over [0, 2]
    f = lambda x: np.stack([np.exp(-x), x], axis=-1)
    r = integrate(f, 0.0, 2.0, 1e-10)
    assert r.converged
    expect = np.array([1.0 - math.exp(-2.0), 2.0])
    assert np.max(np.abs(r.value - expect)) <= 1e-9


@given(st.floats(-5, 5), st.floats(-3, 3), st.floats(-2, 2),
       st.floats(min_value=-4, max_value=4).filter(lambda c: abs(c) > 1e-3))
def test_linearity(c0, c1, c2, scale):
    f = lambda x: c0 + c1 * x + c2 * x * x
    base = integrate(f, 0.0, 2.0, 1e-11)
    scaled = integrate(lambda x: scale * f(x), 0.0, 2.0, 1e-11)
    assert abs(scaled.value - scale * base.value) <= 1e-8 * max(1.0, abs(scale))


@given(st.floats(0.1, 1.9))
def test_interval_additivity(split):
    f = lambda x: np.exp(-x) + np.sin(x)
    tol = 1e-10
    whole = integrate(f, 0.0, 2.0, tol)
    left = integrate(f, 0.0, split, tol)
    right = integrate(f, split, 2.0, tol)
    assert abs(left.value + right.value - whole.value) <= 2 * tol + 1e-12
