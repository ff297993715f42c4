import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from decaybounds.quadrature import (_NODES, _W_GAUSS, _W_KRONROD, _evaluate,
                                    finite_step, integrate,
                                    integrate_semi_infinite, run_steps,
                                    semi_infinite_step)


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


# -- the lockstep engine -------------------------------------------------

def test_panel_rule_matches_the_dot_product_reference():
    # the batched row-wise weighted sum against one 15-point dot product
    # per panel; only the summation order differs
    rng = np.random.default_rng(3)
    lo, width = rng.uniform(-3.0, 3.0, 50), rng.uniform(0.01, 4.0, 50)
    panels = [(0, a, a + w, None) for a, w in zip(lo, width)]
    f = lambda x: np.exp(np.sin(3.0 * x)) + x * x
    vals, errs = _evaluate(lambda x, step: f(x), panels)
    eps = np.finfo(float).eps
    for (_, a, b, _), v, e in zip(panels, vals, errs):
        half = 0.5 * (b - a)
        y = f(0.5 * (a + b) + half * _NODES)
        k, g = half * np.dot(_W_KRONROD, y), half * np.dot(_W_GAUSS, y)
        assert abs(v - k) <= 8 * eps * abs(k)
        assert abs(e - abs(k - g)) <= 16 * eps * abs(k)


def _family(params):
    """Kernel whose step i integrates exp(-c_i x) x**-0.5 cos(w_i x)."""
    c = np.array([p[0] for p in params])[:, None]
    w = np.array([p[1] for p in params])[:, None]

    def kernel(x, step):
        return np.exp(-c[step] * x) * x ** -0.5 * np.cos(w[step] * x)
    return kernel


_PARAMS = [(0.5, 0.0), (1.0, 3.0), (2.0, 10.0), (0.1, 1.0), (4.0, 0.5)]


def _make_steps(budgets=None):
    budgets = budgets or [10000] * len(_PARAMS)
    steps = []
    for i, b in enumerate(budgets):
        if i % 2:
            steps.append(finite_step(0.0, 7.0, 1e-11, -0.5, b))
        else:
            steps.append(semi_infinite_step(0.0, 1e-11, -0.5, b))
    return steps


def _alone(i, budgets=None):
    """Step i run on its own, as the only step of the driver."""
    return run_steps(_family([_PARAMS[i]]), [_make_steps(budgets)[i]])[0]


def test_batch_is_bitwise_equal_to_one_step_runs():
    batch = run_steps(_family(_PARAMS), _make_steps())
    for i, r in enumerate(batch):
        assert r == _alone(i), i
        assert r.converged


def test_shuffled_batch_is_bitwise_equal():
    batch = run_steps(_family(_PARAMS), _make_steps())
    order = [3, 0, 4, 2, 1]
    steps = _make_steps()
    shuffled = run_steps(_family([_PARAMS[i] for i in order]),
                         [steps[i] for i in order])
    for j, i in enumerate(order):
        assert shuffled[j] == batch[i]


def test_step_out_of_panels_leaves_the_others_unchanged():
    budgets = [10000, 2, 10000, 10000, 10000]
    batch = run_steps(_family(_PARAMS), _make_steps(budgets))
    assert not batch[1].converged
    assert batch[1] == _alone(1, budgets)
    for i in (0, 2, 3, 4):
        assert batch[i] == _alone(i)


def test_empty_batch_calls_no_kernel():
    def kernel(x, step):
        raise AssertionError("no panel to evaluate")
    assert run_steps(kernel, []) == []


def test_public_routes_are_one_step_runs():
    f = lambda x: np.exp(-x) * np.cos(3 * x)
    kernel = lambda x, step: f(x)
    assert integrate(f, 0.0, 5.0, 1e-11) == run_steps(
        kernel, [finite_step(0.0, 5.0, 1e-11, 0.0, 10000)])[0]
    assert integrate_semi_infinite(f, 0.0, 1e-11) == run_steps(
        kernel, [semi_infinite_step(0.0, 1e-11, 0.0, 10000)])[0]
