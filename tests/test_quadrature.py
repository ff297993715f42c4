import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from reference import (reference_finite_step, reference_run_steps,
                       reference_semi_infinite_step)

from decaybounds.quadrature import (_NODES, _W_GAUSS, _W_KRONROD,
                                    _panel_rule, integrate,
                                    integrate_semi_infinite, run_steps)


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
    f = lambda x: np.exp(np.sin(3.0 * x)) + x * x
    vals, errs = _panel_rule(lambda x, step: f(x), np.zeros(50, np.intp), lo,
                             lo + width, np.full(50, -1), [])
    eps = np.finfo(float).eps
    for a, b, v, e in zip(lo, lo + width, vals, errs):
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


def _make_steps(n=len(_PARAMS)):
    """Limits of n steps alternating [0, oo) and [0, 7], and their
    singularity exponents."""
    return (np.zeros(n), np.where(np.arange(n) % 2, 7.0, math.inf),
            np.full(n, -0.5))


def _run(params, budget=10000):
    """The steps of ``_make_steps`` run with the family ``params``."""
    a, b, sing = _make_steps(len(params))
    return run_steps(_family(params), a, b, 1e-11, sing, budget)


def _alone(i, params=_PARAMS, budget=10000):
    """Step i run on its own, as the only step of the driver."""
    a, b, sing = _make_steps()
    return run_steps(_family([params[i]]), a[i:i + 1], b[i:i + 1], 1e-11,
                     sing[i:i + 1], budget)[0]


def test_batch_is_bitwise_equal_to_one_step_runs():
    batch = _run(_PARAMS)
    for i, r in enumerate(batch):
        assert r == _alone(i), i
        assert r.converged


def test_shuffled_batch_is_bitwise_equal():
    batch = _run(_PARAMS)
    order = [3, 0, 4, 2, 1]
    a, b, sing = _make_steps()
    shuffled = run_steps(_family([_PARAMS[i] for i in order]), a[order],
                         b[order], 1e-11, sing[order], 10000)
    for j, i in enumerate(order):
        assert shuffled[j] == batch[i]


def test_step_out_of_panels_leaves_the_others_unchanged():
    # step 1 oscillates too fast for the shared budget: cos(3e4 x) has
    # some 33000 periods on [0, 7], and 400 panels cannot resolve them
    params = list(_PARAMS)
    params[1] = (1.0, 3e4)
    batch = _run(params, 400)
    assert not batch[1].converged
    assert batch[1] == _alone(1, params, 400)
    for i in (0, 2, 3, 4):
        assert batch[i] == _alone(i, params, 400)
        assert batch[i].converged


def test_empty_batch_calls_no_kernel():
    def kernel(x, step):
        raise AssertionError("no panel to evaluate")
    assert run_steps(kernel, [], [], 1e-8, [], 100) == []


def test_public_routes_are_one_step_runs():
    f = lambda x: np.exp(-x) * np.cos(3 * x)
    kernel = lambda x, step: f(x)
    assert integrate(f, 0.0, 5.0, 1e-11) == run_steps(
        kernel, [0.0], [5.0], 1e-11, [0.0], 10000)[0]
    assert integrate_semi_infinite(f, 0.0, 1e-11) == run_steps(
        kernel, [0.0], [math.inf], 1e-11, [0.0], 10000)[0]
    # an upper limit of inf makes the semi-infinite step
    assert integrate(f, 0.0, math.inf, 1e-11) == integrate_semi_infinite(
        f, 0.0, 1e-11)


def test_steps_are_checked_when_made():
    def kernel(x, step):
        raise AssertionError("a rejected step evaluates no panel")

    for a, b, sing in [(1.0, 0.0, 0.0),         # b below a
                       (0.0, 1.0, -1.0),        # exponent out of (-1, 0]
                       (0.0, math.inf, 0.5),
                       (math.nan, math.inf, 0.0),
                       (math.inf, math.inf, 0.0),   # a non-finite a
                       (-math.inf, 0.0, 0.0),
                       (0.0, -math.inf, 0.0),   # b = -inf or nan
                       (0.0, math.nan, 0.0)]:
        with pytest.raises(ValueError):
            run_steps(kernel, [0.0, a], [1.0, b], 1e-8, [0.0, sing], 100)
    f = lambda x: np.exp(-x)
    with pytest.raises(ValueError):
        integrate(f, -math.inf, 0.0)
    with pytest.raises(ValueError):
        integrate_semi_infinite(f, math.inf)


# -- the array engine against the generator engine ------------------------

def _integrand(family, c, x):
    if family == 0:
        return np.exp(-c * x) * np.cos(3.0 * c * x)
    if family == 1:
        return np.full_like(x, c)               # zero-error panels
    if family == 2:
        return 1.0 / (1.0 + np.abs(x))          # no limit: 200 intervals
    return np.sqrt(np.abs(x - c)) * np.exp(-np.abs(x))   # a kink to refine


def _mixed_kernel(specs):
    """Kernel of a batch: step i integrates family specs[i][4] with
    parameter specs[i][5]."""
    family = np.array([s[4] for s in specs])
    c = np.array([s[5] for s in specs])

    def kernel(x, step):
        out = np.empty_like(x)
        for f in range(4):
            rows = family[step] == f
            out[rows] = _integrand(f, c[step][rows][:, None], x[rows])
        return out
    return kernel


def _limits(specs):
    """Arrays a, b and singularity of ``run_steps``."""
    a = np.array([s[1] for s in specs])
    b = [math.inf if is_semi else
         float(np.nextafter(a_, np.inf)) if width == "ulp" else a_ + width
         for is_semi, a_, width, *_ in specs]
    return a, np.array(b), np.array([s[3] for s in specs])


def _reference_steps(specs, rtol, budget):
    """The generator steps of the same batch."""
    b = _limits(specs)[1].tolist()
    return [reference_semi_infinite_step(s[1], rtol, s[3], budget) if s[0]
            else reference_finite_step(s[1], b[i], rtol, s[3], budget)
            for i, s in enumerate(specs)]


def _affordable(batch):
    # a run that cannot converge (rtol <= 0) spends its whole budget, and
    # a semi-infinite one does so in each of its 200 intervals: there
    # only a constant integrand stays semi-infinite
    specs, budget, rtol = batch
    if rtol <= 0.0:
        budget = min(budget, 60)
        specs = [(False,) + s[1:] if s[0] and s[4] != 1 else s
                 for s in specs]
    return specs, budget, rtol


_BATCHES = st.tuples(
    st.lists(st.tuples(
        st.booleans(),                                  # semi-infinite
        st.sampled_from([0.0, -1.5, 0.25, 2.0, 1e17]),  # a; a + 1 == 1e17
        st.sampled_from([0.0, 1.0, 3.0, "ulp"]),        # b - a
        st.sampled_from([0.0, -0.3, -0.5, -0.9]),       # singularity
        st.integers(0, 3), st.floats(0.1, 2.0),         # integrand
    ), min_size=1, max_size=8),
    st.integers(2, 10000),                              # panel budget
    # rtol 0 converges only on exact zero error; -1 never does, so a
    # constant integrand sets its zero-error panels aside
    st.sampled_from([1e-3, 1e-8, 1e-12, 0.0, -1.0]),
).map(_affordable)


def _same(r, s):
    return (np.array_equal([r.value, r.error_estimate],
                           [s.value, s.error_estimate], equal_nan=True)
            and (r.evaluations, r.converged) == (s.evaluations, s.converged))


def _recording(kernel, calls):
    """``kernel``, recording the (step, x) of each call in ``calls``."""
    def recorded(x, step):
        calls.append((step.copy(), x.copy()))
        return kernel(x, step)
    return recorded


@given(_BATCHES, st.data())
def test_array_engine_equals_the_generator_engine(batch, data):
    # same bits field for field, on a batch in drawn order, from the same
    # kernel calls round by round: numpy's array ** may round an element
    # by its place in the array, so the rows must come in the same order
    specs, budget, rtol = batch
    specs = data.draw(st.permutations(specs))
    kernel = _mixed_kernel(specs)
    got_calls, want_calls = [], []
    a, b, sing = _limits(specs)
    got = run_steps(_recording(kernel, got_calls), a, b, rtol, sing, budget)
    want = reference_run_steps(_recording(kernel, want_calls),
                               _reference_steps(specs, rtol, budget))
    assert len(got) == len(want)
    for i, (r, s) in enumerate(zip(got, want)):
        assert _same(r, s), (i, specs[i], r, s)
    assert len(got_calls) == len(want_calls)
    for i, ((step, x), (ref_step, ref_x)) in enumerate(zip(got_calls,
                                                           want_calls)):
        assert np.array_equal(step, ref_step), i
        assert np.array_equal(x, ref_x), i


def test_memory_follows_the_panels_held():
    # n semi-infinite steps refine a kink in each doubling interval,
    # holding a few panels each, for some 1100 rounds; one more step, on
    # some 4800 periods of a cosine that its 1150 panels cannot resolve,
    # splits every round.  A table of running steps x widest run, at 48
    # bytes a panel (what the engine keeps), would need over 50 MB.
    n = 1000
    running = []

    def kernel(x, step):
        running.append(np.unique(step[step < n]).size)
        t = np.log2(1.0 + x)
        y = (1.0 + np.abs(t - np.floor(t) - 0.37)) * (1.0 + x) ** -1.5
        long = step == n
        y[long] = np.cos(3e4 * x[long])
        return y

    b = np.full(n + 1, math.inf)
    b[n] = 1.0
    tracemalloc.start()
    try:
        run_steps(kernel, np.zeros(n + 1), b, 1e-11, np.zeros(n + 1), 1150)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the long step holds r + 1 panels in round r
    table = max((k + 1) * (r + 1) for r, k in enumerate(running)) * 48
    assert table > 50e6
    assert peak < 8e6


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_kernel_ends_within_the_panel_budget(bad):
    # inf on part of [0, 1] makes k - g = inf - inf = nan; a nan error
    # ranks as the worst panel, and the run still ends at its budget
    def kernel(x, step):
        return np.where(x < 0.3, bad, np.exp(-x))

    with np.errstate(invalid="ignore"):
        r = run_steps(kernel, [0.0], [1.0], 1e-8, [0.0], 8)[0]
    assert not r.converged
    assert r.evaluations <= 15 * (2 * 8 - 1)
    if math.isinf(bad):
        assert r.value == math.inf
    else:
        assert math.isnan(r.value)

