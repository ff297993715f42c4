import math

import numpy as np
import pytest
from scipy.special import exp1

from decaybounds import cauchy_catalog, laplace_catalog
from decaybounds.quadrature import integrate_semi_infinite
from reference import (cauchy_reconstruct, expsqrt_variation_transform,
                       laplace_reconstruct, laplace_transform_of_cauchy)

RECONSTRUCTION_POINTS = (0.5, 1.0, 2.0, 5.0)

LAPLACE_NAMES = ("inv", "exp", "phi1", "inv_sqrt", "inv_pow:0.75",
                 "inv_pow:2.5", "log1p_inv")
CAUCHY_NAMES = ("inv_sqrt", "expsqrt:1.0", "log1p_over_z")


@pytest.mark.parametrize("name", LAPLACE_NAMES)
@pytest.mark.parametrize("x", RECONSTRUCTION_POINTS)
def test_laplace_reconstruction(name, x):
    m = laplace_catalog(name)
    got = laplace_reconstruct(m, x)
    expect = m.closed_form(x)
    assert abs(got - expect) <= 1e-6 * abs(expect)


@pytest.mark.parametrize("name", CAUCHY_NAMES)
@pytest.mark.parametrize("x", RECONSTRUCTION_POINTS)
def test_cauchy_reconstruction(name, x):
    m = cauchy_catalog(name)
    got = cauchy_reconstruct(m, x)
    expect = m.closed_form(x)
    assert abs(got - expect) <= 1e-6 * abs(expect)


def test_inv_reconstruct_at_two():
    assert laplace_reconstruct(laplace_catalog("inv"), 2.0) == pytest.approx(0.5, abs=1e-8)


def test_exp_is_a_single_atom():
    m = laplace_catalog("exp")
    assert m.density is None
    assert m.atoms == ((1.0, 1.0),)
    assert laplace_reconstruct(m, 3.0) == math.exp(-3.0)


def test_inv_sqrt_reconstruct_at_four():
    assert laplace_reconstruct(laplace_catalog("inv_sqrt"), 4.0) == pytest.approx(0.5, abs=1e-6)
    assert cauchy_reconstruct(cauchy_catalog("inv_sqrt"), 4.0) == pytest.approx(0.5, abs=1e-6)


def test_unknown_names_rejected():
    with pytest.raises(ValueError):
        laplace_catalog("nope")
    with pytest.raises(ValueError):
        cauchy_catalog("nope")
    with pytest.raises(ValueError):
        laplace_catalog("inv_pow:-1")
    with pytest.raises(ValueError):
        cauchy_catalog("expsqrt:0")


def test_exp_inv_is_a_stub():
    m = laplace_catalog("exp_inv")
    assert not m.has_representation
    assert m.closed_form(2.0) == pytest.approx(math.exp(0.5))
    with pytest.raises(ValueError):
        laplace_reconstruct(m, 1.0)


def test_cauchy_invsqrt_transform_closed_form():
    m = cauchy_catalog("inv_sqrt")
    assert laplace_transform_of_cauchy(m, 1.0) == pytest.approx(
        1.0 / math.sqrt(math.pi), abs=1e-8)
    assert laplace_transform_of_cauchy(m, 4.0) == pytest.approx(
        1.0 / math.sqrt(4.0 * math.pi), abs=1e-8)


def test_cauchy_log1p_transform_is_the_exponential_integral():
    m = cauchy_catalog("log1p_over_z")
    got = laplace_transform_of_cauchy(m, 1.0)
    assert got == pytest.approx(exp1(1.0), abs=1e-8)
    # brute-force quadrature of the defining integral as an independent check
    brute = integrate_semi_infinite(lambda s: np.exp(-s) / s, 1.0, 1e-9)
    assert brute.converged
    assert got == pytest.approx(brute.value, abs=1e-6)


def test_transform_closed_forms_match_quadrature():
    for name in CAUCHY_NAMES:
        m = cauchy_catalog(name)
        closed = m.laplace_transform(2.0)
        numeric = laplace_transform_of_cauchy(
            type(m)(**{**m.__dict__, "laplace_transform": None}), 2.0, tol=1e-10)
        assert numeric == pytest.approx(closed, rel=1e-6)


def test_transform_total_variation_dominates_signed():
    m = cauchy_catalog("expsqrt:1.0")
    signed = laplace_transform_of_cauchy(m, 1.0)
    total = laplace_transform_of_cauchy(m, 1.0, use_abs=True)
    assert total >= abs(signed)


@pytest.mark.parametrize("tpar", [1.0, 1.2])
def test_expsqrt_variation_transform_bounds_total_variation(tpar):
    # closed-form weight of the Kronecker Cauchy route: above the true
    # total-variation transform, and within a small factor of it
    m = cauchy_catalog(f"expsqrt:{tpar}")
    for tau in (1e-6, 1e-4, 1e-2, 1.0, 1e2):
        ref = expsqrt_variation_transform(tpar, tau)
        got = float(m.variation_transform(tau))
        assert ref * (1 - 1e-9) <= got <= 1.5 * ref


def test_signed_cauchy_measure_needs_variation_transform():
    m = cauchy_catalog("expsqrt:1.0")
    with pytest.raises(ValueError):
        type(m)(**{**m.__dict__, "variation_transform": None})


def test_transform_requires_positive_tau():
    with pytest.raises(ValueError):
        laplace_transform_of_cauchy(cauchy_catalog("inv_sqrt"), 0.0)


def test_dual_class_consistency_inv_sqrt():
    # the Markov measure's Laplace transform is the completely monotonic
    # density of the same function
    cm = cauchy_catalog("inv_sqrt")
    lm = laplace_catalog("inv_sqrt")
    for tau in (0.1, 1.0, 10.0):
        g = laplace_transform_of_cauchy(cm, tau)
        w = float(lm.density(np.asarray(tau)))
        assert abs(g - w) <= 1e-8 * abs(w)


def test_atom_validation():
    from decaybounds import LaplaceMeasure
    with pytest.raises(ValueError):
        LaplaceMeasure(name="bad", closed_form=lambda x: x, atoms=((0.0, 1.0),))
    with pytest.raises(ValueError):
        LaplaceMeasure(name="bad", closed_form=lambda x: x, atoms=((1.0, -1.0),))
