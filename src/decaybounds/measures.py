"""Integral-transform representations of the supported function classes.

Two catalogs are provided: completely monotonic functions written as
f(x) = int_0^inf exp(-x tau) w(tau) dtau + sum_i w_i exp(-x tau_i)
(``LaplaceMeasure``: density w on (0, support_upper] plus positive atoms),
and Markov-type functions written as
f(x) = int_{-inf}^{upper} v(omega) / (x - omega) domega
(``CauchyMeasure``: density v on (-inf, support_upper], upper <= 0).
A Markov function is also completely monotonic: its Laplace-type
density is the transform g(tau) = int exp(tau omega) v(omega) domega
(``CauchyMeasure.as_laplace``).

Every catalog entry carries the closed-form f, against which the test
suite checks each representation by quadrature reconstruction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LaplaceMeasure:
    name: str
    closed_form: object
    density: object = None           # vectorized w(tau) on (0, support_upper]
    support_upper: float = math.inf
    singularity_exponent: float = 0.0  # w(tau) ~ tau**p as tau -> 0+
    atoms: tuple = ()                # ((location > 0, weight > 0), ...)
    # log w(tau), for a density that overflows a double where the bound
    # integrand exp(-lambda_min tau) w(tau) does not
    log_density: object = None

    def __post_init__(self):
        for loc, weight in self.atoms:
            if loc <= 0 or weight <= 0:
                raise ValueError("atoms must have positive location and weight")

    @property
    def has_representation(self):
        return self.density is not None or bool(self.atoms)


@dataclass(frozen=True)
class CauchyMeasure:
    name: str
    closed_form: object
    density: object                  # vectorized v(omega), omega <= support_upper
    support_upper: float = 0.0
    singularity_exponent: float = 0.0  # |v| ~ (upper - omega)**p near the upper end
    laplace_transform: object = None   # closed-form g(tau) = int exp(tau w) dgamma(w)
    transform_singularity: float = 0.0  # g(tau) ~ tau**p as tau -> 0+
    signed: bool = False
    # Signed measures: closed-form upper bound on the transform of the
    # total variation, int exp(-tau s) |v(-s)| ds, as a function of tau.
    variation_transform: object = None
    # Oscillatory |density| tails make total-variation integrals expensive:
    # past a finite tail_start (in s = -omega), |v(-s)| <= tail_bound / s,
    # and the bounds add a closed-form majorant of the tail there.
    tail_bound: float = 0.0
    tail_start: float = math.inf

    def __post_init__(self):
        if self.support_upper > 0:
            raise ValueError("support must lie in (-inf, 0]")
        if self.signed and self.variation_transform is None:
            raise ValueError("a signed measure needs a variation_transform")
        if math.isfinite(self.tail_start) and not self.tail_bound > 0:
            raise ValueError("a finite tail_start needs a positive tail_bound")

    def abs_density_s(self, s):
        """|v(-s)| in the reflected variable s = -omega >= -support_upper:
        the bounds integrate against the total variation."""
        return np.abs(self.density(-np.asarray(s, dtype=float)))

    def as_laplace(self):
        """The transform g as a Laplace measure: a Markov function is
        completely monotonic, f(x) = int_0^inf exp(-x tau) g(tau) dtau.
        A signed measure gives its ``variation_transform`` instead, whose
        integral bounds |f| from above."""
        g = self.variation_transform if self.signed else self.laplace_transform
        if g is None:
            raise ValueError(f"measure {self.name!r} has no closed-form transform")
        return LaplaceMeasure(name=self.name, closed_form=self.closed_form,
                              density=g,
                              singularity_exponent=self.transform_singularity)


@functools.cache
def _special():
    """scipy.special, imported on first use: the import costs about 45 ms,
    and only the Cauchy transforms (``laplace_transform`` and
    ``variation_transform``) of ``expsqrt`` and ``log1p_over_z`` call it."""
    import scipy.special
    return scipy.special


def _parse_parameter(name, key):
    head, _, rest = name.partition(":")
    if head != key or not rest:
        raise ValueError(f"expected {key}:<value>, got {name!r}")
    value = float(rest)
    if not math.isfinite(value):
        raise ValueError(f"{key} needs a finite value, got {name!r}")
    return value


def laplace_catalog(name):
    """Named completely monotonic functions with their transform data.

    ``inv``, ``exp``, ``phi1``, ``inv_sqrt``, ``inv_pow:<sigma>``,
    ``log1p_inv`` and ``exp_inv`` (the last is a stub: no representation
    with positive atom locations exists because of its unit jump at 0).
    """
    if name == "inv":
        return LaplaceMeasure(
            name="inv",
            closed_form=lambda x: 1.0 / x,
            density=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        )
    if name == "exp":
        return LaplaceMeasure(
            name="exp",
            closed_form=lambda x: np.exp(-x),
            atoms=((1.0, 1.0),),
        )
    if name == "phi1":
        return LaplaceMeasure(
            name="phi1",
            closed_form=lambda x: -np.expm1(-x) / x,
            density=lambda t: np.ones_like(np.asarray(t, dtype=float)),
            support_upper=1.0,
        )
    if name == "inv_sqrt":
        c = 1.0 / math.sqrt(math.pi)
        return LaplaceMeasure(
            name="inv_sqrt",
            closed_form=lambda x: x ** -0.5,
            density=lambda t: c * np.asarray(t, dtype=float) ** -0.5,
            singularity_exponent=-0.5,
        )
    if name.startswith("inv_pow"):
        sigma = _parse_parameter(name, "inv_pow")
        if not sigma >= 0.05:
            # tau = u**m, m = ceil(2/sigma), removes the singularity at 0;
            # for m much above 40 it sends tau on the finest leftmost
            # panels below 1e-300, where tau**(sigma-1) overflows
            raise ValueError("inv_pow requires sigma of at least 0.05, below "
                             "which the substitution that removes its "
                             "singularity at 0 overflows the density; "
                             f"got {sigma}")
        try:
            log_gamma = math.log(math.gamma(sigma))
        except OverflowError:
            raise ValueError("inv_pow requires sigma below about 171.62, where "
                             f"Gamma(sigma) overflows; got {sigma}") from None
        # tau^(sigma-1) / Gamma(sigma) in log space: no power overflows
        log_density = lambda t: (sigma - 1.0) * np.log(t) - log_gamma
        return LaplaceMeasure(
            name=name,
            closed_form=lambda x: x ** -sigma,
            density=lambda t: np.exp(log_density(t)),
            singularity_exponent=min(sigma - 1.0, 0.0),
            log_density=log_density,
        )
    if name == "log1p_inv":
        # Frullani: log(1 + 1/x) = int_0^inf exp(-x tau) (1 - exp(-tau))/tau dtau
        return LaplaceMeasure(
            name="log1p_inv",
            closed_form=lambda x: np.log1p(1.0 / x),
            density=lambda t: -np.expm1(-np.asarray(t, dtype=float)) / np.asarray(t, dtype=float),
        )
    if name == "exp_inv":
        return LaplaceMeasure(
            name="exp_inv",
            closed_form=lambda x: np.exp(1.0 / x),
        )
    raise ValueError(f"unknown Laplace-class function {name!r}")


def cauchy_catalog(name):
    """Named Markov-type functions with support on (-inf, 0].

    ``inv_sqrt``, ``expsqrt:<t>`` and ``log1p_over_z``.
    """
    if name == "inv_sqrt":
        return CauchyMeasure(
            name="inv_sqrt",
            closed_form=lambda x: x ** -0.5,
            density=lambda w: 1.0 / (math.pi * np.sqrt(-np.asarray(w, dtype=float))),
            support_upper=0.0,
            singularity_exponent=-0.5,
            laplace_transform=lambda t: 1.0 / np.sqrt(math.pi * t),
            transform_singularity=-0.5,
        )
    if name.startswith("expsqrt"):
        tpar = _parse_parameter(name, "expsqrt")
        if tpar <= 0:
            raise ValueError(f"expsqrt requires t > 0, got {tpar}")

        def density(w):
            w = np.asarray(w, dtype=float)
            return np.sin(tpar * np.sqrt(-w)) / (-math.pi * w)

        # This density represents (1 - exp(-t sqrt(z)))/z: it is positive
        # near omega = 0 and the transform at z -> inf carries total mass
        # +1, so the sign-consistent closed form is the one below.
        return CauchyMeasure(
            name=name,
            closed_form=lambda x: -np.expm1(-tpar * np.sqrt(x)) / x,
            density=density,
            support_upper=0.0,
            singularity_exponent=-0.5,
            laplace_transform=lambda t: _special().erf(tpar / (2.0 * np.sqrt(t))),
            signed=True,
            # |sin(t sqrt(s))| <= min(t sqrt(s), 1), split at s = 1/t^2
            variation_transform=lambda tau: (
                tpar * _special().erf(np.sqrt(tau) / tpar) / np.sqrt(math.pi * tau)
                + _special().exp1(tau / tpar ** 2) / math.pi),
            tail_bound=1.0 / math.pi,   # |sin| <= 1
            tail_start=(32.0 * math.pi / tpar) ** 2,
        )
    if name == "log1p_over_z":
        return CauchyMeasure(
            name="log1p_over_z",
            closed_form=lambda x: np.log1p(x) / x,
            density=lambda w: 1.0 / (-np.asarray(w, dtype=float)),
            support_upper=-1.0,
            laplace_transform=lambda t: _special().exp1(t),
        )
    raise ValueError(f"unknown Cauchy-class function {name!r}")

