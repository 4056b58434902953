"""Closed-form growth theory for heavy-tailed activity systems.

A system of P(t) active users, each producing f tags per day, with daily
activity distributed as a bounded power law

    n(f) = (f / f_max)^(-beta),        1 <= f <= f_max,

(normalized so that n(f_max) = 1) accumulates total daily activity F(t).
Integrating n(f) and f*n(f) over [1, f_max] links the two observables
through the cutoff:

    P = (f_max^beta - f_max)   / (beta - 1)
    F = (f_max^2   - f_max^beta) / (2 - beta)        (beta != 2)
    F = f_max^2 * ln(f_max)                          (beta  = 2)

For large f_max this yields the growth law F ~ P^gamma with

    gamma(beta) = 2 / beta   if 1 < beta < 2
    gamma(beta) = 1          if beta >= 2

so superlinear growth (gamma > 1, i.e. activity accelerating relative to
population) is produced purely by the heterogeneity of user activity; no
increase of average per-user activity is required. theta = gamma - 1 is the
exponent of the average activity F/P ~ P^theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, check_beta, check_cutoff

__all__ = [
    "Exponents",
    "MomentPair",
    "gamma_of_beta",
    "theta_of_gamma",
    "exact_moments",
    "approx_moments",
    "cutoff_for_population",
    "iid_sum_exponent",
]


@dataclass(frozen=True)
class Exponents:
    """The exponent triple (beta, gamma, theta) of one system.

    beta is the daily activity-distribution exponent, gamma the growth
    exponent of F ~ P^gamma, theta = gamma - 1 the exponent of the average
    activity per user. gamma and theta are derived from beta.
    """

    beta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", check_beta(self.beta))

    gamma = property(lambda self: gamma_of_beta(self.beta))
    theta = property(lambda self: self.gamma - 1.0)


@dataclass(frozen=True)
class MomentPair:
    """Population P and total activity F implied by one daily distribution.

    f_max is the activity cutoff the pair was computed at; it is carried
    along because it is the natural independent variable of the curves.
    """

    population: float
    total_activity: float
    f_max: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.population) and math.isfinite(self.total_activity)):
            raise DomainError(f"moments must be finite, got P {self.population} "
                              f"and F {self.total_activity} at f_max {self.f_max}")
        if self.population < 0 or self.total_activity < 0:
            raise DomainError("moments must be nonnegative")
        # Every user produces at least one tag, so F >= P on f_max >= 1.
        if self.f_max >= 1.0 and self.total_activity < self.population * (1 - 1e-12):
            raise DomainError("total activity cannot fall below population")


def gamma_of_beta(beta: float) -> float:
    """Growth exponent gamma implied by activity exponent beta.

    gamma = 2/beta for 1 < beta < 2 (the heterogeneity-driven superlinear
    regime) and 1 for beta >= 2 (homogeneous-like linear growth). Continuous
    at beta = 2.
    """
    beta = check_beta(beta)
    if beta < 2:
        return 2.0 / beta
    return 1.0


def theta_of_gamma(gamma: float) -> float:
    """Average-activity exponent theta = gamma - 1 (F/P ~ P^theta)."""
    if not 1 <= gamma < math.inf:  # also true for nan
        raise DomainError(f"gamma must be finite and at least 1, got {gamma}")
    return gamma - 1.0


def _phi(x: float) -> float:
    """expm1(x)/x, the removable-singularity factor (phi(0) = 1)."""
    if x == 0.0:
        return 1.0
    return math.expm1(x) / x


def _moment_overflow(f_max: float, beta: float) -> DomainError:
    return DomainError(f"a moment at f_max {f_max} and beta {beta} passes "
                       f"the float64 range")


def exact_moments(f_max: float, beta: float) -> MomentPair:
    """P and F from exact integration of n(f) = (f/f_max)^(-beta) on [1, f_max].

    Evaluated in the cancellation-free form

        P = f_max   * L * phi((beta-1) L)
        F = f_max^2 * L * phi((beta-2) L),        L = ln f_max,

    which is algebraically identical to the textbook antiderivatives
    P = (f_max^beta - f_max)/(beta-1), F = (f_max^2 - f_max^beta)/(2-beta)
    but remains fully accurate through the removable singularity at
    beta = 2, where it reduces to the analytic limit F = f_max^2 ln f_max.
    """
    beta, f_max = check_beta(beta), check_cutoff(f_max, "f_max")
    log_cutoff = math.log(f_max)
    try:
        population = f_max * log_cutoff * _phi((beta - 1.0) * log_cutoff)
        total = f_max * f_max * log_cutoff * _phi((beta - 2.0) * log_cutoff)
    except OverflowError:
        raise _moment_overflow(f_max, beta) from None
    return MomentPair(population=population, total_activity=total, f_max=f_max)


def approx_moments(f_max: float, beta: float) -> MomentPair:
    """The large-cutoff single-term approximations of the moment integrals.

    Branch on beta:

        1 < beta < 2:  P ~ f_max^beta/(beta-1),  F ~ f_max^2/(2-beta)
        beta = 2:      P ~ f_max^2,              F ~ f_max^2
        beta > 2:      P ~ f_max^beta/(beta-1),  F ~ f_max^beta/(beta-2)

    These keep only the dominant power of f_max, so their relative error
    against exact_moments is exactly 1/(f_max^(beta-1) - 1) on P and
    1/(f_max^|2-beta| - 1) on F (beta != 2): excellent deep inside each
    branch, poor near beta = 1 and beta = 2 at moderate cutoffs.
    """
    beta, f_max = check_beta(beta), check_cutoff(f_max, "f_max")
    if beta == 2.0:
        square = f_max * f_max
        return MomentPair(population=square, total_activity=square, f_max=f_max)
    try:
        population = f_max**beta / (beta - 1.0)
        if beta < 2:
            total = f_max * f_max / (2.0 - beta)
        else:
            total = f_max**beta / (beta - 2.0)
    except OverflowError:
        raise _moment_overflow(f_max, beta) from None
    return MomentPair(population=population, total_activity=total, f_max=f_max)


# Four ulps below 1.0 (the float spacing just below 1 is 2^-53).
_UNIT_CUTOFF_FLOOR = 1.0 - 4 * 2.0**-53


def cutoff_for_population(population: float, beta: float) -> float:
    """Invert P ~ f_max^beta/(beta-1) for the activity cutoff.

    f_max = ((beta-1) P)^(1/beta). Exact inverse of approx_moments'
    population branch, so the round trip
    cutoff_for_population(approx_moments(f).population, beta) == f holds to
    machine precision. Errors if the population is too small to support a
    cutoff of at least 1. A result a few ulps below 1 is round-off at the
    f_max = 1 boundary (P = 1/(beta-1)) and comes back as exactly 1.0.
    """
    beta = check_beta(beta)
    if not 0 < population < math.inf:  # also true for nan
        raise DomainError(f"population must be finite and positive, got {population}")
    product = (beta - 1.0) * population
    if product < math.inf:
        f_max = product ** (1.0 / beta)
    else:  # the root in logs, for a product past the float64 range
        f_max = math.exp((math.log(beta - 1.0) + math.log(population)) / beta)
    if _UNIT_CUTOFF_FLOOR <= f_max < 1.0:
        return 1.0
    if f_max < 1.0:
        raise DomainError(
            f"population {population} too small for a cutoff >= 1 at beta {beta}"
        )
    return f_max


def iid_sum_exponent(beta: float) -> float:
    """Growth exponent of F = sum of P iid UNBOUNDED power-law activities.

    Without the population-coupled cutoff the sum of P draws with tail
    index beta - 1 is dominated by its maximum when beta < 2 and scales as
    P^(1/(beta-1)), not P^(2/beta); for beta >= 2 the mean is finite and
    F ~ P. This is the scaling a simulation exhibits when truncation is
    switched off, and the reason the bounded-distribution law cannot be
    reproduced by unbounded sampling.
    """
    beta = check_beta(beta)
    if beta < 2:
        return 1.0 / (beta - 1.0)
    return 1.0
