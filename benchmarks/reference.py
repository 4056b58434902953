"""Reference computations for the output checks, made without growthlab.

Everything here is plain numpy written from the model's definitions, so a
check that compares growthlab's output with these numbers compares two
independent computations, never growthlab with itself.
"""

from __future__ import annotations

import math

import numpy as np


def tls_slope(x, y) -> float:
    """Slope of the total-least-squares line: the major axis of the 2x2 covariance."""
    points = np.vstack([np.asarray(x, dtype=float), np.asarray(y, dtype=float)])
    _, vectors = np.linalg.eigh(np.cov(points))
    major = vectors[:, -1]
    return float(major[1] / major[0])


def coupled_cutoff(population, beta: float):
    """The coupled-truncation cutoff ((beta - 1) P)^(1/beta)."""
    return ((beta - 1.0) * np.asarray(population, dtype=float)) ** (1.0 / beta)


def continuous_mean(lower: float, upper, beta: float):
    """E[X] of the density ~ x^-beta truncated to [lower, upper]."""
    upper = np.asarray(upper, dtype=float)
    norm = 1.0 - (upper / lower) ** (1.0 - beta)
    if beta == 2.0:
        return lower * np.log(upper / lower) / norm
    return ((beta - 1.0) / (beta - 2.0) * lower ** (beta - 1.0)
            * (lower ** (2.0 - beta) - upper ** (2.0 - beta)) / norm)


def continuous_growth_slope(lower: float, beta: float, low: float, high: float,
                            points: int = 201) -> float:
    """Finite-size slope of P * E[X] over P log-spaced in [low, high].

    Populations whose cutoff does not exceed the lower cutoff admit no
    draw and are left out of the range.
    """
    populations = np.logspace(math.log10(low), math.log10(high), points)
    populations = populations[coupled_cutoff(populations, beta) > lower]
    uppers = coupled_cutoff(populations, beta)
    totals = populations * continuous_mean(lower, uppers, beta)
    return tls_slope(np.log10(populations), np.log10(totals))


def growth_exponent(beta: float) -> float:
    """gamma(beta) = 2/beta below 2, 1 from 2 on."""
    return 2.0 / beta if beta < 2.0 else 1.0


def agrees_to_6(printed: str, value: float) -> bool:
    """Is `printed` (6 significant digits) the rounding of `value`?"""
    shown = float(printed)
    if value == 0.0:
        return shown == 0.0
    unit = 10.0 ** (math.floor(math.log10(abs(value))) - 5)
    return abs(shown - value) <= 0.5 * unit * (1.0 + 1e-9) + 1e-15 * abs(value)
