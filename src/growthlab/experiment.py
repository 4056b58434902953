"""End-to-end numerical experiments on the growth law.

run_sweep is the Monte Carlo verification of gamma(beta): a grid of
(C, beta) cells, each synthesizing a multi-day series under the chosen
truncation protocol and fitting the growth exponent, exactly the
simulation that traces the theoretical curve gamma = 2/beta (beta < 2),
1 (beta >= 2) when coupled truncation is on and departs from it when it
is off. compare_prediction and collapse_check run the same measurement on
a single series: estimate beta from the daily histograms, map it through
the law, and confront the prediction with the directly fitted exponent.

Every cell derives its RNG streams from (seed, cell index) alone, so a
cell's result never depends on the cells run before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import seeding
from .errors import DomainError, GrowthlabError
from .estimators import (
    BetaFit,
    TlsFit,
    fit_gamma_tls,
    pool_and_fit_beta,
    rescale_histogram,
    score_against_beta,
)
from .ingest import DailySnapshot
from .sampler import (
    SamplerConfig,
    SyntheticSeries,
    canonical_protocol,
    log_uniform_schedule,
    series_totals,
)
from .theory import gamma_of_beta

__all__ = [
    "SweepCell",
    "GrowthPrediction",
    "default_c_values",
    "default_beta_grid",
    "run_sweep",
    "compare_prediction",
    "collapse_check",
]


@dataclass(frozen=True)
class SweepCell:
    """One (C, beta) cell of a sweep: fitted vs theoretical exponent."""

    c: float
    beta: float
    gamma_fit: float
    fit_quality: float
    status: str
    message: str = ""

    def __post_init__(self) -> None:
        if self.status == "ok" and not math.isfinite(self.gamma_fit):
            raise DomainError("an ok cell must carry a finite gamma_fit")

    inverse_beta = property(lambda self: 1.0 / self.beta)
    gamma_theory = property(lambda self: gamma_of_beta(self.beta))


@dataclass(frozen=True)
class GrowthPrediction:
    """Collapse-measured beta mapped through the law, vs the direct fit.

    gamma_theory is gamma(beta_fit.beta); consistent says whether it lies
    inside the direct fit's 95% CI.
    """

    beta_fit: BetaFit
    gamma_fit: TlsFit

    gamma_theory = property(lambda self: gamma_of_beta(self.beta_fit.beta))

    @property
    def consistent(self) -> bool:
        low, high = self.gamma_fit.ci95_slope
        return low <= self.gamma_theory <= high


def default_c_values() -> list[float]:
    """Lower cutoffs 1..10, the span used for the reference sweep."""
    return [float(c) for c in range(1, 11)]


def default_beta_grid() -> list[float]:
    """40 betas uniform in 1/beta on [0.1, 1), i.e. beta in (1, 10].

    Uniform spacing in 1/beta matches the natural axis of the gamma curve,
    concentrating resolution where gamma varies.
    """
    inverse = np.linspace(0.1, 1.0, num=40, endpoint=False)
    return [float(1.0 / v) for v in inverse]


def run_sweep(c_values: Sequence[float] | None = None,
              beta_values: Sequence[float] | None = None,
              days_per_cell: int = 100,
              population_range: tuple[float, float] = (100.0, 10_000.0),
              protocol: str = "coupled-truncation",
              seed: int = 0,
              bootstrap_reps: int = 0) -> list[SweepCell]:
    """Fit the growth exponent over a (C, beta) grid of synthetic series.

    Each cell draws its own log-uniform population schedule, synthesizes
    days under `protocol` and fits gamma by TLS. A cell that cannot be
    synthesized or fitted (e.g. cutoff collapsing below C at high beta and
    high C) is returned with status "failed" and the error message; it
    never aborts the sweep. Cells are returned in grid order, C outer.
    """
    protocol = canonical_protocol(protocol)
    seed = seeding.check_seed(seed)
    cs = list(default_c_values() if c_values is None else c_values)
    betas = list(default_beta_grid() if beta_values is None else beta_values)
    if not cs or not betas:
        raise DomainError("sweep grid must contain at least one C and one beta")
    for beta in betas:
        if not beta > 1:
            raise DomainError(f"beta must exceed 1, got {beta}")
    for c in cs:
        if not c >= 1:  # also true for nan
            raise DomainError(f"lower cutoff must be >= 1, got {c}")
    if days_per_cell < 10:
        raise DomainError("need at least 10 days per cell")
    low, high = population_range
    if not (low >= 10 and high > low):
        raise DomainError("population range must satisfy 10 <= low < high")

    def one_cell(index: int, c: float, beta: float) -> SweepCell:
        cell_seed = seeding.derive_seed(seed, seeding.STREAM_CELL, index)
        try:
            schedule = log_uniform_schedule(
                seeding.generator(cell_seed, seeding.STREAM_SCHEDULE),
                days_per_cell, (low, high),
            )
            config = SamplerConfig(beta=beta, lower_cutoff=c, seed=cell_seed)
            totals = series_totals(schedule, config, protocol)
            fit = fit_gamma_tls(totals, bootstrap_reps=bootstrap_reps, seed=cell_seed)
        except GrowthlabError as exc:
            return SweepCell(c=c, beta=beta, gamma_fit=math.nan,
                             fit_quality=math.nan, status="failed",
                             message=str(exc))
        return SweepCell(c=c, beta=beta, gamma_fit=fit.slope,
                         fit_quality=fit.adjusted_r2, status="ok")

    grid = [(c, beta) for c in cs for beta in betas]
    return [one_cell(index, c, beta) for index, (c, beta) in enumerate(grid)]


def _snapshots(series) -> list[DailySnapshot]:
    if isinstance(series, SyntheticSeries):
        return list(series.days)
    return list(series)


def compare_prediction(series, bins_per_decade: int = 5,
                       bootstrap_reps: int = 1000, seed: int = 0) -> GrowthPrediction:
    """Does the heterogeneity-measured exponent predict the observed growth?

    Fits beta from the pooled rescaled histograms, maps it through
    gamma(beta), fits gamma directly from the (P, F) pairs, and flags
    consistency when the prediction falls inside the direct fit's 95% CI.
    """
    seed = seeding.check_seed(seed)
    snapshots = _snapshots(series)
    if len(snapshots) < 3:
        raise DomainError("need at least 3 days to compare growth against theory")
    rescaled = [rescale_histogram(s) for s in snapshots]
    beta_fit = pool_and_fit_beta(
        rescaled, bins_per_decade=bins_per_decade,
        bootstrap_reps=bootstrap_reps, seed=seed,
    )
    gamma_fit = fit_gamma_tls(
        [(s.population, s.total_activity) for s in snapshots],
        bootstrap_reps=bootstrap_reps, seed=seed,
    )
    return GrowthPrediction(beta_fit=beta_fit, gamma_fit=gamma_fit)


def collapse_check(series, beta_hypothesis: float | None = None,
                   bins_per_decade: int = 5, bootstrap_reps: int = 1000,
                   seed: int = 0) -> tuple[float, BetaFit]:
    """How well do the rescaled days collapse onto one master curve?

    Returns (quality, fit). Without a hypothesis, quality is the adjusted
    R^2 of the pooled fit itself. With one, quality scores the pooled cloud
    against the FIXED slope -beta_hypothesis (intercept through the
    centroid) while the freely fitted BetaFit is still returned alongside.
    """
    seed = seeding.check_seed(seed)
    snapshots = _snapshots(series)
    if len(snapshots) < 2:
        raise DomainError("need at least 2 days for a collapse check")
    rescaled = [rescale_histogram(s) for s in snapshots]
    fit = pool_and_fit_beta(
        rescaled, bins_per_decade=bins_per_decade,
        bootstrap_reps=bootstrap_reps, seed=seed,
    )
    if beta_hypothesis is None:
        return fit.adjusted_r2, fit
    return score_against_beta(rescaled, beta_hypothesis,
                              bins_per_decade=bins_per_decade), fit
