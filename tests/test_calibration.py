"""Seeded calibration: how often do the 95% intervals cover their targets?

Each coverage test runs hundreds of independently seeded series through
calibration.hits_per_cell, over a grid of (beta, C) cells: beta in
{1.2, 1.5, 1.8}, C in {1, 3}, 30 coupled-truncation days with P
log-uniform in [1e3, 3e4]. A run draws its schedule and its days from
its own seed and bootstraps its interval from the same seed. A coverage
claim passes when at least 90% of all runs, and at least 80% of each
cell's, cover the target.
"""

import numpy as np
import pytest

from calibration import hits_per_cell
from growthlab import (SamplerConfig, collapse_check, fit_gamma_tls,
                       log_uniform_schedule, seeding, series_totals,
                       synthesize_series)

GRID = [(beta, c) for beta in (1.2, 1.5, 1.8) for c in (1.0, 3.0)]
DAYS = 30
POPULATION_RANGE = (1e3, 3e4)


def _schedule(seed):
    return log_uniform_schedule(seeding.generator(seed, seeding.STREAM_SCHEDULE),
                                DAYS, POPULATION_RANGE)


def finite_size_slope(beta, c, populations):
    """TLS slope of log(P E[X | C, U]) on log P over the given days.

    U = ((beta - 1) P)^(1/beta) is the coupled cutoff, and E[X | C, U] the
    mean of the density ~ x^-beta on [C, U] (beta != 2):
    (beta-1)/(beta-2) C^(beta-1) (C^(2-beta) - U^(2-beta)) / (1 - (U/C)^(1-beta)).
    """
    p = np.asarray(populations, dtype=float)
    u = ((beta - 1.0) * p) ** (1.0 / beta)
    mean = ((beta - 1.0) / (beta - 2.0) * c ** (beta - 1.0)
            * (c ** (2.0 - beta) - u ** (2.0 - beta)) / (1.0 - (u / c) ** (1.0 - beta)))
    # The major axis of the 2x2 covariance of the log points.
    _, vectors = np.linalg.eigh(np.cov(np.log(p), np.log(p * mean)))
    return vectors[1, -1] / vectors[0, -1]


def tls_interval_covers(cell, seed):
    beta, c = cell
    schedule = _schedule(seed)
    totals = series_totals(schedule, SamplerConfig(beta=beta, lower_cutoff=c, seed=seed))
    low, high = fit_gamma_tls(totals, seed=seed).ci95_slope
    return low <= finite_size_slope(beta, c, schedule) <= high


def collapse_interval_covers(cell, seed):
    beta, c = cell
    config = SamplerConfig(beta=beta, lower_cutoff=c, integerize=True, seed=seed)
    _, fit = collapse_check(synthesize_series(_schedule(seed), config), seed=seed)
    low, high = fit.ci95_beta
    return low <= beta <= high


def _assert_covers(hits, seeds):
    detail = ", ".join(f"(beta={beta}, C={c:g}) {h}/{seeds}"
                       for (beta, c), h in zip(GRID, hits))
    assert sum(hits) >= 0.9 * seeds * len(GRID), detail
    assert min(hits) >= 0.8 * seeds, detail


def _seeded_from_its_cell(cell, seed):
    """A hit on even cells whose run seed is one of derive_seed(5, cell, s)."""
    return cell % 2 == 0 and seed in {seeding.derive_seed(5, cell, s) for s in range(3)}


@pytest.mark.parametrize("cpus", [1, 2])
def test_runs_are_seeded_apart_by_cell_and_run(monkeypatch, cpus):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    assert hits_per_cell(_seeded_from_its_cell, range(5), 3, 5) == [3, 0, 3, 0, 3]


@pytest.mark.calibration
def test_tls_interval_covers_the_finite_size_slope():
    seeds = 60
    _assert_covers(hits_per_cell(tls_interval_covers, GRID, seeds, 0), seeds)


@pytest.mark.calibration
@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: the collapse fit assumes n(k) ~ k^-beta, but floored "
    "draws follow about (k + 1/2)^-beta, so beta comes out 0.07-0.17 low"))
def test_collapse_interval_covers_the_true_beta():
    seeds = 40
    _assert_covers(hits_per_cell(collapse_interval_covers, GRID, seeds, 0), seeds)
