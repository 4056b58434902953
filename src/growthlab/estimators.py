"""Exponent estimators: orthogonal growth fits and distribution collapse.

Two complementary measurements are implemented.

fit_gamma_tls regresses log10 F on log10 P by total least squares (the
principal axis of the 2x2 covariance). P is an exact count in every event
log and in the generator, and only F carries sampling noise, so ordinary
least squares is not attenuated on these data: fit_gamma_ols, kept
alongside, gives slopes within 1e-3 of TLS on coupled series.

pool_and_fit_beta measures the activity exponent beta from the daily
histograms themselves: each day is rescaled by its own cutoff (f/f_max),
all days are pooled onto the common master curve (f/f_max)^(-beta), the
cloud is averaged in logarithmic bins (per contributing day, so a huge day
cannot outvote a small one), and the exponent is the negative log-log
slope. Its model is n(k) ~ k^-beta at integer k, which the floored draws
of the sampler do not follow: on them it reads beta low.

fit_beta_likelihood measures beta under the model the sampler draws, a
power law on [C, U_d] truncated at each day's maximum and floored for
integer levels (Clauset, Shalizi & Newman 2009; Aban, Meerschaert &
Panorska 2006). Its one likelihood, _beta_loglik, is a days x beta-grid
matrix computed once. fit_beta_mle is the closed-form continuous
power-law maximum likelihood estimator for unbounded samples.

Confidence intervals are nonparametric percentile bootstraps over days
with replicate-indexed derived seeds: replicate r always consumes the
stream (seed, BOOTSTRAP, r), so the interval does not depend on evaluation
order. A resampled day set is a multiplicity vector over days, and both
bootstraps read the rows of one cached reps x days matrix W (Efron &
Tibshirani 1993, the resampling-vector form), so for one seed they
resample the same days.

Every line fit is built on one weighted least-squares core, _line_sums:
per row of a weight matrix, the weighted centroid and the centred sums
Sxx, Syy, Sxy. The TLS slope is the principal axis of those sums, the OLS
slope is Sxy/Sxx, and the adjusted R^2 of any slope through the centroid
follows from them as well. In both fits the point fit is row 0 of the
weight matrix, the row of ones, and the rows after it are the bootstrap
replicates. The TLS fit weighs each day by its multiplicity. The collapse
fit bins each day once into a day x bin matrix, forms every row's binned
cloud as a row of a product with the weights, and weighs each bin by
whether the row populates it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np

from . import seeding
from .errors import (DomainError, EstimationError, check_beta, check_cutoff,
                     check_integer)
from .ingest import DailySnapshot, _fmt

__all__ = [
    "TlsFit",
    "BetaFit",
    "RescaledHistogram",
    "fit_gamma_tls",
    "fit_gamma_ols",
    "rescale_histogram",
    "binned_cloud",
    "pool_and_fit_beta",
    "score_against_beta",
    "fit_beta_likelihood",
    "fit_beta_mle",
]

# The beta grid of the likelihood fit: 0.01 steps inside (1, 3).
_BETA_GRID = np.arange(101, 300) / 100.0


@dataclass(frozen=True)
class TlsFit:
    """A fitted log-log growth line F ~ P^slope."""

    slope: float
    intercept: float
    ci95_slope: tuple[float, float]
    adjusted_r2: float
    n_points: int

    def __post_init__(self) -> None:
        low, high = self.ci95_slope
        if not (low <= self.slope <= high):
            raise DomainError("ci95_slope must bracket the slope")
        if self.adjusted_r2 > 1.0 + 1e-12:
            raise DomainError("adjusted R^2 cannot exceed 1")
        if self.n_points < 3:
            raise DomainError("a line fit needs at least 3 points")


@dataclass(frozen=True)
class BetaFit:
    """A fitted activity exponent with its provenance."""

    beta: float
    ci95_beta: tuple[float, float]
    adjusted_r2: float
    method: str
    n_points_or_samples: int

    def __post_init__(self) -> None:
        if not self.beta > 1:
            raise DomainError(f"beta must exceed 1, got {self.beta}")
        low, high = self.ci95_beta
        if not (low <= self.beta <= high):
            raise DomainError("ci95_beta must bracket beta")


@dataclass(frozen=True, eq=False)
class RescaledHistogram:
    """One day's histogram in master-curve coordinates (f/f_max, n).

    Held as read-only float arrays of one length, copied on construction:
    rel, the relative activities f/f_max, and counts, the user count at
    each.
    """

    rel: np.ndarray
    counts: np.ndarray
    source_day: Hashable
    f_max: float

    def __post_init__(self) -> None:
        rel = np.array(self.rel, dtype=float)
        counts = np.array(self.counts, dtype=float)
        if rel.ndim != 1 or rel.shape != counts.shape:
            raise DomainError("rel and counts must be 1-D and of one length")
        if not len(rel):
            raise DomainError("a rescaled histogram needs at least one point")
        if not math.isclose(rel.max(), 1.0, rel_tol=1e-12):
            raise DomainError("the rescaled cutoff point must sit at 1.0")
        bad = ~((rel > 0.0) & (rel <= 1.0 + 1e-12))
        if bad.any():
            raise DomainError(f"relative activity {rel[bad][0]} outside (0, 1]")
        if not (counts > 0).all():
            raise DomainError(f"count {counts[~(counts > 0)][0]} must be positive")
        for name, array in (("rel", rel), ("counts", counts)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)


def _line_sums(x: np.ndarray, y: np.ndarray, weights: np.ndarray
               ) -> tuple[np.ndarray, ...]:
    """Weighted centroid and centred sums of the points (x, y), one set per
    row of weights: (mean_x, mean_y, Sxx, Syy, Sxy).

    Row w counts point i w_i times: the row of ones is the plain fit, a
    bootstrap replicate's row is its day multiplicities, and a weight of 0
    leaves a point out. y is one vector shared by every row, or a matrix
    with one row per weight row.
    """
    totals = weights.sum(axis=1)
    mean_x = (weights * x).sum(axis=1) / totals
    mean_y = (weights * y).sum(axis=1) / totals
    dx = x - mean_x[:, None]
    dy = y - mean_y[:, None]
    wdx = weights * dx
    return (mean_x, mean_y, (wdx * dx).sum(axis=1), (weights * dy * dy).sum(axis=1),
            (wdx * dy).sum(axis=1))


def _adjusted_r2(slope: float, sxx: float, syy: float, sxy: float, n: int) -> float:
    """1 - (1 - R^2)(n-1)/(n-2), R^2 from the vertical residuals of n points
    about the line of this slope through their centroid:
    ss_res = Syy - 2 slope Sxy + slope^2 Sxx, ss_tot = Syy."""
    slope, sxx, syy, sxy = float(slope), float(sxx), float(syy), float(sxy)
    ss_res = syy + slope * (slope * sxx - 2.0 * sxy)
    if syy == 0.0:
        r2 = 1.0 if ss_res == 0.0 else -math.inf
    else:
        r2 = 1.0 - ss_res / syy
    return 1.0 - (1.0 - r2) * (n - 1) / (n - 2)


def _percentile_ci(values: Sequence[float], center: float) -> tuple[float, float]:
    """The 2.5th and 97.5th percentiles of `values`, widened to hold `center`.

    They are np.percentile's default linear-method values, bit for bit:
    virtual index (n - 1) q, the top value from there on, and numpy's
    _lerp, which interpolates from the upper neighbour once the weight t
    reaches 1/2. Done here from one sort because np.percentile imports
    numpy.ma, which costs each bootstrapping command several milliseconds.
    """
    if len(values) == 0:
        return (center, center)
    ordered = np.sort(values).tolist()
    last = len(ordered) - 1
    bounds = []
    for q in (0.025, 0.975):
        virtual = last * q
        if virtual < last:
            below = math.floor(virtual)
            a, b = ordered[below], ordered[below + 1]
        else:  # numpy takes the top value, at index -1, for both neighbours
            below = -1
            a = b = ordered[-1]
        t = virtual - below
        diff = b - a
        bounds.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    low, high = bounds
    # The percentile interval brackets the point estimate in all but
    # pathological resamples; clamp so the fit types' invariant is total.
    return (min(low, center), max(high, center))


@functools.lru_cache(maxsize=1)
def _bootstrap_weights(n: int, reps: int, seed: int) -> np.ndarray:
    """Day multiplicities of each replicate: the reps x n matrix W.

    Row r counts how often each of n days is among n draws with
    replacement from the stream (seed, BOOTSTRAP, r) alone, so it does not
    depend on reps or on the order in which replicates are evaluated. The
    streams come from one seeding.generators pass. The last matrix is
    kept, read-only, because compare_prediction's two bootstraps ask for
    the same (n, reps, seed) back to back.
    """
    weights = np.empty((reps, n))
    rngs = seeding.generators(seed, seeding.STREAM_BOOTSTRAP, reps)
    for row, rng in zip(weights, rngs):
        row[:] = np.bincount(rng.integers(0, n, size=n), minlength=n)
    weights.flags.writeable = False
    return weights


def _as_log_pairs(series) -> tuple[np.ndarray, np.ndarray]:
    try:
        pairs = np.asarray(list(series), dtype=float)
        # An empty sequence is too short, not malformed.
        if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
            raise ValueError
    except (TypeError, ValueError):
        raise DomainError(
            "expected a sequence of (population, activity) pairs") from None
    if len(pairs) < 3:
        raise DomainError("need at least 3 days to fit a growth line")
    # Also true for nan, which no comparison admits.
    if not np.all((pairs >= 1.0) & (pairs < np.inf)):
        raise DomainError("all populations and activities must be finite and >= 1")
    x = np.log10(pairs[:, 0])
    if x.min() == x.max():
        raise DomainError(f"all {len(x)} days have population {_fmt(pairs[0, 0])};"
                          " a growth line needs two distinct populations")
    return x, np.log10(pairs[:, 1])


def fit_gamma_tls(series: Iterable[tuple[float, float]],
                  bootstrap_reps: int = 1000, seed: int = 0) -> TlsFit:
    """Total-least-squares growth exponent from per-day (P, F) pairs.

    The slope is base-invariant (any common rescaling of both log axes
    cancels) and symmetric: swapping the axes inverts it. The 95% CI is a
    percentile bootstrap over days, one weighted TLS per row of the day
    multiplicity matrix that pool_and_fit_beta reads too, stacked under
    the point fit's row of ones. A replicate whose drawn days share one
    population is skipped, as is one whose principal axis is vertical.
    bootstrap_reps=0 degrades the interval to the point estimate; a count
    that is not an integer >= 0 raises DomainError.
    """
    seed = seeding.check_seed(seed)
    bootstrap_reps = check_integer(bootstrap_reps, "bootstrap_reps", 0)
    x, y = _as_log_pairs(series)
    weights = np.ones((1, len(x)))
    if bootstrap_reps:
        replicates = _bootstrap_weights(len(x), bootstrap_reps, seed)
        # Exact: a mean of copies of one log P can miss it in the last bit.
        drawn = replicates > 0
        spread = np.where(drawn, x, -np.inf).max(1) > np.where(drawn, x, np.inf).min(1)
        weights = np.vstack([weights, replicates[spread]])
    mean_x, mean_y, sxx, syy, sxy = _line_sums(x, y, weights)
    # The principal axis: the eigenvector of the larger eigenvalue, which
    # shares the sign of Sxy; Sxy = 0 gives slope 0, or nan (a vertical
    # axis) where Syy > Sxx. Exactly recovers collinear input.
    rise = syy - sxx + np.hypot(syy - sxx, 2.0 * sxy)
    slopes = np.divide(rise, 2.0 * sxy, out=np.where(rise > 0, np.nan, 0.0),
                       where=sxy != 0)
    slope = float(slopes[0])
    if math.isnan(slope):
        raise DomainError("principal axis is vertical; slope undefined")
    rep_slopes = slopes[1:]
    return TlsFit(
        slope=slope,
        intercept=float(mean_y[0] - slope * mean_x[0]),
        ci95_slope=_percentile_ci(rep_slopes[~np.isnan(rep_slopes)], slope),
        adjusted_r2=_adjusted_r2(slope, sxx[0], syy[0], sxy[0], len(x)),
        n_points=len(x),
    )


def fit_gamma_ols(series: Iterable[tuple[float, float]]) -> tuple[float, float]:
    """Ordinary least squares on the same log-log pairs (slope, intercept).

    OLS takes log P as exact, which it is for a day's user count, so on
    growthlab's series it agrees with TLS. Only when both coordinates are
    noisy does OLS attenuate the slope toward zero while TLS does not.
    """
    x, y = _as_log_pairs(series)
    mean_x, mean_y, sxx, _, sxy = _line_sums(x, y, np.ones((1, len(x))))
    slope = float(sxy[0] / sxx[0])
    return slope, float(mean_y[0] - slope * mean_x[0])


def rescale_histogram(snapshot: DailySnapshot) -> RescaledHistogram:
    """Map a day's histogram n(f) onto master-curve coordinates.

    Divides every activity level by the day's own maximum, which is the
    realized stand-in for the cutoff; by construction the rightmost point
    lands at relative activity 1.0 with count >= 1.
    """
    f_max = snapshot.f_max
    return RescaledHistogram(snapshot.levels / f_max, snapshot.counts,
                             snapshot.day, f_max)


def _bin_indices(rel: np.ndarray, bins_per_decade: int) -> np.ndarray:
    """Log bin j of each relative activity: rel in (10^-(j+1)/b, 10^-j/b].

    j = floor(-log10(rel) * b), with log10 as math.log10 rounds it: np.log10
    can differ from it in the last bit, which moves a point that sits on a
    bin edge, so points within rounding of an edge are redone with math.
    """
    scaled = -np.log10(rel) * bins_per_decade
    edge = np.flatnonzero(np.abs(scaled - np.rint(scaled))
                          <= 1e-9 * np.maximum(1.0, np.abs(scaled)))
    scaled[edge] = [-math.log10(value) * bins_per_decade
                    for value in rel[edge].tolist()]
    return np.maximum(np.floor(scaled).astype(np.int64), 0)


def _day_bin_matrices(rescaled: Sequence[RescaledHistogram], bins_per_decade: int
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each day binned once: day x bin value and weight matrices (M, I), and
    each day's smallest relative activity.

    M holds the day's mean count in the bin and I is 1 where the day has a
    point there. For day multiplicities w, the binned cloud of the
    resampled days averages (w M) / (w I) over the bins where
    w I > 0; binned_cloud is the row w = 1. Raises DomainError unless
    bins_per_decade is an integer >= 1 and the days span a decade and
    populate at least 3 bins.
    """
    bins_per_decade = check_integer(bins_per_decade, "bins_per_decade", 1)
    if len(rescaled) == 0:
        raise DomainError("need at least one rescaled histogram")
    sizes = [len(hist.rel) for hist in rescaled]
    rel = np.concatenate([hist.rel for hist in rescaled])
    day_min_rel = np.minimum.reduceat(rel, np.cumsum(sizes) - sizes)
    if day_min_rel.min() > 0.1:
        raise DomainError(
            "pooled points span less than one decade of relative activity"
        )
    bins = _bin_indices(rel, bins_per_decade)
    n_bins = 1 + int(bins.max())
    cells = np.repeat(np.arange(len(rescaled)) * n_bins, sizes) + bins
    shape = (len(rescaled), n_bins)
    sums = np.bincount(cells, np.concatenate([hist.counts for hist in rescaled]),
                       minlength=shape[0] * n_bins).reshape(shape)
    points = np.bincount(cells, minlength=shape[0] * n_bins).reshape(shape)
    present = points > 0
    if np.count_nonzero(present.any(axis=0)) < 3:
        raise DomainError("fewer than 3 populated bins; cannot fit a slope")
    means = np.divide(sums, points, out=np.zeros_like(sums), where=present)
    return means, present.astype(float), day_min_rel


def binned_cloud(rescaled: Sequence[RescaledHistogram], bins_per_decade: int = 5
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Pool rescaled days and average counts in logarithmic bins.

    Bin j spans relative activity (10^-(j+1)/b, 10^-j/b] with geometric
    center 10^-(j+0.5)/b. Each bin value is the mean over contributing days
    of that day's own mean count, so every day carries equal weight.
    Returns (log10 centers, log10 mean counts) for the populated bins.
    """
    values, weights, _ = _day_bin_matrices(rescaled, bins_per_decade)
    totals = weights.sum(axis=0)
    populated = np.flatnonzero(totals > 0)
    return (-(populated + 0.5) / bins_per_decade,
            np.log10(values.sum(axis=0)[populated] / totals[populated]))


def pool_and_fit_beta(rescaled: Sequence[RescaledHistogram],
                      bins_per_decade: int = 5, bootstrap_reps: int = 1000,
                      seed: int = 0) -> BetaFit:
    """Activity exponent from the pooled, log-binned master curve.

    beta is minus the ordinary log-log slope of the binned cloud. The CI
    bootstraps whole days, since days, not points, are the independent
    units. A replicate is the vector w of day multiplicities, one row of
    the reps x days matrix W that fit_gamma_tls reads too. With the row of
    ones stacked on top of W and each day binned once into the day x bin
    matrices (M, I), every row's cloud is a row of (W M) / (W I) on its
    populated bins, and one OLS over the populated bins fits them all: row
    0, binned_cloud's cloud, is the point fit and the rest are replicates.
    A replicate is skipped, as binned_cloud would reject it, when none of
    its days spans a decade or it populates fewer than 3 bins; replicates
    with beta <= 1 are dropped. bootstrap_reps=0 degrades the interval to
    the point estimate; a count that is not an integer >= 0 raises
    DomainError. Pooling is idempotent under duplication of a day: per-day
    averaging makes ten copies of one day weigh exactly as the day itself.
    """
    seed = seeding.check_seed(seed)
    bootstrap_reps = check_integer(bootstrap_reps, "bootstrap_reps", 0)
    rescaled = list(rescaled)
    day_values, day_weights, day_min_rel = _day_bin_matrices(
        rescaled, bins_per_decade)
    n_days = len(rescaled)
    weights = np.vstack([np.ones((1, n_days)),
                         _bootstrap_weights(n_days, bootstrap_reps, seed)])
    sums = np.einsum("rd,db->rb", weights, day_values)
    totals = np.einsum("rd,db->rb", weights, day_weights)
    populated = totals > 0
    # A replicate spans a decade if one of its days does; row 0 always does.
    kept = (((weights * (day_min_rel <= 0.1)).sum(axis=1) > 0)
            & (populated.sum(axis=1) >= 3))
    mask = populated[kept]
    y = np.log10(np.divide(sums[kept], totals[kept],
                           out=np.ones(mask.shape), where=mask))
    centers = -(np.arange(mask.shape[1]) + 0.5) / bins_per_decade
    _, _, sxx, syy, sxy = _line_sums(centers, y, mask)
    betas = -sxy / sxx
    beta = float(betas[0])
    if not beta > 1:
        raise EstimationError(
            f"pooled cloud implies beta {beta:.4g} <= 1; data outside model class"
        )
    rep_betas = betas[1:]
    return BetaFit(
        beta=beta,
        ci95_beta=_percentile_ci(rep_betas[rep_betas > 1], beta),
        adjusted_r2=_adjusted_r2(-beta, sxx[0], syy[0], sxy[0], int(mask[0].sum())),
        method="collapse-regression",
        n_points_or_samples=sum(len(hist.rel) for hist in rescaled),
    )


def score_against_beta(rescaled: Sequence[RescaledHistogram], beta: float,
                       bins_per_decade: int = 5) -> float:
    """Adjusted R^2 of the pooled cloud against a FIXED slope -beta.

    The intercept is fitted through the centroid (the hypothesis pins the
    exponent, not the scale). Can be arbitrarily negative for a bad beta.
    """
    beta = check_beta(beta)
    centers, values = binned_cloud(rescaled, bins_per_decade)
    _, _, sxx, syy, sxy = _line_sums(centers, values, np.ones((1, len(centers))))
    return _adjusted_r2(-beta, sxx[0], syy[0], sxy[0], len(centers))


def _beta_loglik(snapshots: Sequence[DailySnapshot], c: float) -> np.ndarray:
    """The days x _BETA_GRID log-likelihood matrix of a power law with
    density ~ x^-b on [c, U_d], truncated at each day's sample maximum.

    A day with integer levels is read as floored draws, so level k has the
    probability (k^(1-b) - (k+1)^(1-b)) / (c^(1-b) - U_d^(1-b)), U_d the
    day's largest level plus 1. Its log numerator is evaluated once per
    distinct level of all such days and summed per day by one days x
    levels count-matrix product. A day with float levels has the
    continuous density (b-1) x^-b / (c^(1-b) - U_d^(1-b)), U_d its largest
    level, which needs only the day's user count, sum n log x and maximum.
    No level may lie below c.
    """
    a = 1.0 - _BETA_GRID
    integer = np.array([day.levels.dtype.kind in "iu" for day in snapshots])
    # U_d: the maximum, plus 1 for floored levels.
    upper = np.array([day.f_max for day in snapshots]) + integer
    users = np.array([day.population for day in snapshots], dtype=float)[:, None]
    loglik = np.zeros((len(snapshots), len(a)))
    # A float day whose every level is c has U_d = c: a point mass that no
    # b changes, so its row stays 0.
    spread = upper > c
    # log(c^a - U^a), kept to the last digits as b nears 1.
    loglik[spread] = -users[spread] * (
        a * math.log(c) + np.log(-np.expm1(np.log(upper[spread] / c)[:, None] * a)))
    rows = np.flatnonzero(integer)
    if len(rows):
        days = [snapshots[row] for row in rows]
        levels, column = np.unique(np.concatenate([day.levels for day in days]),
                                   return_inverse=True)
        counts = np.zeros((len(days), len(levels)))
        counts[np.repeat(np.arange(len(days)), [len(day.levels) for day in days]),
               column] = np.concatenate([day.counts for day in days])
        k = levels.astype(float)[:, None]
        # log(k^a - (k+1)^a), one row per distinct level.
        log_mass = a * np.log(k) + np.log(-np.expm1(a * np.log1p(1.0 / k)))
        loglik[rows] += np.einsum("dl,lb->db", counts, log_mass)
    rows = np.flatnonzero(~integer & spread)
    log_sums = np.array([(snapshots[row].counts * np.log(snapshots[row].levels)).sum()
                         for row in rows]).reshape(-1, 1)
    loglik[rows] += users[rows] * np.log(-a) + (a - 1.0) * log_sums
    return loglik


def fit_beta_likelihood(snapshots: Sequence[DailySnapshot]) -> BetaFit:
    """Activity exponent by maximum likelihood over all days at once.

    The model is the one the sampler draws: a power law ~ x^-beta on
    [c, U_d], floored for integer levels, with c the smallest level in the
    data and U_d each day's own truncation point read from its maximum
    (see _beta_loglik). The day likelihoods are summed on a grid of beta
    in (1, 3) at 0.01 steps; beta is the vertex of the parabola through
    the grid maximum and its two neighbours, and the 95% CI is the profile
    interval beta -+ 1.96 / sqrt(-L''), L'' the parabola's curvature. An
    empty list raises DomainError; a maximum on the edge of the grid,
    which a flat likelihood (every user at c) gives too, raises
    EstimationError.
    """
    snapshots = list(snapshots)
    if not snapshots:
        raise DomainError("need at least one day to fit beta")
    c = min(float(day.levels[0]) for day in snapshots)
    pooled = _beta_loglik(snapshots, c).sum(axis=0)
    peak = int(np.argmax(pooled))
    if not 0 < peak < len(_BETA_GRID) - 1:
        raise EstimationError(
            f"the likelihood peaks at the edge of the beta grid "
            f"[{_fmt(_BETA_GRID[0])}, {_fmt(_BETA_GRID[-1])}]")
    left, top, right = pooled[peak - 1:peak + 2]
    # Negative: the first maximum is above its left neighbour.
    bend = left - 2.0 * top + right
    step = _BETA_GRID[1] - _BETA_GRID[0]
    beta = float(_BETA_GRID[peak] + step * (left - right) / (2.0 * bend))
    half_width = float(1.96 * step / math.sqrt(-bend))
    return BetaFit(
        beta=beta,
        ci95_beta=(beta - half_width, beta + half_width),
        adjusted_r2=math.nan,
        method="likelihood",
        n_points_or_samples=sum(day.population for day in snapshots),
    )


def fit_beta_mle(samples: Iterable[float], x_min: float = 1.0) -> BetaFit:
    """Closed-form continuous power-law MLE: beta = 1 + n / sum ln(x/x_min).

    Valid for unbounded samples with density ~ x^(-beta) on [x_min, inf):
    continuous draws with no upper cutoff. Applied to truncated data it
    overestimates beta (the compressed tail mimics faster decay); for
    truncated or floored days use fit_beta_likelihood, whose model is
    truncated at each day's maximum. The 95% CI is the asymptotic normal
    interval with standard error (beta - 1)/sqrt(n). Samples all equal to
    x_min would push beta to infinity and raise EstimationError instead.
    """
    x = np.asarray(list(samples), dtype=float)
    if x.size < 2:
        raise DomainError("need at least 2 samples")
    x_min = check_cutoff(x_min, "x_min")
    if np.any(x < x_min):
        raise DomainError("all samples must be >= x_min")
    if not np.isfinite(x).all():
        raise DomainError("samples must be finite")
    log_sum = float(np.log(x / x_min).sum())
    if log_sum == 0.0:
        raise EstimationError("all samples equal x_min; beta estimate diverges")
    n = int(x.size)
    beta = 1.0 + n / log_sum
    half_width = 1.96 * (beta - 1.0) / math.sqrt(n)
    return BetaFit(
        beta=beta,
        ci95_beta=(beta - half_width, beta + half_width),
        adjusted_r2=math.nan,
        method="mle",
        n_points_or_samples=n,
    )
