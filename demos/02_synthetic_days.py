"""
Synthesizing days and collapsing their distributions
====================================================

Each synthetic day draws P activities from the bounded power law, with
the upper cutoff coupled to P. Rescaling every day's histogram by its
own f_max should then drop all days onto the single master curve
(f/f_max)^(-beta); fitting the pooled, log-binned cloud reads beta back
off the data. Run from anywhere; the figure lands in demo_output/ next
to this script.
"""

import pathlib

import numpy as np

from growthlab import (
    SamplerConfig,
    binned_cloud,
    collapse_check,
    fit_beta_likelihood,
    log_uniform_schedule,
    score_against_beta,
    seeding,
    synthesize_series,
)
from growthlab.svg import collapse_svg

BETA = 1.41
DAYS = 30

# One reproducible series: populations log-uniform over two decades,
# activities floored to integers as real event counts would be.
schedule = log_uniform_schedule(
    seeding.generator(0, seeding.STREAM_SCHEDULE), DAYS, (1e3, 1e5)
)
config = SamplerConfig(beta=BETA, lower_cutoff=3.0, integerize=True, seed=0)
series = synthesize_series(schedule, config, "coupled-truncation")

print(f"{DAYS} days at beta = {BETA}, lower cutoff 3")
print("day    P        F          f_max")
for snapshot in series.days[:5]:
    print(f"{snapshot.day:3d} {snapshot.population:8d}"
          f" {snapshot.total_activity:10.0f} {snapshot.f_max:8.0f}")
print("...")

# The cutoff itself grows with the day's population as P^(1/beta); a
# quick regression on the synthetic days recovers that coupling.
populations = np.array([s.population for s in series.days], dtype=float)
cutoffs = np.array([s.f_max for s in series.days])
slope = np.polyfit(np.log10(populations), np.log10(cutoffs), 1)[0]
print(f"\nf_max vs P slope: {slope:.3f} (coupling says 1/beta = {1 / BETA:.3f})")

# Collapse: rescale by f_max, pool, log-bin, fit. The quality is the
# adjusted R^2 of the pooled fit; near 1 means the days really do share
# one curve. Flooring activities to integers bends the lowest bins, so
# the point estimate sits a few hundredths below the generating beta (a
# bias of the data, shared by every day, hence invisible to the
# day-resampling interval; it shrinks with larger C and populations).
quality, fit = collapse_check(series, bootstrap_reps=400, seed=0)
low, high = fit.ci95_beta
print(f"\npooled collapse fit: beta = {fit.beta:.4f}"
      f" (95% CI [{low:.4f}, {high:.4f}], generating beta {BETA})")
print(f"collapse quality (adjusted R^2): {quality:.4f}")

# The likelihood fit models the floored draws themselves, each day's
# power law truncated at its own maximum, so the flooring bias of the
# collapse does not appear in it.
likelihood = fit_beta_likelihood(series.days)
low, high = likelihood.ci95_beta
print(f"likelihood fit:      beta = {likelihood.beta:.4f}"
      f" (95% CI [{low:.4f}, {high:.4f}])")

# Scoring against a hypothesis pins the slope instead of fitting it:
# the true exponent scores essentially as well as the free fit, a wrong
# one visibly worse. The collapse functions take the days as they are and
# rescale each by its own f_max.
for hypothesis in (BETA, BETA + 0.4):
    score = score_against_beta(series.days, hypothesis)
    print(f"score against fixed beta {hypothesis:.2f}: {score:.4f}")

# Draw the two-panel figure: raw daily histograms fanning out left,
# the rescaled cloud and its fitted line collapsing right.
out_dir = pathlib.Path(__file__).resolve().parent / "demo_output"
out_dir.mkdir(exist_ok=True)
figure = out_dir / "collapse.svg"
figure.write_text(collapse_svg(series.days, binned_cloud(series.days), fit.beta))
print(f"\nwrote {figure}")
