"""
Measuring the growth exponent: orthogonal and ordinary fits
==========================================================

gamma is the slope of log F against log P across days. P is an exact
count, in every event log and in the generator, and only F carries
sampling noise, so ordinary least squares, which takes the x side as
exact, is unbiased here: on coupled series it agrees with the orthogonal
(total least squares) fit that growthlab reports. This script measures
both on the same synthetic series, then shows where they part: with
noise on both coordinates OLS sags toward zero and TLS stays centered.
Finally it closes the loop: the beta estimated from the daily
distributions predicts gamma through the growth law, and the direct fit
confirms it.
"""

import numpy as np

from growthlab import (
    SamplerConfig,
    compare_prediction,
    fit_gamma_ols,
    fit_gamma_tls,
    gamma_of_beta,
    log_uniform_schedule,
    seeding,
    series_totals,
    synthesize_series,
)

BETA = 1.5
TRUE_GAMMA = gamma_of_beta(BETA)

# A hundred coupled-truncation days; continuous draws keep this purely
# about the regression, with no integer-rounding side effects.
schedule = log_uniform_schedule(
    seeding.generator(0, seeding.STREAM_SCHEDULE), 100, (1e3, 1e5)
)
config = SamplerConfig(beta=BETA, lower_cutoff=1.0, seed=0)
totals = series_totals(schedule, config, "coupled-truncation")

tls = fit_gamma_tls(totals, bootstrap_reps=1000, seed=0)
ols_slope, _ = fit_gamma_ols(totals)
low, high = tls.ci95_slope
print(f"true gamma 2/beta = {TRUE_GAMMA:.4f}")
print(f"orthogonal fit:    {tls.slope:.4f} (95% CI [{low:.4f}, {high:.4f}],"
      f" adj R^2 {tls.adjusted_r2:.5f})")
print(f"ordinary fit:      {ols_slope:.4f}")

# With an exact P both fits agree; they part ways only once the x
# coordinate is noisy, which a user count never is. Add symmetric
# log-space noise to an exact power law and watch OLS sag while TLS holds.
rng = np.random.default_rng(7)
log_p = np.linspace(2.0, 5.0, 60)
noisy = [
    (10.0 ** (lp + rng.normal(0.0, 0.12)),
     10.0 ** (TRUE_GAMMA * lp + rng.normal(0.0, 0.12)))
    for lp in log_p
]
print(f"\nsame exponent under two-sided log noise (truth {TRUE_GAMMA:.4f}):")
print(f"orthogonal fit:    {fit_gamma_tls(noisy, bootstrap_reps=0).slope:.4f}")
print(f"ordinary fit:      {fit_gamma_ols(noisy)[0]:.4f}")

# Full circle: estimate beta from the distributions alone, map it
# through the law, and ask whether the direct fit agrees. The consistent
# flag is exactly "prediction inside the fit's 95% interval".
config = SamplerConfig(beta=1.8, lower_cutoff=3.0, integerize=True, seed=2)
schedule = log_uniform_schedule(
    seeding.generator(2, seeding.STREAM_SCHEDULE), 10, (1e3, 1e5)
)
series = synthesize_series(schedule, config, "coupled-truncation")
prediction = compare_prediction(series, bootstrap_reps=400, seed=0)
print(f"\ndistribution-measured beta: {prediction.beta_fit.beta:.4f}")
print(f"predicted gamma 2/beta:     {prediction.gamma_theory:.4f}")
print(f"directly fitted gamma:      {prediction.gamma_fit.slope:.4f}")
print(f"prediction inside the fit interval: {prediction.consistent}")
