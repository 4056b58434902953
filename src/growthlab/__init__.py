"""growthlab: accelerating growth in heterogeneous user-activity systems.

Daily activity whose per-user distribution is a bounded power law with
exponent beta produces total activity that grows superlinearly with the
number of active users, F ~ P^gamma with gamma = 2/beta for 1 < beta < 2.
This package measures gamma from data (orthogonal log-log regression),
estimates beta from the collapse of rescaled daily distributions, generates
synthetic series under truncation protocols that obey or deliberately break
the law, and sweeps the (C, beta) plane to confront the fitted exponent
with the prediction.

Modules:

  theory       closed-form moments, gamma(beta), cutoffs
  ingest       event logs, daily snapshots, aggregation
  sampler      seeded synthetic day/series generators
  estimators   TLS/OLS growth fits, collapse and MLE beta fits
  experiment   Monte Carlo sweeps and theory-vs-fit comparisons
  svg          dependency-free figures
  cli          the `growthlab` command
"""

from .errors import DataError, DomainError, EstimationError, GrowthlabError
from .estimators import (
    BetaFit,
    RescaledHistogram,
    TlsFit,
    binned_cloud,
    fit_beta_mle,
    fit_gamma_ols,
    fit_gamma_tls,
    pool_and_fit_beta,
    rescale_histogram,
    score_against_beta,
)
from .experiment import (
    GrowthPrediction,
    SweepCell,
    collapse_check,
    compare_prediction,
    default_beta_grid,
    default_c_values,
    run_sweep,
)
from .ingest import (
    ActivityEvent,
    DailySnapshot,
    EventTable,
    aggregate,
    export_events_csv,
    load_events,
    parse_events,
    write_events_csv,
)
from .sampler import (
    PROTOCOLS,
    SamplerConfig,
    SyntheticSeries,
    canonical_protocol,
    day_totals,
    events_from_series,
    log_uniform_schedule,
    sample_activity,
    series_totals,
    synthesize_day,
    synthesize_series,
)
from .theory import (
    Exponents,
    MomentPair,
    approx_moments,
    cutoff_for_population,
    exact_moments,
    gamma_of_beta,
    iid_sum_exponent,
    theta_of_gamma,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "GrowthlabError",
    "DomainError",
    "DataError",
    "EstimationError",
    "Exponents",
    "MomentPair",
    "gamma_of_beta",
    "theta_of_gamma",
    "exact_moments",
    "approx_moments",
    "cutoff_for_population",
    "iid_sum_exponent",
    "ActivityEvent",
    "DailySnapshot",
    "EventTable",
    "parse_events",
    "load_events",
    "aggregate",
    "export_events_csv",
    "write_events_csv",
    "PROTOCOLS",
    "SamplerConfig",
    "SyntheticSeries",
    "sample_activity",
    "synthesize_day",
    "day_totals",
    "synthesize_series",
    "series_totals",
    "events_from_series",
    "log_uniform_schedule",
    "canonical_protocol",
    "TlsFit",
    "BetaFit",
    "RescaledHistogram",
    "fit_gamma_tls",
    "fit_gamma_ols",
    "rescale_histogram",
    "binned_cloud",
    "pool_and_fit_beta",
    "score_against_beta",
    "fit_beta_mle",
    "SweepCell",
    "GrowthPrediction",
    "default_c_values",
    "default_beta_grid",
    "run_sweep",
    "compare_prediction",
    "collapse_check",
]
