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

from . import estimators, experiment, ingest, sampler, theory
from .errors import DataError, DomainError, EstimationError, GrowthlabError
from .estimators import *  # noqa: F403
from .experiment import *  # noqa: F403
from .ingest import *  # noqa: F403
from .sampler import *  # noqa: F403
from .theory import *  # noqa: F403

__version__ = "0.1.0"

# Each module's __all__ is its one list of public names.
__all__ = [
    "__version__",
    "GrowthlabError",
    "DomainError",
    "DataError",
    "EstimationError",
    *theory.__all__,
    *ingest.__all__,
    *sampler.__all__,
    *estimators.__all__,
    *experiment.__all__,
]
