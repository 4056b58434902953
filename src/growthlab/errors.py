"""Exception hierarchy shared across the package, and its integer check.

Every error raised on bad parameters or bad data derives from GrowthlabError,
so callers (and the command line front end) can separate "your input is wrong"
from genuine bugs.
"""

import numpy as np


class GrowthlabError(Exception):
    """Base class for all growthlab errors."""


class DomainError(GrowthlabError, ValueError):
    """A parameter lies outside the mathematical domain of an operation."""


class DataError(GrowthlabError, ValueError):
    """Input data is malformed or violates a format contract."""


class EstimationError(GrowthlabError, ValueError):
    """An estimator cannot produce a valid result from the given data."""


def check_integer(value, name: str, minimum: int | None = None) -> int:
    """`value` as an int if it is an int or numpy integer, not a bool, and
    at least `minimum` when one is given; else DomainError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")
    return int(value)
