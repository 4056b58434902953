"""Exception hierarchy shared across the package, and its input checks.

Every error raised on bad parameters or bad data derives from GrowthlabError,
so callers (and the command line front end) can separate "your input is wrong"
from genuine bugs. Each input rule is decided here alone: the text of a
number, in a flag or a data cell, is printable ASCII without "_" that int()
or float() reads (read_number); a count is an int (check_integer), beta a
finite number above 1 (check_beta), a cutoff (C, U, f_max, x_min) or a
snapshot's P and F a finite number of at least 1 (check_cutoff), and a
population range finite with minimum <= low < high (check_population_range).
A number is an int, float or numpy number, never a bool; a value that breaks
its rule is a DomainError naming the argument.
"""

import math
import re

import numpy as np


class GrowthlabError(Exception):
    """Base class for all growthlab errors."""


class DomainError(GrowthlabError, ValueError):
    """A parameter lies outside the mathematical domain of an operation."""


class DataError(GrowthlabError, ValueError):
    """Input data is malformed or violates a format contract."""


class EstimationError(GrowthlabError, ValueError):
    """An estimator cannot produce a valid result from the given data."""


def check_integer(value, name: str, minimum: int | None = None,
                  maximum: int | None = None) -> int:
    """`value` as an int if it is an int or numpy integer, not a bool, at
    least `minimum` and at most `maximum` when they are given; else
    DomainError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise DomainError(f"{name} must be <= {maximum}, got {value}")
    return int(value)


# int() and float() alone also read "1_0" and digits of other scripts.
_NUMBER_TEXT = re.compile(r"\s*[!-^`-~]+\s*")  # printable ASCII but "_"


def read_number(text: str, kind: type = float):
    """kind(text), kind int or float, if text is printable ASCII but "_"
    within optional whitespace; else ValueError, as kind raises it too."""
    if not _NUMBER_TEXT.fullmatch(text):
        raise ValueError(text)
    return kind(text)


_NUMBER = (int, float, np.integer, np.floating)


def _as_float(value) -> float:
    """`value` as a float if it is a number, else nan; an int past floats is inf."""
    if isinstance(value, bool) or not isinstance(value, _NUMBER):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.inf


def check_beta(beta) -> float:
    """`beta` as a float if it is a number with 1 < beta < inf, else DomainError."""
    value = _as_float(beta)
    if not 1 < value < math.inf:  # also true for nan
        raise DomainError(f"beta must be finite and exceed 1, got {beta!r}")
    return value


def check_cutoff(value, name: str) -> float:
    """`value` as a float if it is a finite number >= 1, else DomainError."""
    cutoff = _as_float(value)
    if not cutoff >= 1:  # also true for nan
        raise DomainError(f"{name} must be >= 1, got {value!r}")
    if cutoff == math.inf:
        raise DomainError(f"{name} must be finite, got {value!r}")
    return cutoff


def check_population_range(bounds, minimum: float) -> tuple[float, float]:
    """`bounds` as floats if they are finite numbers with minimum <= low < high."""
    low, high = (_as_float(bound) for bound in bounds)
    if not (math.isfinite(low) and math.isfinite(high)):
        raise DomainError(
            f"population range bounds must be finite numbers, got {bounds}")
    if not minimum <= low < high:
        raise DomainError(
            f"population range must satisfy {minimum} <= low < high, got {bounds}")
    return low, high
