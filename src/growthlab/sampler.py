"""Synthetic generators for heavy-tailed daily activity.

Per-user daily activity is drawn from a power-law density
p(x) ~ x^(-beta) on [C, infinity) or, truncated, on [C, U] via the
inverse-CDF transform. A day is P iid draws; a series is a schedule of
days, each with its own derived RNG stream so that day k's data never
depends on how many days preceded it or on the order days are drawn in.

The essential modelling choice lives in synthesize_series' protocol:

* "coupled-truncation" (default): each day's upper cutoff is recomputed
  from that day's population via theory.cutoff_for_population. This is the
  mechanism that makes iid sampling respect the bounded-distribution
  growth law F ~ P^(2/beta).
* "fixed-truncation": one configured cutoff for every day.
* "unbounded": no cutoff; for beta < 2 the resulting growth exponent is
  the iid-sum value 1/(beta-1), NOT 2/beta, which is exactly the
  divergence the protocol switch exists to expose.

Continuous activities are the default (estimators see no binning
artifacts); integerize=True floors draws to int64 (draws are at least
C >= 1) for event-log round trips and histogram work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import seeding
from .errors import (DomainError, check_beta, check_cutoff, check_integer,
                     check_population_range)
from .ingest import DailySnapshot, EventTable
from .theory import cutoff_for_population

__all__ = [
    "SamplerConfig",
    "SyntheticSeries",
    "PROTOCOLS",
    "sample_activity",
    "synthesize_day",
    "synthesize_series",
    "series_totals",
    "events_from_series",
    "log_uniform_schedule",
    "canonical_protocol",
]

# Short protocol names; the CLI's --protocol takes exactly these.
_PROTOCOL_ALIASES = {"coupled": "coupled-truncation", "fixed": "fixed-truncation",
                     "unbounded": "unbounded"}

PROTOCOLS = tuple(_PROTOCOL_ALIASES.values())


@dataclass(frozen=True)
class SamplerConfig:
    """Parameters of the activity generator.

    beta > 1 is the power-law exponent, lower_cutoff (C), finite and >= 1,
    the smallest possible activity, upper_cutoff (U) an optional finite
    truncation point > C, seed the 64-bit base seed of every day stream.
    """

    beta: float
    lower_cutoff: float = 1.0
    upper_cutoff: float | None = None
    integerize: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", check_beta(self.beta))
        object.__setattr__(self, "lower_cutoff",
                           check_cutoff(self.lower_cutoff, "lower cutoff"))
        if self.upper_cutoff is not None:
            object.__setattr__(self, "upper_cutoff",
                               check_cutoff(self.upper_cutoff, "upper cutoff"))
            if not self.upper_cutoff > self.lower_cutoff:
                raise DomainError(f"upper cutoff {self.upper_cutoff} must exceed "
                                  f"lower cutoff {self.lower_cutoff}")
        object.__setattr__(self, "seed", seeding.check_seed(self.seed))


@dataclass(frozen=True)
class SyntheticSeries:
    """A generated multi-day series plus everything needed to regenerate it."""

    days: tuple[DailySnapshot, ...]
    generator_config: SamplerConfig
    protocol: str = "coupled-truncation"

    population_schedule = property(
        lambda self: tuple(day.population for day in self.days))


def _inverse_cdf(beta: float, c: float, upper: float | None, x: np.ndarray) -> None:
    """Overwrite the float64 uniforms x with their activities, in place."""
    if upper is not None:
        x *= 1.0 - (upper / c) ** (1.0 - beta)
    np.subtract(1.0, x, out=x)
    np.power(x, -1.0 / (beta - 1.0), out=x)
    x *= c


def sample_activity(config: SamplerConfig, u):
    """Map uniform u in [0, 1) to an activity via the inverse CDF.

    Unbounded:  x = C (1-u)^(-1/(beta-1))
    Truncated:  x = C (1 - u (1 - (U/C)^(1-beta)))^(-1/(beta-1))

    Strictly increasing in u, with x(0) = C and x(u -> 1) -> U (or infinity
    when unbounded). Accepts scalars or arrays and returns the same shape;
    an array u is left unchanged.
    """
    x = np.array(u, dtype=float)
    if np.any(~((x >= 0.0) & (x < 1.0))):  # also true for nan
        raise DomainError("u must lie in [0, 1)")
    _inverse_cdf(config.beta, config.lower_cutoff, config.upper_cutoff, x)
    if np.isscalar(u) or np.ndim(u) == 0:
        return float(x)
    return x


def _draw(rng: np.random.Generator, day_index: int, population: int,
          config: SamplerConfig, upper: float | None,
          buffer: np.ndarray) -> tuple[np.ndarray, float]:
    """The one draw pipeline: day `day_index`'s activities below cutoff `upper`
    and their total F.

    Snapshots and totals, single days and whole series all run through
    here. `rng` must be positioned at the start of the day's stream:
    seeding.generator(config.seed, STREAM_DAY, day_index) for a single day,
    or the same stream from seeding.generators for a whole schedule. So
    they agree to the last bit. The caller has checked the population and
    entered np.errstate(over="ignore"), once per public call rather than
    once per day. rng.random() lies in [0, 1), so u needs no range check.

    The draws are made in buffer[:population], a float64 buffer the caller
    owns and reuses from day to day, and the inverse CDF is applied there in
    place. So continuous draws come back as a view of that buffer: use them
    before the next day is drawn into it, as seeding.generators says of its
    generator.

    Each day is reduced once: the float sum is a bound on every draw, since
    a sum of positive terms is never below its largest one. Only a sum that
    is not finite (or reaches 2^63 for integerized draws) pays for x.max(),
    to tell an inf or oversized draw from a sum that merely overflows.
    Integerized draws come back as int64: draws are at least C >= 1, so the
    truncating cast is the floor, and their F is the exact integer sum.
    """
    x = buffer[:population]
    rng.random(out=x)
    _inverse_cdf(config.beta, config.lower_cutoff, upper, x)
    total = float(np.add.reduce(x))
    if not total < (2.0**63 if config.integerize else math.inf):
        top = float(x.max())
        if top == math.inf:
            raise DomainError(
                f"day {day_index}: an activity draw overflows to inf; beta "
                f"{config.beta} is too close to 1 for this cutoff"
            )
        if config.integerize and top >= 2.0**63:
            raise DomainError(
                f"day {day_index}: an integerized activity draw {top:.6g} "
                f"exceeds 2^63 - 1"
            )
    if not config.integerize:
        return x, total
    x = x.astype(np.int64)
    # The float sum errs by far less than a factor 2, so below 2^62 no
    # partial int64 sum can wrap; past it Python ints sum exactly.
    if total < 2.0**62:
        return x, float(int(x.sum()))
    return x, float(sum(x.tolist()))


def _snapshot(day_index: int, x: np.ndarray, total: float) -> DailySnapshot:
    levels, counts = np.unique(x, return_counts=True)
    return DailySnapshot(day=day_index, total_activity=total,
                         levels=levels, counts=counts)


def synthesize_day(day_index: int, population: int,
                   config: SamplerConfig) -> DailySnapshot:
    """Generate one day's snapshot: P draws, summed and histogrammed.

    The RNG stream is derived from (config.seed, day_index), so equal
    (day_index, population, config) always reproduce the same snapshot
    regardless of call order.
    """
    day_index = check_integer(day_index, "day_index")
    population = check_integer(population, "population", 1)
    rng = seeding.generator(config.seed, seeding.STREAM_DAY, day_index)
    with np.errstate(over="ignore"):
        x, total = _draw(rng, day_index, population, config, config.upper_cutoff,
                         np.empty(population))
    return _snapshot(day_index, x, total)


def log_uniform_schedule(rng: np.random.Generator, days: int,
                         population_range: tuple[float, float]) -> list[int]:
    """Daily populations drawn log-uniformly over population_range.

    Log-uniform spacing gives the fitted growth exponent even leverage per
    decade instead of letting the largest days dominate the regression.
    """
    days = check_integer(days, "days", 1)
    low, high = check_population_range(population_range, 1)
    exponents = rng.uniform(math.log10(low), math.log10(high), size=days)
    # Python floats round like numpy scalars (libm pow, half to even), faster.
    return [max(1, round(10.0**e)) for e in exponents.tolist()]


def canonical_protocol(name: str) -> str:
    if name in PROTOCOLS:
        return name
    try:
        return _PROTOCOL_ALIASES[name]
    except KeyError:
        raise DomainError(
            f"unknown protocol {name!r}; expected one of {', '.join(PROTOCOLS)}"
        ) from None


def _day_cutoff(config: SamplerConfig, protocol: str, day_index: int,
                population: int) -> float | None:
    """Day `day_index`'s upper cutoff under `protocol`; None is unbounded."""
    if protocol == "coupled-truncation":
        try:
            cutoff = cutoff_for_population(float(population), config.beta)
        except DomainError as exc:
            raise DomainError(f"day {day_index}: {exc}") from None
        if cutoff <= config.lower_cutoff:
            raise DomainError(
                f"day {day_index}: population {population} gives cutoff "
                f"{cutoff:.6g} at or below the lower cutoff {config.lower_cutoff}"
            )
        return cutoff
    if protocol == "fixed-truncation":
        if config.upper_cutoff is None:
            raise DomainError("fixed-truncation requires config.upper_cutoff")
        return config.upper_cutoff
    # Unbounded overrides any configured cutoff.
    return None


def _schedule_draws(schedule: Sequence[int], config: SamplerConfig, protocol: str):
    """(day_index, population, draws, total) for each scheduled day, in order.

    Every day's population and cutoff are checked, in day order, before
    any day is drawn, so a schedule that fails on a late day draws nothing.
    The days' streams come from one seeding.generators pass, each used up
    before the next is taken. Every day is drawn into one float64 buffer
    sized to the largest population, so a day's continuous draws are a view
    of it: use them before taking the next day, which overwrites them.
    """
    if len(schedule) == 0:
        raise DomainError("schedule must contain at least one day")
    days = []
    for day_index, population in enumerate(schedule):
        population = check_integer(population, f"day {day_index}: population", 1)
        days.append((population, _day_cutoff(config, protocol, day_index, population)))
    buffer = np.empty(max(population for population, _ in days))
    rngs = seeding.generators(config.seed, seeding.STREAM_DAY, len(days))
    for day_index, ((population, upper), rng) in enumerate(zip(days, rngs)):
        yield (day_index, population,
               *_draw(rng, day_index, population, config, upper, buffer))


def synthesize_series(schedule: Sequence[int], config: SamplerConfig,
                      protocol: str = "coupled-truncation") -> SyntheticSeries:
    """Generate a full series: one snapshot per scheduled population.

    Day k uses the stream derived from (config.seed, k), so the series is a
    pure function of (schedule, config, protocol). synthesize_day redraws
    day k alone from a config holding that day's cutoff: for
    coupled-truncation, upper_cutoff=cutoff_for_population(P_k, beta).
    """
    protocol = canonical_protocol(protocol)
    with np.errstate(over="ignore"):
        snapshots = tuple(
            _snapshot(day_index, x, total)
            for day_index, _, x, total in _schedule_draws(schedule, config, protocol)
        )
    return SyntheticSeries(days=snapshots, generator_config=config,
                           protocol=protocol)


def series_totals(schedule: Sequence[int], config: SamplerConfig,
                  protocol: str = "coupled-truncation") -> list[tuple[int, float]]:
    """Per-day (P, F) pairs for a whole schedule via the lean totals path."""
    protocol = canonical_protocol(protocol)
    with np.errstate(over="ignore"):
        return [
            (population, total)
            for _, population, _, total in _schedule_draws(schedule, config, protocol)
        ]


def events_from_series(series: SyntheticSeries) -> EventTable:
    """Flatten a generated (integerized) series into an event table.

    Each day's users are u000000, u000001, ... in ascending order of
    activity; ids repeat across days by design (each day is a fresh
    population draw). Raises unless the series was generated with
    integerize=True, because event counts are integers.
    """
    if not series.generator_config.integerize:
        raise DomainError("events require an integerized series")
    if not series.days:
        return EventTable((), (), (), (), ())
    days: dict = {}
    codes = [days.setdefault(snapshot.day, len(days)) for snapshot in series.days]
    sizes = [snapshot.population for snapshot in series.days]
    user_codes = np.arange(sum(sizes))
    user_codes -= np.repeat(np.cumsum(sizes) - sizes, sizes)
    return EventTable(
        days, [f"u{index:06d}" for index in range(max(sizes))],
        day_codes=np.repeat(codes, sizes), user_codes=user_codes,
        counts=np.repeat(np.concatenate([s.levels for s in series.days]),
                         np.concatenate([s.counts for s in series.days])),
    )
