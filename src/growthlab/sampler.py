"""Synthetic generators for heavy-tailed daily activity.

Per-user daily activity is drawn from a power-law density
p(x) ~ x^(-beta) on [C, infinity) or, truncated, on [C, U] via the
inverse-CDF transform. A day is P iid draws; a series is a schedule of
days, each with its own derived RNG stream so that day k's data never
depends on how many days preceded it or on the order days are drawn in.
Consecutive days are drawn in runs of at most _RUN draws into one reused
float64 buffer, so a day's draws are a view of it, valid until the next
run is drawn.

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


# The most draws one day may have: numpy sizes an array in bytes, below
# np.intp's largest value, so one float64 array holds 2^60 - 1 of them.
_MAX_POPULATION = np.iinfo(np.intp).max // 8

# Draws per run: consecutive days of a schedule share one float64 buffer of
# this many values (256 KiB), which stays in cache; a whole cell does not.
_RUN = 1 << 15


def _scale_uniforms(beta: float, c: float, upper: float | None,
                    x: np.ndarray) -> None:
    """Scale the float64 uniforms x in place onto cutoff `upper`'s range."""
    if upper is not None:
        x *= 1.0 - (upper / c) ** (1.0 - beta)


def _activities(beta: float, c: float, x: np.ndarray) -> None:
    """Overwrite the scaled uniforms x with their activities, in place."""
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
    _scale_uniforms(config.beta, config.lower_cutoff, config.upper_cutoff, x)
    _activities(config.beta, config.lower_cutoff, x)
    if np.isscalar(u) or np.ndim(u) == 0:
        return float(x)
    return x


def _draw(rng: np.random.Generator, day_index: int, config: SamplerConfig,
          upper: float | None, x: np.ndarray) -> None:
    """Fill x with day `day_index`'s uniforms, scaled below cutoff `upper`.

    Every day the package draws passes through here once. `rng` must be at
    the start of the day's stream, seeding.generator(config.seed,
    STREAM_DAY, day_index) or the same stream from seeding.generators, so
    single days and series agree to the last bit. rng.random() lies in
    [0, 1), so u needs no range check. x is the day's slice of its run's
    buffer, where _draw_run finishes the inverse CDF.
    """
    rng.random(out=x)
    _scale_uniforms(config.beta, config.lower_cutoff, upper, x)


def _total(x: np.ndarray, config: SamplerConfig) -> tuple[np.ndarray, float]:
    """A day's activities x and their total F, checked.

    Each day is reduced once: the float sum is a bound on every draw, since
    a sum of positive terms is never below its largest one. Only a sum that
    is not finite (or reaches 2^63 for integerized draws) pays for x.max(),
    to tell an inf or oversized draw from a sum that merely overflows.
    Integerized draws come back as int64: draws are at least C >= 1, so the
    truncating cast is the floor, and their F is the exact integer sum.
    """
    total = float(np.add.reduce(x))
    if not total < (2.0**63 if config.integerize else math.inf):
        top = float(x.max())
        if top == math.inf:
            raise DomainError(
                f"an activity draw overflows to inf; beta {config.beta} is "
                f"too close to 1 for this cutoff"
            )
        if config.integerize and top >= 2.0**63:
            raise DomainError(
                f"an integerized activity draw {top:.6g} exceeds 2^63 - 1")
    if not config.integerize:
        return x, total
    x = x.astype(np.int64)
    # The float sum errs by far less than a factor 2, so below 2^62 no
    # partial int64 sum can wrap; past it Python ints sum exactly.
    if total < 2.0**62:
        return x, float(int(x.sum()))
    return x, float(sum(x.tolist()))


def _draw_run(days, rngs, config: SamplerConfig, buffer: np.ndarray):
    """(day_index, population, draws, total) for each day of a run, in order.

    `days` holds consecutive (day_index, population, upper) whose
    populations fit in buffer together; `rngs` yields their streams in
    turn. The rest of the inverse CDF, after _draw, has the same exponent
    and C for every day, so it runs once over the run: it is elementwise,
    so the bits are those of one day at a time. The days are then summed
    and checked in day order, so the first bad day raises what it raises
    alone, under its day's name, and no later day is returned. A day's
    draws are a view of buffer, valid until the next run is drawn. The
    caller has checked the populations and entered np.errstate(over="ignore").
    """
    end = 0
    for (day_index, population, upper), rng in zip(days, rngs):
        _draw(rng, day_index, config, upper, buffer[end:end + population])
        end += population
    _activities(config.beta, config.lower_cutoff, buffer[:end])
    end = 0
    for day_index, population, _ in days:
        x = buffer[end:end + population]
        end += population
        try:
            x, total = _total(x, config)
        except DomainError as exc:
            raise DomainError(f"day {day_index}: {exc}") from None
        yield day_index, population, x, total


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
    population = check_integer(population, "population", 1, _MAX_POPULATION)
    rng = seeding.generator(config.seed, seeding.STREAM_DAY, day_index)
    with np.errstate(over="ignore"):
        [(_, _, x, total)] = _draw_run([(day_index, population, config.upper_cutoff)],
                                       [rng], config, np.empty(population))
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


def _day_cutoff(config: SamplerConfig, protocol: str, population: int) -> float | None:
    """A day's upper cutoff under `protocol`, or None for unbounded."""
    if protocol == "coupled-truncation":
        cutoff = cutoff_for_population(float(population), config.beta)
        if cutoff <= config.lower_cutoff:
            raise DomainError(
                f"population {population} gives cutoff {cutoff:.6g} at or "
                f"below the lower cutoff {config.lower_cutoff}"
            )
        return cutoff
    if protocol == "fixed-truncation":
        return config.upper_cutoff
    # Unbounded overrides any configured cutoff.
    return None


def _schedule_draws(schedule: Sequence[int], config: SamplerConfig, protocol: str):
    """(day_index, population, draws, total) for each scheduled day, in order.

    Every day's population and cutoff are checked, in day order, before
    any day is drawn, so a schedule that fails on a late day draws nothing.
    The days' streams come from one seeding.generators pass, each used up
    before the next is taken. Consecutive days are drawn in runs of at most
    _RUN draws (a larger day is a run alone) by _draw_run, into one float64
    buffer that holds the largest run. So a day's continuous draws are a
    view of it, valid until the next run is drawn into it.
    """
    if len(schedule) == 0:
        raise DomainError("schedule must contain at least one day")
    if protocol == "fixed-truncation" and config.upper_cutoff is None:
        raise DomainError("fixed-truncation requires config.upper_cutoff")
    days = []
    for day_index, population in enumerate(schedule):
        try:
            population = check_integer(population, "population", 1,
                                       _MAX_POPULATION)
            upper = _day_cutoff(config, protocol, population)
        except DomainError as exc:
            raise DomainError(f"day {day_index}: {exc}") from None
        days.append((day_index, population, upper))
    sizes = [population for _, population, _ in days]
    buffer = np.empty(max(max(sizes), min(_RUN, sum(sizes))))
    rngs = seeding.generators(config.seed, seeding.STREAM_DAY, len(days))
    start = size = 0
    for stop, population in enumerate(sizes):
        if size and size + population > _RUN:
            yield from _draw_run(days[start:stop], rngs, config, buffer)
            start, size = stop, 0
        size += population
    yield from _draw_run(days[start:], rngs, config, buffer)


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
