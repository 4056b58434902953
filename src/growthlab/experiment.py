"""End-to-end numerical experiments on the growth law.

run_sweep is the Monte Carlo verification of gamma(beta): a grid of
(C, beta) cells, each synthesizing a multi-day series under the chosen
truncation protocol and fitting the growth exponent, exactly the
simulation that traces the theoretical curve gamma = 2/beta (beta < 2),
1 (beta >= 2) when coupled truncation is on and departs from it when it
is off. compare_prediction and collapse_check run the same measurement on
a single series: estimate beta from the daily histograms, map it through
the law, and confront the prediction with the directly fitted exponent.

Every cell derives its RNG streams from (seed, cell index) alone, so a
cell's result never depends on the cells run before it, nor on the
process it runs in. run_sweep therefore runs its cells on worker
processes, one per usable CPU, forked with os.fork: a worker inherits the
imported modules and the cell function instead of importing numpy again,
takes every W-th cell of the grid and sends its results back through a
pipe. There is no executor and no task queue. The output is the same
bytes as a serial run. Whether this process may fork is asked of os, so
neither importing the CLI nor running a sweep imports multiprocessing.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import seeding
from .errors import (DomainError, GrowthlabError, check_beta, check_cutoff,
                     check_integer, check_population_range)
from .estimators import (
    BetaFit,
    TlsFit,
    fit_gamma_tls,
    pool_and_fit_beta,
    score_against_beta,
)
from .ingest import DailySnapshot
from .sampler import (
    PROTOCOLS,
    SamplerConfig,
    SyntheticSeries,
    canonical_protocol,
    log_uniform_schedule,
    series_totals,
)
from .theory import gamma_of_beta

__all__ = [
    "SweepCell",
    "GrowthPrediction",
    "default_c_values",
    "default_beta_grid",
    "run_sweep",
    "compare_prediction",
    "collapse_check",
]


@dataclass(frozen=True)
class SweepCell:
    """One (C, beta) cell of a sweep: fitted vs theoretical exponent."""

    c: float
    beta: float
    gamma_fit: float
    fit_quality: float
    status: str
    message: str = ""

    def __post_init__(self) -> None:
        if self.status == "ok" and not math.isfinite(self.gamma_fit):
            raise DomainError("an ok cell must carry a finite gamma_fit")

    inverse_beta = property(lambda self: 1.0 / self.beta)
    gamma_theory = property(lambda self: gamma_of_beta(self.beta))


@dataclass(frozen=True)
class GrowthPrediction:
    """Collapse-measured beta mapped through the law, vs the direct fit.

    gamma_theory is gamma(beta_fit.beta); consistent says whether it lies
    inside the direct fit's 95% CI.
    """

    beta_fit: BetaFit
    gamma_fit: TlsFit

    gamma_theory = property(lambda self: gamma_of_beta(self.beta_fit.beta))

    @property
    def consistent(self) -> bool:
        low, high = self.gamma_fit.ci95_slope
        return low <= self.gamma_theory <= high


def default_c_values() -> list[float]:
    """Lower cutoffs 1..10, the span used for the reference sweep."""
    return [float(c) for c in range(1, 11)]


def default_beta_grid() -> list[float]:
    """40 betas uniform in 1/beta on [0.1, 1), i.e. beta in (1, 10].

    Uniform spacing in 1/beta matches the natural axis of the gamma curve,
    concentrating resolution where gamma varies.
    """
    inverse = np.linspace(0.1, 1.0, num=40, endpoint=False)
    return [float(1.0 / v) for v in inverse]


# fixed-truncation needs an upper cutoff, which no sweep cell sets.
_SWEEP_PROTOCOLS = tuple(p for p in PROTOCOLS if p != "fixed-truncation")


def _sweep_cell(index: int, c: float, beta: float, *, days_per_cell: int,
                population_range: tuple[float, float], protocol: str,
                seed: int) -> SweepCell:
    """Cell `index` of a sweep, drawn from the streams of (seed, index) alone.

    A GrowthlabError becomes a failed cell; any other exception propagates.
    """
    cell_seed = seeding.derive_seed(seed, seeding.STREAM_CELL, index)
    try:
        schedule = log_uniform_schedule(
            seeding.generator(cell_seed, seeding.STREAM_SCHEDULE),
            days_per_cell, population_range,
        )
        config = SamplerConfig(beta=beta, lower_cutoff=c, seed=cell_seed)
        totals = series_totals(schedule, config, protocol)
        fit = fit_gamma_tls(totals, bootstrap_reps=0)
    except GrowthlabError as exc:
        return SweepCell(c=c, beta=beta, gamma_fit=math.nan,
                         fit_quality=math.nan, status="failed",
                         message=str(exc))
    return SweepCell(c=c, beta=beta, gamma_fit=fit.slope,
                     fit_quality=fit.adjusted_r2, status="ok")


def _pool_workers(cells: int) -> int:
    """Worker processes for `cells` sweep cells, or 0 to run them here.

    One worker per CPU this process may run on, capped at `cells`. The
    cells run here when that leaves fewer than 2 workers, when the
    platform has no os.fork, or when this process is daemonic and so may
    not start children.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    workers = min(cpus, cells)
    if workers < 2:
        return 0
    # Only a process that multiprocessing started can be daemonic, and such
    # a process has imported it.
    multiprocessing = sys.modules.get("multiprocessing")
    if not hasattr(os, "fork") or (
            multiprocessing is not None and multiprocessing.current_process().daemon):
        return 0
    return workers


def _map_cells(fn, columns: Sequence[Sequence]) -> list:
    """fn(*row) for each row of zip(*columns), in order, from columns of
    equal length: on forked worker processes, or in this process when
    _pool_workers says so.

    Of W workers, worker w computes rows w, w + W, w + 2W, ..., so cheap
    and dear rows (a failed sweep cell draws nothing) spread evenly, and
    sends its list of results, or the exception fn raised, back through a
    pipe by pickle; so fn returns picklable results. Every pipe is read and
    every worker reaped before anything is raised here. Then, taking the
    workers in order, the first one that failed decides what is raised:
    the exception fn raised there, or BrokenProcessPool for a worker that
    ended without sending its results. No growthlab routine calls BLAS (@,
    np.dot, np.linalg, einsum with optimize): each forked worker would
    start its own BLAS thread pool, one thread per CPU.
    """
    rows = list(zip(*columns))
    workers = _pool_workers(len(rows))
    if not workers:
        return [fn(*row) for row in rows]
    # A worker would write out again whatever is still buffered here.
    sys.stdout.flush()
    sys.stderr.flush()
    children = []  # (pid, read end of its pipe), one per worker started
    try:
        for worker in range(workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _run_worker(fn, rows[worker::workers], write_fd,
                            [read_fd] + [pipe.fileno() for _, pipe in children])
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        payloads = [pipe.read() for _, pipe in children]
    finally:
        statuses = []
        for pid, pipe in children:
            pipe.close()
            statuses.append(os.waitpid(pid, 0)[1])
    ordered = [None] * len(rows)
    for worker, ((pid, _), status, payload) in enumerate(
            zip(children, statuses, payloads)):
        if status != 0:
            from concurrent.futures.process import BrokenProcessPool

            raise BrokenProcessPool(
                f"worker process {pid} ended with exit code "
                f"{os.waitstatus_to_exitcode(status)} before sending its results")
        outcome = pickle.loads(payload)
        if isinstance(outcome, Exception):
            raise outcome
        ordered[worker::workers] = outcome
    return ordered


def _run_worker(fn, rows, write_fd: int, other_fds: Sequence[int]):
    """The body of a forked _map_cells worker; it never returns.

    It leaves by os._exit, running none of the parent's exit handlers, with
    status 0 only once its results (or fn's exception) are all written.
    """
    status = 1
    try:
        for fd in other_fds:
            os.close(fd)
        try:
            outcome = [fn(*row) for row in rows]
        except Exception as exc:  # sent to the parent, which raises it
            outcome = exc
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(outcome, pipe)
        status = 0
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)


def run_sweep(c_values: Sequence[float] | None = None,
              beta_values: Sequence[float] | None = None,
              days_per_cell: int = 100,
              population_range: tuple[float, float] = (100.0, 10_000.0),
              protocol: str = "coupled-truncation",
              seed: int = 0) -> list[SweepCell]:
    """Fit the growth exponent over a (C, beta) grid of synthetic series.

    Each cell draws its own log-uniform population schedule, synthesizes
    days under `protocol` and fits gamma by TLS, with no bootstrap: a cell
    reports only the point fit and its adjusted R^2. `protocol` is
    coupled-truncation or unbounded, or its short name; the cells set no
    upper cutoff, so fixed-truncation raises DomainError before any cell
    runs. A cell that cannot be synthesized or fitted (e.g. cutoff
    collapsing below C at high beta and high C) is returned with status
    "failed" and the error message; it never aborts the sweep. Any other
    exception in a cell propagates. Cells are returned in grid order, C
    outer.

    The grid is checked here; the cells then run through _map_cells, on
    forked worker processes that take the cells in strides (worker w of W
    runs cells w, w + W, ...) or in this process, with equal results. A
    worker that dies raises BrokenProcessPool here.
    """
    protocol = canonical_protocol(protocol)
    if protocol not in _SWEEP_PROTOCOLS:
        raise DomainError(f"a sweep cannot use {protocol}, since its cells set no "
                          f"upper cutoff; expected one of {', '.join(_SWEEP_PROTOCOLS)}")
    seed = seeding.check_seed(seed)
    cs = list(default_c_values() if c_values is None else c_values)
    betas = list(default_beta_grid() if beta_values is None else beta_values)
    if not cs or not betas:
        raise DomainError("sweep grid must contain at least one C and one beta")
    betas = [check_beta(beta) for beta in betas]
    cs = [check_cutoff(c, "lower cutoff") for c in cs]
    days_per_cell = check_integer(days_per_cell, "days_per_cell")
    if days_per_cell < 10:
        raise DomainError(f"need at least 10 days per cell, got {days_per_cell}")
    low, high = check_population_range(population_range, 10)

    cell = functools.partial(
        _sweep_cell, days_per_cell=days_per_cell, population_range=(low, high),
        protocol=protocol, seed=seed)
    grid = [(c, beta) for c in cs for beta in betas]
    return _map_cells(cell, (range(len(grid)), *zip(*grid)))


def _snapshots(series) -> list[DailySnapshot]:
    if isinstance(series, SyntheticSeries):
        return list(series.days)
    return list(series)


def compare_prediction(series, bins_per_decade: int = 5,
                       bootstrap_reps: int = 1000, seed: int = 0) -> GrowthPrediction:
    """Does the heterogeneity-measured exponent predict the observed growth?

    Fits beta from the pooled rescaled histograms, maps it through
    gamma(beta), fits gamma directly from the (P, F) pairs, and flags
    consistency when the prediction falls inside the direct fit's 95% CI.
    """
    seed = seeding.check_seed(seed)
    snapshots = _snapshots(series)
    if len(snapshots) < 3:
        raise DomainError("need at least 3 days to compare growth against theory")
    _, beta_fit = collapse_check(snapshots, bins_per_decade=bins_per_decade,
                                 bootstrap_reps=bootstrap_reps, seed=seed)
    gamma_fit = fit_gamma_tls(
        [(s.population, s.total_activity) for s in snapshots],
        bootstrap_reps=bootstrap_reps, seed=seed,
    )
    return GrowthPrediction(beta_fit=beta_fit, gamma_fit=gamma_fit)


def collapse_check(series, beta_hypothesis: float | None = None,
                   bins_per_decade: int = 5, bootstrap_reps: int = 1000,
                   seed: int = 0) -> tuple[float, BetaFit]:
    """How well do the rescaled days collapse onto one master curve?

    Returns (quality, fit). Without a hypothesis, quality is the adjusted
    R^2 of the pooled fit itself. With one, quality scores the pooled cloud
    against the FIXED slope -beta_hypothesis (intercept through the
    centroid) while the freely fitted BetaFit is still returned alongside.
    """
    seed = seeding.check_seed(seed)
    beta_hypothesis = None if beta_hypothesis is None else check_beta(beta_hypothesis)
    snapshots = _snapshots(series)
    if len(snapshots) < 2:
        raise DomainError("need at least 2 days for a collapse check")
    fit = pool_and_fit_beta(
        snapshots, bins_per_decade=bins_per_decade,
        bootstrap_reps=bootstrap_reps, seed=seed,
    )
    if beta_hypothesis is None:
        return fit.adjusted_r2, fit
    return score_against_beta(snapshots, beta_hypothesis,
                              bins_per_decade=bins_per_decade), fit
