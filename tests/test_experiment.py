"""Tests for the sweep driver and single-series consistency checks."""

import ast
import math
import multiprocessing
import os
import re
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from growthlab import (
    BetaFit,
    DailySnapshot,
    GrowthPrediction,
    SamplerConfig,
    SweepCell,
    TlsFit,
    collapse_check,
    compare_prediction,
    fit_beta_likelihood,
    fit_gamma_tls,
    log_uniform_schedule,
    pool_and_fit_beta,
    rescale_histogram,
    run_sweep,
    seeding,
    series_totals,
    synthesize_series,
)
from growthlab import estimators, experiment
from growthlab.errors import DomainError, EstimationError


def _coupled_series(beta, lower_cutoff, days, population_range, seed):
    schedule = log_uniform_schedule(
        seeding.generator(seed, seeding.STREAM_SCHEDULE), days, population_range
    )
    config = SamplerConfig(
        beta=beta, lower_cutoff=lower_cutoff, integerize=True, seed=seed
    )
    return synthesize_series(schedule, config, "coupled-truncation")


def _fixed_series(beta, seed, days, population=50_000, upper_cutoff=500.0):
    config = SamplerConfig(
        beta=beta, upper_cutoff=upper_cutoff, integerize=True, seed=seed
    )
    return synthesize_series([population] * days, config, "fixed-truncation")


def _shifted(snapshot, offset):
    """Relabel a snapshot's day, e.g. to pool two series without clashes."""
    return DailySnapshot(
        day=snapshot.day + offset,
        total_activity=snapshot.total_activity,
        levels=snapshot.levels,
        counts=snapshot.counts,
    )


@pytest.fixture(scope="module")
def default_sweep():
    return run_sweep()


class TestRunSweep:
    def test_default_grid_covers_400_cells_in_c_major_order(self, default_sweep):
        assert len(default_sweep) == 400
        assert default_sweep[0].c == 1.0 and default_sweep[39].c == 1.0
        assert default_sweep[40].c == 2.0
        betas = [cell.beta for cell in default_sweep[:40]]
        assert betas == sorted(betas, reverse=True)

    def test_failed_cells_are_flagged_rows_not_errors(self, default_sweep):
        by_status = {"ok": 0, "failed": 0}
        for cell in default_sweep:
            by_status[cell.status] += 1
            if cell.status == "ok":
                assert math.isfinite(cell.gamma_fit)
                assert math.isfinite(cell.fit_quality)
                assert cell.message == ""
            else:
                assert math.isnan(cell.gamma_fit)
                assert math.isnan(cell.fit_quality)
                assert "lower cutoff" in cell.message
        assert by_status == {"ok": 287, "failed": 113}

    def test_theory_column_matches_the_law(self, default_sweep):
        for cell in default_sweep:
            expected = 2.0 / cell.beta if cell.beta < 2.0 else 1.0
            assert cell.gamma_theory == pytest.approx(expected, rel=1e-12)
            assert cell.inverse_beta == pytest.approx(1.0 / cell.beta, rel=1e-12)

    def test_medians_track_the_inverse_beta_curve(self):
        cells = run_sweep(
            c_values=(1.0, 2.0, 3.0),
            beta_values=(1.2, 1.4, 1.6, 1.8),
            days_per_cell=60,
            population_range=(1e3, 1e4),
            seed=0,
        )
        assert all(cell.status == "ok" for cell in cells)
        medians = [
            float(np.median([c.gamma_fit for c in cells if c.beta == beta]))
            for beta in (1.2, 1.4, 1.6, 1.8)
        ]
        assert all(a > b for a, b in zip(medians, medians[1:]))
        for beta, median in zip((1.2, 1.4, 1.6, 1.8), medians):
            assert abs(median - 2.0 / beta) < 0.10

    def test_plateau_betas_fit_near_one(self):
        cells = run_sweep(
            c_values=(1.0, 2.0, 3.0),
            beta_values=(2.5, 3.0, 5.0, 8.0),
            days_per_cell=60,
            population_range=(1e3, 1e4),
            seed=0,
        )
        assert all(cell.status == "ok" for cell in cells)
        assert all(cell.gamma_theory == 1.0 for cell in cells)
        assert all(0.9 < cell.gamma_fit < 1.1 for cell in cells)

    def test_unbounded_protocol_departs_from_the_coupled_law(self):
        kwargs = dict(
            c_values=(1.0,),
            beta_values=(1.5,),
            days_per_cell=60,
            population_range=(1e3, 1e5),
            seed=0,
        )
        coupled = run_sweep(protocol="coupled-truncation", **kwargs)[0]
        unbounded = run_sweep(protocol="unbounded", **kwargs)[0]
        assert abs(coupled.gamma_fit - 4.0 / 3.0) < 0.05
        assert unbounded.gamma_fit > 1.6

    def test_grid_and_schedule_validation(self):
        with pytest.raises(DomainError, match="at least one"):
            run_sweep(c_values=(), beta_values=(1.5,))
        with pytest.raises(DomainError, match="10 days"):
            run_sweep(c_values=(1.0,), beta_values=(1.5,), days_per_cell=5)
        with pytest.raises(DomainError, match="population range"):
            run_sweep(
                c_values=(1.0,), beta_values=(1.5,), population_range=(5.0, 100.0)
            )
        for population_range in [(100.0, math.inf), (100, 10**400)]:
            with pytest.raises(DomainError,
                               match=r"^population range bounds must be finite"):
                run_sweep(c_values=(1.0,), beta_values=(1.5,),
                          population_range=population_range)
        # A failing cell becomes a row, not an error: this raise is the grid check.
        for c in (0.5, math.nan):
            with pytest.raises(DomainError, match=f"lower cutoff must be >= 1, got {c}"):
                run_sweep(c_values=(1.0, c), beta_values=(1.5,))

    def test_a_beta_past_the_float_range_of_its_cutoff_fails_its_cell(self):
        # At beta 1e308, (beta - 1) P overflows; the cutoff still comes out
        # as 1, at the lower cutoff, so the cell fails as beta 1e300's does.
        [high], [low] = (run_sweep(c_values=[1], beta_values=[beta])
                         for beta in (1e308, 1e300))
        assert (high.status, low.status) == ("failed", "failed")
        assert high.message == low.message
        assert re.match(r"^day 0: population \d+ gives cutoff 1 at or below "
                        r"the lower cutoff 1\.0$", high.message)

    def test_a_day_no_array_can_hold_fails_its_cell(self):
        # Every day of this range is past 2^60 - 1 draws, so the cell is
        # refused before any draw is made.
        [cell] = run_sweep(c_values=[1], beta_values=[1.5], days_per_cell=10,
                           population_range=(10**19, 10**23))
        assert cell.status == "failed"
        assert re.match(rf"^day 0: population must be <= {2**60 - 1}, got \d+$",
                        cell.message)

    def test_grid_rejects_an_infinite_lower_cutoff(self):
        with pytest.raises(DomainError, match="^lower cutoff must be finite, got inf$"):
            run_sweep(c_values=(1.0, math.inf), beta_values=(1.5,))

    @pytest.mark.parametrize("days", [12.5, True, "12"])
    def test_non_integer_days_per_cell_are_rejected(self, days):
        with pytest.raises(DomainError, match=re.escape(
                f"days_per_cell must be an integer, got {days!r}")):
            run_sweep(c_values=[1], beta_values=[1.5], days_per_cell=days)

    def test_cell_type_invariants(self):
        with pytest.raises(DomainError, match="finite"):
            SweepCell(
                c=1.0,
                beta=2.0,
                gamma_fit=math.nan,
                fit_quality=0.99,
                status="ok",
            )


def _usable_cpus(monkeypatch, count):
    """Make _map_cells see `count` usable CPUs: 1 runs its rows here, more
    start a pool of that many workers (capped at the row count)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def _raise_naming_the_process(*args):
    raise RuntimeError(f"raised in process {os.getpid()}")


def _row_and_process(*row):
    return row, os.getpid()


def _exit_at_row_two(index):
    if index == 2:
        os._exit(3)
    return index


def _raise_at_row_zero_or_mark(index, directory):
    """Row 0 raises at once; every other row writes its mark after a pause."""
    if index == 0:
        raise RuntimeError("row 0 failed")
    time.sleep(0.2)
    (directory / str(index)).write_text("")
    return index


def _assert_no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _process_rows(rows):
    """_map_cells over `rows` of _row_and_process: (rows back, process ids)."""
    results = experiment._map_cells(_row_and_process, (range(rows), "x" * rows))
    return [row for row, _ in results], {pid for _, pid in results}


FORK = "fork" in multiprocessing.get_all_start_methods()

# C = 8 fails at beta 6 (cutoff below C) and fits at beta 1.3.
SMALL_GRID = dict(c_values=(1.0, 8.0), beta_values=(1.3, 2.5, 6.0),
                  days_per_cell=20, population_range=(100.0, 10_000.0), seed=3)


def _likelihood_fit(seed):
    """fit_beta_likelihood's (beta, CI) on a 30-day series, floored on odd
    seeds and continuous on even ones."""
    schedule = log_uniform_schedule(
        seeding.generator(seed, seeding.STREAM_SCHEDULE), 30, (1e3, 3e4))
    config = SamplerConfig(beta=1.5, integerize=seed % 2 == 1, seed=seed)
    fit = fit_beta_likelihood(synthesize_series(schedule, config).days)
    return fit.beta, fit.ci95_beta


class TestSweepPool:
    @pytest.mark.parametrize("protocol", ["coupled-truncation", "unbounded"])
    def test_pooled_cells_equal_serial_cells(self, monkeypatch, protocol):
        _usable_cpus(monkeypatch, 1)
        serial = run_sweep(protocol=protocol, **SMALL_GRID)
        _usable_cpus(monkeypatch, 4)
        pooled = run_sweep(protocol=protocol, **SMALL_GRID)
        # repr compares failed cells too, whose nan fields never compare equal.
        assert repr(pooled) == repr(serial)
        if protocol == "coupled-truncation":
            assert {cell.status for cell in serial} == {"ok", "failed"}

    def test_pooled_likelihood_fits_equal_serial_fits(self, monkeypatch):
        _usable_cpus(monkeypatch, 1)
        serial = experiment._map_cells(_likelihood_fit, (range(6),))
        _usable_cpus(monkeypatch, 2)
        pooled = experiment._map_cells(_likelihood_fit, (range(6),))
        assert repr(pooled) == repr(serial)

    @pytest.mark.parametrize("protocol", ["fixed-truncation", "fixed"])
    def test_fixed_protocol_raises_before_any_cell_runs(self, monkeypatch,
                                                        protocol):
        # Any cell that ran would raise RuntimeError instead.
        monkeypatch.setattr(experiment, "series_totals", _raise_naming_the_process)
        _usable_cpus(monkeypatch, 2)
        with pytest.raises(DomainError, match="^a sweep cannot use fixed-truncation, "
                           "since its cells set no upper cutoff; expected one of "
                           "coupled-truncation, unbounded$"):
            run_sweep(protocol=protocol, **SMALL_GRID)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_rows_come_back_in_order(self, monkeypatch, cpus):
        # 37 rows make uneven chunks for 2 or 3 workers.
        _usable_cpus(monkeypatch, cpus)
        rows, pids = _process_rows(37)
        assert rows == [(index, "x") for index in range(37)]
        assert (pids == {os.getpid()}) == (cpus == 1 or not FORK)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_other_errors_propagate_from_a_cell(self, monkeypatch, cpus):
        _usable_cpus(monkeypatch, cpus)
        with pytest.raises(RuntimeError, match="raised in process") as raised:
            experiment._map_cells(_raise_naming_the_process, (range(6),))
        in_this_process = str(raised.value) == f"raised in process {os.getpid()}"
        assert in_this_process == (cpus == 1 or not FORK)

    @pytest.mark.skipif(not FORK, reason="needs the fork start method")
    def test_a_worker_that_dies_raises_broken_process_pool(self, monkeypatch):
        _usable_cpus(monkeypatch, 2)
        with pytest.raises(BrokenProcessPool, match="exit code 3"):
            experiment._map_cells(_exit_at_row_two, (range(6),))
        _assert_no_child_is_left()

    @pytest.mark.skipif(not FORK, reason="needs the fork start method")
    def test_an_exception_is_raised_after_every_worker_ends(self, monkeypatch,
                                                             tmp_path):
        # Worker 0 raises on its first row; worker 1 (rows 1, 3, 5) is still
        # working then, and finishes before the exception reaches here.
        _usable_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="^row 0 failed$"):
            experiment._map_cells(_raise_at_row_zero_or_mark,
                                  (range(6), [tmp_path] * 6))
        assert sorted(path.name for path in tmp_path.iterdir()) == ["1", "3", "5"]
        _assert_no_child_is_left()

    def test_no_fork_runs_the_cells_here(self, monkeypatch):
        monkeypatch.delattr(os, "fork", raising=False)
        _usable_cpus(monkeypatch, 2)
        assert experiment._pool_workers(6) == 0
        with pytest.raises(RuntimeError, match=f"^raised in process {os.getpid()}$"):
            experiment._map_cells(_raise_naming_the_process, (range(6),))

    @pytest.mark.skipif(not FORK, reason="needs the fork start method")
    def test_a_daemonic_caller_runs_the_cells_itself(self, monkeypatch):
        # A multiprocessing.Pool worker is daemonic and may not start children.
        _usable_cpus(monkeypatch, 2)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            nested = pool.apply_async(_process_rows, (6,)).get(timeout=120)
            worker = pool.apply_async(os.getpid).get(timeout=120)
        assert nested == ([(index, "x") for index in range(6)], {worker})

    def test_workers_follow_the_usable_cpus_capped_at_the_cells(self, monkeypatch):
        _usable_cpus(monkeypatch, 3)
        assert [experiment._pool_workers(n) for n in (1, 2, 3, 400)] == \
            ([0, 2, 3, 3] if FORK else [0, 0, 0, 0])
        if FORK:
            # Two rows get at most two workers, and none of them is this process.
            _, pids = _process_rows(2)
            assert len(pids) <= 2 and os.getpid() not in pids
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert experiment._pool_workers(400) == 0
        assert _process_rows(3)[1] == {os.getpid()}


_BLAS_FUNCTIONS = {"dot", "matmul", "inner", "vdot", "tensordot"}


def _blas_sites(source):
    """(line, call) for each place in `source` that can reach BLAS: an @
    product, a numpy dot-family or np.linalg call, or an einsum given
    optimize=, which may hand its contraction to BLAS."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.MatMult):
            sites.append((node.lineno, "@"))
        elif isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            parts = name.split(".")
            if (parts[-1] in _BLAS_FUNCTIONS or "linalg" in parts
                    or parts[-1] == "einsum"
                    and any(keyword.arg == "optimize" for keyword in node.keywords)):
                sites.append((node.lineno, name))
    return sites


# Seed 1's fit: its last digits moved with the BLAS thread count while the
# likelihood summed each day's levels by a BLAS product.
_FIT_SEED_1 = """
from growthlab import (SamplerConfig, fit_beta_likelihood, log_uniform_schedule,
                       seeding, synthesize_series)
schedule = log_uniform_schedule(
    seeding.generator(1, seeding.STREAM_SCHEDULE), 30, (1e3, 1e5))
days = synthesize_series(schedule, SamplerConfig(beta=1.5, integerize=True, seed=1)).days
fit = fit_beta_likelihood(days)
print(repr(fit.beta), repr(fit.ci95_beta))
"""


class TestNoBlas:
    """No growthlab routine calls BLAS: each forked _map_cells worker would
    start a BLAS thread pool of its own, and a BLAS product's last digits
    depend on how many threads split it."""

    def test_no_module_reaches_blas(self):
        package = Path(experiment.__file__).parent
        modules = sorted(package.glob("*.py"))
        assert package / "estimators.py" in modules
        found = [f"{path.name}:{line} {call}" for path in modules
                 for line, call in _blas_sites(path.read_text())]
        assert found == []

    @pytest.mark.parametrize("source,call", [
        ("w @ x", "@"),
        ("w @= x", "@"),
        ("np.dot(w, x)", "np.dot"),
        ("w.dot(x)", "w.dot"),
        ("np.tensordot(w, x, 1)", "np.tensordot"),
        ("np.linalg.norm(w)", "np.linalg.norm"),
        ("np.einsum('ij,jk->ik', w, x, optimize=False)", "np.einsum"),
    ])
    def test_each_route_to_blas_is_caught(self, source, call):
        assert _blas_sites(source) == [(1, call)]

    def test_a_plain_einsum_and_an_elementwise_sum_pass(self):
        assert _blas_sites("np.einsum('ij,jk->ik', w, x)\n(w * x).sum(axis=1)") == []

    def test_a_fit_does_not_depend_on_the_blas_thread_count(self):
        source_root = Path(experiment.__file__).resolve().parents[1]
        printed = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(source_root), env.get("PYTHONPATH")]))
            result = subprocess.run([sys.executable, "-c", _FIT_SEED_1],
                                    capture_output=True, text=True, timeout=120,
                                    env=env, check=True)
            printed.append(result.stdout)
        assert printed[0] == printed[1]
        assert printed[0].startswith("1.50101913862")


class TestCutoffInvariance:
    def test_gamma_ignores_the_lower_cutoff_for_continuous_draws(self):
        schedule = log_uniform_schedule(
            seeding.generator(0, seeding.STREAM_SCHEDULE), 100, (1e3, 1e5)
        )
        slopes = []
        widths = []
        for lower_cutoff in (1.0, 2.0, 5.0, 10.0):
            config = SamplerConfig(
                beta=1.5, lower_cutoff=lower_cutoff, integerize=False, seed=0
            )
            totals = series_totals(schedule, config, "coupled-truncation")
            fit = fit_gamma_tls(totals, bootstrap_reps=400, seed=0)
            slopes.append(fit.slope)
            widths.append(fit.ci95_slope[1] - fit.ci95_slope[0])
        assert max(slopes) - min(slopes) < min(widths)
        assert all(abs(slope - 4.0 / 3.0) < 0.01 for slope in slopes)


class TestComparePrediction:
    def test_consistent_on_the_plateau(self):
        series = _coupled_series(5.0, 1.0, 10, (1e3, 1e5), 0)
        prediction = compare_prediction(series, bootstrap_reps=400, seed=0)
        assert prediction.consistent
        assert prediction.gamma_theory == 1.0
        assert prediction.beta_fit.beta > 2.0
        assert abs(prediction.gamma_fit.slope - 1.0) < 0.01

    def test_consistent_below_two(self):
        series = _coupled_series(1.8, 3.0, 10, (1e3, 1e5), 2)
        prediction = compare_prediction(series, bootstrap_reps=400, seed=0)
        assert prediction.consistent
        assert 1.0 < prediction.beta_fit.beta < 2.0
        assert prediction.gamma_theory == pytest.approx(
            2.0 / prediction.beta_fit.beta, rel=1e-12
        )

    def test_flag_always_matches_the_interval(self):
        series = _coupled_series(1.58, 3.0, 30, (1e4, 1e6), 0)
        prediction = compare_prediction(series, bootstrap_reps=400, seed=0)
        low, high = prediction.gamma_fit.ci95_slope
        assert prediction.consistent == (low <= prediction.gamma_theory <= high)
        assert 1.2 < prediction.gamma_fit.slope < 1.35

    def test_plateau_law_holds_even_when_interval_is_razor_thin(self):
        series = _coupled_series(3.0, 1.0, 25, (1e3, 1e5), 0)
        prediction = compare_prediction(series, bootstrap_reps=400, seed=0)
        assert prediction.gamma_theory == 1.0
        assert abs(prediction.gamma_fit.slope - 1.0) <= 0.05

    def test_both_bootstraps_share_one_draw(self, monkeypatch):
        series = _coupled_series(1.8, 3.0, 10, (1e3, 1e5), 2)
        rescaled = [rescale_histogram(s) for s in series.days]
        pairs = [(s.population, s.total_activity) for s in series.days]
        estimators._bootstrap_weights.cache_clear()
        gamma_alone = fit_gamma_tls(pairs, bootstrap_reps=300, seed=7)
        estimators._bootstrap_weights.cache_clear()
        beta_alone = pool_and_fit_beta(rescaled, bootstrap_reps=300, seed=7)
        estimators._bootstrap_weights.cache_clear()
        calls = []
        generators = seeding.generators

        def counted(*key):
            calls.append([key, 0])
            for rng in generators(*key):
                calls[-1][1] += 1
                yield rng

        monkeypatch.setattr(seeding, "generators", counted)
        prediction = compare_prediction(series, bootstrap_reps=300, seed=7)
        assert calls == [[(7, seeding.STREAM_BOOTSTRAP, 300), 300]]
        assert prediction.gamma_fit.ci95_slope == gamma_alone.ci95_slope
        assert prediction.beta_fit.ci95_beta == beta_alone.ci95_beta
        assert not estimators._bootstrap_weights(10, 300, 7).flags.writeable

    def test_beta_fit_is_the_collapse_fit(self):
        series = _coupled_series(1.5, 1.0, 12, (1e3, 1e4), 3)
        prediction = compare_prediction(series, bootstrap_reps=200, seed=5)
        _, fit = collapse_check(series, bootstrap_reps=200, seed=5)
        assert prediction.beta_fit == fit
        assert fit.ci95_beta[0] < fit.beta < fit.ci95_beta[1]

    def test_continuous_draws_fail_as_the_collapse_fit_does(self):
        # Every continuous level is held by one user, so the pooled cloud
        # is flat and the collapse fit refuses it.
        schedule = log_uniform_schedule(
            seeding.generator(3, seeding.STREAM_SCHEDULE), 12, (1e3, 1e4))
        series = synthesize_series(schedule, SamplerConfig(beta=1.5, seed=3))
        with pytest.raises(EstimationError) as collapse:
            collapse_check(series, bootstrap_reps=200, seed=5)
        with pytest.raises(EstimationError) as prediction:
            compare_prediction(series, bootstrap_reps=200, seed=5)
        assert str(prediction.value) == str(collapse.value)

    def test_requires_three_days(self):
        series = _coupled_series(1.5, 1.0, 10, (1e3, 1e4), 0)
        with pytest.raises(DomainError, match="3 days"):
            compare_prediction(list(series.days)[:2], bootstrap_reps=0)

    def test_flag_and_prediction_are_derived(self):
        beta_fit = BetaFit(
            beta=1.5,
            ci95_beta=(1.4, 1.6),
            adjusted_r2=0.99,
            method="collapse-regression",
            n_points_or_samples=10,
        )
        gamma_fit = TlsFit(
            slope=1.3,
            intercept=0.0,
            ci95_slope=(1.25, 1.35),
            adjusted_r2=0.99,
            n_points=10,
        )
        prediction = GrowthPrediction(beta_fit=beta_fit, gamma_fit=gamma_fit)
        assert prediction.gamma_theory == 2.0 / 1.5
        assert prediction.consistent


class TestCollapseCheck:
    def test_quality_is_the_pooled_fit_r2_without_hypothesis(self):
        quality, fit = collapse_check(_fixed_series(1.41, 0, 20), bootstrap_reps=0)
        assert quality == fit.adjusted_r2
        assert quality > 0.99
        assert 1.30 < fit.beta < 1.45

    def test_hypothesis_scoring_prefers_the_true_slope(self):
        series = _fixed_series(1.41, 0, 20)
        _, free_fit = collapse_check(series, bootstrap_reps=0)
        q_true, fit_a = collapse_check(
            series, beta_hypothesis=free_fit.beta, bootstrap_reps=0
        )
        q_off, fit_b = collapse_check(
            series, beta_hypothesis=free_fit.beta + 0.5, bootstrap_reps=0
        )
        assert q_true > 0.99
        assert q_true - q_off > 0.05
        assert fit_a == free_fit and fit_b == free_fit

    @pytest.mark.parametrize("beta", [math.inf, math.nan])
    def test_non_finite_hypothesis_is_a_domain_error(self, monkeypatch, beta):
        with pytest.raises(DomainError, match="^beta must be finite and exceed 1"):
            collapse_check(_fixed_series(1.41, 0, 4), beta_hypothesis=beta,
                           bootstrap_reps=0)

        def no_fit(*args, **kwargs):
            raise AssertionError("the fit ran before the hypothesis was checked")

        # With the default 1000 replicates too, the check comes before any fit.
        monkeypatch.setattr(experiment, "pool_and_fit_beta", no_fit)
        with pytest.raises(DomainError, match="^beta must be finite and exceed 1"):
            collapse_check(_fixed_series(1.41, 0, 4), beta_hypothesis=beta)

    def test_mixture_of_betas_degrades_the_collapse(self):
        q_single, _ = collapse_check(_fixed_series(1.41, 0, 20), bootstrap_reps=0)
        first = _fixed_series(1.2, 1, 10)
        second = _fixed_series(3.0, 2, 10)
        pooled = list(first.days) + [_shifted(s, 50) for s in second.days]
        q_mixed, _ = collapse_check(pooled, bootstrap_reps=0)
        assert q_mixed < q_single
        assert (1.0 - q_mixed) > 5.0 * (1.0 - q_single)

    def test_incompatible_mixture_is_rejected_outright(self):
        shallow = _coupled_series(1.2, 1.0, 10, (9e4, 1.1e5), 1)
        steep = _coupled_series(3.0, 1.0, 10, (9e4, 1.1e5), 2)
        pooled = list(shallow.days) + [_shifted(s, 50) for s in steep.days]
        with pytest.raises(EstimationError, match="outside model class"):
            collapse_check(pooled, bootstrap_reps=0)

    def test_duplicated_days_do_not_move_the_fit(self):
        day = _fixed_series(1.41, 0, 1).days[0]
        q2, fit2 = collapse_check(
            [day, _shifted(day, 1)], bootstrap_reps=200, seed=0
        )
        q10, fit10 = collapse_check(
            [_shifted(day, k) for k in range(10)], bootstrap_reps=200, seed=0
        )
        assert q10 == pytest.approx(q2, rel=1e-12)
        assert fit10.beta == pytest.approx(fit2.beta, rel=1e-12)
        assert fit10.ci95_beta == pytest.approx(fit2.ci95_beta, rel=1e-12)
        assert fit10.n_points_or_samples == 5 * fit2.n_points_or_samples

    def test_day_bootstrap_is_seeded(self):
        series = _fixed_series(1.41, 0, 20)
        _, first = collapse_check(series, bootstrap_reps=200, seed=0)
        _, again = collapse_check(series, bootstrap_reps=200, seed=0)
        assert first == again
        low, high = first.ci95_beta
        assert low <= first.beta <= high
        assert high - low < 0.1

    def test_requires_two_days(self):
        day = _fixed_series(1.41, 0, 1).days[0]
        with pytest.raises(DomainError, match="2 days"):
            collapse_check([day], bootstrap_reps=0)
