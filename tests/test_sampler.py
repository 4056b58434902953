"""Synthetic activity generation: inverse-CDF draws, days, series, protocols.

Distributional checks run against analytic CDFs (scipy.stats.kstest at the
1% critical value) and against exact per-bin masses with 2 sigma Poisson
bands, both at frozen seeds recorded next to the observed statistics.
"""

import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import growthlab as gl
from growthlab import DailySnapshot, DomainError, SamplerConfig, seeding
from growthlab.theory import cutoff_for_population


def _uniforms(seed, n):
    return np.random.default_rng(seed).random(n)


class TestSampleActivity:
    def test_median_of_unbounded_beta_two(self):
        cfg = SamplerConfig(beta=2.0, lower_cutoff=1.0)
        assert gl.sample_activity(cfg, 0.5) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("c", [1.0, 3.0, 10.0])
    def test_u_zero_hits_the_lower_cutoff(self, c):
        unbounded = SamplerConfig(beta=1.7, lower_cutoff=c)
        truncated = SamplerConfig(beta=1.7, lower_cutoff=c, upper_cutoff=c + 50)
        assert gl.sample_activity(unbounded, 0.0) == c
        assert gl.sample_activity(truncated, 0.0) == c

    def test_unbounded_pareto_mean(self):
        # E[X] = (beta-1)/(beta-2) = 2 for beta = 3; 10^6 draws, seed 0
        cfg = SamplerConfig(beta=3.0, lower_cutoff=1.0)
        mean = float(np.mean(gl.sample_activity(cfg, _uniforms(0, 1_000_000))))
        assert mean == pytest.approx(2.0, abs=0.01)

    def test_truncated_draws_stay_inside_the_support(self):
        cfg = SamplerConfig(beta=1.41, lower_cutoff=2.0, upper_cutoff=300.0)
        x = gl.sample_activity(cfg, _uniforms(1, 50_000))
        assert float(np.min(x)) >= 2.0
        assert float(np.max(x)) <= 300.0
        # the top of the support is actually reachable
        assert gl.sample_activity(cfg, 1.0 - 1e-12) == pytest.approx(300.0, rel=1e-9)

    @given(st.floats(min_value=0.0, max_value=0.999999),
           st.floats(min_value=0.0, max_value=0.999999))
    @settings(max_examples=200)
    def test_strictly_increasing_in_u(self, a, b):
        # strict once the gap is resolvable in float; adjacent u values can
        # collapse onto one representable activity
        lo, hi = sorted((a, b))
        for cfg in (SamplerConfig(beta=1.58, lower_cutoff=1.0),
                    SamplerConfig(beta=1.58, lower_cutoff=1.0, upper_cutoff=500.0)):
            if hi - lo > 1e-9:
                assert gl.sample_activity(cfg, lo) < gl.sample_activity(cfg, hi)

    @pytest.mark.parametrize("u", [-0.1, 1.0, 1.5, math.nan])
    def test_rejects_u_outside_the_half_open_interval(self, u):
        cfg = SamplerConfig(beta=1.58, lower_cutoff=1.0)
        with pytest.raises(DomainError):
            gl.sample_activity(cfg, u)

    def test_array_input_keeps_shape(self):
        cfg = SamplerConfig(beta=1.58, lower_cutoff=1.0)
        u = _uniforms(2, 12).reshape(3, 4)
        assert gl.sample_activity(cfg, u).shape == (3, 4)

    @pytest.mark.parametrize("upper", [None, 400.0])
    def test_leaves_the_callers_array_unchanged(self, upper):
        cfg = SamplerConfig(beta=1.58, lower_cutoff=2.0, upper_cutoff=upper)
        u = _uniforms(3, 1_000)
        before = u.copy()
        gl.sample_activity(cfg, u)
        assert np.array_equal(u, before)


class TestSampleDistribution:
    """Kolmogorov-Smirnov against the analytic CDFs at the 1% critical value
    1.628/sqrt(n). Observed distances at these seeds are ~0.0020 against a
    critical 0.00515, so the checks are far from marginal."""

    N = 100_000
    CRITICAL = 1.628 / math.sqrt(N)

    def test_unbounded_against_analytic_cdf(self):
        beta = 1.58
        cfg = SamplerConfig(beta=beta, lower_cutoff=1.0)
        x = gl.sample_activity(cfg, _uniforms(7, self.N))
        distance = stats.kstest(x, lambda v: 1.0 - v ** (1.0 - beta)).statistic
        assert distance < self.CRITICAL

    def test_truncated_against_analytic_cdf(self):
        beta, upper = 1.41, 2000.0
        cfg = SamplerConfig(beta=beta, lower_cutoff=1.0, upper_cutoff=upper)
        x = gl.sample_activity(cfg, _uniforms(8, self.N))
        a = 1.0 - beta
        norm = 1.0 - upper**a
        distance = stats.kstest(x, lambda v: (1.0 - v**a) / norm).statistic
        assert distance < self.CRITICAL

    def test_binned_counts_inside_two_sigma_poisson_bands(self):
        """Continuous day against exact geometric-bin masses, and an
        integerized day against exact unit-interval masses P*mass[f, f+1)
        at the most populated levels. Frozen seed 9; observed max |z| 1.43."""
        population, beta = 200_000, 1.41
        upper = gl.cutoff_for_population(population, beta)
        a = 1.0 - beta
        norm = 1.0 - upper**a

        def cdf(v):
            return (1.0 - np.asarray(v, dtype=float) ** a) / norm

        cfg = SamplerConfig(beta=beta, lower_cutoff=1.0, upper_cutoff=upper,
                            integerize=False, seed=9)
        x = gl.sample_activity(
            cfg, seeding.generator(9, seeding.STREAM_DAY, 0).random(population))
        edges = np.geomspace(1.0, upper, 16)
        observed, _ = np.histogram(x, bins=edges)
        expected = population * (cdf(edges[1:]) - cdf(edges[:-1]))
        z = (observed - expected) / np.sqrt(expected)
        assert float(np.max(np.abs(z))) < 2.0

        snap = gl.synthesize_day(
            0, population, SamplerConfig(beta=beta, lower_cutoff=1.0,
                                         upper_cutoff=upper, integerize=True,
                                         seed=9))
        for level in (1, 2, 3, 5, 10):
            mass = float(cdf(min(level + 1.0, upper)) - cdf(float(level)))
            mean = population * mass
            observed = int(snap.counts[snap.levels == level].sum())
            z_level = (observed - mean) / math.sqrt(mean)
            assert abs(z_level) < 2.0


class TestSamplerConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            SamplerConfig(beta=1.0)
        with pytest.raises(DomainError):
            SamplerConfig(beta=1.5, lower_cutoff=0.5)
        with pytest.raises(DomainError):
            SamplerConfig(beta=1.5, lower_cutoff=3.0, upper_cutoff=2.0)
        with pytest.raises(DomainError):
            SamplerConfig(beta=1.5, seed=-1)

    def test_rejects_an_infinite_lower_cutoff(self):
        with pytest.raises(DomainError, match="^lower cutoff must be finite, got inf$"):
            SamplerConfig(beta=1.5, lower_cutoff=math.inf)


class TestSynthesizeDay:
    def test_snapshot_is_internally_consistent(self):
        cfg = SamplerConfig(beta=1.58, lower_cutoff=1.0, upper_cutoff=400.0,
                            integerize=True, seed=3)
        snap = gl.synthesize_day(0, 5_000, cfg)
        assert snap.population == 5_000
        assert snap.total_activity == int(snap.levels @ snap.counts)
        assert snap.f_max == snap.levels.max()
        assert snap.levels.dtype == np.int64 and snap.levels.min() >= 1
        assert float(snap.total_activity).is_integer()

    def test_same_inputs_reproduce_the_same_snapshot(self):
        cfg = SamplerConfig(beta=1.41, lower_cutoff=1.0, seed=11)
        assert gl.synthesize_day(4, 2_000, cfg) == gl.synthesize_day(4, 2_000, cfg)

    def test_different_days_draw_different_streams(self):
        cfg = SamplerConfig(beta=1.41, lower_cutoff=1.0, seed=11)
        a = gl.synthesize_day(0, 2_000, cfg)
        b = gl.synthesize_day(1, 2_000, cfg)
        assert a.total_activity != b.total_activity

    def test_integerize_floors_and_clamps(self):
        base = dict(beta=1.3, lower_cutoff=1.0, upper_cutoff=800.0, seed=6)
        continuous = gl.synthesize_day(0, 10_000, SamplerConfig(**base))
        floored = gl.synthesize_day(
            0, 10_000, SamplerConfig(integerize=True, **base))
        # same underlying draws, so flooring can only shed up to 1 per user
        assert floored.total_activity <= continuous.total_activity
        assert floored.total_activity > continuous.total_activity - 10_000

    def test_rejects_bad_population(self):
        cfg = SamplerConfig(beta=1.5)
        with pytest.raises(DomainError):
            gl.synthesize_day(0, 0, cfg)
        with pytest.raises(DomainError):
            gl.synthesize_day(0, 2.5, cfg)

    def test_rejects_a_population_no_array_can_hold(self):
        # More float64 draws than numpy can size, refused before allocating.
        with pytest.raises(DomainError, match=re.escape(
                f"population must be <= {2**60 - 1}, got {2**63}")):
            gl.synthesize_day(0, 2**63, SamplerConfig(beta=1.5))

    @pytest.mark.parametrize("day_index", [1.5, True, "1"])
    def test_rejects_a_non_integer_day_index(self, day_index):
        with pytest.raises(DomainError, match=re.escape(
                f"day_index must be an integer, got {day_index!r}")):
            gl.synthesize_day(day_index, 10, SamplerConfig(beta=1.5))

    def test_numpy_integer_arguments_are_accepted(self):
        cfg = SamplerConfig(beta=1.5, seed=2)
        assert gl.synthesize_day(np.int64(3), np.int32(50), cfg) \
            == gl.synthesize_day(3, 50, cfg)


class TestLogUniformSchedule:
    def test_lengths_bounds_and_determinism(self):
        rng = np.random.default_rng(0)
        schedule = gl.log_uniform_schedule(rng, 200, (1e3, 1e5))
        assert len(schedule) == 200
        assert min(schedule) >= 1e3 * 0.999
        assert max(schedule) <= 1e5 * 1.001
        again = gl.log_uniform_schedule(np.random.default_rng(0), 200, (1e3, 1e5))
        assert schedule == again

    def test_spans_the_decades_evenly(self):
        rng = np.random.default_rng(1)
        schedule = gl.log_uniform_schedule(rng, 2_000, (1e2, 1e6))
        logs = np.log10(schedule)
        # a log-uniform draw puts about a quarter of the mass per decade
        share = np.mean((logs >= 3.0) & (logs < 4.0))
        assert 0.18 < share < 0.32

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            gl.log_uniform_schedule(rng, 0, (1e2, 1e3))
        with pytest.raises(DomainError):
            gl.log_uniform_schedule(rng, 5, (1e3, 1e3))
        with pytest.raises(DomainError):
            gl.log_uniform_schedule(rng, 5, (0.5, 1e3))

    @pytest.mark.parametrize("days", [2.5, True, np.float64(3.0)])
    def test_rejects_a_non_integer_count_of_days(self, days):
        with pytest.raises(DomainError, match=re.escape(
                f"days must be an integer, got {days!r}")):
            gl.log_uniform_schedule(np.random.default_rng(0), days, (10, 100))

    @pytest.mark.parametrize("population_range", [
        (1e3, math.inf), (math.nan, 1e3), (1e3, math.nan), (1e3, 10**400),
        (10**400, 10**401),
    ], ids=["inf", "nan-low", "nan-high", "huge-int", "huge-ints"])
    def test_rejects_bounds_that_are_no_finite_float(self, population_range):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError,
                               match=r"^population range bounds must be finite"):
                gl.log_uniform_schedule(np.random.default_rng(0), 5,
                                        population_range)

    @pytest.mark.parametrize("population_range", [(1e2, 1e4), (1e3, 1e5)])
    def test_equals_the_numpy_scalar_rounding(self, population_range):
        # The schedule rounds Python floats; numpy float64 scalars take the
        # same libm pow and round half to even, so the values are equal.
        low, high = population_range
        for seed in range(200):
            schedule = gl.log_uniform_schedule(
                np.random.default_rng(seed), 100, population_range)
            exponents = np.random.default_rng(seed).uniform(
                math.log10(low), math.log10(high), size=100)
            assert schedule == [max(1, int(round(10.0**e))) for e in exponents]
            assert all(type(population) is int for population in schedule)


class TestProtocols:
    def test_canonical_names_and_aliases(self):
        assert gl.canonical_protocol("coupled") == "coupled-truncation"
        assert gl.canonical_protocol("fixed") == "fixed-truncation"
        assert gl.canonical_protocol("unbounded") == "unbounded"
        assert gl.canonical_protocol("coupled-truncation") == "coupled-truncation"
        with pytest.raises(DomainError):
            gl.canonical_protocol("bounded")

    def test_coupled_truncation_recomputes_the_daily_cutoff(self):
        # P = 1000, beta = 1.5 puts the cutoff at (0.5 * 1000)^(2/3) = 62.996
        cfg = SamplerConfig(beta=1.5, lower_cutoff=1.0, seed=2)
        series = gl.synthesize_series([1_000], cfg)
        assert series.days[0].f_max <= 62.996
        cfg_hi = SamplerConfig(beta=1.5, lower_cutoff=1.0, seed=2)
        bigger = gl.synthesize_series([100_000], cfg_hi)
        assert bigger.days[0].f_max > 62.996

    def test_coupled_truncation_rejects_population_below_the_cutoff_floor(self):
        cfg = SamplerConfig(beta=5.0, lower_cutoff=10.0, seed=0)
        with pytest.raises(DomainError, match="day 0"):
            gl.synthesize_series([100], cfg)

    @pytest.mark.parametrize("build", [gl.synthesize_series, gl.series_totals])
    def test_a_population_too_small_for_any_cutoff_prints_as_an_int(self, build):
        # (beta - 1) * P = 5e-7, whose root is far below a cutoff of 1.
        message = "day 0: population 5 too small for a cutoff >= 1 at beta 1.0000001"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            build([5], SamplerConfig(beta=1.0000001))

    def test_fixed_truncation_requires_a_configured_cutoff(self):
        cfg = SamplerConfig(beta=1.5, lower_cutoff=1.0, seed=0)
        with pytest.raises(DomainError, match="fixed-truncation"):
            gl.synthesize_series([1_000], cfg, "fixed")

    def test_unbounded_ignores_a_configured_cutoff(self):
        cfg = SamplerConfig(beta=1.2, lower_cutoff=1.0, upper_cutoff=5.0, seed=0)
        series = gl.synthesize_series([20_000], cfg, "unbounded")
        assert series.days[0].f_max > 5.0

    def test_growth_follows_the_truncated_law(self):
        """100 log-spaced days at beta = 1.5 under coupled truncation give a
        log-log slope within 0.1 of gamma = 4/3; the plain least-squares
        slope is oracle enough at this noise level."""
        cfg = SamplerConfig(beta=1.5, lower_cutoff=1.0, seed=0)
        rng = seeding.generator(0, seeding.STREAM_SCHEDULE)
        schedule = gl.log_uniform_schedule(rng, 100, (1e3, 1e5))
        totals = gl.series_totals(schedule, cfg)
        slope = np.polyfit(np.log10([p for p, _ in totals]),
                           np.log10([f for _, f in totals]), 1)[0]
        assert slope == pytest.approx(4.0 / 3.0, abs=0.1)


class TestSynthesizeSeries:
    def test_series_is_a_pure_function_of_its_inputs(self):
        cfg = SamplerConfig(beta=1.41, lower_cutoff=1.0, integerize=True, seed=8)
        schedule = [500, 1_500, 4_000]
        assert (gl.synthesize_series(schedule, cfg)
                == gl.synthesize_series(schedule, cfg))

    def test_days_are_schedule_independent(self):
        # day 2 of a long series equals day 2 of a short one: streams are
        # derived per day, never from how many days came before
        cfg = SamplerConfig(beta=1.41, lower_cutoff=1.0, seed=8)
        long = gl.synthesize_series([500, 900, 1_500, 7_000], cfg)
        short = gl.synthesize_series([100, 100, 1_500], cfg)
        assert long.days[2] == short.days[2]

    def test_totals_agree_with_snapshots(self):
        cfg = SamplerConfig(beta=1.58, lower_cutoff=1.0, integerize=True, seed=9)
        schedule = [400, 2_000, 9_000]
        series = gl.synthesize_series(schedule, cfg)
        assert gl.series_totals(schedule, cfg) == [
            (s.population, s.total_activity) for s in series.days]

    def test_empty_schedule_rejected(self):
        cfg = SamplerConfig(beta=1.5)
        with pytest.raises(DomainError):
            gl.synthesize_series([], cfg)

    @pytest.mark.parametrize("build", [gl.synthesize_series, gl.series_totals])
    @pytest.mark.parametrize("schedule, message", [
        ([1000.9, 2000], "day 0: population must be an integer, got 1000.9"),
        ([1000, 2000.0], "day 1: population must be an integer, got 2000.0"),
    ])
    def test_non_integer_schedule_entries_rejected(self, build, schedule, message):
        # Truncating 1000.9 would draw 1000 users below 1000.9's cutoff.
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            build(schedule, SamplerConfig(beta=1.5))

    @pytest.mark.parametrize("build", [gl.synthesize_series, gl.series_totals])
    @pytest.mark.parametrize("schedule, day", [([2**70], 0), ([1000, 2**60], 1)])
    def test_a_population_no_array_can_hold_names_its_day(self, build,
                                                          schedule, day):
        assert gl.sampler._MAX_POPULATION == 2**60 - 1
        message = (f"day {day}: population must be <= {2**60 - 1}, "
                   f"got {schedule[day]}")
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            build(schedule, SamplerConfig(beta=1.5))

    @pytest.mark.parametrize("build", [gl.synthesize_series, gl.series_totals])
    def test_fixed_truncation_without_a_cutoff_is_a_series_error(self, build):
        # Checked once, before any day, so no day is named, not even a day
        # that is bad on its own.
        with pytest.raises(DomainError,
                           match="^fixed-truncation requires config.upper_cutoff$"):
            build([1.5, 1000], SamplerConfig(beta=1.5), "fixed")

    @pytest.mark.parametrize("build", [gl.synthesize_series, gl.series_totals])
    def test_a_failing_late_day_draws_nothing(self, build, monkeypatch):
        # Days 0 and 1 have a cutoff of about 13.2 > C; day 2's falls below C.
        # The whole schedule is checked first, so days 0 and 1 are never drawn.
        drawn = []
        draw = gl.sampler._draw
        monkeypatch.setattr(gl.sampler, "_draw",
                            lambda rng, day, *rest: drawn.append(day) or draw(rng, day, *rest))
        cfg = SamplerConfig(beta=5.0, lower_cutoff=10.0, seed=0)
        with pytest.raises(DomainError, match=r"^day 2: population 100 gives cutoff"):
            build([10**5, 10**5, 100], cfg)
        with pytest.raises(DomainError, match=r"^day 1: population must be an integer"):
            build([10**5, 1.5, 100], cfg)
        assert drawn == []
        build([10**5, 10**5], cfg)
        assert drawn == [0, 1]

    @pytest.mark.parametrize("integerize", [False, True])
    def test_days_share_no_memory(self, integerize):
        # All days are drawn into one reused buffer; none may keep a view of it.
        cfg = SamplerConfig(beta=1.5, integerize=integerize, seed=2)
        days = gl.synthesize_series([700, 50, 900], cfg, "unbounded").days
        arrays = [array for day in days for array in (day.levels, day.counts)]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                       for b in arrays[i + 1:])

    @pytest.mark.parametrize("protocol", ["coupled", "unbounded"])
    def test_totals_hold_one_day_of_draws_at_a_time(self, protocol):
        # One float64 buffer of the largest day, reused: no per-day draws or
        # temporaries of the inverse CDF stay allocated or add up.
        schedule = [20_000, 100, 50_000, 7, 30_000]
        cfg = SamplerConfig(beta=1.5, seed=4)
        gl.series_totals([1], cfg, "unbounded")  # import numpy.random first
        tracemalloc.start()
        try:
            gl.series_totals(schedule, cfg, protocol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * max(schedule)

    @pytest.mark.parametrize("protocol", ["coupled", "unbounded"])
    def test_runs_hold_at_most_a_run_of_draws(self, protocol):
        # 100,000 draws over 1,000 days, drawn in runs of at most _RUN draws
        # into one buffer. Each day also keeps some 350 bytes of its own at any
        # run size (its checked population and cutoff, its stream's seed
        # words, its (P, F) pair), so those are measured on as many days of
        # ten users, whose draws fit one 80 KB run, and taken off.
        schedule, small = [100] * 1000, [10] * 1000
        cfg = SamplerConfig(beta=1.5, seed=4)
        gl.series_totals([1], cfg, "unbounded")  # import numpy.random first

        def peak(schedule):
            tracemalloc.start()
            try:
                gl.series_totals(schedule, cfg, protocol)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        extra = peak(schedule) - peak(small)
        assert extra < 1.5 * 8 * min(gl.sampler._RUN, sum(schedule))

    def test_schedule_recorded_on_the_series(self):
        cfg = SamplerConfig(beta=1.5, seed=1)
        series = gl.synthesize_series([300, 800], cfg)
        assert series.population_schedule == (300, 800)
        assert [s.population for s in series.days] == [300, 800]


class TestEventsFromSeries:
    def test_events_reproduce_the_histograms(self):
        cfg = SamplerConfig(beta=1.41, lower_cutoff=1.0, integerize=True, seed=10)
        series = gl.synthesize_series([600, 1_200], cfg)
        events = gl.events_from_series(series)
        assert len(events) == 600 + 1_200
        for snap in series.days:
            rows = events.day_codes == events.days.index(snap.day)
            assert len(np.unique(events.user_codes[rows])) == snap.population
            levels, counts = np.unique(events.counts[rows], return_counts=True)
            assert levels.tolist() == snap.levels.tolist()
            assert counts.tolist() == snap.counts.tolist()

    def test_a_series_without_days_gives_an_empty_table(self):
        cfg = SamplerConfig(beta=1.41, lower_cutoff=1.0, integerize=True, seed=10)
        series = replace(gl.synthesize_series([100], cfg), days=())
        events = gl.events_from_series(series)
        assert (len(events), events.days, events.users) == (0, (), ())

    def test_requires_integerized_series(self):
        cfg = SamplerConfig(beta=1.41, lower_cutoff=1.0, integerize=False, seed=10)
        series = gl.synthesize_series([100], cfg)
        with pytest.raises(DomainError, match="integerize"):
            gl.events_from_series(series)


# The per-day loop the sampler ran before its draws shared one path: a
# config rebuilt per day with `replace`, the public sample_activity, and
# separate snapshot and totals branches. Kept as the reference the folded
# path must reproduce bit for bit.
def _reference_day_config(config, protocol, day_index, population):
    if protocol == "coupled-truncation":
        try:
            cutoff = cutoff_for_population(population, config.beta)
        except DomainError as exc:
            raise DomainError(f"day {day_index}: {exc}") from None
        if cutoff <= config.lower_cutoff:
            raise DomainError(
                f"day {day_index}: population {population} gives cutoff "
                f"{cutoff:.6g} at or below the lower cutoff {config.lower_cutoff}"
            )
        return replace(config, upper_cutoff=cutoff)
    if protocol == "fixed-truncation":
        if config.upper_cutoff is None:
            raise DomainError("fixed-truncation requires config.upper_cutoff")
        return config
    if config.upper_cutoff is None:
        return config
    return replace(config, upper_cutoff=None)


def _reference_draw_day(day_index, population, config):
    rng = seeding.generator(config.seed, seeding.STREAM_DAY, day_index)
    with np.errstate(over="ignore"):
        x = gl.sample_activity(config, rng.random(population))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if config.integerize:
        x = np.maximum(1.0, np.floor(x))
    return x


def _reference_snapshot(day_index, x, integerize):
    if integerize:
        levels, counts = np.unique(x.astype(np.int64), return_counts=True)
        # In Python ints: a day's int64 sum can wrap past 2^63 - 1.
        total = float(sum(map(int.__mul__, levels.tolist(), counts.tolist())))
    else:
        levels, counts = np.unique(x, return_counts=True)
        total = float(x.sum())
    return DailySnapshot(day=day_index, total_activity=total, levels=levels,
                         counts=counts)


def _reference_series(schedule, config, protocol):
    """(totals, snapshots), or the start of the error the series must raise.

    A day with a non-finite draw, or an integerized draw past 2^63 - 1,
    must stop the series with an error naming that day.
    """
    protocol = gl.canonical_protocol(protocol)
    totals, snapshots = [], []
    try:
        for day_index, population in enumerate(schedule):
            day_cfg = _reference_day_config(config, protocol, day_index, population)
            x = _reference_draw_day(day_index, int(population), day_cfg)
            top = float(x.max())
            if top == math.inf or (config.integerize and top >= 2.0**63):
                return f"day {day_index}: "
            if config.integerize:
                total = float(sum(x.astype(np.int64).tolist()))
            else:
                total = float(x.sum())
            totals.append((int(population), total))
            snapshots.append(_reference_snapshot(day_index, x, config.integerize))
    except DomainError as exc:
        return str(exc)
    return totals, snapshots


# Schedules that cross the sampler's runs of _RUN = 2^15 draws: a day larger
# than a run, many small days over two runs, and a run that ends exactly at
# _RUN. At beta 2.5 even a one-user day has a coupled cutoff above C = 1.
_RUN_SCHEDULES = ([40_000, 3, 20_000, 20_000, 1], [700] * 60, [2**14, 2**14, 5])


def _across_runs(test):
    for schedule in _RUN_SCHEDULES:
        for protocol in ("coupled", "fixed", "unbounded"):
            for integerize in (False, True):
                test = example(protocol=protocol, integerize=integerize, beta=2.5,
                               lower=1.0, upper_factor=1e3, schedule=schedule,
                               seed=7)(test)
    return test


class TestFoldedPathMatchesPerDayReference:
    @given(
        protocol=st.sampled_from(["coupled", "fixed", "unbounded"]),
        integerize=st.booleans(),
        beta=st.floats(min_value=1.1, max_value=6.0),
        lower=st.floats(min_value=1.0, max_value=5.0),
        upper_factor=st.one_of(st.none(), st.floats(min_value=1.5, max_value=1e4)),
        schedule=st.lists(st.integers(min_value=1, max_value=3_000),
                          min_size=1, max_size=6),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    @settings(max_examples=300, deadline=None)
    # Every day is drawn into one buffer: a day smaller than the one before
    # must read only its own draws, and a larger one must not outgrow it.
    @example(protocol="fixed", integerize=False, beta=1.5, lower=1.0,
             upper_factor=1e3, schedule=[3000, 10, 2500, 1], seed=7)
    @example(protocol="unbounded", integerize=True, beta=2.5, lower=2.0,
             upper_factor=None, schedule=[3000, 10, 2500, 1], seed=7)
    @_across_runs
    def test_series_and_totals_equal_the_reference(
            self, protocol, integerize, beta, lower, upper_factor, schedule, seed):
        upper = None if upper_factor is None else lower * upper_factor
        cfg = SamplerConfig(beta=beta, lower_cutoff=lower, upper_cutoff=upper,
                            integerize=integerize, seed=seed)
        expected = _reference_series(schedule, cfg, protocol)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if isinstance(expected, str):
                for build in (gl.series_totals, gl.synthesize_series):
                    with pytest.raises(DomainError) as caught:
                        build(schedule, cfg, protocol)
                    assert str(caught.value).startswith(expected)
                return
            totals, snapshots = expected
            assert gl.series_totals(schedule, cfg, protocol) == totals
            assert gl.synthesize_series(schedule, cfg, protocol).days == \
                tuple(snapshots)

    @pytest.mark.parametrize("protocol", ["coupled", "fixed", "unbounded"])
    @pytest.mark.parametrize("integerize", [False, True])
    def test_single_days_equal_the_reference(self, protocol, integerize):
        cfg = SamplerConfig(beta=1.58, lower_cutoff=2.0, upper_cutoff=900.0,
                            integerize=integerize, seed=12)
        schedule = [40, 2_500, 700]
        _, snapshots = _reference_series(schedule, cfg, protocol)
        day_cfg = _reference_day_config(
            cfg, gl.canonical_protocol(protocol), 1, 2_500)
        snapshot = gl.synthesize_day(1, 2_500, day_cfg)
        assert snapshot == snapshots[1]
        # Equal arrays of 3 and 3.0 compare equal, so check the level dtype.
        assert snapshot.levels.dtype == (np.int64 if integerize else np.float64)


class TestOverflowingDraws:
    """A draw that float64 or int64 cannot hold is a DomainError naming its
    day, raised with no RuntimeWarning on the way."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            yield

    def test_integerized_draw_past_int64(self):
        cfg = SamplerConfig(beta=1.2, integerize=True)
        for build in (gl.series_totals, gl.synthesize_series):
            with pytest.raises(DomainError,
                               match=r"^day 0: .* exceeds 2\^63 - 1$"):
                build([100_000], cfg, "unbounded")

    def test_non_finite_continuous_draw(self):
        cfg = SamplerConfig(beta=1.01, seed=0)
        for build in (gl.series_totals, gl.synthesize_series):
            with pytest.raises(DomainError, match=r"^day 2: .* overflows to inf"):
                build([10, 20, 100_000], cfg, "unbounded")
        with pytest.raises(DomainError, match=r"^day 3: .* overflows to inf"):
            gl.synthesize_day(3, 100_000, cfg)

    @pytest.mark.parametrize("integerize, beta, bad, message", [
        (False, 1.01, 2, "an activity draw overflows to inf"),
        (True, 1.2, 3, r"an integerized activity draw .* exceeds 2\^63 - 1$"),
    ])
    def test_a_bad_day_inside_a_run_is_named(self, integerize, beta, bad, message):
        # The five days are one run, all drawn before any is summed. The
        # first bad day raises what the per-day reference names, once the
        # days before it are returned; no day after it is.
        schedule = [200, 300, 4000, 4000, 300]
        assert sum(schedule) <= gl.sampler._RUN
        cfg = SamplerConfig(beta=beta, integerize=integerize, seed=0)
        assert _reference_series(schedule, cfg, "unbounded") == f"day {bad}: "
        returned = []
        with np.errstate(over="ignore"), \
                pytest.raises(DomainError, match=f"^day {bad}: {message}"):
            for day_index, *_ in gl.sampler._schedule_draws(schedule, cfg, "unbounded"):
                returned.append(day_index)
        assert returned == list(range(bad))
        for build in (gl.series_totals, gl.synthesize_series):
            with pytest.raises(DomainError, match=f"^day {bad}: {message}"):
                build(schedule, cfg, "unbounded")

    @pytest.mark.parametrize("upper, floor", [(1e15, 2**53), (9e18, 2**63)])
    def test_integer_totals_are_exact_sums(self, upper, floor):
        # Past 2^53 a float sum rounds (at seed 0 the float sum of these
        # draws differs from the exact one); past 2^63 an int64 sum wraps,
        # though every draw here fits in int64.
        cfg = SamplerConfig(beta=1.01, upper_cutoff=upper, integerize=True, seed=0)
        rng = seeding.generator(0, seeding.STREAM_DAY, 0)
        draws = np.maximum(1.0, np.floor(gl.sample_activity(cfg, rng.random(1_000))))
        exact = sum(int(v) for v in draws)
        assert exact > floor
        assert gl.series_totals([1_000], cfg, "fixed") == [(1_000, float(exact))]
        assert gl.synthesize_day(0, 1_000, cfg).total_activity == float(exact)
