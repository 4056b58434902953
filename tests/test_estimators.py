"""Exponent estimators: orthogonal log-log fits, collapse regression, MLE.

Noiseless inputs pin exactness; the synthetic-data checks run at frozen
seeds with the observed values recorded next to the tolerances.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import growthlab as gl
from growthlab import (
    BetaFit,
    DailySnapshot,
    DomainError,
    EstimationError,
    RescaledHistogram,
    SamplerConfig,
    TlsFit,
    estimators,
    seeding,
)


def _power_series(slope, scale=1.0, n=5):
    populations = np.logspace(2, 5, n)
    return [(p, scale * p**slope) for p in populations]


def _noisy_pairs(seed=13, slope=1.5, n=40, spread=0.15):
    rng = np.random.default_rng(seed)
    logp = np.linspace(2, 5, n)
    x = 10 ** (logp + rng.normal(0, spread, n))
    y = 10 ** (slope * logp + 0.3 + rng.normal(0, spread, n))
    return list(zip(x, y))


def _rescaled(histogram):
    """A {level: count} dict in master-curve coordinates: each level over
    the largest."""
    levels = np.array(sorted(histogram))
    return RescaledHistogram(levels / levels[-1],
                             [histogram[level] for level in levels.tolist()],
                             None, float(levels[-1]))


def _exact_model_day(beta, bins_per_decade=5, decades=3, per_bin=3,
                     f_max=1000.0):
    """A rescaled day whose counts follow (f/f_max)^(-beta) exactly.

    Levels sit at the geometric midpoints of the estimator's log bins (the
    top level at the cutoff itself), so no point straddles a bin edge and
    the binned cloud reproduces the model without lattice artifacts.
    """
    positions = [0.0] + [(j + (t + 0.5) / per_bin) / bins_per_decade
                         for j in range(decades * bins_per_decade)
                         for t in range(per_bin)]
    histogram = {f_max * 10.0 ** (-p): 10.0 ** (p * beta) for p in positions}
    return _rescaled(histogram)


class TestFitGammaTls:
    def test_noiseless_collinear_recovery(self):
        fit = gl.fit_gamma_tls(_power_series(1.3), bootstrap_reps=0)
        assert fit.slope == pytest.approx(1.3, abs=1e-9)
        assert fit.adjusted_r2 == pytest.approx(1.0, abs=1e-12)

    def test_collinear_three_points_have_zero_ci_width(self):
        fit = gl.fit_gamma_tls(_power_series(1.39, n=3), bootstrap_reps=200,
                               seed=0)
        low, high = fit.ci95_slope
        assert high - low == pytest.approx(0.0, abs=1e-9)
        assert fit.n_points == 3

    @given(st.floats(min_value=1.0, max_value=1000.0),
           st.floats(min_value=1.0, max_value=1000.0))
    @settings(max_examples=100)
    def test_scale_equivariance(self, a, b):
        base = gl.fit_gamma_tls(_noisy_pairs(), bootstrap_reps=0)
        scaled = gl.fit_gamma_tls([(a * p, b * f) for p, f in _noisy_pairs()],
                                  bootstrap_reps=0)
        assert scaled.slope == pytest.approx(base.slope, rel=1e-12)

    def test_log_base_invariance(self):
        # raising both coordinates to one power multiplies both log axes by
        # the same factor, which is exactly a change of log base
        base = gl.fit_gamma_tls(_noisy_pairs(), bootstrap_reps=0)
        powered = gl.fit_gamma_tls([(p**2.5, f**2.5) for p, f in _noisy_pairs()],
                                   bootstrap_reps=0)
        assert powered.slope == pytest.approx(base.slope, rel=1e-12)

    def test_axis_swap_inverts_the_slope(self):
        pairs = _noisy_pairs()
        forward = gl.fit_gamma_tls(pairs, bootstrap_reps=0)
        backward = gl.fit_gamma_tls([(f, p) for p, f in pairs],
                                    bootstrap_reps=0)
        assert forward.slope * backward.slope == pytest.approx(1.0, rel=1e-12)

    def test_tls_resists_the_attenuation_that_biases_ols(self):
        # noise on both axes: OLS shrinks toward zero, TLS stays on target
        pairs = _noisy_pairs(seed=13, slope=1.5)
        tls = gl.fit_gamma_tls(pairs, bootstrap_reps=0)
        ols_slope, _ = gl.fit_gamma_ols(pairs)
        assert ols_slope < tls.slope
        assert abs(tls.slope - 1.5) < abs(ols_slope - 1.5)

    def test_growth_exponent_of_a_synthetic_series(self):
        # 171 log-spaced days at beta = 1.58; expect near 2/1.58 = 1.266
        # (observed 1.2799 at seed 0)
        cfg = SamplerConfig(beta=1.58, lower_cutoff=1.0, seed=0)
        schedule = gl.log_uniform_schedule(
            seeding.generator(0, seeding.STREAM_SCHEDULE), 171, (1e3, 1e5))
        fit = gl.fit_gamma_tls(gl.series_totals(schedule, cfg),
                               bootstrap_reps=0)
        assert 1.17 <= fit.slope <= 1.37

    def test_bootstrap_ci_is_seed_deterministic(self):
        pairs = _noisy_pairs()
        a = gl.fit_gamma_tls(pairs, bootstrap_reps=300, seed=4)
        b = gl.fit_gamma_tls(pairs, bootstrap_reps=300, seed=4)
        c = gl.fit_gamma_tls(pairs, bootstrap_reps=300, seed=5)
        assert a == b
        assert a.ci95_slope != c.ci95_slope

    def test_input_validation(self):
        with pytest.raises(DomainError):
            gl.fit_gamma_tls([(10.0, 20.0), (100.0, 300.0)])
        with pytest.raises(DomainError):
            gl.fit_gamma_tls([(0.5, 10.0), (10.0, 20.0), (100.0, 300.0)])

    @pytest.mark.parametrize("bad", [
        (100.0, math.nan), (math.nan, 300.0), (100.0, math.inf),
        (math.inf, 300.0), (100.0, -math.inf), (100.0, 0.5),
    ])
    def test_non_finite_or_sub_unit_pairs_are_rejected(self, bad):
        pairs = [(10.0, 10.0), bad, (1000.0, 3000.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError,
                               match="must be finite and >= 1") as caught:
                gl.fit_gamma_tls(pairs)
        assert "bracket" not in str(caught.value)


    @pytest.mark.parametrize("bad", [[(1, 2), (3,)], [(1, 2), (3, 4), ("a", 5)],
                                     [(1, 2, 3), (4, 5, 6), (7, 8, 9)], [1, 2, 3]],
                             ids=["ragged", "text", "triples", "flat"])
    def test_malformed_pairs_are_rejected(self, bad):
        for fit in (gl.fit_gamma_tls, gl.fit_gamma_ols):
            with pytest.raises(DomainError, match=re.escape(
                    "expected a sequence of (population, activity) pairs")):
                fit(bad)

    def test_flat_activity_gives_slope_zero_and_a_perfect_fit(self):
        fit = gl.fit_gamma_tls([(10, 5), (100, 5), (1000, 5)], bootstrap_reps=20)
        assert (fit.slope, fit.adjusted_r2) == (0.0, 1.0)

    def test_vertical_principal_axis_is_rejected(self):
        # log coordinates (0, 0), (1, 3), (2, 0): Sxy = 0 and Syy > Sxx
        with pytest.raises(DomainError, match="principal axis is vertical"):
            gl.fit_gamma_tls([(1, 1), (10, 1000), (100, 1)])

    @pytest.mark.parametrize("population, n_days", [(3, 7), (10, 3), (2.5, 4)])
    def test_one_population_is_rejected(self, population, n_days):
        pairs = [(population, 4.0 + day) for day in range(n_days)]
        for fit in (gl.fit_gamma_tls, gl.fit_gamma_ols):
            with pytest.raises(DomainError, match=re.escape(
                    f"all {n_days} days have population {population};")):
                fit(pairs)


class TestFitGammaOls:
    def test_collinear_recovery(self):
        slope, intercept = gl.fit_gamma_ols(_power_series(1.39, scale=10.0))
        assert slope == pytest.approx(1.39, abs=1e-9)
        assert intercept == pytest.approx(1.0, abs=1e-9)

    def test_matches_polyfit_on_a_noisy_series(self):
        pairs = np.log10(_noisy_pairs())
        expected = np.polyfit(pairs[:, 0], pairs[:, 1], 1)
        assert gl.fit_gamma_ols(_noisy_pairs()) == pytest.approx(
            tuple(expected), rel=0, abs=1e-12)


def _residual_adjusted_r2(x, y, slope, intercept):
    """Adjusted R^2 from the vertical residuals themselves, the reference
    for the fits' closed form in their centred sums."""
    x, y = np.asarray(x), np.asarray(y)
    residuals = y - (intercept + slope * x)
    r2 = 1.0 - (residuals @ residuals) / np.sum((y - y.mean()) ** 2)
    return 1.0 - (1.0 - r2) * (len(x) - 1) / (len(x) - 2)


class TestAdjustedR2MatchesResiduals:
    def test_tls_fit(self):
        fit = gl.fit_gamma_tls(_noisy_pairs(), bootstrap_reps=0)
        pairs = np.log10(_noisy_pairs())
        assert fit.adjusted_r2 == pytest.approx(_residual_adjusted_r2(
            pairs[:, 0], pairs[:, 1], fit.slope, fit.intercept), rel=0, abs=1e-12)

    def test_collapse_fit_and_hypothesis_scores(self):
        rescaled = _sampled_days(12, 5)
        centers, values = reference_binned_cloud(rescaled)
        slope, intercept = np.polyfit(centers, values, 1)
        fit = gl.pool_and_fit_beta(rescaled, bootstrap_reps=0)
        assert fit.beta == pytest.approx(-slope, rel=0, abs=1e-12)
        assert fit.adjusted_r2 == pytest.approx(_residual_adjusted_r2(
            centers, values, slope, intercept), rel=0, abs=1e-12)
        for beta in (1.5, 2.5, 6.0):
            intercept = values.mean() + beta * centers.mean()
            assert gl.score_against_beta(rescaled, beta) == pytest.approx(
                _residual_adjusted_r2(centers, values, -beta, intercept),
                rel=1e-12, abs=1e-12)


class TestRescaleHistogram:
    def test_divides_levels_by_the_daily_maximum(self):
        snapshot = DailySnapshot(day=3, total_activity=19.0, levels=[1, 10],
                                 counts=[9, 1])
        rescaled = gl.rescale_histogram(snapshot)
        assert rescaled.rel.tolist() == [0.1, 1.0]
        assert rescaled.counts.tolist() == [9.0, 1.0]
        assert (rescaled.source_day, rescaled.f_max) == (3, 10.0)
        assert not rescaled.rel.flags.writeable
        assert not rescaled.counts.flags.writeable

    def test_rejects_nonpositive_levels(self):
        with pytest.raises(DomainError):
            RescaledHistogram(np.array([0.0, 1.0]), np.array([3, 1]), None, 10.0)

    def test_rejects_empty_histogram(self):
        with pytest.raises(DomainError):
            RescaledHistogram(np.array([]), np.array([]), None, 10.0)


def _reference_bin_index(rel, bins_per_decade):
    return max(int(math.floor(-math.log10(rel) * bins_per_decade)), 0)


def reference_binned_cloud(rescaled, bins_per_decade=5):
    """The per-point binned_cloud, kept as the reference for the array path.

    Bins every (rel, count) pair with math.log10, one point at a time, and
    averages per day and then over days with np.mean.
    """
    if bins_per_decade < 1:
        raise DomainError("bins_per_decade must be at least 1")
    if len(rescaled) == 0:
        raise DomainError("need at least one rescaled histogram")
    if min(hist.rel.min() for hist in rescaled) > 0.1:
        raise DomainError(
            "pooled points span less than one decade of relative activity")
    per_bin = {}
    for day_ordinal, hist in enumerate(rescaled):
        for rel, count in zip(hist.rel.tolist(), hist.counts.tolist()):
            j = _reference_bin_index(rel, bins_per_decade)
            per_bin.setdefault(j, {}).setdefault(day_ordinal, []).append(count)
    centers, values = [], []
    for j in sorted(per_bin):
        value = float(np.mean([np.mean(counts) for counts in per_bin[j].values()]))
        centers.append(-(j + 0.5) / bins_per_decade)
        values.append(math.log10(value))
    if len(centers) < 3:
        raise DomainError("fewer than 3 populated bins; cannot fit a slope")
    return np.asarray(centers), np.asarray(values)


@st.composite
def _integer_day(draw):
    """An integer histogram whose f_max has decades, so that some levels
    sit at exact decade ratios level/f_max = 1/10, 1/100, ..."""
    exponent = draw(st.integers(min_value=1, max_value=6))
    f_max = draw(st.integers(min_value=1, max_value=10**4)) * 10**exponent
    levels = {f_max, *draw(st.lists(st.integers(min_value=1, max_value=f_max),
                                    max_size=40))}
    levels |= {f_max // 10**k for k in range(1, exponent + 1)
               if draw(st.booleans())}
    return {level: draw(st.integers(min_value=1, max_value=10**6))
            for level in levels}


_continuous_day = st.dictionaries(
    st.floats(min_value=1.0, max_value=1e12), st.integers(min_value=1, max_value=50),
    min_size=1, max_size=40)


class TestBinnedCloudMatchesPointReference:
    @given(days=st.lists(st.one_of(_integer_day(), _continuous_day),
                         min_size=1, max_size=5),
           bins_per_decade=st.integers(min_value=1, max_value=12))
    @settings(max_examples=400, deadline=None)
    def test_same_bins_and_values(self, days, bins_per_decade):
        rescaled = [_rescaled(day) for day in days]
        rel = np.concatenate([hist.rel for hist in rescaled])
        assert estimators._bin_indices(rel, bins_per_decade).tolist() == [
            _reference_bin_index(value, bins_per_decade) for value in rel.tolist()]
        try:
            expected = reference_binned_cloud(rescaled, bins_per_decade)
        except DomainError as exc:
            with pytest.raises(DomainError, match=re.escape(str(exc))):
                gl.binned_cloud(rescaled, bins_per_decade)
            return
        centers, values = gl.binned_cloud(rescaled, bins_per_decade)
        assert centers.tolist() == expected[0].tolist()
        np.testing.assert_allclose(values, expected[1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bins_per_decade", [1, 2, 5, 10])
    def test_exact_decade_ratios(self, bins_per_decade):
        day = _rescaled({10**k: 7 - k for k in range(7)})
        assert day.rel.tolist() == [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0]
        assert estimators._bin_indices(day.rel, bins_per_decade).tolist() == [
            _reference_bin_index(rel, bins_per_decade) for rel in day.rel.tolist()]
        assert estimators._bin_indices(day.rel, bins_per_decade).tolist() == [
            k * bins_per_decade for k in range(6, -1, -1)]

    @pytest.mark.parametrize("bins_per_decade, rel", [
        (1, 1.0000000000000021e-09), (1, 1.000000000000002e-11),
        (2, 3.162277660168386e-11), (2, 1.000000000000002e-11),
    ])
    def test_points_a_few_ulps_from_an_edge(self, bins_per_decade, rel):
        # np.log10 and math.log10 differ in the last bit here, and that
        # bit decides the bin.
        assert estimators._bin_indices(np.array([rel]), bins_per_decade).tolist() \
            == [_reference_bin_index(rel, bins_per_decade)]


class TestBinnedCloud:
    def test_points_land_at_geometric_bin_centers(self):
        # rel = 10^-0.3 is dead center of bin 1 at 5 bins per decade
        day = _rescaled({10 ** -0.3 * 50: 4.0,
                                    10 ** -2.5 * 50: 9.0, 50: 1.0})
        centers, values = gl.binned_cloud([day])
        assert centers[1] == pytest.approx(-0.3, abs=1e-12)
        assert values[1] == pytest.approx(math.log10(4.0), abs=1e-12)

    def test_per_day_average_weighs_days_not_points(self):
        # all bottom points placed inside bin 10 (centers at -2.05, -2.15,
        # -2.1 of a 0.2-decade bin), away from its edges
        day_a = _rescaled({10**-2.05 * 100: 2.0,
                                      10**-2.15 * 100: 4.0,
                                      10**-1.1 * 100: 5.0, 100.0: 1.0})
        day_b = _rescaled({10**-2.1 * 100: 9.0,
                                      10**-1.1 * 100: 5.0, 100.0: 1.0})
        centers, values = gl.binned_cloud([day_a, day_b])
        # the bottom bin holds counts {2, 4} from day a and {9} from day b
        assert centers[-1] == pytest.approx(-2.1, abs=1e-12)
        assert 10 ** values[-1] == pytest.approx((3.0 + 9.0) / 2, rel=1e-12)

    def test_rejects_span_below_one_decade(self):
        day = _rescaled({900: 5, 1000: 1})
        with pytest.raises(DomainError, match="decade"):
            gl.binned_cloud([day])

    def test_rejects_no_days(self):
        with pytest.raises(DomainError, match="^need at least one rescaled histogram$"):
            gl.binned_cloud([])

    def test_rejects_sparse_clouds(self):
        day = _rescaled({1: 5, 1000: 1})
        with pytest.raises(DomainError, match="bins"):
            gl.binned_cloud([day])


class TestPoolAndFitBeta:
    @pytest.mark.parametrize("beta", [1.41, 1.58])
    def test_exact_model_recovered_to_a_hundredth(self, beta):
        # observed errors +0.0041 and +0.0045
        fit = gl.pool_and_fit_beta([_exact_model_day(beta)], bootstrap_reps=0)
        assert fit.beta == pytest.approx(beta, abs=0.01)
        assert fit.adjusted_r2 >= 0.999
        assert fit.method == "collapse-regression"

    def test_synthetic_flickr_like_series(self):
        """120 integerized days at beta = 1.41 under coupled truncation.

        Flooring biases the pooled estimate low by about 0.045 at this
        configuration (observed 1.3650 at seed 0), which is why the band
        is asymmetric around the truth.
        """
        cfg = SamplerConfig(beta=1.41, lower_cutoff=3.0, integerize=True,
                            seed=0)
        schedule = gl.log_uniform_schedule(
            seeding.generator(0, seeding.STREAM_SCHEDULE), 120, (1e4, 1e6))
        series = gl.synthesize_series(schedule, cfg)
        fit = gl.pool_and_fit_beta(
            [gl.rescale_histogram(s) for s in series.days],
            bootstrap_reps=0)
        assert 1.35 <= fit.beta <= 1.47
        assert fit.adjusted_r2 >= 0.9

    def test_duplicating_a_day_changes_nothing_but_the_point_count(self):
        cfg = SamplerConfig(beta=1.41, lower_cutoff=3.0,
                            upper_cutoff=gl.cutoff_for_population(20_000, 1.41),
                            integerize=True, seed=4)
        day = gl.rescale_histogram(gl.synthesize_day(0, 20_000, cfg))
        single = gl.pool_and_fit_beta([day], bootstrap_reps=0)
        tenfold = gl.pool_and_fit_beta([day] * 10, bootstrap_reps=0)
        assert tenfold.beta == single.beta
        assert tenfold.adjusted_r2 == single.adjusted_r2
        assert tenfold.n_points_or_samples == 10 * single.n_points_or_samples

    def test_rising_cloud_is_outside_the_model_class(self):
        day = _rescaled({0.001: 1.0, 0.01: 5.0, 0.1: 25.0,
                                    1.0: 125.0})
        with pytest.raises(EstimationError, match="beta"):
            gl.pool_and_fit_beta([day], bootstrap_reps=0)

    def test_bootstrap_ci_is_seed_deterministic(self):
        cfg = SamplerConfig(beta=1.58, lower_cutoff=3.0, integerize=True,
                            seed=2)
        schedule = gl.log_uniform_schedule(
            seeding.generator(2, seeding.STREAM_SCHEDULE), 12, (1e4, 1e5))
        rescaled = [gl.rescale_histogram(s)
                    for s in gl.synthesize_series(schedule, cfg).days]
        a = gl.pool_and_fit_beta(rescaled, bootstrap_reps=200, seed=7)
        b = gl.pool_and_fit_beta(rescaled, bootstrap_reps=200, seed=7)
        assert a == b
        low, high = a.ci95_beta
        assert low < a.beta < high


def _loop_pool_and_fit_beta_ci(rescaled, bins_per_decade=5, bootstrap_reps=1000,
                               seed=0):
    """The per-replicate collapse bootstrap, kept as the reference.

    Re-bins the resampled days with reference_binned_cloud once per
    replicate. Returns the 95% CI and the number of replicates that entered it.
    """
    centers, values = reference_binned_cloud(rescaled, bins_per_decade)
    beta = -np.polyfit(centers, values, 1)[0]
    betas = []
    n_days = len(rescaled)
    for rep in range(bootstrap_reps):
        rng = seeding.generator(seed, seeding.STREAM_BOOTSTRAP, rep)
        idx = rng.integers(0, n_days, size=n_days)
        try:
            rep_centers, rep_values = reference_binned_cloud(
                [rescaled[i] for i in idx], bins_per_decade)
            rep_slope = np.polyfit(rep_centers, rep_values, 1)[0]
        except (DomainError, EstimationError):
            continue
        if -rep_slope > 1:
            betas.append(-rep_slope)
    return estimators._percentile_ci(betas, beta), len(betas)


def _sampled_days(n_days, seed):
    cfg = SamplerConfig(beta=1.5, lower_cutoff=1.0, integerize=True,
                        seed=seed)
    schedule = gl.log_uniform_schedule(
        seeding.generator(seed, seeding.STREAM_SCHEDULE), n_days, (1e3, 1e4))
    return [gl.rescale_histogram(s)
            for s in gl.synthesize_series(schedule, cfg).days]


class TestCollapseBootstrapMatchesReplicateLoop:
    """The weight-matrix bootstrap against the per-replicate loop.

    Sums run in another order, so endpoints may differ in the last bits;
    1e-12 is about 5000 ulps at beta ~ 1.5.
    """

    @staticmethod
    def _day_sets():
        a, b, c = _sampled_days(3, seed=5)
        narrow = _rescaled({200: 11, 500: 3, 1000: 1})
        two_bins = _rescaled({1: 1200, 1000: 1})
        return {
            "sampled": _sampled_days(6, seed=3),
            "skipped": [a, narrow, two_bins],
            "duplicated": [a, b, a, a, c],
        }

    @pytest.mark.parametrize("day_set", ["sampled", "skipped", "duplicated"])
    def test_ci_endpoints_agree(self, day_set):
        rescaled = self._day_sets()[day_set]
        fit = gl.pool_and_fit_beta(rescaled, bootstrap_reps=300, seed=11)
        (low, high), used = _loop_pool_and_fit_beta_ci(
            rescaled, bootstrap_reps=300, seed=11)
        assert fit.ci95_beta[0] == pytest.approx(low, abs=1e-12)
        assert fit.ci95_beta[1] == pytest.approx(high, abs=1e-12)
        assert low < high
        if day_set == "skipped":
            assert 0 < used < 300

    def test_zero_reps_give_the_point_interval(self):
        rescaled = self._day_sets()["sampled"]
        fit = gl.pool_and_fit_beta(rescaled, bootstrap_reps=0)
        assert fit.ci95_beta == (fit.beta, fit.beta)
        assert _loop_pool_and_fit_beta_ci(rescaled, bootstrap_reps=0) == \
            ((fit.beta, fit.beta), 0)

    def test_negative_reps_are_rejected(self):
        with pytest.raises(DomainError, match="bootstrap_reps"):
            gl.pool_and_fit_beta([_exact_model_day(1.5)], bootstrap_reps=-3)
        with pytest.raises(DomainError, match="bootstrap_reps"):
            gl.fit_gamma_tls(_power_series(1.3), bootstrap_reps=-3)



def _reference_tls_slope(x, y):
    """The principal-axis slope of one point set, by the closed form."""
    dx, dy = x - x.mean(), y - y.mean()
    sxx, syy, sxy = dx @ dx, dy @ dy, dx @ dy
    if sxy == 0:
        return 0.0 if syy <= sxx else math.nan
    return (syy - sxx + math.hypot(syy - sxx, 2.0 * sxy)) / (2.0 * sxy)


def _loop_fit_gamma_tls_ci(pairs, bootstrap_reps=1000, seed=0):
    """The per-replicate TLS bootstrap, kept as the reference.

    Fits the resampled points x[idx], y[idx] once per replicate, skipping
    draws of one population and vertical axes. Returns the 95% CI and the
    number of replicates that entered it.
    """
    x, y = np.log10(np.asarray(pairs, dtype=float)).T
    slope = _reference_tls_slope(x, y)
    slopes = []
    rngs = seeding.generators(seed, seeding.STREAM_BOOTSTRAP, bootstrap_reps)
    for rng in rngs:
        idx = rng.integers(0, len(x), size=len(x))
        if len(set(x[idx].tolist())) < 2:
            continue
        rep_slope = _reference_tls_slope(x[idx], y[idx])
        if not math.isnan(rep_slope):
            slopes.append(rep_slope)
    return estimators._percentile_ci(slopes, slope), len(slopes)


class TestTlsBootstrapMatchesReplicateLoop:
    """The weight-matrix TLS bootstrap against the per-replicate loop.

    Weighted sums run in another order than sums over repeated points, so
    endpoints may differ in the last bits.
    """

    @staticmethod
    def _series():
        cfg = SamplerConfig(beta=1.58, lower_cutoff=1.0, seed=4)
        schedule = gl.log_uniform_schedule(
            seeding.generator(4, seeding.STREAM_SCHEDULE), 20, (1e3, 1e5))
        return {
            "sampled": list(gl.series_totals(schedule, cfg)),
            # 7 of the 9 days share P = 3, so about a tenth of the
            # replicates draw no other day.
            "nine-days": list(zip([3, 3, 3, 3, 3, 3, 3, 100, 1000],
                                  [4, 5, 6, 4, 5, 6, 5, 300, 5000])),
            "three-days": [(1007, 16004), (10000, 418012), (100000, 9699999)],
        }

    @pytest.mark.parametrize("series, used", [
        ("sampled", 1000), ("nine-days", 895), ("three-days", 889)])
    def test_ci_endpoints_agree(self, series, used):
        pairs = self._series()[series]
        fit = gl.fit_gamma_tls(pairs, bootstrap_reps=1000, seed=0)
        (low, high), reference_used = _loop_fit_gamma_tls_ci(pairs, 1000, 0)
        assert fit.ci95_slope[0] == pytest.approx(low, abs=1e-12)
        assert fit.ci95_slope[1] == pytest.approx(high, abs=1e-12)
        assert reference_used == used
        assert low < fit.slope < high

    def test_zero_reps_give_the_point_interval(self):
        pairs = self._series()["sampled"]
        fit = gl.fit_gamma_tls(pairs, bootstrap_reps=0)
        assert fit.ci95_slope == (fit.slope, fit.slope)
        (low, high), used = _loop_fit_gamma_tls_ci(pairs, bootstrap_reps=0)
        assert used == 0
        assert (low, high) == pytest.approx((fit.slope, fit.slope), abs=1e-12)


class TestBootstrapReps:
    @pytest.mark.parametrize("reps", [2.5, True, False, "10", None,
                                      np.float64(3.0)])
    def test_non_integer_counts_are_rejected(self, reps):
        estimators._bootstrap_weights.cache_clear()
        with pytest.raises(DomainError, match=re.escape(
                f"bootstrap_reps must be an integer, got {reps!r}")):
            gl.fit_gamma_tls(_power_series(1.3), bootstrap_reps=reps)
        with pytest.raises(DomainError, match="bootstrap_reps must be an integer"):
            gl.pool_and_fit_beta([_exact_model_day(1.5)], bootstrap_reps=reps)
        assert estimators._bootstrap_weights.cache_info().currsize == 0

    def test_numpy_integer_counts_are_accepted(self):
        pairs = _noisy_pairs()
        day = [_exact_model_day(1.5)]
        assert gl.fit_gamma_tls(pairs, bootstrap_reps=np.int32(50), seed=1) \
            == gl.fit_gamma_tls(pairs, bootstrap_reps=50, seed=1)
        assert gl.pool_and_fit_beta(day, bootstrap_reps=np.uint8(50), seed=1) \
            == gl.pool_and_fit_beta(day, bootstrap_reps=50, seed=1)

    def test_weights_are_day_multiplicities_of_the_draws(self):
        weights = estimators._bootstrap_weights(7, 40, 3)
        rngs = seeding.generators(3, seeding.STREAM_BOOTSTRAP, 40)
        for row, rng in zip(weights, rngs):
            assert row.tolist() == np.bincount(rng.integers(0, 7, size=7),
                                               minlength=7).tolist()
        assert not weights.flags.writeable


class TestPercentileCi:
    @given(values=st.one_of(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=80),
        st.lists(st.integers(min_value=-3, max_value=3).map(float),
                 min_size=1, max_size=80),
    ))
    @settings(max_examples=300, deadline=None)
    @example(values=[1.25])
    @example(values=[2.0, 1.0])
    @example(values=[3.0, 3.0, 3.0])
    @example(values=[1.0, 1.0, 2.0, 2.0, 2.0])
    @example(values=np.linspace(-1.0, 1.0, 41).tolist())
    @example(values=[float(v) for v in range(1000, 0, -1)])
    def test_equals_numpy_percentile_bit_for_bit(self, values):
        expected = np.percentile(values, [2.5, 97.5])
        # A nan center widens nothing: min and max keep their first argument.
        got = estimators._percentile_ci(np.array(values), math.nan)
        assert np.array(got).tobytes() == expected.tobytes()

    def test_center_outside_the_percentiles_widens_the_interval(self):
        values = np.arange(1.0, 101.0)
        assert estimators._percentile_ci(values, 0.5)[0] == 0.5
        assert estimators._percentile_ci(values, 200.0)[1] == 200.0
        assert estimators._percentile_ci(np.array([]), 3.0) == (3.0, 3.0)


class TestBinsPerDecade:
    _fits = {
        "binned_cloud": lambda days, b: gl.binned_cloud(days, b),
        "pool_and_fit_beta": lambda days, b: gl.pool_and_fit_beta(
            days, bins_per_decade=b, bootstrap_reps=20),
        "score_against_beta": lambda days, b: gl.score_against_beta(
            days, 1.5, bins_per_decade=b),
    }

    @pytest.mark.parametrize("fit", _fits)
    @pytest.mark.parametrize("bins", [math.inf, math.nan, 2.5, True, "5",
                                      np.float64(5.0)])
    def test_non_integer_counts_are_rejected(self, fit, bins):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=re.escape(
                    f"bins_per_decade must be an integer, got {bins!r}")):
                self._fits[fit]([_exact_model_day(1.5)], bins)

    @pytest.mark.parametrize("fit", _fits)
    def test_counts_below_one_are_rejected(self, fit):
        with pytest.raises(DomainError,
                           match="^bins_per_decade must be >= 1, got 0$"):
            self._fits[fit]([_exact_model_day(1.5)], 0)

    @pytest.mark.parametrize("fit", _fits)
    def test_numpy_integer_counts_are_accepted(self, fit):
        days = [_exact_model_day(1.5)]
        first, second = (self._fits[fit](days, b) for b in (np.int16(5), 5))
        if fit == "binned_cloud":
            assert [a.tolist() for a in first] == [a.tolist() for a in second]
        else:
            assert first == second


class TestScoreAgainstBeta:
    def test_true_exponent_scores_near_one(self):
        day = _exact_model_day(1.58)
        assert gl.score_against_beta([day], 1.58) > 0.999

    def test_wrong_exponent_scores_lower(self):
        day = _exact_model_day(1.58)
        right = gl.score_against_beta([day], 1.58)
        wrong = gl.score_against_beta([day], 2.08)
        assert wrong < right - 0.05

    def test_rejects_beta_at_or_below_one(self):
        with pytest.raises(DomainError):
            gl.score_against_beta([_exact_model_day(1.5)], 1.0)

    @pytest.mark.parametrize("beta", [math.inf, math.nan])
    def test_rejects_non_finite_beta(self, beta):
        with pytest.raises(DomainError, match="^beta must be finite and exceed 1"):
            gl.score_against_beta([_exact_model_day(1.5)], beta)


class TestFitBetaMle:
    def test_two_samples_one_log_unit_up(self):
        fit = gl.fit_beta_mle([math.e, math.e], x_min=1.0)
        assert fit.beta == pytest.approx(2.0, rel=1e-12)
        assert fit.method == "mle"

    def test_recovers_unbounded_exponent_from_1e5_draws(self):
        # observed 1.57935 at this seed; the acceptance bound is 0.02
        cfg = SamplerConfig(beta=1.58, lower_cutoff=1.0)
        x = gl.sample_activity(
            cfg, seeding.generator(0, seeding.STREAM_DAY, 0).random(100_000))
        fit = gl.fit_beta_mle(x, x_min=1.0)
        assert fit.beta == pytest.approx(1.58, abs=0.02)
        assert fit.n_points_or_samples == 100_000

    def test_ci_matches_the_asymptotic_formula(self):
        samples = [1.5, 2.5, 7.0, 1.1]
        fit = gl.fit_beta_mle(samples, x_min=1.0)
        half = 1.96 * (fit.beta - 1.0) / math.sqrt(4)
        assert fit.ci95_beta[0] == pytest.approx(fit.beta - half, rel=1e-12)
        assert fit.ci95_beta[1] == pytest.approx(fit.beta + half, rel=1e-12)

    def test_truncated_data_biases_the_mle_upward(self):
        """The closed form assumes unbounded support. On truncated data it
        lands far above the generating exponent (observed 1.3487 against a
        true 1.2), with a CI that excludes the truth; this is the documented
        reason collapse and MLE estimates are never compared on the same
        truncated sample."""
        cfg = SamplerConfig(beta=1.2, lower_cutoff=1.0, upper_cutoff=2000.0)
        x = gl.sample_activity(cfg, np.random.default_rng(3).random(50_000))
        fit = gl.fit_beta_mle(x, x_min=1.0)
        assert fit.beta > 1.3
        assert fit.ci95_beta[0] > 1.2

    def test_degenerate_and_invalid_inputs(self):
        with pytest.raises(EstimationError):
            gl.fit_beta_mle([1.0, 1.0, 1.0], x_min=1.0)
        with pytest.raises(DomainError):
            gl.fit_beta_mle([2.0], x_min=1.0)
        with pytest.raises(DomainError):
            gl.fit_beta_mle([0.5, 2.0], x_min=1.0)
        with pytest.raises(DomainError):
            gl.fit_beta_mle([2.0, 3.0], x_min=0.2)

    @pytest.mark.parametrize("samples", [[2.0, math.inf], [2.0, math.nan, 3.0]])
    def test_non_finite_samples_are_rejected(self, samples):
        with pytest.raises(DomainError, match="^samples must be finite$"):
            gl.fit_beta_mle(samples)


class TestCrossEstimatorAgreement:
    @pytest.mark.parametrize("beta", [1.2, 1.41, 1.58, 1.8])
    def test_collapse_and_mle_land_on_the_same_exponent(self, beta):
        """Each estimator on its own valid domain, same generating beta.

        Collapse runs on integerized coupled-truncation days (its intended
        input), the MLE on continuous unbounded draws (its model class).
        Their confidence intervals are NOT comparable: the collapse
        day-bootstrap cannot see the shared flooring bias (-0.04 at this
        configuration) and its band is a few thousandths wide, so the
        assertion is point agreement at the measured scale (observed gaps
        0.043 to 0.067) plus MLE coverage of the truth. The likelihood fit
        reads the same integerized days as floored draws, and its interval
        covers the truth (observed 1.20006, 1.41008, 1.58008, 1.80010).
        """
        cfg = SamplerConfig(beta=beta, lower_cutoff=3.0, integerize=True,
                            seed=0)
        schedule = gl.log_uniform_schedule(
            seeding.generator(0, seeding.STREAM_SCHEDULE), 40, (1e4, 1e6))
        series = gl.synthesize_series(schedule, cfg)
        collapse = gl.pool_and_fit_beta(
            [gl.rescale_histogram(s) for s in series.days],
            bootstrap_reps=0)
        unbounded = SamplerConfig(beta=beta, lower_cutoff=1.0)
        draws = gl.sample_activity(
            unbounded, seeding.generator(100, seeding.STREAM_DAY, 0).random(1_000))
        mle = gl.fit_beta_mle(draws, x_min=1.0)
        assert abs(collapse.beta - mle.beta) < 0.08
        assert abs(collapse.beta - beta) < 0.06
        assert mle.ci95_beta[0] <= beta <= mle.ci95_beta[1]
        likelihood = gl.fit_beta_likelihood(series.days)
        assert likelihood.ci95_beta[0] <= beta <= likelihood.ci95_beta[1]


class TestFitBetaLikelihood:
    def test_readme_series_is_pinned(self):
        """The days of `simulate --beta 1.5 --days 100 --integerize --seed 0`,
        on which the collapse fit reads 1.39504 [1.38854, 1.40092]."""
        schedule = gl.log_uniform_schedule(
            seeding.generator(0, seeding.STREAM_SCHEDULE), 100, (1000, 100000))
        series = gl.synthesize_series(
            schedule, SamplerConfig(beta=1.5, integerize=True, seed=0))
        fit = gl.fit_beta_likelihood(series.days)
        assert [f"{value:.6g}" for value in (fit.beta, *fit.ci95_beta)] == [
            "1.50054", "1.4997", "1.50139"]
        assert (fit.method, fit.n_points_or_samples) == ("likelihood", 2376126)
        assert math.isnan(fit.adjusted_r2)

    @pytest.mark.parametrize("levels,counts", [
        ([3, 4, 9, 20], [40, 25, 6, 1]),
        ([3.25, 4.5, 9.0, 20.75], [1, 1, 2, 1]),
    ], ids=["integer", "float"])
    def test_rows_are_the_day_log_likelihoods(self, levels, counts):
        """Each row is sum n log p(level) over the day, p the floored pmf
        (k^(1-b) - (k+1)^(1-b)) / (c^(1-b) - U^(1-b)), U the maximum plus 1,
        for integer levels, and the density (b-1) x^-b / (c^(1-b) - U^(1-b)),
        U the maximum, for float levels."""
        level_array = np.array(levels)
        total = float(level_array @ np.array(counts))
        day = DailySnapshot(0, total, level_array, np.array(counts))
        c = 3.0
        grid = estimators._BETA_GRID[[0, 49, 198]]
        a = 1.0 - grid
        x = level_array.astype(float)[:, None]
        if level_array.dtype.kind == "i":
            norm = c**a - (x[-1] + 1.0) ** a
            log_p = np.log((x**a - (x + 1.0) ** a) / norm)
        else:
            norm = c**a - x[-1] ** a
            log_p = np.log(-a * x ** (a - 1.0) / norm)
        rows = estimators._beta_loglik([day, day], c)
        np.testing.assert_allclose(rows[:, [0, 49, 198]],
                                   np.tile(np.array(counts) @ log_p, (2, 1)),
                                   rtol=1e-10)

    def test_mixed_days_match_a_per_level_loop(self):
        """Floored and continuous days in one call, each row against a loop
        over the day's levels in math: floored levels k have the mass
        (k^a - (k+1)^a) / (c^a - U^a), U the maximum plus 1, and continuous
        levels x the density (b-1) x^-b / (c^a - U^a), U the maximum, a = 1-b."""
        histograms = [([3, 6], [1, 1]), ([3.25, 4.5, 9.0, 20.75], [1, 3, 2, 1]),
                      ([3, 4, 9, 20], [20, 15, 6, 1]), ([5.5], [2]),
                      ([3, 5, 7, 40], [9, 3, 1, 1])]
        days = [DailySnapshot(index, float(np.dot(levels, counts)), np.array(levels),
                              np.array(counts))
                for index, (levels, counts) in enumerate(histograms)]
        c = 3.0
        rows = estimators._beta_loglik(days, c)
        for row, day in zip(rows, days):
            floored = day.levels.dtype.kind == "i"
            for b, value in zip(estimators._BETA_GRID.tolist(), row.tolist()):
                a = 1.0 - b
                norm = c**a - (day.f_max + floored) ** a
                expected = 0.0
                for x, n in zip(day.levels.tolist(), day.counts.tolist()):
                    p = (x**a - (x + 1) ** a if floored else (b - 1) * x**-b) / norm
                    expected += n * math.log(p)
                assert value == pytest.approx(expected, rel=1e-9), (day.day, b)

    def test_a_float_day_all_at_c_adds_nothing(self):
        # Truncated at its own maximum c, such a day has probability 1.
        config = SamplerConfig(beta=1.5, lower_cutoff=2.0, seed=4)
        days = gl.synthesize_series([2000] * 5, config).days
        lowest = min(float(day.levels[0]) for day in days)
        point = DailySnapshot(5, 3 * lowest, np.array([lowest]), np.array([3]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gl.fit_beta_likelihood([*days, point]).beta == \
                gl.fit_beta_likelihood(days).beta

    def test_no_days_is_a_domain_error(self):
        with pytest.raises(DomainError, match="^need at least one day to fit beta$"):
            gl.fit_beta_likelihood([])

    def test_days_all_at_level_one_have_no_peak(self):
        # Every level-1 day has probability 1 whatever beta: a flat likelihood.
        days = [DailySnapshot(day, float(users), np.array([1]), np.array([users]))
                for day, users in enumerate((5, 50, 500))]
        with pytest.raises(EstimationError, match="edge of the beta grid"):
            gl.fit_beta_likelihood(days)


class TestFitTypes:
    def test_tls_fit_invariants(self):
        with pytest.raises(DomainError):
            TlsFit(slope=1.5, intercept=0.0, ci95_slope=(1.6, 1.7),
                   adjusted_r2=0.9, n_points=10)
        with pytest.raises(DomainError):
            TlsFit(slope=1.5, intercept=0.0, ci95_slope=(1.4, 1.6),
                   adjusted_r2=1.5, n_points=10)
        with pytest.raises(DomainError):
            TlsFit(slope=1.5, intercept=0.0, ci95_slope=(1.4, 1.6),
                   adjusted_r2=0.9, n_points=2)

    def test_beta_fit_invariants(self):
        with pytest.raises(DomainError):
            BetaFit(beta=0.9, ci95_beta=(0.8, 1.0), adjusted_r2=0.9,
                    method="mle", n_points_or_samples=10)
        with pytest.raises(DomainError):
            BetaFit(beta=1.5, ci95_beta=(1.6, 1.7), adjusted_r2=0.9,
                    method="mle", n_points_or_samples=10)

    def test_rescaled_histogram_invariants(self):
        with pytest.raises(DomainError):
            RescaledHistogram(rel=[0.5], counts=[3.0], source_day=0, f_max=10.0)
        with pytest.raises(DomainError):
            RescaledHistogram(rel=[0.5, 1.0], counts=[0.0, 1.0], source_day=0,
                              f_max=10.0)
        with pytest.raises(DomainError):
            RescaledHistogram(rel=[0.5, 1.0], counts=[1.0], source_day=0,
                              f_max=10.0)
