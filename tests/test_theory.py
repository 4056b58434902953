"""Closed-form theory: gamma(beta), moment integrals and their approximations.

The independent oracle throughout is adaptive quadrature of the defining
integrals; the single-term approximations are checked against their exact
closed-form relative errors rather than against hand-picked tolerances.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from growthlab import (
    DomainError,
    Exponents,
    MomentPair,
    approx_moments,
    cutoff_for_population,
    exact_moments,
    gamma_of_beta,
    iid_sum_exponent,
    theta_of_gamma,
)

BETA_GRID = [1.1, 1.5, 1.9, 2.0, 2.5, 4.0]
FMAX_GRID = [1e3, 1e4, 1e5]

betas = st.floats(min_value=1.001, max_value=6.0, allow_nan=False)
cutoffs = st.floats(min_value=1.0 + 1e-9, max_value=1e6, allow_nan=False)


class TestGammaOfBeta:
    def test_superlinear_branch_is_two_over_beta(self):
        assert gamma_of_beta(1.58) == pytest.approx(2.0 / 1.58, rel=1e-15)
        assert gamma_of_beta(1.41) == pytest.approx(2.0 / 1.41, rel=1e-15)
        assert gamma_of_beta(1.2) == pytest.approx(5.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("beta", [2.0, 2.5, 4.0, 100.0])
    def test_linear_branch(self, beta):
        assert gamma_of_beta(beta) == 1.0

    def test_continuous_at_two(self):
        assert gamma_of_beta(2.0 - 1e-12) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("beta", [1.0, 0.5, -3.0])
    def test_rejects_beta_at_or_below_one(self, beta):
        with pytest.raises(DomainError):
            gamma_of_beta(beta)

    @given(st.floats(min_value=1.001, max_value=1.999),
           st.floats(min_value=1.001, max_value=1.999))
    def test_strictly_decreasing_below_two(self, a, b):
        lo, hi = sorted((a, b))
        if lo < hi:
            assert gamma_of_beta(lo) > gamma_of_beta(hi)


class TestThetaOfGamma:
    def test_is_gamma_minus_one(self):
        assert theta_of_gamma(1.39) == pytest.approx(0.39, abs=1e-15)
        assert theta_of_gamma(1.0) == 0.0

    def test_rejects_sublinear_gamma(self):
        with pytest.raises(DomainError):
            theta_of_gamma(0.97)

    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    def test_rejects_a_non_finite_gamma(self, gamma):
        with pytest.raises(DomainError,
                           match=f"^gamma must be finite and at least 1, got {gamma}$"):
            theta_of_gamma(gamma)


class TestExponents:
    def test_beta_gives_a_consistent_triple(self):
        e = Exponents(1.41)
        assert e.gamma == pytest.approx(2.0 / 1.41, rel=1e-15)
        assert e.theta == pytest.approx(e.gamma - 1.0, abs=1e-15)

    @pytest.mark.parametrize("beta", [1.0, 0.5, math.nan])
    def test_rejects_beta_at_or_below_one(self, beta):
        with pytest.raises(DomainError):
            Exponents(beta)


class TestMomentPair:
    def test_rejects_negative_moments(self):
        with pytest.raises(DomainError):
            MomentPair(population=-1.0, total_activity=0.0, f_max=10.0)

    def test_rejects_activity_below_population_when_cutoff_valid(self):
        # every user contributes at least one tag when levels start at 1
        with pytest.raises(DomainError):
            MomentPair(population=10.0, total_activity=5.0, f_max=10.0)

    @pytest.mark.parametrize("population, total", [
        (math.inf, math.inf), (1.0, math.inf), (math.nan, 1.0)])
    def test_rejects_a_moment_that_is_not_finite(self, population, total):
        with pytest.raises(DomainError, match="^moments must be finite"):
            MomentPair(population=population, total_activity=total, f_max=10.0)


@pytest.mark.parametrize("moments, f_max, beta", [
    (exact_moments, 10.0, 1000.0),
    (approx_moments, 10.0, 1e308),
    (approx_moments, 1e300, 1.5),
])
def test_a_moment_past_float64_is_a_domain_error(moments, f_max, beta):
    # math.expm1 and float ** raise OverflowError here, which is no
    # GrowthlabError.
    message = f"a moment at f_max {f_max!r} and beta {beta!r} passes the float64 range"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        moments(f_max, beta)


def test_a_moment_that_overflows_to_inf_is_a_domain_error():
    # f_max * f_max overflows to inf silently; the pair refuses it.
    with pytest.raises(DomainError, match="^moments must be finite"):
        exact_moments(1e300, 1.5)


class TestExactMoments:
    @pytest.mark.parametrize("f_max", FMAX_GRID)
    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_matches_adaptive_quadrature(self, f_max, beta):
        # integrate n(f) and f*n(f) in log space (f = e^t), where the
        # integrand is smooth over the full 1..f_max span for every beta
        pair = exact_moments(f_max, beta)
        density = lambda f: (f / f_max) ** (-beta)
        pop, _ = integrate.quad(
            lambda t: math.exp(t) * density(math.exp(t)),
            0.0, math.log(f_max), limit=200)
        tot, _ = integrate.quad(
            lambda t: math.exp(2 * t) * density(math.exp(t)),
            0.0, math.log(f_max), limit=200)
        assert pair.population == pytest.approx(pop, rel=1e-6)
        assert pair.total_activity == pytest.approx(tot, rel=1e-6)

    def test_beta_two_limit_keeps_log_factor(self):
        pair = exact_moments(1e3, 2.0)
        assert pair.total_activity == pytest.approx(1e6 * math.log(1e3), rel=1e-12)
        # and the removable singularity really is removable
        near = exact_moments(1e3, 2.0 + 1e-9)
        assert near.total_activity == pytest.approx(pair.total_activity, rel=1e-6)

    def test_degenerate_cutoff_gives_empty_system(self):
        pair = exact_moments(1.0, 1.5)
        assert pair.population == 0.0
        assert pair.total_activity == 0.0

    @given(cutoffs, betas)
    @settings(max_examples=200)
    def test_activity_dominates_population(self, f_max, beta):
        pair = exact_moments(f_max, beta)
        assert pair.total_activity >= pair.population

    @pytest.mark.parametrize("f_max,beta", [(1e3, 1.0), (1e3, 0.2), (0.5, 1.5)])
    def test_domain_errors(self, f_max, beta):
        with pytest.raises(DomainError):
            exact_moments(f_max, beta)


@pytest.mark.parametrize("moments", [exact_moments, approx_moments])
@pytest.mark.parametrize("f_max", [math.inf, math.nan])
def test_non_finite_cutoffs_are_rejected(moments, f_max):
    rule = "must be finite" if f_max == math.inf else "must be >= 1"
    with pytest.raises(DomainError, match=f"^f_max {rule}, got {f_max}$"):
        moments(f_max, 1.5)


class TestApproxMoments:
    def test_pinned_examples(self):
        pair = approx_moments(1e4, 1.5)
        assert pair.population == pytest.approx(2e6, rel=1e-12)
        assert pair.total_activity == pytest.approx(2e8, rel=1e-12)
        pair = approx_moments(1e3, 2.0)
        assert pair.population == pytest.approx(1e6, rel=1e-12)
        assert pair.total_activity == pytest.approx(1e6, rel=1e-12)

    def test_steep_branch(self):
        pair = approx_moments(1e3, 2.5)
        assert pair.population == pytest.approx(1e3**2.5 / 1.5, rel=1e-12)
        assert pair.total_activity == pytest.approx(1e3**2.5 / 0.5, rel=1e-12)

    @given(st.floats(min_value=2.0, max_value=1e5), betas)
    @settings(max_examples=300)
    def test_relative_error_identities(self, f_max, beta):
        """The approximation error is known exactly, not just bounded.

        errP = 1/(f_max^(beta-1) - 1) always, and
        errF = 1/(f_max^|2-beta| - 1) for beta != 2. Measured error must
        reproduce these identities to float precision. The measured error
        is a difference of nearly equal floats when it is small, so the
        comparison carries an absolute cancellation allowance.
        """
        exact = exact_moments(f_max, beta)
        try:
            approx = approx_moments(f_max, beta)
        except DomainError:
            # asymptotic form broke down (F < P near beta = 1); pinned below
            assume(False)
        err_p = abs(approx.population - exact.population) / exact.population
        assert err_p == pytest.approx(
            1.0 / (f_max ** (beta - 1.0) - 1.0), rel=1e-9, abs=1e-12)
        if abs(beta - 2.0) > 1e-3:
            err_f = abs(approx.total_activity - exact.total_activity)
            err_f /= exact.total_activity
            assert err_f == pytest.approx(
                1.0 / (f_max ** abs(2.0 - beta) - 1.0), rel=1e-9, abs=1e-12)

    def test_breakdown_corner_raises_rather_than_lying(self):
        """Near beta = 1 at small cutoffs the single-term form is not a
        valid moment pair (it would put F below P); the constructor's
        invariant turns that into an error instead of returning garbage."""
        with pytest.raises(DomainError):
            approx_moments(2.0, 1.001)

    def test_beta_two_drops_the_log_factor(self):
        # F_exact = f_max^2 ln f_max, so the error is 1 - 1/ln f_max: large.
        exact = exact_moments(1e3, 2.0)
        approx = approx_moments(1e3, 2.0)
        err = abs(approx.total_activity - exact.total_activity)
        err /= exact.total_activity
        assert err == pytest.approx(1.0 - 1.0 / math.log(1e3), rel=1e-12)

    @pytest.mark.parametrize("f_max", FMAX_GRID)
    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_two_percent_on_the_valid_region(self, f_max, beta):
        """Both moments are within 2% exactly where the identities say so.

        The error identities put the 2% line at f_max^min(beta-1, |2-beta|)
        > 51. Cells outside that region genuinely exceed 2% (by up to 100%
        near beta = 1 and beta = 2) and are excluded here; the audit over
        the full grid lives in the acceptance tests.
        """
        margin = min(beta - 1.0, abs(2.0 - beta))
        if beta == 2.0 or f_max**margin <= 51.0:
            pytest.skip("outside the region where the bound holds")
        exact = exact_moments(f_max, beta)
        approx = approx_moments(f_max, beta)
        assert abs(approx.population - exact.population) < 0.02 * exact.population
        assert (abs(approx.total_activity - exact.total_activity)
                < 0.02 * exact.total_activity)


class TestCutoffForPopulation:
    def test_pinned_examples(self):
        assert cutoff_for_population(2e6, 1.5) == pytest.approx(1e4, rel=1e-12)
        assert cutoff_for_population(1e3, 1.5) == pytest.approx(62.996, abs=1e-3)
        assert cutoff_for_population(1e5, 1.41) == pytest.approx(1868.4346, abs=1e-3)

    def test_root_in_logs_when_the_product_overflows(self):
        # (beta - 1) P is 1e310 here: the root is exp(log(1e310) / 1e306).
        assert cutoff_for_population(1e4, 1e306) == 1.0
        assert cutoff_for_population(100, 1e306) == 1.0
        assert cutoff_for_population(1e300, 1e10) == pytest.approx(
            math.exp((math.log(1e10 - 1) + math.log(1e300)) / 1e10), rel=1e-15)
        # A finite product keeps the bits of the plain root.
        assert cutoff_for_population(1e3, 1.5) == (0.5 * 1e3) ** (1 / 1.5)

    def test_rejects_population_too_small_for_unit_cutoff(self):
        with pytest.raises(DomainError):
            cutoff_for_population(1.0, 1.5)

    def test_rejects_nonpositive_population(self):
        with pytest.raises(DomainError):
            cutoff_for_population(0.0, 1.5)

    @pytest.mark.parametrize("population", [math.inf, math.nan])
    def test_rejects_a_non_finite_population(self, population):
        with pytest.raises(
                DomainError,
                match=f"^population must be finite and positive, got {population}$"):
            cutoff_for_population(population, 1.5)

    @given(st.floats(min_value=1.0, max_value=1e5), betas)
    @example(1.0, 1.7004)  # (beta-1) * 1/(beta-1) rounds to 1 - 2^-53
    @settings(max_examples=300)
    def test_round_trip_with_approx_population(self, f_max, beta):
        # the inverse needs only the population branch, f_max^beta/(beta-1)
        population = f_max**beta / (beta - 1.0)
        assert cutoff_for_population(population, beta) == pytest.approx(
            f_max, rel=1e-12)


class TestIidSumExponent:
    def test_unbounded_scaling_values(self):
        assert iid_sum_exponent(1.5) == pytest.approx(2.0, rel=1e-15)
        assert iid_sum_exponent(1.25) == pytest.approx(4.0, rel=1e-15)
        assert iid_sum_exponent(2.0) == 1.0
        assert iid_sum_exponent(3.0) == 1.0

    @given(st.floats(min_value=1.001, max_value=1.999))
    def test_always_exceeds_the_truncated_law_below_two(self, beta):
        # beta^2 - 2 beta + 2 > 0, so the divergence is strict everywhere
        assert iid_sum_exponent(beta) > gamma_of_beta(beta)

    def test_rejects_beta_at_or_below_one(self):
        with pytest.raises(DomainError):
            iid_sum_exponent(1.0)
