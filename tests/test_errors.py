"""Tests for the shared input rules in growthlab.errors and their callers.

beta, cutoffs and population ranges each have one check in errors; every
entry point that takes one must reject a bad value with that check's
DomainError, and no module may grow its own copy of the beta rule.
"""

import ast
import math
import pathlib
import re

import numpy as np
import pytest

import growthlab
from growthlab import (
    Exponents,
    SamplerConfig,
    approx_moments,
    collapse_check,
    cutoff_for_population,
    exact_moments,
    fit_beta_mle,
    gamma_of_beta,
    iid_sum_exponent,
    rescale_histogram,
    run_sweep,
    score_against_beta,
    synthesize_series,
)
from growthlab.errors import (
    DomainError,
    check_beta,
    check_cutoff,
    check_population_range,
)

_BAD_BETAS = [math.inf, math.nan, 1.0, True, "1.5", None]
_BAD_CUTOFFS = [math.inf, math.nan, 0.5, True, "1.5", None]


def _ids(values):
    return [repr(value) for value in values]


@pytest.fixture(scope="module")
def series():
    config = SamplerConfig(beta=1.41, upper_cutoff=500.0, integerize=True, seed=0)
    return synthesize_series([5000] * 3, config, "fixed")


_BETA_ENTRY_POINTS = {
    "Exponents": lambda beta, series: Exponents(beta),
    "gamma_of_beta": lambda beta, series: gamma_of_beta(beta),
    "iid_sum_exponent": lambda beta, series: iid_sum_exponent(beta),
    "exact_moments": lambda beta, series: exact_moments(10.0, beta),
    "approx_moments": lambda beta, series: approx_moments(10.0, beta),
    "cutoff_for_population": lambda beta, series: cutoff_for_population(1e3, beta),
    "SamplerConfig": lambda beta, series: SamplerConfig(beta=beta),
    "run_sweep": lambda beta, series: run_sweep(c_values=[1.0], beta_values=[beta]),
    "score_against_beta": lambda beta, series: score_against_beta(
        [rescale_histogram(day) for day in series.days], beta),
    "collapse_check": lambda beta, series: collapse_check(
        series, beta_hypothesis=beta, bootstrap_reps=0),
}


@pytest.mark.parametrize("entry", _BETA_ENTRY_POINTS)
@pytest.mark.parametrize("beta", _BAD_BETAS, ids=_ids(_BAD_BETAS))
def test_every_entry_point_rejects_a_bad_beta(entry, beta, series):
    if entry == "collapse_check" and beta is None:
        pytest.skip("beta_hypothesis=None asks for no hypothesis")
    with pytest.raises(DomainError, match="^" + re.escape(
            f"beta must be finite and exceed 1, got {beta!r}") + "$"):
        _BETA_ENTRY_POINTS[entry](beta, series)


_CUTOFF_ENTRY_POINTS = {
    "SamplerConfig-lower_cutoff": (
        "lower cutoff", lambda c: SamplerConfig(beta=1.5, lower_cutoff=c)),
    "SamplerConfig-upper_cutoff": (
        "upper cutoff", lambda c: SamplerConfig(beta=1.5, upper_cutoff=c)),
    "exact_moments-f_max": ("f_max", lambda c: exact_moments(c, 1.5)),
    "fit_beta_mle-x_min": ("x_min", lambda c: fit_beta_mle([2.0, 3.0], x_min=c)),
    "run_sweep-c_values": (
        "lower cutoff", lambda c: run_sweep(c_values=[c], beta_values=[1.5])),
}


@pytest.mark.parametrize("entry", _CUTOFF_ENTRY_POINTS)
@pytest.mark.parametrize("cutoff", _BAD_CUTOFFS, ids=_ids(_BAD_CUTOFFS))
def test_every_entry_point_rejects_a_bad_cutoff(entry, cutoff):
    if entry == "SamplerConfig-upper_cutoff" and cutoff is None:
        pytest.skip("upper_cutoff=None means no upper cutoff")
    name, call = _CUTOFF_ENTRY_POINTS[entry]
    rule = "must be finite" if cutoff == math.inf else "must be >= 1"
    with pytest.raises(DomainError, match="^" + re.escape(
            f"{name} {rule}, got {cutoff!r}") + "$"):
        call(cutoff)


def test_an_infinite_upper_cutoff_is_rejected():
    # An infinite U would let a "fixed" series draw unbounded days.
    with pytest.raises(DomainError, match="^upper cutoff must be finite, got inf$"):
        SamplerConfig(beta=1.5, upper_cutoff=math.inf)


def test_an_infinite_x_min_is_named():
    with pytest.raises(DomainError, match="^x_min must be finite, got inf$"):
        fit_beta_mle([2.0, 3.0], x_min=math.inf)


def test_a_numpy_beta_comes_back_as_a_python_float():
    gamma = gamma_of_beta(np.float32(1.5))
    assert type(gamma) is float and gamma == 2.0 / 1.5


def test_sampler_config_stores_the_checked_values():
    config = SamplerConfig(beta=np.float32(1.5), lower_cutoff=2,
                           upper_cutoff=np.int64(50), seed=np.uint64(3))
    assert (config.beta, config.lower_cutoff, config.upper_cutoff, config.seed) == (
        1.5, 2.0, 50.0, 3)
    assert [type(value) for value in
            (config.beta, config.lower_cutoff, config.upper_cutoff, config.seed)
            ] == [float, float, float, int]


class TestChecks:
    @pytest.mark.parametrize("beta", [1.5, 2, np.float64(9.0), np.int64(3),
                                      np.float32(1.25), 1 + 2**-52])
    def test_beta_accepts_a_number_above_one(self, beta):
        value = check_beta(beta)
        assert type(value) is float and value == beta

    def test_beta_past_the_float_range_is_not_finite(self):
        with pytest.raises(DomainError, match="^beta must be finite and exceed 1"):
            check_beta(10**400)

    @pytest.mark.parametrize("value", [1, 1.0, np.int32(7), np.float64(2.5)])
    def test_cutoff_accepts_a_finite_number_of_at_least_one(self, value):
        cutoff = check_cutoff(value, "C")
        assert type(cutoff) is float and cutoff == value

    @pytest.mark.parametrize("value,message", [
        (-math.inf, "C must be >= 1, got -inf"),
        (np.bool_(True), f"C must be >= 1, got {np.bool_(True)!r}"),
        (10**400, "C must be finite, got 1" + "0" * 400),
    ])
    def test_cutoff_messages(self, value, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            check_cutoff(value, "C")

    def test_population_range_returns_floats(self):
        assert check_population_range((10, np.int64(1000)), 10) == (10.0, 1000.0)
        low, high = check_population_range([1, 2.5], 1)
        assert (type(low), type(high)) == (float, float)

    @pytest.mark.parametrize("bounds", [("10", 100), (10, None), (True, 100)])
    def test_population_range_bounds_must_be_numbers(self, bounds):
        with pytest.raises(DomainError, match=re.escape(
                f"population range bounds must be finite numbers, got {bounds}")):
            check_population_range(bounds, 1)

    @pytest.mark.parametrize("bounds", [(1, 1), (5.0, 100.0), (100, 50)])
    def test_population_range_must_be_ordered_above_the_minimum(self, bounds):
        with pytest.raises(DomainError, match="^" + re.escape(
                f"population range must satisfy 10 <= low < high, got {bounds}") + "$"):
            check_population_range(bounds, 10)

    def test_sweep_range_message_names_the_range(self):
        with pytest.raises(DomainError, match=re.escape(
                "population range must satisfy 10 <= low < high, got (5.0, 100.0)")):
            run_sweep(c_values=(1.0,), beta_values=(1.5,),
                      population_range=(5.0, 100.0))


# The two comparisons of a beta with 1 that check results, not inputs.
_ALLOWED_BETA_COMPARISONS = {
    ("estimators.py", "BetaFit.__post_init__"),
    ("estimators.py", "pool_and_fit_beta"),
}


def _is_beta(node) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "beta")
            or (isinstance(node, ast.Attribute) and node.attr == "beta"))


def _is_one(node) -> bool:
    return (isinstance(node, ast.Constant) and type(node.value) in (int, float)
            and node.value == 1)


def _beta_comparisons_with_one(source: str) -> list[tuple[str, int]]:
    """(enclosing qualified name, line) of every comparison in `source` of a
    name or attribute `beta` with the constant 1."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Compare):
                operands = [child.left, *child.comparators]
                if any(map(_is_beta, operands)) and any(map(_is_one, operands)):
                    found.append((".".join(scope), child.lineno))
            visit(child, inner)

    visit(ast.parse(source), ())
    return found


def test_the_guard_sees_a_copy_of_the_beta_rule():
    source = ("def f(beta, config):\n"
              "    if not beta > 1:\n"
              "        pass\n"
              "    return 1.0 < config.beta < 2 or beta == 2\n")
    assert _beta_comparisons_with_one(source) == [("f", 2), ("f", 4)]


def test_only_errors_decides_whether_a_beta_is_valid():
    package = pathlib.Path(growthlab.__file__).parent
    found = {
        (path.name, scope, line)
        for path in sorted(package.glob("*.py")) if path.name != "errors.py"
        for scope, line in _beta_comparisons_with_one(path.read_text(encoding="utf-8"))
    }
    copies = sorted(hit for hit in found if hit[:2] not in _ALLOWED_BETA_COMPARISONS)
    assert copies == [], "compare beta with 1 only in errors.check_beta"
    assert {hit[:2] for hit in found} == _ALLOWED_BETA_COMPARISONS
