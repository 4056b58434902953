"""Seed derivation: the one-pass day streams and the one seed check.

seeding.generators must hand out exactly the streams seeding.generator
builds one at a time, whatever the seed's size; and every public entry
point that takes a seed accepts a numpy integer as its int and rejects
what is not an integer in [0, 2^64) with DomainError.
"""

import numpy as np
import pytest

import growthlab as gl
from growthlab import DomainError, seeding
from growthlab.experiment import collapse_check, compare_prediction, run_sweep

CELL_SEED = seeding.derive_seed(0, seeding.STREAM_CELL, 17)


class TestGenerators:
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1, CELL_SEED],
                             ids=["zero", "2^32-1", "2^32", "2^64-1", "cell"])
    def test_streams_equal_the_one_at_a_time_generator(self, seed):
        count = 1_025
        for k, rng in enumerate(seeding.generators(seed, seeding.STREAM_DAY, count)):
            reference = seeding.generator(seed, seeding.STREAM_DAY, k)
            assert rng.random(3).tolist() == reference.random(3).tolist()
            # 32-bit draws come two to a 64-bit word; the buffered half
            # must not leak from one stream into the next.
            assert (rng.integers(0, 2**31, 3, dtype=np.int32).tolist()
                    == reference.integers(0, 2**31, 3, dtype=np.int32).tolist())
            assert (rng.integers(0, 1000, 4).tolist()
                    == reference.integers(0, 1000, 4).tolist())
        assert k == count - 1

    def test_other_stream_tags_and_empty_count(self):
        rngs = seeding.generators(5, seeding.STREAM_BOOTSTRAP, 3)
        for k, rng in enumerate(rngs):
            reference = seeding.generator(5, seeding.STREAM_BOOTSTRAP, k)
            assert rng.random() == reference.random()
        assert list(seeding.generators(5, seeding.STREAM_DAY, 0)) == []


BAD_SEEDS = [True, 1.5, 3.0, "3", None, -1, 2**64, np.int64(-1)]
BAD_IDS = ["bool", "float", "integral-float", "str", "none", "negative",
           "2^64", "negative-np"]


class TestCheckSeed:
    @pytest.mark.parametrize("seed", [0, 3, 2**64 - 1, np.int64(3), np.uint64(2**64 - 1),
                                      np.uint8(7)])
    def test_integers_come_back_as_int(self, seed):
        checked = seeding.check_seed(seed)
        assert type(checked) is int and checked == int(seed)

    @pytest.mark.parametrize("seed", BAD_SEEDS, ids=BAD_IDS)
    def test_everything_else_is_a_domain_error(self, seed):
        with pytest.raises(DomainError, match="^seed must"):
            seeding.check_seed(seed)


def _series():
    config = gl.SamplerConfig(beta=1.5, upper_cutoff=300.0, integerize=True, seed=4)
    return gl.synthesize_series([1_000, 2_000, 4_000, 8_000, 3_000, 6_000], config,
                                "fixed-truncation")


def _entry_points():
    """Each public entry point that takes a seed, as seed -> result."""
    series = _series()
    rescaled = [gl.rescale_histogram(day) for day in series.days]
    pairs = [(day.population, day.total_activity) for day in series.days]
    return {
        "SamplerConfig": lambda seed: gl.series_totals(
            [50, 80], gl.SamplerConfig(beta=1.5, seed=seed)),
        "run_sweep": lambda seed: run_sweep([1.0], [1.5, 3.0], days_per_cell=10,
                                            seed=seed, bootstrap_reps=5),
        "fit_gamma_tls": lambda seed: gl.fit_gamma_tls(pairs, bootstrap_reps=20,
                                                       seed=seed),
        "pool_and_fit_beta": lambda seed: gl.pool_and_fit_beta(
            rescaled, bootstrap_reps=20, seed=seed),
        "compare_prediction": lambda seed: compare_prediction(
            series, bootstrap_reps=20, seed=seed),
        "collapse_check": lambda seed: collapse_check(
            series, beta_hypothesis=1.5, bootstrap_reps=20, seed=seed),
    }


ENTRY_POINTS = list(_entry_points())


class TestSeedArguments:
    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_numpy_integer_seed_gives_the_int_result(self, name):
        run = _entry_points()[name]
        assert run(np.int64(3)) == run(3)
        assert run(np.uint64(2**64 - 1)) == run(2**64 - 1)

    @pytest.mark.parametrize("seed", BAD_SEEDS, ids=BAD_IDS)
    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_bad_seed_is_a_domain_error(self, name, seed):
        run = _entry_points()[name]
        with pytest.raises(DomainError, match="^seed must"):
            run(seed)
