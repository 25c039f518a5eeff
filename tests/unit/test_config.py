"""Unit tests for the run-configuration dataclasses."""

import dataclasses
import math

import pytest

from repro.config import PaperConfig, SamplingConfig

#: Fields that no longer configure a trajectory; each value lives in the
#: default of the function that uses it.
RETIRED_FIELDS = (
    "temperature",
    "temperature_min",
    "temperature_max",
    "target_acceptance",
    "mutation_angles",
    "mutation_sigma",
    "ccd_iterations",
    "require_closure",
)


class TestSamplingConfig:
    def test_defaults_are_valid(self):
        config = SamplingConfig()
        assert config.population_size % config.n_complexes == 0
        assert config.complex_size == config.population_size // config.n_complexes

    def test_population_must_divide_into_complexes(self):
        with pytest.raises(ValueError):
            SamplingConfig(population_size=10, n_complexes=3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 0},
            {"population_size": -4},
            {"n_complexes": 0},
            {"iterations": -1},
            {"ccd_tolerance": 0.0},
            {"ccd_tolerance": -1.0},
            {"ccd_tolerance": math.nan},
            {"ccd_tolerance": math.inf},
            {"closure_tolerance_factor": 0.0},
            {"closure_tolerance_factor": -1.0},
            {"closure_tolerance_factor": math.nan},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SamplingConfig(**kwargs)

    def test_frozen(self):
        config = SamplingConfig()
        with pytest.raises(Exception):
            config.population_size = 10  # type: ignore[misc]

    def test_with_seed_returns_new_instance(self):
        config = SamplingConfig(seed=1)
        other = config.with_seed(99)
        assert other.seed == 99
        assert config.seed == 1
        assert other.population_size == config.population_size

    def test_scaled_preserves_divisibility(self):
        config = SamplingConfig(population_size=256, n_complexes=8, iterations=20)
        scaled = config.scaled(0.1)
        assert scaled.population_size % scaled.n_complexes == 0
        assert scaled.population_size >= scaled.n_complexes
        assert scaled.iterations >= 1

    def test_scaled_up(self):
        config = SamplingConfig(population_size=64, n_complexes=8, iterations=10)
        scaled = config.scaled(2.0)
        assert scaled.population_size == 128
        assert scaled.iterations == 20

    def test_scaled_never_drops_below_one_member_per_complex(self):
        config = SamplingConfig(population_size=16, n_complexes=8, iterations=5)
        scaled = config.scaled(0.01)
        assert scaled.population_size >= scaled.n_complexes

    def test_infinite_closure_factor_is_the_ungated_step(self):
        config = SamplingConfig(closure_tolerance_factor=math.inf)
        assert config.ccd_tolerance * config.closure_tolerance_factor == math.inf

    def test_fields(self):
        """One home per sampling constant: the schedule, mutation and CCD
        budget take their callees' defaults, and the closure gate is a
        tolerance (``inf`` disables it), not a switch."""
        names = [field.name for field in dataclasses.fields(SamplingConfig)]
        assert names == [
            "population_size",
            "n_complexes",
            "iterations",
            "ccd_tolerance",
            "closure_tolerance_factor",
            "seed",
        ]
        for name in RETIRED_FIELDS:
            with pytest.raises(TypeError, match=name):
                SamplingConfig(**{name: 1})


class TestPaperConfig:
    def test_headline_parameters(self):
        paper = PaperConfig()
        assert paper.population_size == 15360
        assert paper.n_complexes == 120
        assert paper.iterations == 100
        assert paper.decoys_per_target == 1000
        assert paper.benchmark_targets == 53

    def test_population_divides_into_complexes(self):
        paper = PaperConfig()
        assert paper.population_size % paper.n_complexes == 0
        # 128 members per complex matches the paper's 128 threads per block.
        assert paper.population_size // paper.n_complexes == 128

    def test_to_sampling_config(self):
        config = PaperConfig().to_sampling_config(seed=5)
        assert isinstance(config, SamplingConfig)
        assert config.population_size == 15360
        assert config.seed == 5
