"""Unit tests for the run-configuration dataclasses."""

import math

import pytest

from repro.config import PaperConfig, SamplingConfig


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
            {"target_acceptance": 0.0},
            {"target_acceptance": 1.0},
            {"mutation_angles": 0},
            {"ccd_iterations": -1},
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

    def test_mutation_sigma_default_is_thirty_degrees(self):
        assert SamplingConfig().mutation_sigma == pytest.approx(math.radians(30.0))


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
