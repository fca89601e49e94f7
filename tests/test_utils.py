"""Unit tests for repro.utils (sampling, stats) and the swap oracle's
KS helper."""

import pytest

from repro.check.oracles import ks_similarity
from repro.utils import LazySampler, mean, percentile, stddev


class TestLazySampler:
    def test_small_universe_fully_sampled(self):
        sampler = LazySampler(range(10), max_size=50, seed=0)
        assert sampler.sample_ids == set(range(10))

    def test_capped_sample(self):
        sampler = LazySampler(range(100), max_size=20, seed=0)
        assert sampler.sample_size == 20
        assert sampler.sample_ids <= set(range(100))

    def test_deterministic(self):
        a = LazySampler(range(100), max_size=20, seed=5)
        b = LazySampler(range(100), max_size=20, seed=5)
        assert a.sample_ids == b.sample_ids

    def test_invalid_max_size(self):
        with pytest.raises(ValueError):
            LazySampler(range(5), max_size=0)

    def test_add_ids_below_capacity(self):
        sampler = LazySampler(range(5), max_size=10, seed=0)
        sampler.add_ids([100, 101])
        assert {100, 101} <= sampler.sample_ids

    def test_add_ids_at_capacity_keeps_size(self):
        sampler = LazySampler(range(50), max_size=10, seed=0)
        sampler.add_ids(range(100, 150))
        assert sampler.sample_size == 10
        assert sampler.universe_size == 100

    def test_remove_ids(self):
        sampler = LazySampler(range(10), max_size=10, seed=0)
        sampler.remove_ids([0, 1])
        assert 0 not in sampler
        assert sampler.universe_size == 8

    def test_scale_to_universe(self):
        sampler = LazySampler(range(10), max_size=10, seed=0)
        assert sampler.scale_to_universe(5) == pytest.approx(0.5)
        empty = LazySampler([], max_size=5)
        assert empty.scale_to_universe(3) == 0.0


class TestStats:
    def test_ks_identical_samples_similar(self):
        sizes = [3, 4, 5, 6, 7, 8] * 3
        assert ks_similarity(sizes, list(sizes))

    def test_ks_disjoint_samples_dissimilar(self):
        a = [1.0] * 30
        b = [100.0] * 30
        assert not ks_similarity(a, b)

    def test_ks_empty_handling(self):
        assert ks_similarity([], [])
        assert not ks_similarity([1.0], [])

    def test_mean_and_stddev(self):
        assert mean([1, 2, 3]) == 2
        assert mean([]) == 0.0
        assert stddev([2, 2, 2]) == 0.0
        assert stddev([5]) == 0.0
        assert stddev([1, 3]) == pytest.approx(2 ** 0.5)

    def test_percentile(self):
        values = [1, 2, 3, 4, 5]
        assert percentile(values, 0) == 1
        assert percentile(values, 50) == 3
        assert percentile(values, 100) == 5
        assert percentile(values, 25) == 2
        assert percentile([7], 90) == 7

    def test_percentile_errors(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 150)
