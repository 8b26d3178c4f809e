"""Parallel figure sweeps: worker-count invariance and plumbing."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.bandwidth import run_bandwidth_experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.distance import run_distance_experiment
from repro.experiments.extensions import run_destination_experiment
from repro.experiments.oscillation import run_oscillation_experiment
from repro.experiments.parallel import (
    DATASET_CACHE_SIZE,
    _dataset_cache,
    dataset_for,
    pairs_for,
    resolve_workers,
    warm_dataset,
)


class TestResolveWorkers:
    def test_serial_spellings(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(1) == 1

    def test_explicit(self):
        assert resolve_workers(3) == 3

    def test_negative_means_cpu_count(self):
        assert resolve_workers(-1) >= 1
        assert resolve_workers(-8) == resolve_workers(-1)

    def test_index_like_integers_accepted(self):
        assert resolve_workers(np.int64(3)) == 3

    @pytest.mark.parametrize("bad", [True, False, 2.5, 1.0, "4", [2]])
    def test_non_integers_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            resolve_workers(bad)


class TestDatasetCache:
    def test_same_dataset_config_shares_entry(self):
        config = ExperimentConfig.quick()
        ds1 = dataset_for(config)
        # A different sweep cap over the same dataset config reuses the
        # built dataset (the cache keys on the *dataset* fingerprint).
        ds2 = dataset_for(replace(config, max_pairs_distance=1))
        assert ds1 is ds2

    def test_warm_start_primes_cache(self):
        config = ExperimentConfig.quick()
        dataset = warm_dataset(config)
        assert dataset_for(config) is dataset

    def test_cache_is_bounded(self):
        base = ExperimentConfig.quick()
        before = dict(_dataset_cache)
        try:
            _dataset_cache.clear()
            for i in range(DATASET_CACHE_SIZE + 2):
                dataset_for(
                    replace(base, dataset=replace(base.dataset, seed=9000 + i))
                )
            assert len(_dataset_cache) == DATASET_CACHE_SIZE
        finally:
            _dataset_cache.clear()
            _dataset_cache.update(before)

    def test_pairs_cached_per_filter(self):
        config = ExperimentConfig.quick()
        _, pairs1 = pairs_for(config, 2, config.max_pairs_distance)
        _, pairs2 = pairs_for(config, 2, config.max_pairs_distance)
        assert pairs1 is pairs2


@pytest.fixture(scope="module")
def tiny_config():
    return replace(
        ExperimentConfig.quick(), max_pairs_distance=2, max_pairs_bandwidth=2
    )


class TestWorkerInvariance:
    """workers=1 and workers>1 must produce identical figure data."""

    def test_distance(self, tiny_config):
        serial = run_distance_experiment(tiny_config, workers=1)
        parallel = run_distance_experiment(tiny_config, workers=2)
        assert len(serial.pairs) == len(parallel.pairs) > 0
        for s, p in zip(serial.pairs, parallel.pairs):
            assert s.pair_name == p.pair_name
            assert s.total_gain_optimal == p.total_gain_optimal
            assert s.total_gain_negotiated == p.total_gain_negotiated
            assert s.gain_a_negotiated == p.gain_a_negotiated
            assert s.gain_b_negotiated == p.gain_b_negotiated
            assert np.array_equal(s.flow_gains_optimal, p.flow_gains_optimal)
            assert np.array_equal(
                s.flow_gains_negotiated, p.flow_gains_negotiated
            )

    def test_bandwidth(self, tiny_config):
        serial = run_bandwidth_experiment(tiny_config, workers=1)
        parallel = run_bandwidth_experiment(tiny_config, workers=2)
        assert len(serial.cases) == len(parallel.cases) > 0
        for s, p in zip(serial.cases, parallel.cases):
            assert (s.pair_name, s.failed_city) == (p.pair_name, p.failed_city)
            assert s.n_affected == p.n_affected
            assert s.mel_default_a == p.mel_default_a
            assert s.mel_default_b == p.mel_default_b
            assert s.mel_negotiated_a == p.mel_negotiated_a
            assert s.mel_negotiated_b == p.mel_negotiated_b
            assert s.mel_opt_joint == p.mel_opt_joint

    def test_oscillation(self, tiny_config):
        serial = run_oscillation_experiment(tiny_config, workers=1)
        parallel = run_oscillation_experiment(tiny_config, workers=2)
        assert len(serial.pairs) == len(parallel.pairs) > 0
        assert serial.pairs == parallel.pairs  # frozen dataclasses

    def test_destination(self, tiny_config):
        serial = run_destination_experiment(tiny_config, workers=1)
        parallel = run_destination_experiment(tiny_config, workers=2)
        assert len(serial.pairs) == len(parallel.pairs) > 0
        for s, p in zip(serial.pairs, parallel.pairs):
            assert s.pair_name == p.pair_name
            assert s.total_gain_optimal == p.total_gain_optimal
            assert s.total_gain_negotiated == p.total_gain_negotiated
            assert s.gain_a_negotiated == p.gain_a_negotiated
            assert s.gain_b_negotiated == p.gain_b_negotiated
            assert s.source_dest_gain == p.source_dest_gain
