"""Tests for repro.topology.dataset."""

import pytest

from repro.errors import ConfigurationError
from repro.topology.dataset import (
    DatasetConfig,
    IspDataset,
    build_default_dataset,
)
from repro.topology.generator import GeneratorConfig


class TestDatasetConfig:
    def test_defaults_are_papers(self):
        cfg = DatasetConfig()
        assert cfg.n_isps == 65

    def test_too_few_isps(self):
        with pytest.raises(ConfigurationError):
            DatasetConfig(n_isps=1)

    def test_empty_prefix(self):
        with pytest.raises(ConfigurationError):
            DatasetConfig(name_prefix="")

    @pytest.mark.parametrize(
        "knob, value",
        [("seed", 1.5), ("seed", "x"), ("seed", -1), ("n_isps", 3.5)],
    )
    def test_non_integer_knob_rejected(self, knob, value):
        # Regression: seed=1.5 built seed 1's ISPs and n_isps=3.5 raised a
        # bare TypeError inside the build.
        with pytest.raises(ConfigurationError, match=knob):
            DatasetConfig(**{knob: value})


class TestBuild:
    def test_build_count(self, tiny_dataset):
        assert len(tiny_dataset) == 12

    def test_names_unique_and_prefixed(self, tiny_dataset):
        names = [isp.name for isp in tiny_dataset]
        assert len(set(names)) == len(names)
        assert all(name.startswith("isp") for name in names)

    def test_deterministic(self):
        cfg = DatasetConfig(n_isps=5, seed=9,
                            generator=GeneratorConfig(min_pops=4, max_pops=6))
        a = build_default_dataset(cfg)
        b = build_default_dataset(cfg)
        assert a.isps == b.isps

    def test_seed_override(self):
        cfg = DatasetConfig(n_isps=5, seed=9,
                            generator=GeneratorConfig(min_pops=4, max_pops=6))
        a = build_default_dataset(cfg)
        b = build_default_dataset(cfg, seed=10)
        assert a.isps != b.isps

    def test_get_by_name(self, tiny_dataset):
        isp = tiny_dataset.get("isp03")
        assert isp.name == "isp03"

    def test_get_unknown(self, tiny_dataset):
        with pytest.raises(ConfigurationError):
            tiny_dataset.get("nope")

    def test_mesh_partition(self, tiny_dataset):
        mesh = tiny_dataset.mesh_isps()
        non_mesh = tiny_dataset.non_mesh_isps()
        assert len(mesh) + len(non_mesh) == len(tiny_dataset)

    def test_summary_mentions_counts(self, tiny_dataset):
        assert "12 ISPs" in tiny_dataset.summary()


class TestPairs:
    def test_pairs_exclude_mesh(self, tiny_dataset):
        mesh_names = {isp.name for isp in tiny_dataset.mesh_isps()}
        for pair in tiny_dataset.pairs():
            assert pair.isp_a.name not in mesh_names
            assert pair.isp_b.name not in mesh_names

    def test_pairs_sorted_and_capped(self, tiny_dataset):
        pairs = tiny_dataset.pairs(max_pairs=3)
        assert len(pairs) <= 3
        names = [p.name for p in pairs]
        assert names == sorted(names)

    def test_min_interconnections_respected(self, tiny_dataset):
        for pair in tiny_dataset.pairs(min_interconnections=3):
            assert pair.n_interconnections() >= 3

    def test_bad_max_pairs(self, tiny_dataset):
        with pytest.raises(ConfigurationError):
            tiny_dataset.pairs(max_pairs=0)

    def test_three_ic_pairs_subset_of_two(self, tiny_dataset):
        two = {p.name for p in tiny_dataset.pairs(min_interconnections=2)}
        three = {p.name for p in tiny_dataset.pairs(min_interconnections=3)}
        assert three <= two


class TestValidation:
    def test_duplicate_names_rejected(self, tiny_dataset):
        isps = tiny_dataset.isps
        with pytest.raises(ConfigurationError):
            IspDataset(isps + [isps[0]], tiny_dataset.city_db,
                       tiny_dataset.config)

    def test_empty_rejected(self, tiny_dataset):
        with pytest.raises(ConfigurationError):
            IspDataset([], tiny_dataset.city_db, tiny_dataset.config)
