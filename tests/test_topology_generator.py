"""Tests for repro.topology.generator."""

import networkx as nx
import pytest

from repro.errors import ConfigurationError
from repro.geo.cities import default_city_database
from repro.topology.generator import (
    REGION_GROUPS,
    GeneratorConfig,
    TopologyGenerator,
)

from reference.topology import isp_graph


@pytest.fixture(scope="module")
def generator():
    return TopologyGenerator(GeneratorConfig(min_pops=5, max_pops=15))


class TestGeneratorConfig:
    def test_defaults_valid(self):
        GeneratorConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_pops": 1},
            {"min_pops": 10, "max_pops": 5},
            {"extra_edge_fraction": -0.1},
            {"weight_noise": 1.0},
            {"mesh_probability": 1.5},
            {"footprint_weights": (0.0, 0.0, 0.0)},
            {"footprint_weights": (1.0, -1.0, 1.0)},
            {"footprint_weights": 0.5},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigurationError):
            GeneratorConfig(**kwargs)

    def test_footprint_weights_stored_as_tuple(self):
        # A tuple keeps the frozen config hashable: the dataset caches
        # key on it.
        config = GeneratorConfig(footprint_weights=[0.2, 0.5, 0.3])
        assert config.footprint_weights == (0.2, 0.5, 0.3)
        assert hash(config) == hash(
            GeneratorConfig(footprint_weights=(0.2, 0.5, 0.3))
        )


class TestGeneration:
    def test_deterministic(self, generator):
        a = generator.generate("isp-x", 7)
        b = generator.generate("isp-x", 7)
        assert a == b

    def test_name_affects_topology(self, generator):
        a = generator.generate("isp-x", 7)
        b = generator.generate("isp-y", 7)
        assert a != b

    def test_seed_affects_topology(self, generator):
        a = generator.generate("isp-x", 7)
        b = generator.generate("isp-x", 8)
        # Same name, different seed: PoP sets should differ (overwhelmingly).
        assert a.cities() != b.cities() or a.links != b.links

    def test_connected(self, generator):
        for i in range(10):
            isp = generator.generate(f"isp{i}", 100 + i)
            assert nx.is_connected(isp_graph(isp))

    def test_pop_count_in_range(self, generator):
        for i in range(10):
            isp = generator.generate(f"isp{i}", 200 + i)
            assert 4 <= isp.n_pops() <= 15

    def test_weights_positive(self, generator):
        isp = generator.generate("w", 3)
        assert all(link.weight > 0 for link in isp.links)

    def test_weights_near_geographic_length(self):
        gen = TopologyGenerator(
            GeneratorConfig(min_pops=6, max_pops=10, weight_noise=0.0,
                            mesh_probability=0.0)
        )
        isp = gen.generate("geo", 11)
        for link in isp.links:
            assert link.weight == pytest.approx(max(link.length_km, 1.0))

    def test_pops_at_real_cities(self, generator):
        db = default_city_database()
        isp = generator.generate("cities", 5)
        for pop in isp.pops:
            city = db.get(pop.city)
            assert city.location == pop.location

    def test_mesh_generation(self):
        gen = TopologyGenerator(GeneratorConfig(mesh_probability=1.0))
        isp = gen.generate("mesh", 1)
        assert isp.is_logical_mesh()
        assert all(link.weight == 1.0 for link in isp.links)

    def test_no_mesh_when_probability_zero(self):
        gen = TopologyGenerator(GeneratorConfig(mesh_probability=0.0))
        for i in range(8):
            assert not gen.generate(f"m{i}", i).is_logical_mesh()

    def test_extra_edges_add_redundancy(self):
        sparse = TopologyGenerator(
            GeneratorConfig(min_pops=10, max_pops=10, extra_edge_fraction=0.0,
                            mesh_probability=0.0)
        ).generate("s", 4)
        dense = TopologyGenerator(
            GeneratorConfig(min_pops=10, max_pops=10, extra_edge_fraction=1.0,
                            mesh_probability=0.0)
        ).generate("s", 4)
        assert dense.n_links() > sparse.n_links()
        # A pure spanning tree has exactly n - 1 links.
        assert sparse.n_links() == sparse.n_pops() - 1


class TestRegionGroups:
    def test_groups_cover_known_regions(self):
        all_regions = {r for group in REGION_GROUPS.values() for r in group}
        db_regions = set(default_city_database().regions())
        assert db_regions <= all_regions
