"""Multi-ISP internetwork generation: shapes, determinism, validation."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.topology.generator import GeneratorConfig
from repro.topology.interconnect import find_isp_pairs
from repro.topology.internetwork import (
    Internetwork,
    InternetworkConfig,
    build_internetwork,
)

from reference.topology import peering_graph

GEN = GeneratorConfig(min_pops=6, max_pops=14)


@pytest.fixture(scope="module")
def chain3():
    return build_internetwork(
        InternetworkConfig(n_isps=3, shape="chain", seed=2005, generator=GEN)
    )


class TestConfigValidation:
    def test_unknown_shape(self):
        with pytest.raises(ConfigurationError, match="shape"):
            InternetworkConfig(shape="mesh")

    def test_too_few_isps(self):
        with pytest.raises(ConfigurationError, match="n_isps"):
            InternetworkConfig(n_isps=1)

    @pytest.mark.parametrize("seed", [1.5, "x", -1])
    def test_non_integer_seed_rejected(self, seed):
        # Regression: seed=1.5 built seed 1's ISPs.
        with pytest.raises(ConfigurationError, match="seed"):
            InternetworkConfig(seed=seed)

    def test_ring_needs_three(self):
        with pytest.raises(ConfigurationError, match="ring"):
            InternetworkConfig(n_isps=2, shape="ring")

    def test_pool_smaller_than_members(self):
        with pytest.raises(ConfigurationError, match="pool_size"):
            InternetworkConfig(n_isps=4, pool_size=3)

    def test_bad_peering_probability(self):
        with pytest.raises(ConfigurationError, match="peering_probability"):
            InternetworkConfig(peering_probability=1.5)


class TestShapes:
    def test_chain(self, chain3):
        assert chain3.n_isps() == 3
        assert chain3.n_edges() == 2
        names = chain3.names()
        # Edges follow the chain and are oriented along it.
        for i, edge in enumerate(chain3.edges):
            assert edge.isp_a.name == names[i]
            assert edge.isp_b.name == names[i + 1]
        assert chain3.is_connected()

    def test_ring(self):
        net = build_internetwork(
            InternetworkConfig(
                n_isps=3, shape="ring", seed=2005, generator=GEN
            )
        )
        assert net.n_isps() == 3
        assert net.n_edges() == 3
        degrees = dict(peering_graph(net).degree())
        assert all(d == 2 for d in degrees.values())

    def test_random_connected(self):
        net = build_internetwork(
            InternetworkConfig(
                n_isps=5, shape="random", seed=2005, generator=GEN
            )
        )
        assert net.n_isps() == 5
        assert net.is_connected()
        # A connected graph needs at least a spanning tree.
        assert net.n_edges() >= 4

    def test_random_peering_probability_bounds_edges(self):
        sparse = build_internetwork(
            InternetworkConfig(
                n_isps=5, shape="random", seed=2005, generator=GEN,
                peering_probability=0.0,
            )
        )
        dense = build_internetwork(
            InternetworkConfig(
                n_isps=5, shape="random", seed=2005, generator=GEN,
                peering_probability=1.0,
            )
        )
        assert sparse.n_edges() == 4  # exactly the spanning tree
        assert dense.n_edges() >= sparse.n_edges()
        assert sparse.is_connected() and dense.is_connected()

    def test_every_edge_meets_interconnection_floor(self, chain3):
        floor = chain3.config.min_interconnections
        for edge in chain3.edges:
            assert edge.n_interconnections() >= floor

    def test_deterministic_in_seed(self, chain3):
        again = build_internetwork(
            InternetworkConfig(
                n_isps=3, shape="chain", seed=2005, generator=GEN
            )
        )
        assert again.names() == chain3.names()
        assert [e.name for e in again.edges] == [
            e.name for e in chain3.edges
        ]

    def test_seed_override(self, chain3):
        other = build_internetwork(
            InternetworkConfig(
                n_isps=3, shape="chain", seed=2005, generator=GEN,
                pool_size=24,
            ),
            seed=2006,
        )
        assert other.config.seed == 2006

    def test_unrealizable_shape_raises(self):
        # A pool of 2 tiny ISPs cannot hold a 4-chain.
        with pytest.raises(TopologyError, match="increase pool_size"):
            build_internetwork(
                InternetworkConfig(
                    n_isps=4,
                    shape="chain",
                    seed=2005,
                    pool_size=4,
                    min_interconnections=20,
                    generator=GEN,
                )
            )


class TestInternetworkClass:
    def test_accessors(self, chain3):
        name = chain3.names()[1]
        assert chain3.get(name).name == name
        assert chain3.index(name) == 1
        assert chain3.edges_of(name) == [0, 1]
        assert chain3.edge_side(0, name) == "b"
        assert chain3.edge_side(1, name) == "a"

    def test_unknown_isp(self, chain3):
        with pytest.raises(TopologyError, match="no ISP named"):
            chain3.get("nope")
        with pytest.raises(TopologyError, match="no ISP named"):
            chain3.edges_of("nope")

    @pytest.mark.parametrize(
        "shape, n_isps", [("chain", 4), ("ring", 4), ("random", 6)]
    )
    def test_edges_of_matches_scan(self, shape, n_isps):
        net = build_internetwork(
            InternetworkConfig(
                n_isps=n_isps, shape=shape, seed=2005, generator=GEN
            )
        )
        for name in net.names():
            assert net.edges_of(name) == [
                i
                for i, edge in enumerate(net.edges)
                if name in (edge.isp_a.name, edge.isp_b.name)
            ]
        with pytest.raises(TopologyError, match="no ISP named"):
            net.edges_of("nope")

    def test_edge_side_non_endpoint(self, chain3):
        outsider = chain3.names()[2]
        with pytest.raises(TopologyError, match="not an endpoint"):
            chain3.edge_side(0, outsider)

    def test_duplicate_edge_rejected(self, chain3):
        with pytest.raises(TopologyError, match="duplicate edge"):
            Internetwork(
                chain3.isps, [chain3.edges[0], chain3.edges[0].reversed()]
            )

    def test_foreign_edge_rejected(self, chain3):
        pairs = find_isp_pairs(chain3.isps, min_interconnections=1)
        member_only = Internetwork(chain3.isps[:2], [])
        foreign = [
            p for p in pairs
            if {p.isp_a.name, p.isp_b.name}
            - {isp.name for isp in chain3.isps[:2]}
        ]
        if foreign:
            with pytest.raises(TopologyError, match="not in the internetwork"):
                Internetwork(chain3.isps[:2], [foreign[0]])
        assert member_only.n_edges() == 0

    def test_zero_edge_internetwork_allowed(self, chain3):
        net = Internetwork([chain3.isps[0]], [])
        assert net.n_edges() == 0
        assert not peering_graph(net).edges
        assert "0 peering edges" in net.summary()
