"""The networkx-free topology code against the networkx code it replaced.

``reference/topology.py`` holds the old code: the PoP graph with
``nx.is_connected``, ``nx.minimum_spanning_tree`` over the complete
distance graph, and the peering graph. Every check here is ``==`` against
it, over Hypothesis-drawn inputs that force spanning-tree ties.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.experiments.config import ExperimentConfig
from repro.geo.cities import City
from repro.geo.coords import GeoPoint
from repro.topology.dataset import build_default_dataset
from repro.topology.elements import Link, PoP
from repro.topology.generator import GeneratorConfig, TopologyGenerator
from repro.topology.interconnect import find_isp_pairs
from repro.topology.internetwork import (
    Internetwork,
    InternetworkConfig,
    build_internetwork,
)
from repro.topology.isp import ISPTopology

from reference import topology as reference

#: Whole degrees repeat the same distances many times over; the 0.001
#: offsets put pairs ~0.1 km apart, which the generator clamps to 1.0 km,
#: the same as two PoPs on one spot.
_LATS = (0.0, 0.001, 1.0, 2.0, 45.0)
_LONS = (0.0, 0.001, 1.0, 2.0, 3.0, 90.0)

GEN = GeneratorConfig(min_pops=6, max_pops=14)

_SHORTCUT_FRACTIONS = (0.0, 0.3, 0.8, 2.0)
_GENERATORS = {
    fraction: TopologyGenerator(GeneratorConfig(extra_edge_fraction=fraction))
    for fraction in _SHORTCUT_FRACTIONS
}

point_sets = st.lists(
    st.tuples(st.sampled_from(_LATS), st.sampled_from(_LONS)),
    min_size=1,
    max_size=12,
)


def _cities(points) -> list[City]:
    return [
        City(f"c{i}", "XX", GeoPoint(lat, lon), population=1.0, region="r")
        for i, (lat, lon) in enumerate(points)
    ]


@st.composite
def raw_topologies(draw, connected: bool = False):
    """PoPs and links of a small graph: a random spanning tree first when
    ``connected`` (or when drawn), then random extra links in either
    endpoint order."""
    n = draw(st.integers(1, 9))
    pairs = list(itertools.combinations(range(n), 2))
    chosen: list[tuple[int, int]] = []
    if connected or draw(st.booleans()):
        chosen = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    if pairs:
        chosen += [
            pair
            for pair in draw(st.lists(st.sampled_from(pairs), unique=True))
            if pair not in chosen
        ]
    links = [
        Link(i, *(pair[::-1] if draw(st.booleans()) else pair), 1.0 + i, 1.0)
        for i, pair in enumerate(chosen)
    ]
    pops = [PoP(i, f"c{i}", GeoPoint(0.0, float(i))) for i in range(n)]
    return pops, links


class TestSpanningTree:
    @given(points=point_sets)
    @example(points=[(0.0, 0.0)])
    @example(points=[(0.0, 0.0), (0.0, 0.0)])
    @example(points=[(0.0, 0.0), (0.0, 0.001)])
    def test_tree_matches_networkx(self, points):
        generator = _GENERATORS[0.0]
        cities = _cities(points)
        tree = generator._backbone_edges(cities, np.random.default_rng(0))
        assert tree == reference.backbone_edges(
            generator, cities, np.random.default_rng(0)
        )
        assert len(tree) == len(points) - 1

    @given(
        points=point_sets,
        fraction=st.sampled_from(_SHORTCUT_FRACTIONS[1:]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shortcuts_match_networkx(self, points, fraction, seed):
        generator = _GENERATORS[fraction]
        cities = _cities(points)
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert generator._backbone_edges(cities, rng) == reference.backbone_edges(
            generator, cities, reference_rng
        )
        assert rng.bit_generator.state == reference_rng.bit_generator.state


class TestIspIndexes:
    @given(topology=raw_topologies())
    def test_accepts_exactly_what_networkx_accepted(self, topology):
        pops, links = topology
        if reference.accepts_connectivity(pops, links):
            ISPTopology("t", pops, links)
        else:
            with pytest.raises(TopologyError, match="disconnected"):
                ISPTopology("t", pops, links)

    @given(topology=raw_topologies(connected=True))
    def test_link_between_matches_networkx(self, topology):
        isp = ISPTopology("t", *topology)
        for u, v in itertools.product(range(-1, isp.n_pops() + 1), repeat=2):
            want = reference.link_between(isp, u, v)
            if want is None:
                with pytest.raises(TopologyError, match="no link between"):
                    isp.link_between(u, v)
            else:
                assert isp.link_between(u, v) is want

    @given(topology=raw_topologies(connected=True))
    def test_degree_matches_networkx(self, topology):
        isp = ISPTopology("t", *topology)
        assert [isp.degree(i) for i in range(isp.n_pops())] == [
            reference.degree(isp, i) for i in range(isp.n_pops())
        ]


class TestGeneratedTopologies:
    @given(
        name=st.text(alphabet="abxyz019-", min_size=1, max_size=8),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_generated_isp_matches_networkx_tree(self, name, seed):
        config = GeneratorConfig()
        assert TopologyGenerator(config).generate(
            name, seed
        ) == reference.NetworkxTopologyGenerator(config).generate(name, seed)

    def test_bench_dataset_matches_networkx_tree(self, monkeypatch):
        config = ExperimentConfig.bench().dataset
        built = build_default_dataset(config)
        monkeypatch.setattr(
            TopologyGenerator, "_backbone_edges", reference.backbone_edges
        )
        assert build_default_dataset(config).isps == built.isps


@pytest.fixture(scope="module")
def peering_pool():
    """Ten ISPs and every pair of them sharing at least one city."""
    generator = TopologyGenerator(GEN)
    isps = [generator.generate(f"isp{i:02d}", 2005 + i) for i in range(10)]
    return isps, find_isp_pairs(isps, min_interconnections=1)


class TestInternetworkConnectivity:
    @pytest.mark.parametrize(
        "shape, n_isps", [("chain", 3), ("chain", 5), ("ring", 4), ("random", 5)]
    )
    def test_built_shapes_are_connected(self, shape, n_isps):
        net = build_internetwork(
            InternetworkConfig(n_isps=n_isps, shape=shape, seed=2005, generator=GEN)
        )
        assert net.is_connected()
        assert reference.internetwork_is_connected(net)

    @given(data=st.data())
    def test_hand_built_matches_networkx(self, peering_pool, data):
        isps, pairs = peering_pool
        members = data.draw(
            st.lists(st.sampled_from(isps), min_size=1, unique_by=lambda i: i.name)
        )
        names = {isp.name for isp in members}
        usable = [
            p for p in pairs if p.isp_a.name in names and p.isp_b.name in names
        ]
        edges = (
            data.draw(st.lists(st.sampled_from(usable), unique_by=lambda p: p.name))
            if usable
            else []
        )
        net = Internetwork(members, edges)
        assert net.is_connected() == reference.internetwork_is_connected(net)

    def test_hand_built_disconnected(self):
        net = build_internetwork(
            InternetworkConfig(n_isps=4, shape="chain", seed=2005, generator=GEN)
        )
        cut = Internetwork(net.isps, [net.edges[0], net.edges[2]])
        assert not cut.is_connected()
        assert not reference.internetwork_is_connected(cut)

    def test_edge_free(self, peering_pool):
        isps, _ = peering_pool
        for members in (isps[:1], isps[:2]):
            net = Internetwork(members, [])
            assert net.is_connected() == reference.internetwork_is_connected(net)
        assert Internetwork(isps[:1], []).is_connected()
        assert not Internetwork(isps[:2], []).is_connected()
