"""Tests for repro.routing.paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError, TopologyError
from repro.routing.paths import IntradomainRouting
from repro.topology.builders import (
    build_custom_isp,
    build_line_isp,
    build_scale_pair,
)

from reference.sssp import NetworkxRouting, sssp_entry


@pytest.fixture()
def diamond():
    """A diamond where the weighted shortest path differs from hop count.

    A -- B -- D is weight 2 + 2 = 4 but length 10 + 10 = 20;
    A -- C -- D is weight 3 + 3 = 6 but length 2 + 2 = 4.
    Routing follows weights, the distance metric follows lengths.
    """
    return build_custom_isp(
        "diamond",
        [("A", 40, -100), ("B", 41, -100), ("C", 39, -100), ("D", 40, -99)],
        [(0, 1, 2.0), (1, 3, 2.0), (0, 2, 3.0), (2, 3, 3.0)],
        lengths=[10.0, 10.0, 2.0, 2.0],
    )


class TestShortestPaths:
    def test_weight_distance(self, diamond):
        routing = IntradomainRouting(diamond)
        assert routing.weight_distance(0, 3) == 4.0

    def test_path_follows_weights_not_lengths(self, diamond):
        routing = IntradomainRouting(diamond)
        assert routing.path(0, 3) == [0, 1, 3]

    def test_geo_distance_of_routed_path(self, diamond):
        routing = IntradomainRouting(diamond)
        # The routed (weight-optimal) path is geographically longer.
        assert routing.geo_distance_km(0, 3) == 20.0

    def test_path_links(self, diamond):
        routing = IntradomainRouting(diamond)
        links = routing.path_links(0, 3)
        assert list(links) == [0, 1]

    def test_trivial_path(self, diamond):
        routing = IntradomainRouting(diamond)
        assert routing.weight_distance(2, 2) == 0.0
        assert routing.path(2, 2) == [2]
        assert len(routing.path_links(2, 2)) == 0
        assert routing.geo_distance_km(2, 2) == 0.0

    def test_unknown_pop(self, diamond):
        routing = IntradomainRouting(diamond)
        with pytest.raises(Exception):
            routing.weight_distance(9, 0)

    def test_symmetry_on_undirected_graph(self, diamond):
        routing = IntradomainRouting(diamond)
        assert routing.weight_distance(0, 3) == routing.weight_distance(3, 0)
        assert routing.geo_distance_km(0, 3) == routing.geo_distance_km(3, 0)


class TestCaching:
    def test_distances_to_all(self):
        line = build_line_isp("l", ["A", "B", "C"], spacing_km=100.0)
        routing = IntradomainRouting(line)
        dists = routing.distances_to_all(0)
        assert dists[0] == 0.0
        assert dists[2] == pytest.approx(200.0)

    def test_warm_does_not_change_results(self, diamond):
        cold = IntradomainRouting(diamond)
        warm = IntradomainRouting(diamond)
        warm.warm([0, 1, 2, 3])
        for src in range(4):
            for dst in range(4):
                assert cold.weight_distance(src, dst) == warm.weight_distance(
                    src, dst
                )

    def test_repeated_queries_consistent(self, diamond):
        routing = IntradomainRouting(diamond)
        first = routing.geo_distance_km(0, 3)
        second = routing.geo_distance_km(0, 3)
        assert first == second


class TestNegativeSource:
    """A negative PoP index is rejected, not wrapped to a PoP from the end."""

    def test_path(self, diamond):
        with pytest.raises(TopologyError, match="no PoP with index -1"):
            IntradomainRouting(diamond).path(-1, 0)

    def test_weight_distance_array(self, diamond):
        with pytest.raises(TopologyError, match="no PoP with index -1"):
            IntradomainRouting(diamond).weight_distance_array(-1)


class TestLinePaths:
    def test_chain_distance_accumulates(self):
        line = build_line_isp("l", ["A", "B", "C", "D"], spacing_km=250.0)
        routing = IntradomainRouting(line)
        assert routing.geo_distance_km(0, 3) == pytest.approx(750.0)
        assert routing.path(0, 3) == [0, 1, 2, 3]


class _CutRouting(NetworkxRouting):
    """Networkx routing over the ISP with one link cut, so the PoPs beyond
    it are unreachable (an :class:`ISPTopology` itself must be connected)."""

    cut = (1, 2)

    def _sssp_batch(self, sources) -> None:
        graph = self._graph.copy()
        graph.remove_edge(*self.cut)
        for src in sources:
            if src not in self._sssp_cache:
                self._sssp_cache[src] = sssp_entry(
                    graph, src, self._isp.n_pops()
                )


def _assert_tree_views_match(views, queries, n_pops) -> None:
    """``views``' per-source arrays equal ``queries``' per-path answers."""
    for src in range(n_pops):
        links = views.path_links_array(src)
        geo = views.geo_distance_array(src)
        assert len(links) == n_pops and geo.shape == (n_pops,)
        reachable = set(queries.distances_to_all(src))
        for dst in range(n_pops):
            if dst not in reachable:
                assert links[dst] is None
                assert np.isnan(geo[dst])
                continue
            want = queries.path_links(src, dst)
            assert links[dst].dtype == want.dtype
            assert np.array_equal(links[dst], want)
            assert geo[dst] == queries.geo_distance_km(src, dst)
    # The DP fills only the array views: the per-path caches the reference
    # reads are never written from DP-computed values.
    assert views._link_cache == {} and views._length_cache == {}


class TestTreeViews:
    """path_links_array / geo_distance_array come from one DP over the
    shortest-path tree; each entry equals the per-path query."""

    def test_scale_isp_matches_fresh_networkx_queries(self):
        isp = build_scale_pair(40, n_interconnections=3, seed=5).isp_a
        for views in (IntradomainRouting(isp), NetworkxRouting(isp)):
            _assert_tree_views_match(views, NetworkxRouting(isp), isp.n_pops())

    @pytest.mark.parametrize("routing_cls", [IntradomainRouting, NetworkxRouting])
    def test_diamond_matches_per_path_queries(self, diamond, routing_cls):
        # The diamond has equal-cost ties (B to C), where the two SSSP
        # engines may route differently, so each engine is checked against
        # its own per-path queries.
        _assert_tree_views_match(routing_cls(diamond), routing_cls(diamond), 4)

    def test_unreachable_pops_are_none_and_nan(self):
        line = build_line_isp("l", ["A", "B", "C", "D"], spacing_km=100.0)
        views, queries = _CutRouting(line), _CutRouting(line)
        _assert_tree_views_match(views, queries, 4)
        assert views.path_links_array(0)[2:] == (None, None)
        assert np.isnan(views.geo_distance_array(0)[2:]).all()

    def test_views_are_cached_and_geo_read_only(self, diamond):
        routing = IntradomainRouting(diamond)
        assert routing.path_links_array(0) is routing.path_links_array(0)
        geo = routing.geo_distance_array(0)
        assert routing.geo_distance_array(0) is geo
        assert not geo.flags.writeable


@st.composite
def random_isps(draw, integer_weights: bool):
    """A random connected ISP of 2-30 PoPs: a random spanning tree plus up
    to ``2n`` extra links, in shuffled link order.

    Weights are jittered continuous floats (every shortest path unique) or,
    with ``integer_weights``, integers 1-4 (equal-cost ties everywhere).
    """
    n_pops = draw(st.integers(2, 30))
    n_extra = draw(st.integers(0, 2 * n_pops))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n_pops)}
    for _ in range(n_extra):
        u, v = sorted(rng.choice(n_pops, size=2, replace=False).tolist())
        edges.add((u, v))
    edges = [sorted(edges)[k] for k in rng.permutation(len(edges))]
    if integer_weights:
        weights = rng.integers(1, 5, size=len(edges)).astype(float)
    else:
        weights = 100.0 + rng.uniform(0.0, 25.0, size=len(edges))
    lengths = rng.uniform(0.0, 500.0, size=len(edges))
    return build_custom_isp(
        "random",
        [(f"City{p}", 0.1 * p, -0.1 * p) for p in range(n_pops)],
        [(u, v, float(w)) for (u, v), w in zip(edges, weights)],
        lengths=lengths.tolist(),
    )


class TestDijkstraDifferential:
    """The heap Dijkstra against one networkx Dijkstra per source."""

    @settings(deadline=None)
    @given(isp=random_isps(integer_weights=False))
    def test_jittered_weights_match_networkx(self, isp):
        fast, slow = IntradomainRouting(isp), NetworkxRouting(isp)
        for src in range(isp.n_pops()):
            assert fast.distances_to_all(src) == slow.distances_to_all(src)
            assert np.array_equal(
                fast.weight_distance_array(src), slow.weight_distance_array(src)
            )
            assert np.array_equal(
                fast.geo_distance_array(src), slow.geo_distance_array(src)
            )
            for got, want in zip(
                fast.path_links_array(src), slow.path_links_array(src)
            ):
                assert np.array_equal(got, want)
            for dst in range(isp.n_pops()):
                assert fast.path(src, dst) == slow.path(src, dst)
                assert np.array_equal(
                    fast.path_links(src, dst), slow.path_links(src, dst)
                )

    @settings(deadline=None)
    @given(isp=random_isps(integer_weights=True))
    def test_integer_weights_match_networkx_and_pin_the_tie_rule(self, isp):
        fast, slow = IntradomainRouting(isp), NetworkxRouting(isp)
        adjacency = isp.adjacency()
        for src in range(isp.n_pops()):
            dists = fast.distances_to_all(src)
            assert dists == slow.distances_to_all(src)
            # PoPs settle in (distance, index) order ...
            assert list(dists) == sorted(dists, key=lambda p: (dists[p], p))
            # ... and each takes as predecessor the first settled
            # neighbour that reaches its distance.
            for dst in dists:
                if dst == src:
                    continue
                reaching = [
                    u for u, w in adjacency[dst] if dists[u] + w == dists[dst]
                ]
                first = min(reaching, key=lambda u: (dists[u], u))
                assert fast.path(src, dst)[-2] == first
