"""Inter-domain routing: BGP propagation, transit paths, exits helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import RoutingError
from repro.routing.bgp import (
    RouteAdvertisement,
    export_advertisement,
    originate_advertisement,
)
from repro.routing.exits import early_exit_choices, early_exit_for_pop
from repro.routing.interdomain import (
    propagate_interdomain_routes,
    transit_demand_hops,
)
from repro.routing.paths import IntradomainRouting
from repro.topology.generator import GeneratorConfig
from repro.topology.internetwork import (
    Internetwork,
    InternetworkConfig,
    build_internetwork,
)

from reference.transit import demand_loads

GEN = GeneratorConfig(min_pops=6, max_pops=14)


@pytest.fixture(scope="module")
def chain4():
    return build_internetwork(
        InternetworkConfig(n_isps=4, shape="chain", seed=2005, generator=GEN)
    )


@pytest.fixture(scope="module")
def chain4_routes(chain4):
    return propagate_interdomain_routes(chain4)


class TestBgpExport:
    def test_originate(self):
        adv = originate_advertisement("asA", "asA", 3)
        assert adv.as_path == ("asA",)
        assert adv.neighbor_as == "asA"
        assert adv.interconnection == 3

    def test_export_prepends_self(self):
        origin = originate_advertisement("asB", "asB", 0)
        exported = export_advertisement("asA", origin, 7)
        assert exported.as_path == ("asA", "asB")
        assert exported.neighbor_as == "asA"
        assert exported.interconnection == 7
        assert exported.prefix == "asB"

    def test_export_requires_name(self):
        origin = originate_advertisement("asB", "asB", 0)
        with pytest.raises(RoutingError):
            export_advertisement("", origin, 0)

    def test_export_resets_non_transitive_attributes(self):
        """local_pref and med must not leak across the AS boundary."""
        selected = RouteAdvertisement(
            prefix="asC",
            neighbor_as="asC",
            as_path=("asC",),
            interconnection=0,
            med=40,
            local_pref=200,
        )
        exported = export_advertisement("asB", selected, 1)
        assert exported.local_pref == 100  # importer's policy, not B's
        assert exported.med == 0  # MEDs only compare routes from the setter


class TestPropagation:
    def test_full_reachability_on_chain(self, chain4, chain4_routes):
        names = chain4.names()
        for src in names:
            for dst in names:
                assert chain4_routes.reachable(src, dst)
        assert chain4_routes.unreachable_pairs == ()

    def test_chain_paths_follow_the_chain(self, chain4, chain4_routes):
        names = chain4.names()
        # End to end across the chain transits every intermediate ISP.
        assert chain4_routes.as_path(names[0], names[-1]) == names
        assert chain4_routes.edge_sequence(names[0], names[-1]) == [0, 1, 2]
        # And the reverse direction mirrors it.
        assert chain4_routes.as_path(names[-1], names[0]) == names[::-1]

    def test_next_hop_is_first_path_element(self, chain4, chain4_routes):
        names = chain4.names()
        assert chain4_routes.next_hop(names[0], names[2]) == names[1]
        assert chain4_routes.next_edge(names[0], names[2]) == 0

    def test_self_path(self, chain4_routes, chain4):
        name = chain4.names()[0]
        assert chain4_routes.as_path(name, name) == (name,)
        assert chain4_routes.edge_sequence(name, name) == []

    def test_unreachable_raises(self, chain4):
        # Two member ISPs with no edges: nothing routes.
        isolated = Internetwork(chain4.isps[:2], [])
        routes = propagate_interdomain_routes(isolated)
        names = isolated.names()
        assert not routes.reachable(names[0], names[1])
        assert (names[0], names[1]) in routes.unreachable_pairs
        with pytest.raises(RoutingError, match="no inter-domain route"):
            routes.next_hop(names[0], names[1])

    def test_ring_takes_the_short_way(self):
        net = build_internetwork(
            InternetworkConfig(
                n_isps=3, shape="ring", seed=2005, generator=GEN
            )
        )
        routes = propagate_interdomain_routes(net)
        names = net.names()
        # On a 3-ring every pair is adjacent: one-hop paths everywhere.
        for src in names:
            for dst in names:
                if src != dst:
                    assert len(routes.as_path(src, dst)) == 2


class TestEarlyExitForPop:
    def test_matches_table_rule(self, chain4):
        edge = chain4.edges[0]
        routing = IntradomainRouting(edge.isp_a)
        from repro.routing.costs import build_pair_cost_table
        from repro.routing.flows import build_full_flowset

        table = build_pair_cost_table(edge, build_full_flowset(edge))
        choices = early_exit_choices(table)
        n_dst = edge.isp_b.n_pops()
        for src in range(edge.isp_a.n_pops()):
            flow_row = src * n_dst  # up_weight only depends on the source
            assert early_exit_for_pop(edge, src, "a", routing) == int(
                choices[flow_row]
            )

    def test_side_b(self, chain4):
        edge = chain4.edges[0]
        ic = early_exit_for_pop(edge, 0, side="b")
        assert 0 <= ic < edge.n_interconnections()

    def test_wrong_routing_cache_rejected(self, chain4):
        edge = chain4.edges[0]
        with pytest.raises(RoutingError, match="routing cache"):
            early_exit_for_pop(
                edge, 0, "a", IntradomainRouting(edge.isp_b)
            )


class TestTransitDemandHops:
    def test_transit_crosses_intermediates(self, chain4, chain4_routes):
        names = chain4.names()
        routings: dict = {}
        hops = transit_demand_hops(
            chain4, chain4_routes, names[0], 0, names[-1], routings
        )
        assert [hop.isp for hop in hops] == list(names[:-1])
        # Hop chaining: each hop enters the next ISP at the chosen
        # interconnection's far-side PoP.
        for prev, hop in zip(hops, hops[1:]):
            edge = chain4.edges[prev.edge_index]
            side = chain4.edge_side(prev.edge_index, prev.isp)
            far = edge.exit_pops(edge.other_side(side))[prev.exit_ic]
            assert hop.entry_pop == far

    def test_hop_links_are_intra_isp_paths(self, chain4, chain4_routes):
        names = chain4.names()
        hops = transit_demand_hops(
            chain4, chain4_routes, names[0], 1, names[2], {}
        )
        for hop in hops:
            isp = chain4.get(hop.isp)
            assert np.all(hop.links < isp.n_links())
            if hop.entry_pop == hop.exit_pop:
                assert hop.links.size == 0

    def test_same_isp_rejected(self, chain4, chain4_routes):
        name = chain4.names()[0]
        with pytest.raises(RoutingError, match="distinct endpoint"):
            transit_demand_hops(chain4, chain4_routes, name, 0, name, {})


class TestBlockedExits:
    def test_blocked_column_is_avoided(self, chain4):
        edge = chain4.edges[0]
        routing = IntradomainRouting(edge.isp_a)
        preferred = early_exit_for_pop(edge, 0, "a", routing)
        survivor = early_exit_for_pop(
            edge, 0, "a", routing, blocked=(preferred,)
        )
        assert survivor != preferred
        assert 0 <= survivor < edge.n_interconnections()

    def test_blocked_choice_is_best_survivor(self, chain4):
        edge = chain4.edges[0]
        routing = IntradomainRouting(edge.isp_a)
        exit_pops = edge.exit_pops("a")
        blocked = (0,)
        chosen = early_exit_for_pop(edge, 2, "a", routing, blocked=blocked)
        best = min(
            (i for i in range(len(exit_pops)) if i not in blocked),
            key=lambda i: (routing.weight_distance(exit_pops[i], 2), i),
        )
        assert chosen == best

    def test_all_blocked_raises(self, chain4):
        edge = chain4.edges[0]
        everything = tuple(range(edge.n_interconnections()))
        with pytest.raises(RoutingError, match="blocked"):
            early_exit_for_pop(edge, 0, "a", blocked=everything)

    def test_empty_blocked_matches_unblocked(self, chain4):
        edge = chain4.edges[0]
        routing = IntradomainRouting(edge.isp_a)
        for pop in range(edge.isp_a.n_pops()):
            assert early_exit_for_pop(
                edge, pop, "a", routing, blocked=()
            ) == early_exit_for_pop(edge, pop, "a", routing)


def _chain4_demands(net):
    """Every non-adjacent ordered pair, a demand per low source PoP."""
    from repro.routing.interdomain import TransitDemand

    names = net.names()
    demands = []
    for i, src in enumerate(names):
        for j, dst in enumerate(names):
            if abs(i - j) < 2:
                continue
            for pop in range(min(3, net.get(src).n_pops())):
                demands.append(TransitDemand(
                    src_isp=src, src_pop=pop, dst_isp=dst,
                    volume=1.0 + 0.25 * pop + 0.5 * i,
                ))
    return demands


def _legacy_loads(net, routes, demands, blocked=None):
    return demand_loads(net, routes, {}, demands, blocked)


class TestTransitLoadIndex:
    @pytest.fixture()
    def index(self, chain4, chain4_routes):
        from repro.routing.interdomain import TransitLoadIndex

        return TransitLoadIndex(
            chain4, chain4_routes, {}, _chain4_demands(chain4)
        )

    def test_loads_match_legacy_loop_bitwise(
        self, chain4, chain4_routes, index
    ):
        legacy = _legacy_loads(
            chain4, chain4_routes, _chain4_demands(chain4)
        )
        loads = index.loads()
        assert set(loads) == set(legacy)
        for name in loads:
            assert np.array_equal(loads[name], legacy[name])

    def test_sever_matches_full_rederivation(self, chain4, chain4_routes):
        from repro.routing.interdomain import TransitLoadIndex

        demands = _chain4_demands(chain4)
        index = TransitLoadIndex(chain4, chain4_routes, {}, demands)
        crossed = min(
            e for e in range(chain4.n_edges()) if index.crossing(e)
        )
        rerouted = index.sever(crossed, {0})
        assert rerouted == len(index.crossing(crossed))
        legacy = _legacy_loads(
            chain4, chain4_routes, demands, blocked={crossed: {0}}
        )
        loads = index.loads()
        for name in loads:
            assert np.array_equal(loads[name], legacy[name])

    def test_sever_already_blocked_is_noop(self, chain4, index):
        crossed = min(
            e for e in range(chain4.n_edges()) if index.crossing(e)
        )
        assert index.sever(crossed, {1}) > 0
        before = index.loads()
        assert index.sever(crossed, {1}) == 0
        after = index.loads()
        assert all(
            np.array_equal(before[name], after[name]) for name in before
        )

    def test_crossing_sets_cover_chain_transit(self, chain4, index):
        # On a chain every inner edge carries some end-to-end transit.
        crossed = [e for e in range(chain4.n_edges()) if index.crossing(e)]
        assert crossed, "chain transit must cross at least one edge"
        for e in crossed:
            assert index.crossing(e) == tuple(sorted(index.crossing(e)))

    def test_loads_after_is_pure(self, chain4, chain4_routes, index):
        crossed = min(
            e for e in range(chain4.n_edges()) if index.crossing(e)
        )
        before = {k: v.copy() for k, v in index.loads().items()}
        preview = index.loads_after(crossed, (0,))
        legacy = _legacy_loads(
            chain4, chain4_routes, _chain4_demands(chain4),
            blocked={crossed: {0}},
        )
        for name in preview:
            assert np.array_equal(preview[name], legacy[name])
        after = index.loads()
        for name in before:
            assert np.array_equal(before[name], after[name])
        assert index.blocked == {}
