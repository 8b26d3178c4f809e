"""The networkx topology code that plain indexes and a union-find replaced.

``ISPTopology`` used to keep a networkx graph (``link_between`` read its
edge data, ``degree`` its degree view, and construction ran
``nx.is_connected``); the generator grew each backbone with
``nx.minimum_spanning_tree`` over the complete distance graph; and
``Internetwork`` built its peering graph in networkx. The functions here
are that code, taking the topology as an argument.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import networkx as nx

from repro.errors import TopologyError
from repro.geo.coords import great_circle_km
from repro.topology.elements import Link, PoP
from repro.topology.generator import TopologyGenerator
from repro.topology.isp import ISPTopology


def graph_of(pops: Sequence[PoP], links: Sequence[Link]) -> nx.Graph:
    """The PoP graph ``ISPTopology`` built: a node per PoP, an edge per link."""
    graph = nx.Graph()
    graph.add_nodes_from(pop.index for pop in pops)
    for link in links:
        graph.add_edge(
            link.u,
            link.v,
            weight=link.weight,
            length_km=link.length_km,
            link_index=link.index,
        )
    return graph


def isp_graph(isp: ISPTopology) -> nx.Graph:
    return graph_of(isp.pops, isp.links)


def accepts_connectivity(pops: Sequence[PoP], links: Sequence[Link]) -> bool:
    """Whether construction's connectivity check passes these PoPs and links."""
    return len(pops) <= 1 or nx.is_connected(graph_of(pops, links))


def link_between(isp: ISPTopology, u: int, v: int) -> Link | None:
    """The link between two PoPs, or None where ``ISPTopology`` raises."""
    data = isp_graph(isp).get_edge_data(u, v)
    return None if data is None else isp.links[data["link_index"]]


def degree(isp: ISPTopology, pop_index: int) -> int:
    return int(isp_graph(isp).degree[pop_index])


def backbone_edges(self: TopologyGenerator, cities, rng) -> list[tuple[int, int]]:
    """``TopologyGenerator._backbone_edges`` on networkx's minimum spanning tree."""
    n = len(cities)
    complete = nx.Graph()
    complete.add_nodes_from(range(n))
    for u, v in itertools.combinations(range(n), 2):
        dist = great_circle_km(cities[u].location, cities[v].location)
        complete.add_edge(u, v, dist=max(dist, 1.0))
    mst = nx.minimum_spanning_tree(complete, weight="dist")
    edges = {tuple(sorted(e)) for e in mst.edges()}

    candidates = [
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if (u, v) not in edges
    ]
    n_extra = min(len(candidates), round(self.config.extra_edge_fraction * n))
    if n_extra > 0 and candidates:
        inv_sq = [
            1.0 / complete[u][v]["dist"] ** 2 for u, v in candidates
        ]
        total = sum(inv_sq)
        probs = [w / total for w in inv_sq]
        chosen = rng.choice(len(candidates), size=n_extra, replace=False, p=probs)
        for i in chosen:
            edges.add(candidates[int(i)])
    return sorted(edges)


class NetworkxTopologyGenerator(TopologyGenerator):
    """The generator as it ran on networkx: the networkx spanning tree, and
    every generated ISP also built into a networkx graph and checked with
    ``nx.is_connected``, which ``ISPTopology`` construction used to do."""

    _backbone_edges = backbone_edges

    def generate(self, name, seed) -> ISPTopology:
        isp = super().generate(name, seed)
        if not accepts_connectivity(isp.pops, isp.links):
            raise TopologyError(f"ISP {name!r}: topology is disconnected")
        return isp


def peering_graph(net) -> nx.Graph:
    """The AS-level peering graph ``Internetwork.graph()`` returned."""
    graph = nx.Graph()
    graph.add_nodes_from(net.names())
    for i, edge in enumerate(net.edges):
        graph.add_edge(edge.isp_a.name, edge.isp_b.name, edge_index=i)
    return graph


def internetwork_is_connected(net) -> bool:
    return nx.is_connected(peering_graph(net)) if net.isps else False
