"""Intradomain routing by one networkx Dijkstra per source."""

from __future__ import annotations

import networkx as nx

from repro.routing.paths import IntradomainRouting

from reference.topology import isp_graph


class NetworkxRouting(IntradomainRouting):
    """:class:`IntradomainRouting` whose SSSP cache is filled by networkx.

    Every public query (distances, paths, dense per-source views) reads the
    same ``(dists, paths)`` cache, so this is a drop-in reference wherever
    a routing is accepted. On tie-free topologies it matches the batched
    csgraph fill bit for bit; under equal-cost ties the two may route
    different, equally short paths.
    """

    def __init__(self, isp):
        super().__init__(isp)
        self._graph = isp_graph(isp)

    def _sssp_batch(self, sources) -> None:
        for src in sources:
            if src not in self._sssp_cache:
                self._isp.pop(src)  # validates the index
                self._sssp_cache[src] = nx.single_source_dijkstra(
                    self._graph, src, weight="weight"
                )
