"""Intradomain routing by one networkx Dijkstra per source."""

from __future__ import annotations

import networkx as nx

from repro.routing.paths import IntradomainRouting

from reference.topology import isp_graph


def sssp_entry(graph, src: int, n_pops: int):
    """One source's ``(dists, preds)`` cache entry from networkx.

    networkx returns its distances in settle order, the order the routing
    cache keeps them in, and one path per reached PoP; each path's
    second-to-last PoP is that PoP's predecessor (``-1`` for the source and
    for unreached PoPs).
    """
    dists, paths = nx.single_source_dijkstra(graph, src, weight="weight")
    preds = [-1] * n_pops
    for dst, path in paths.items():
        if len(path) > 1:
            preds[dst] = path[-2]
    return dists, preds


class NetworkxRouting(IntradomainRouting):
    """:class:`IntradomainRouting` whose SSSP cache is filled by networkx.

    Every public query (distances, paths, dense per-source views) reads the
    same ``(dists, preds)`` cache, so this is a drop-in reference wherever
    a routing is accepted. On tie-free topologies it matches the heap
    Dijkstra bit for bit; under equal-cost ties the two may route
    different, equally short paths.
    """

    def __init__(self, isp):
        super().__init__(isp)
        self._graph = isp_graph(isp)

    def _sssp_batch(self, sources) -> None:
        for src in sources:
            if src not in self._sssp_cache:
                self._isp.pop(src)  # validates the index
                self._sssp_cache[src] = sssp_entry(
                    self._graph, src, self._isp.n_pops()
                )
