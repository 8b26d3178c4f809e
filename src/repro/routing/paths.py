"""Intradomain shortest-path routing over an ISP topology.

Routing follows link *weights* (OSPF-style), while the distance metric of
Section 5.1 is measured over the geographic *length* of the chosen path —
the same split the paper inherits from Rocketfuel, whose inferred weights
approximate but do not equal geographic distance.

Each source is routed by a textbook Dijkstra over the ISP's per-PoP
adjacency lists (:meth:`~repro.topology.isp.ISPTopology.adjacency`) with a
``(distance, PoP)`` heap, so PoPs settle in (distance, index) order and a
PoP's predecessor is the first settled neighbour that reaches its minimum.
Each relaxation computes ``d[u] + w``, the float a per-source networkx
Dijkstra computes, so distances match it bit for bit, and so do paths
whenever shortest paths are unique (the repo's jittered continuous weights
guarantee this; under equal-cost ties the two may route different, equally
short paths). The networkx reference lives in the test suite.

Paths are computed lazily and cached per source; an ISP with ``k``
interconnections only ever needs ``k + |sources|`` single-source runs, and
``warm()`` runs the missing ones up front.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Sequence

import numpy as np

from repro.errors import RoutingError
from repro.topology.isp import ISPTopology

__all__ = ["IntradomainRouting"]


class IntradomainRouting:
    """Shortest-path routing state for one ISP, with per-source caching."""

    def __init__(self, isp: ISPTopology):
        self._isp = isp
        # src -> (weight-dist dict in settle order, predecessor per PoP)
        self._sssp_cache: dict[int, tuple[dict[int, float], list[int]]] = {}
        # (src, dst) -> np.ndarray of link indices
        self._link_cache: dict[tuple[int, int], np.ndarray] = {}
        # (src, dst) -> geographic length of the routed path
        self._length_cache: dict[tuple[int, int], float] = {}
        # link index -> geographic length, hoisted once per instance (the
        # distance metric reads it per path; rebuilding a dict per call was
        # the routing layer's last per-query allocation).
        self._link_lengths = np.asarray(
            [link.length_km for link in isp.links], dtype=float
        )
        # src -> dense per-PoP views for the batched table builder
        self._weight_array_cache: dict[int, np.ndarray] = {}
        self._geo_array_cache: dict[int, np.ndarray] = {}
        self._links_array_cache: dict[int, tuple[np.ndarray | None, ...]] = {}

    @property
    def isp(self) -> ISPTopology:
        return self._isp

    # -- internals ----------------------------------------------------------

    def _sssp(self, src: int) -> tuple[dict[int, float], list[int]]:
        if src not in self._sssp_cache:
            self._sssp_batch([src])
        return self._sssp_cache[src]

    def _sssp_batch(self, sources: Sequence[int]) -> None:
        """Fill the SSSP cache for every missing source, one Dijkstra each.

        A source's entry is its distances as a dict in settle order (so
        every PoP follows its predecessor) and its predecessor list (``-1``
        for the source and for unreachable PoPs).
        """
        adjacency = self._isp.adjacency()
        n = len(adjacency)
        for src in sources:
            if src in self._sssp_cache:
                continue
            self._isp.pop(src)  # validates the index
            dists: dict[int, float] = {}
            best = [float("inf")] * n
            preds = [-1] * n
            best[src] = 0.0
            heap = [(0.0, src)]
            while heap:
                dist, pop = heappop(heap)
                if pop in dists:
                    continue
                dists[pop] = dist
                for neighbour, weight in adjacency[pop]:
                    candidate = dist + weight
                    if candidate < best[neighbour]:
                        best[neighbour] = candidate
                        preds[neighbour] = pop
                        heappush(heap, (candidate, neighbour))
            self._sssp_cache[src] = (dists, preds)

    # -- public API -----------------------------------------------------------

    def weight_distance(self, src: int, dst: int) -> float:
        """Sum of link weights along the routed path (the routing metric)."""
        dists, _ = self._sssp(src)
        try:
            return float(dists[dst])
        except KeyError:
            raise RoutingError(
                f"{self._isp.name}: no path from PoP {src} to {dst}"
            ) from None

    def path(self, src: int, dst: int) -> list[int]:
        """PoP indices along the routed path, inclusive of endpoints."""
        dists, preds = self._sssp(src)
        if dst not in dists:
            raise RoutingError(
                f"{self._isp.name}: no path from PoP {src} to {dst}"
            )
        pops = [dst]
        while dst != src:
            dst = preds[dst]
            pops.append(dst)
        pops.reverse()
        return pops

    def path_links(self, src: int, dst: int) -> np.ndarray:
        """Link indices along the routed path (empty array if src == dst)."""
        key = (src, dst)
        if key not in self._link_cache:
            pops = self.path(src, dst)
            links = [
                self._isp.link_between(u, v).index
                for u, v in zip(pops, pops[1:])
            ]
            self._link_cache[key] = np.asarray(links, dtype=np.intp)
        return self._link_cache[key]

    def geo_distance_km(self, src: int, dst: int) -> float:
        """Geographic length of the routed path (the Section 5.1 metric).

        Accumulates the per-instance link-length array sequentially in path
        order (the summation order every derived kernel is pinned to).
        """
        key = (src, dst)
        if key not in self._length_cache:
            lengths = self._link_lengths
            total = 0.0
            for i in self.path_links(src, dst):
                total += float(lengths[i])
            self._length_cache[key] = total
        return self._length_cache[key]

    def distances_to_all(self, src: int) -> dict[int, float]:
        """Weight-distance from ``src`` to every PoP (copy of the cache row)."""
        dists, _ = self._sssp(src)
        return dict(dists)

    def warm(self, sources: Sequence[int]) -> None:
        """Pre-compute SSSP state for the given sources (optional)."""
        self._sssp_batch(sources)

    # -- batched per-source views (the column-fill table builder) -------------

    def weight_distance_array(self, src: int) -> np.ndarray:
        """Weight-distance from ``src`` to every PoP as a dense (n_pops,)
        array (NaN where no path exists). Cached per source; one gather
        replaces a per-flow :meth:`weight_distance` call loop."""
        cached = self._weight_array_cache.get(src)
        if cached is None:
            dists, _ = self._sssp(src)
            cached = np.full(self._isp.n_pops(), np.nan)
            cached[list(dists.keys())] = list(dists.values())
            cached.setflags(write=False)
            self._weight_array_cache[src] = cached
        return cached

    def geo_distance_array(self, src: int) -> np.ndarray:
        """Geographic routed distance from ``src`` to every PoP, (n_pops,)
        dense (NaN where unreachable). Each entry is exactly
        :meth:`geo_distance_km`'s float, so gathered columns are
        bit-identical to per-flow queries; see :meth:`_tree_views`."""
        if src not in self._geo_array_cache:
            self._tree_views(src)
        return self._geo_array_cache[src]

    def path_links_array(self, src: int) -> tuple[np.ndarray | None, ...]:
        """Routed link indices from ``src`` to every PoP, indexed by PoP
        (``None`` where unreachable). Cached per source and shared by every
        table built from this routing; each entry equals
        :meth:`path_links`'s array but is its own array, not the one that
        method caches (see :meth:`_tree_views`)."""
        if src not in self._links_array_cache:
            self._tree_views(src)
        return self._links_array_cache[src]

    def _tree_views(self, src: int) -> None:
        """Fill both per-source views in one DP over the shortest-path tree.

        Every routed path from ``src`` is its predecessor's path plus one
        hop, so visiting destinations in settle order (parents first)
        derives each from its parent: ``links[dst] = links[pred] + [link]``
        and ``geo[dst] = geo[pred] + length[link]``. The second is exactly
        the left fold :meth:`geo_distance_km` performs along the path. This
        replaces one link lookup per hop and one re-fold per destination.

        The DP writes only the two array-view caches, never the per-path
        :meth:`path_links` / :meth:`geo_distance_km` caches, so those stay
        plain per-path computations.
        """
        dists, preds = self._sssp(src)
        edge_links = self._isp.link_index_map()
        lengths = self._link_lengths.tolist()
        hops: dict[int, list[int]] = {src: []}
        km: dict[int, float] = {src: 0.0}
        for dst in dists:
            if dst != src:
                pred = preds[dst]
                link = edge_links[(pred, dst)]
                hops[dst] = hops[pred] + [link]
                km[dst] = km[pred] + lengths[link]
        geo = np.full(self._isp.n_pops(), np.nan)
        geo[list(km)] = list(km.values())
        geo.setflags(write=False)
        self._geo_array_cache[src] = geo
        self._links_array_cache[src] = tuple(
            np.asarray(hops[dst], dtype=np.intp) if dst in hops else None
            for dst in range(self._isp.n_pops())
        )
