"""Intradomain shortest-path routing over an ISP topology.

Routing follows link *weights* (OSPF-style), while the distance metric of
Section 5.1 is measured over the geographic *length* of the chosen path —
the same split the paper inherits from Rocketfuel, whose inferred weights
approximate but do not equal geographic distance.

The per-source caches are filled by one batched
``scipy.sparse.csgraph.dijkstra`` call over the ISP's compiled CSR link
graph for all missing sources; distances and paths are then reconstructed
from the predecessor matrix by dynamic programming in ascending-distance
order. Accumulating ``d[pred] + w`` along the shortest-path tree gives the
same floats as a textbook per-source Dijkstra whenever shortest paths are
unique (the repo's jittered continuous weights guarantee this; equal-cost
ties may legitimately route a different, equally short path). The
per-source reference lives in the test suite.

Paths are computed lazily and cached; an ISP with ``k`` interconnections
only ever needs ``k + |sources|`` single-source runs, and ``warm()``
batches them into a single csgraph call.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from repro.errors import RoutingError
from repro.topology.isp import ISPTopology

__all__ = ["IntradomainRouting"]


class IntradomainRouting:
    """Shortest-path routing state for one ISP, with per-source caching."""

    def __init__(self, isp: ISPTopology):
        self._isp = isp
        # src -> (weight-dist dict, path dict)
        self._sssp_cache: dict[int, tuple[dict[int, float], dict[int, list[int]]]] = {}
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
        # link index -> routing weight, mirrored from the topology so the
        # csgraph DP accumulates the exact Python floats of the link
        # attributes.
        self._link_weights = np.asarray(
            [link.weight for link in isp.links], dtype=float
        )
        # src -> dense per-PoP views for the batched table builder
        self._weight_array_cache: dict[int, np.ndarray] = {}
        self._geo_array_cache: dict[int, np.ndarray] = {}
        self._links_array_cache: dict[int, tuple[np.ndarray | None, ...]] = {}

    @property
    def isp(self) -> ISPTopology:
        return self._isp

    # -- internals ----------------------------------------------------------

    def _sssp(self, src: int) -> tuple[dict[int, float], dict[int, list[int]]]:
        if src not in self._sssp_cache:
            self._sssp_batch([src])
        return self._sssp_cache[src]

    def _sssp_batch(self, sources: Sequence[int]) -> None:
        """Fill the SSSP cache for every missing source in one csgraph call.

        The predecessor matrix is turned back into ``(dists, paths)``
        dicts: processing destinations in ascending-distance order
        (strictly positive weights put every predecessor before its
        children) lets each entry be derived from its predecessor's —
        ``d[dst] = d[pred] + w`` is the left-associated accumulation a
        textbook Dijkstra performs, so cached floats match a per-source
        Dijkstra bit for bit.
        """
        missing: list[int] = []
        for src in sources:
            if src not in self._sssp_cache and src not in missing:
                self._isp.pop(src)  # validates the index
                missing.append(src)
        if not missing:
            return
        dist_rows, pred_rows = _csgraph_dijkstra(
            self._isp.link_csr(),
            directed=True,
            indices=missing,
            return_predecessors=True,
        )
        dist_rows = np.atleast_2d(dist_rows)
        pred_rows = np.atleast_2d(pred_rows)
        edge_links = self._isp.link_index_map()
        # Ascending-distance visit order and reachable counts for the whole
        # batch in one vectorized pass; .tolist() hoists the per-element
        # numpy-scalar conversions out of the DP loop (exact float values
        # either way).
        order_rows = np.argsort(dist_rows, axis=1, kind="stable")
        finite_counts = np.isfinite(dist_rows).sum(axis=1).tolist()
        pred_lists = pred_rows.tolist()
        weights = self._link_weights.tolist()
        for row, src in enumerate(missing):
            pred_row = pred_lists[row]
            dists: dict[int, float] = {}
            paths: dict[int, list[int]] = {}
            for dst in order_rows[row, : finite_counts[row]].tolist():
                if dst == src:
                    dists[src] = 0.0
                    paths[src] = [src]
                    continue
                pred = pred_row[dst]
                link = edge_links[(pred, dst)]
                dists[dst] = dists[pred] + weights[link]
                paths[dst] = paths[pred] + [dst]
            self._sssp_cache[src] = (dists, paths)

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
        _, paths = self._sssp(src)
        try:
            return list(paths[dst])
        except KeyError:
            raise RoutingError(
                f"{self._isp.name}: no path from PoP {src} to {dst}"
            ) from None

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
        """Pre-compute SSSP state for the given sources (optional): all
        missing sources share one batched Dijkstra call."""
        self._sssp_batch(list(sources))

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
        hop, so visiting destinations in hop-count order (parents first)
        derives each from its parent: ``links[dst] = links[pred] + [link]``
        and ``geo[dst] = geo[pred] + length[link]``. The second is exactly
        the left fold :meth:`geo_distance_km` performs along the path. This
        replaces one link lookup per hop and one re-fold per destination.

        The DP writes only the two array-view caches, never the per-path
        :meth:`path_links` / :meth:`geo_distance_km` caches, so those stay
        plain per-path computations.
        """
        _, paths = self._sssp(src)
        edge_links = self._isp.link_index_map()
        lengths = self._link_lengths.tolist()
        hops: dict[int, list[int]] = {src: []}
        km: dict[int, float] = {src: 0.0}
        for dst in sorted(paths, key=lambda pop: len(paths[pop])):
            if dst != src:
                pred = paths[dst][-2]
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
