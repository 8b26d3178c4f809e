"""The PoP-level ISP topology class.

An :class:`ISPTopology` is an immutable, validated, undirected weighted graph
of PoPs. It mirrors what the Rocketfuel dataset provides for each measured
ISP: city-level nodes with geographic coordinates and weighted inter-PoP
links. Routing over the topology lives in :mod:`repro.routing`.

The graph is held as an endpoints-to-link dict and per-PoP adjacency
lists (:meth:`ISPTopology.adjacency`, which routing's Dijkstra walks);
:func:`spanning_forest` (union-find) checks connectivity.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import TopologyError
from repro.geo.coords import great_circle_km
from repro.topology.elements import Link, PoP

__all__ = ["ISPTopology", "spanning_forest"]


def spanning_forest(n: int, edges: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """The edges, in order, that each join two components of nodes ``0..n-1``.

    Over edges sorted by weight this is Kruskal's minimum spanning forest,
    ties going to the earlier edge; the graph is connected iff ``n - 1`` come back.
    """
    parent = list(range(n))

    def root(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    kept = []
    for u, v in edges:
        root_u, root_v = root(u), root(v)
        if root_u != root_v:
            parent[root_u] = root_v
            kept.append((u, v))
    return kept


class ISPTopology:
    """An ISP's PoP-level network.

    Construction validates that PoP indices are dense (0..n-1), city names
    are unique within the ISP, link endpoints exist, there are no duplicate
    links, and the graph is connected (every measured Rocketfuel topology
    is; a disconnected ISP could not provide internal transit).
    """

    def __init__(self, name: str, pops: Sequence[PoP], links: Sequence[Link]):
        if not name:
            raise TopologyError("ISP name cannot be empty")
        if not pops:
            raise TopologyError(f"ISP {name!r} has no PoPs")
        self._name = name
        self._pops: tuple[PoP, ...] = tuple(pops)
        self._links: tuple[Link, ...] = tuple(links)
        self._validate_pops()
        self._validate_links()
        self._validate_connected()
        self._pop_by_city = {pop.city: pop for pop in self._pops}

    # -- construction helpers ---------------------------------------------

    def _validate_pops(self) -> None:
        indices = [pop.index for pop in self._pops]
        if indices != list(range(len(self._pops))):
            raise TopologyError(
                f"ISP {self._name!r}: PoP indices must be dense 0..n-1, got {indices}"
            )
        cities = [pop.city for pop in self._pops]
        if len(set(cities)) != len(cities):
            dupes = sorted({c for c in cities if cities.count(c) > 1})
            raise TopologyError(f"ISP {self._name!r}: duplicate PoP cities {dupes}")

    def _validate_links(self) -> None:
        """Validate the links and index them by endpoints and by PoP."""
        n = len(self._pops)
        indices = [link.index for link in self._links]
        if indices != list(range(len(self._links))):
            raise TopologyError(
                f"ISP {self._name!r}: link indices must be dense 0..m-1"
            )
        self._link_index: dict[tuple[int, int], int] = {}
        adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for link in self._links:
            if link.u >= n or link.v >= n:
                raise TopologyError(
                    f"ISP {self._name!r}: link {link.index} references unknown PoP"
                )
            if link.endpoints in self._link_index:
                raise TopologyError(
                    f"ISP {self._name!r}: duplicate link between {link.endpoints}"
                )
            self._link_index[link.endpoints] = link.index
            self._link_index[link.v, link.u] = link.index
            weight = float(link.weight)
            adjacency[link.u].append((link.v, weight))
            adjacency[link.v].append((link.u, weight))
        self._adjacency = tuple(tuple(neighbours) for neighbours in adjacency)

    def _validate_connected(self) -> None:
        n = len(self._pops)
        if len(spanning_forest(n, (link.endpoints for link in self._links))) != n - 1:
            raise TopologyError(f"ISP {self._name!r}: topology is disconnected")

    # -- basic accessors ----------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def pops(self) -> tuple[PoP, ...]:
        return self._pops

    @property
    def links(self) -> tuple[Link, ...]:
        return self._links

    def n_pops(self) -> int:
        return len(self._pops)

    def n_links(self) -> int:
        return len(self._links)

    def pop(self, index: int) -> PoP:
        # Checked rather than caught: a negative index would wrap around.
        if not 0 <= index < len(self._pops):
            raise TopologyError(f"ISP {self._name!r}: no PoP with index {index}")
        return self._pops[index]

    def has_city(self, city: str) -> bool:
        return city in self._pop_by_city

    def pop_in_city(self, city: str) -> PoP:
        try:
            return self._pop_by_city[city]
        except KeyError:
            raise TopologyError(f"ISP {self._name!r}: no PoP in city {city!r}") from None

    def cities(self) -> frozenset[str]:
        return frozenset(self._pop_by_city)

    def link_between(self, u: int, v: int) -> Link:
        """The link between PoPs ``u`` and ``v`` (order-insensitive)."""
        index = self._link_index.get((u, v))
        if index is None:
            raise TopologyError(f"ISP {self._name!r}: no link between {u} and {v}")
        return self._links[index]

    def link_index_map(self) -> dict[tuple[int, int], int]:
        """``(u, v) -> link index`` in both orientations (treat as read-only)."""
        return self._link_index

    def adjacency(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Per-PoP ``(neighbour, weight)`` pairs in link order, built once.

        ``adjacency()[p]`` lists every link at PoP ``p`` by ascending link
        index, each as the far endpoint and the link's weight as a float;
        the graph routing runs its Dijkstra over.
        """
        return self._adjacency

    # -- derived properties --------------------------------------------------

    def total_link_km(self) -> float:
        """Total geographic fibre length of the network."""
        return sum(link.length_km for link in self._links)

    def edge_density(self) -> float:
        """Fraction of possible PoP pairs directly linked (1.0 = full mesh)."""
        n = self.n_pops()
        if n < 2:
            return 0.0
        return self.n_links() / (n * (n - 1) / 2)

    def is_logical_mesh(self, density_threshold: float = 0.9) -> bool:
        """Whether the topology looks like a logical mesh.

        The paper excludes eight measured ISPs "whose measured topologies
        are a logical mesh because their geographic distance is not
        reflective of true distance" — for such ISPs every PoP pair appears
        directly connected. We flag topologies with >= 4 PoPs whose edge
        density is at or above ``density_threshold``.
        """
        return self.n_pops() >= 4 and self.edge_density() >= density_threshold

    def degree(self, pop_index: int) -> int:
        self.pop(pop_index)
        return len(self._adjacency[pop_index])

    def geographic_span_km(self) -> float:
        """Largest great-circle distance between any two PoPs."""
        best = 0.0
        for i, a in enumerate(self._pops):
            for b in self._pops[i + 1 :]:
                best = max(best, great_circle_km(a.location, b.location))
        return best

    # -- dunder -----------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"ISPTopology(name={self._name!r}, pops={self.n_pops()}, "
            f"links={self.n_links()})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ISPTopology):
            return NotImplemented
        return (
            self._name == other._name
            and self._pops == other._pops
            and self._links == other._links
        )

    def __hash__(self) -> int:
        return hash((self._name, self._pops, self._links))
