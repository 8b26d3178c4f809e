"""Multi-ISP internetworks: N peering ISPs wired into a topology shape.

The paper's protocol is pairwise, but its discussion frames an Internet of
many neighboring ISPs where each adjacent pair negotiates and the
interesting dynamics — transit flows, interaction between overlapping
sessions, global convergence — emerge from the composition. This module
grows the two-ISP substrate into that setting: an :class:`Internetwork` is
a set of ISP topologies plus the :class:`~repro.topology.interconnect.IspPair`
edges along which they peer, arranged as a *chain*, a *ring*, or a
*random-peering* graph.

Generation reuses the existing machinery end to end: ISPs come from
:class:`~repro.topology.generator.TopologyGenerator` (PoPs at real city
locations, so independently generated ISPs share cities), and candidate
edges from :func:`~repro.topology.interconnect.find_isp_pairs` (the same
co-location heuristic the two-ISP dataset uses). Because two arbitrary ISPs
need not share enough cities to peer, the builder generates an oversampled
*pool* and searches the qualifying-pair graph for the requested shape — a
simple path for a chain, a simple cycle for a ring, a connected induced
subgraph (spanning tree plus probabilistic extra peerings) for random —
deterministically in the seed. The searches walk a sorted adjacency dict,
and :meth:`Internetwork.is_connected` is a union-find pass
(:func:`~repro.topology.isp.spanning_forest`) over the member indexes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from repro.errors import ConfigurationError, TopologyError
from repro.geo.cities import default_city_database
from repro.topology.generator import GeneratorConfig, TopologyGenerator
from repro.topology.interconnect import IspPair, find_isp_pairs
from repro.topology.isp import ISPTopology, spanning_forest
from repro.util.rng import derive_rng
from repro.util.validation import check_int, check_probability, validate_choice

__all__ = ["InternetworkConfig", "Internetwork", "build_internetwork"]

_SHAPES = ("chain", "ring", "random")

#: Expansion budget for the deterministic shape search. The qualifying-pair
#: graphs are tens of nodes at most, so this is never the binding limit in
#: practice; it bounds the worst case on adversarial hand-built pools.
_SEARCH_BUDGET = 200_000


@dataclass(frozen=True)
class InternetworkConfig:
    """Parameters of an internetwork build.

    Attributes:
        n_isps: how many ISPs end up in the internetwork.
        shape: ``"chain"`` (a path of N ISPs), ``"ring"`` (a cycle), or
            ``"random"`` (a connected random-peering graph).
        seed: master seed; ISP generation and random peering derive from it.
        pool_size: how many candidate ISPs to generate before searching for
            the shape (None = ``max(3 * n_isps, n_isps + 6)``). Two
            arbitrary ISPs need not share cities, so the pool oversamples.
        min_interconnections: peering threshold per edge (as in
            :meth:`~repro.topology.dataset.IspDataset.pairs`).
        max_interconnections: cap on peerings per edge (exchange-point
            pruning, as in :func:`find_isp_pairs`).
        peering_probability: for ``shape="random"``: probability that each
            qualifying edge beyond the connecting spanning tree is kept.
        generator: per-ISP topology-generation tunables.
        name_prefix: ISP names are ``f"{name_prefix}{i:02d}"``.
    """

    n_isps: int = 4
    shape: str = "chain"
    seed: int = 2005
    pool_size: int | None = None
    min_interconnections: int = 2
    max_interconnections: int | None = 8
    peering_probability: float = 0.5
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    name_prefix: str = "isp"

    def __post_init__(self) -> None:
        validate_choice(self.shape, _SHAPES, "shape")
        check_int(self.n_isps, "n_isps", 2)
        check_int(self.seed, "seed", 0)
        if self.shape == "ring" and self.n_isps < 3:
            raise ConfigurationError("a ring needs n_isps >= 3")
        if self.pool_size is not None:
            check_int(self.pool_size, "pool_size", self.n_isps)
        check_int(self.min_interconnections, "min_interconnections", 1)
        if self.max_interconnections is not None:
            check_int(self.max_interconnections, "max_interconnections", 1)
        check_probability(self.peering_probability, "peering_probability")
        if not self.name_prefix:
            raise ConfigurationError("name_prefix cannot be empty")

    def resolved_pool_size(self) -> int:
        if self.pool_size is not None:
            return self.pool_size
        return max(3 * self.n_isps, self.n_isps + 6)


class Internetwork:
    """N ISP topologies plus the pair edges along which they peer.

    The member list fixes a canonical ISP order (chain/ring order for those
    shapes); edges are :class:`IspPair` objects oriented hop-wise for
    chains and rings (``isp_a`` is the hop's upstream member, so a ring's
    closing edge runs last member -> first) and with ``isp_a`` as the
    earlier member for random graphs. Hand-built internetworks may be
    disconnected or even edge-free — the coordination layer treats a
    zero-pair internetwork as trivially converged.
    """

    def __init__(
        self,
        isps: Sequence[ISPTopology],
        edges: Sequence[IspPair],
        config: InternetworkConfig | None = None,
    ):
        if not isps:
            raise TopologyError("internetwork needs at least one ISP")
        names = [isp.name for isp in isps]
        if len(set(names)) != len(names):
            raise TopologyError("internetwork contains duplicate ISP names")
        self._isps = tuple(isps)
        self._index = {isp.name: i for i, isp in enumerate(self._isps)}
        seen: set[frozenset[str]] = set()
        for edge in edges:
            for side in (edge.isp_a, edge.isp_b):
                if side.name not in self._index:
                    raise TopologyError(
                        f"edge {edge.name} references ISP {side.name!r} "
                        "not in the internetwork"
                    )
            key = frozenset((edge.isp_a.name, edge.isp_b.name))
            if key in seen:
                raise TopologyError(f"duplicate edge between {sorted(key)}")
            seen.add(key)
        self._edges = tuple(edges)
        self._config = config
        self._edges_by_isp: dict[str, list[int]] = {name: [] for name in names}
        for i, edge in enumerate(self._edges):
            self._edges_by_isp[edge.isp_a.name].append(i)
            self._edges_by_isp[edge.isp_b.name].append(i)

    # -- accessors ----------------------------------------------------------

    @property
    def isps(self) -> tuple[ISPTopology, ...]:
        return self._isps

    @property
    def edges(self) -> tuple[IspPair, ...]:
        return self._edges

    @property
    def config(self) -> InternetworkConfig | None:
        return self._config

    def n_isps(self) -> int:
        return len(self._isps)

    def n_edges(self) -> int:
        return len(self._edges)

    def names(self) -> tuple[str, ...]:
        return tuple(isp.name for isp in self._isps)

    def get(self, name: str) -> ISPTopology:
        try:
            return self._isps[self._index[name]]
        except KeyError:
            raise TopologyError(
                f"no ISP named {name!r} in internetwork"
            ) from None

    def index(self, name: str) -> int:
        if name not in self._index:
            raise TopologyError(f"no ISP named {name!r} in internetwork")
        return self._index[name]

    def edges_of(self, name: str) -> list[int]:
        """Indices of the edges that touch one ISP, ascending."""
        self.index(name)  # validates
        return list(self._edges_by_isp[name])

    def edge_side(self, edge_index: int, name: str) -> str:
        """Which side ('a' or 'b') of an edge the named ISP occupies."""
        edge = self._edges[edge_index]
        if edge.isp_a.name == name:
            return "a"
        if edge.isp_b.name == name:
            return "b"
        raise TopologyError(
            f"ISP {name!r} is not an endpoint of edge {edge.name}"
        )

    def is_connected(self) -> bool:
        """Whether the peering edges join every member ISP."""
        hops = [
            (self._index[edge.isp_a.name], self._index[edge.isp_b.name])
            for edge in self._edges
        ]
        return len(spanning_forest(len(self._isps), hops)) == len(self._isps) - 1

    def summary(self) -> str:
        shape = self._config.shape if self._config else "custom"
        ics = sum(edge.n_interconnections() for edge in self._edges)
        return (
            f"{len(self._isps)} ISPs, {len(self._edges)} peering edges "
            f"({ics} interconnections), shape={shape}"
        )

    def __repr__(self) -> str:
        return (
            f"Internetwork(n_isps={self.n_isps()}, n_edges={self.n_edges()})"
        )


# ---------------------------------------------------------------------------
# Shape search over the qualifying-pair graph
# ---------------------------------------------------------------------------


def _adjacency(
    names: Iterable[str], pairs: Iterable[IspPair]
) -> dict[str, list[str]]:
    adj: dict[str, list[str]] = {name: [] for name in names}
    for pair in pairs:
        adj[pair.isp_a.name].append(pair.isp_b.name)
        adj[pair.isp_b.name].append(pair.isp_a.name)
    for neighbors in adj.values():
        neighbors.sort()
    return adj


def _find_path(
    adj: dict[str, list[str]], length: int, close_cycle: bool
) -> list[str] | None:
    """Deterministic DFS for a simple path (or cycle) of ``length`` nodes.

    Returns None when the shape genuinely does not exist. Budget
    exhaustion raises instead — it is indistinguishable from absence
    otherwise, and the absence guidance (grow the pool) would only make
    an exhausted search worse.
    """
    budget = _SEARCH_BUDGET
    shape = "ring" if close_cycle else "chain"
    for start in sorted(adj):
        stack: list[tuple[str, list[str]]] = [(start, [start])]
        while stack:
            if budget <= 0:
                raise TopologyError(
                    f"shape search exhausted its {_SEARCH_BUDGET}-expansion "
                    f"budget before finding a {shape} of {length} ISPs; the "
                    "qualifying-pair graph is too dense for exhaustive "
                    "search — try a smaller pool_size or fewer n_isps"
                )
            budget -= 1
            node, path = stack.pop()
            if len(path) == length:
                if not close_cycle or path[0] in adj[path[-1]]:
                    return path
                continue
            # Reversed push so the lexicographically first neighbor is
            # explored first — the search result is deterministic.
            for neighbor in reversed(adj[node]):
                if neighbor not in path:
                    stack.append((neighbor, path + [neighbor]))
    return None


def _connected_nodes(
    adj: dict[str, list[str]], count: int
) -> tuple[list[str], list[tuple[str, str]]] | None:
    """First ``count`` nodes of a DFS preorder, plus their discovery edges.

    Every node after the first is discovered from an already-selected node,
    so the induced subgraph is connected and the discovery edges form a
    spanning tree of the selection.
    """
    for start in sorted(adj):
        selected: list[str] = []
        tree: list[tuple[str, str]] = []
        seen: set[str] = set()
        stack: list[tuple[str, str | None]] = [(start, None)]
        while stack and len(selected) < count:
            node, parent = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            selected.append(node)
            if parent is not None:
                tree.append((parent, node))
            for neighbor in reversed(adj[node]):
                if neighbor not in seen:
                    stack.append((neighbor, node))
        if len(selected) == count:
            return selected, tree
    return None


def _oriented(pair: IspPair, upstream_name: str) -> IspPair:
    """The pair with ``isp_a`` forced to the named ISP."""
    if pair.isp_a.name == upstream_name:
        return pair
    return pair.reversed()


def build_internetwork(
    config: InternetworkConfig | None = None,
    seed: int | None = None,
) -> Internetwork:
    """Generate an internetwork with the configured shape.

    Deterministic in ``config`` (and ``seed``, which overrides
    ``config.seed`` when given). Raises :class:`TopologyError` when the
    generated pool does not contain the requested shape — enlarging
    ``pool_size`` or lowering ``min_interconnections`` usually fixes that.
    """
    config = config or InternetworkConfig()
    if seed is not None:
        config = replace(config, seed=seed)
    city_db = default_city_database()
    generator = TopologyGenerator(config.generator, city_db)
    pool = [
        generator.generate(f"{config.name_prefix}{i:02d}", config.seed + i)
        for i in range(config.resolved_pool_size())
    ]
    usable = [isp for isp in pool if not isp.is_logical_mesh()]
    pairs = find_isp_pairs(
        usable,
        min_interconnections=config.min_interconnections,
        max_interconnections=config.max_interconnections,
        city_db=city_db,
        exclude_mesh=True,
    )
    by_names = {
        frozenset((p.isp_a.name, p.isp_b.name)): p for p in pairs
    }
    adj = _adjacency((isp.name for isp in usable), pairs)
    isp_by_name = {isp.name: isp for isp in usable}

    def fail() -> TopologyError:
        return TopologyError(
            f"no {config.shape} of {config.n_isps} ISPs with >= "
            f"{config.min_interconnections} interconnections per edge in a "
            f"pool of {len(usable)} usable ISPs ({len(pairs)} qualifying "
            "pairs); increase pool_size or lower min_interconnections"
        )

    if config.shape in ("chain", "ring"):
        path = _find_path(
            adj, config.n_isps, close_cycle=(config.shape == "ring")
        )
        if path is None:
            raise fail()
        members = [isp_by_name[name] for name in path]
        hops = list(zip(path, path[1:]))
        if config.shape == "ring":
            hops.append((path[-1], path[0]))
        edges = [
            _oriented(by_names[frozenset(hop)], hop[0]) for hop in hops
        ]
        return Internetwork(members, edges, config)

    found = _connected_nodes(adj, config.n_isps)
    if found is None:
        raise fail()
    selected, tree = found
    member_order = sorted(selected)
    members = [isp_by_name[name] for name in member_order]
    rank = {name: i for i, name in enumerate(member_order)}
    keep = {frozenset(hop) for hop in tree}
    extras = sorted(
        (
            key
            for key in by_names
            if key <= set(selected) and key not in keep
        ),
        key=sorted,
    )
    rng = derive_rng(config.seed, "internetwork-peering")
    for key in extras:
        if rng.random() < config.peering_probability:
            keep.add(key)
    edge_keys = sorted(keep, key=lambda k: sorted(k))
    edges = [
        _oriented(by_names[key], min(key, key=lambda n: rank[n]))
        for key in edge_keys
    ]
    return Internetwork(members, edges, config)
