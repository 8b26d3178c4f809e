"""Inter-domain path selection across a multi-ISP internetwork.

Glue between the AS-level peering graph
(:class:`~repro.topology.internetwork.Internetwork`) and the BGP decision
process of :mod:`repro.routing.bgp`: every ISP originates one prefix (its
own name), advertisements propagate edge by edge with standard path-vector
export (prepend self, receiver drops looping paths), and each ISP selects
its best route per destination with :func:`~repro.routing.bgp.decide_best_route`.
The result is a deterministic next-hop table from which AS paths and the
edge sequence a flow traverses — possibly *transiting* intermediate ISPs —
are derived.

Concrete transit traffic is mapped onto links by
:func:`transit_demand_hops`: a demand sourced at a PoP of the origin ISP
crosses each on-path ISP from its entry PoP to the hot-potato exit toward
the next hop (:func:`~repro.routing.exits.early_exit_for_pop`), loading the
intra-ISP links it traverses. Traffic terminates at its entry PoP in the
destination ISP (deliveries happen at the peering city), which keeps the
model free of a destination-side handoff convention; the coordination layer
accumulates the per-ISP link loads as negotiation-exogenous background.

Propagation is synchronous Bellman-Ford over at most ``n_isps`` rounds
(a loop-free AS path cannot be longer), with deterministic tie-breaking:
``decide_best_route`` prefers the shortest AS path, then the lowest edge
index (its router-id stand-in).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Mapping, Sequence

import numpy as np

from repro.errors import RoutingError
from repro.routing.bgp import (
    RouteAdvertisement,
    decide_best_route,
    export_advertisement,
    originate_advertisement,
)
from repro.routing.exits import early_exit_for_pop
from repro.routing.paths import IntradomainRouting
from repro.topology.internetwork import Internetwork

__all__ = [
    "InterdomainRoutes",
    "propagate_interdomain_routes",
    "TransitHop",
    "transit_demand_hops",
    "TransitDemand",
    "TransitLoadIndex",
]


class InterdomainRoutes:
    """The converged next-hop tables of an internetwork.

    ``best[(src, dst)]`` holds the advertisement ISP ``src`` selected for
    ISP ``dst``'s prefix; missing keys mean ``dst`` is unreachable from
    ``src`` (a disconnected internetwork).
    """

    def __init__(
        self,
        internetwork: Internetwork,
        best: dict[tuple[str, str], RouteAdvertisement],
    ):
        self._net = internetwork
        self._best = dict(best)
        names = internetwork.names()
        self._unreachable = tuple(
            (src, dst)
            for src in names
            for dst in names
            if src != dst and (src, dst) not in self._best
        )

    @property
    def internetwork(self) -> Internetwork:
        return self._net

    @property
    def unreachable_pairs(self) -> tuple[tuple[str, str], ...]:
        """Ordered (src, dst) ISP pairs with no route (disconnection)."""
        return self._unreachable

    def reachable(self, src: str, dst: str) -> bool:
        return src == dst or (src, dst) in self._best

    def _route(self, src: str, dst: str) -> RouteAdvertisement:
        try:
            return self._best[(src, dst)]
        except KeyError:
            raise RoutingError(
                f"{src}: no inter-domain route toward {dst}"
            ) from None

    def next_hop(self, src: str, dst: str) -> str:
        """The neighbor ISP ``src`` forwards traffic for ``dst`` to."""
        return self._route(src, dst).neighbor_as

    def next_edge(self, src: str, dst: str) -> int:
        """The internetwork edge index that traffic leaves ``src`` on."""
        return self._route(src, dst).interconnection

    def as_path(self, src: str, dst: str) -> tuple[str, ...]:
        """The selected AS-level path, inclusive: ``(src, ..., dst)``."""
        if src == dst:
            return (src,)
        return (src,) + self._route(src, dst).as_path

    def edge_sequence(self, src: str, dst: str) -> list[int]:
        """Edge indices traversed from ``src`` to ``dst``, in hop order."""
        edges = []
        here = src
        while here != dst:
            edges.append(self.next_edge(here, dst))
            here = self.next_hop(here, dst)
        return edges


def propagate_interdomain_routes(
    internetwork: Internetwork,
) -> InterdomainRoutes:
    """Run path-vector propagation to a fixed point over the internetwork.

    Synchronous rounds: in each round every ISP exports, to each neighbor,
    either an origination of its own prefix or the
    :func:`~repro.routing.bgp.export_advertisement` of its current best
    route; receivers drop looping paths and re-select with
    :func:`~repro.routing.bgp.decide_best_route`. With loop-free paths
    bounded by the ISP count, ``n_isps`` rounds suffice to converge.
    """
    best: dict[tuple[str, str], RouteAdvertisement] = {}
    neighbors: list[tuple[str, str, int]] = []  # (receiver, sender, edge)
    for index, edge in enumerate(internetwork.edges):
        neighbors.append((edge.isp_a.name, edge.isp_b.name, index))
        neighbors.append((edge.isp_b.name, edge.isp_a.name, index))
    neighbors.sort()

    for _ in range(max(internetwork.n_isps(), 1)):
        received: dict[tuple[str, str], list[RouteAdvertisement]] = {}
        # Group last round's selections by source once, instead of
        # rescanning the whole table per neighbor entry.
        by_source: dict[str, list[RouteAdvertisement]] = {}
        for (src, _), route in best.items():
            by_source.setdefault(src, []).append(route)
        for receiver, sender, edge_index in neighbors:
            exports = [
                originate_advertisement(sender, sender, edge_index)
            ]
            exports.extend(
                export_advertisement(sender, route, edge_index)
                for route in by_source.get(sender, ())
            )
            for adv in exports:
                if receiver in adv.as_path or adv.prefix == receiver:
                    continue  # loop prevention / own prefix
                received.setdefault((receiver, adv.prefix), []).append(adv)
        new_best: dict[tuple[str, str], RouteAdvertisement] = {}
        for key in sorted(received):
            new_best[key] = decide_best_route(received[key])
        if new_best == best:
            break
        best = new_best

    return InterdomainRoutes(internetwork, best)


@dataclass(frozen=True)
class TransitHop:
    """One ISP's segment of an inter-domain demand's path.

    Attributes:
        isp: the ISP carrying this segment.
        entry_pop: PoP where the demand enters (the source PoP in the
            origin ISP).
        edge_index: internetwork edge the demand leaves on (None in the
            terminal ISP, which has no segment — traffic terminates at its
            entry PoP).
        exit_ic: interconnection index chosen on that edge (hot potato).
        exit_pop: PoP of the chosen interconnection on this ISP's side.
        links: intra-ISP link indices traversed from entry to exit.
    """

    isp: str
    entry_pop: int
    edge_index: int
    exit_ic: int
    exit_pop: int
    links: np.ndarray


def transit_demand_hops(
    internetwork: Internetwork,
    routes: InterdomainRoutes,
    src_isp: str,
    src_pop: int,
    dst_isp: str,
    routings: dict[str, IntradomainRouting] | None = None,
    blocked: Mapping[int, Collection[int]] | None = None,
) -> list[TransitHop]:
    """The per-ISP segments of one demand under default routing.

    Follows the BGP next-hop table from ``src_isp`` to ``dst_isp``; in each
    on-path ISP the demand exits at the hot-potato interconnection of the
    next-hop edge (:func:`early_exit_for_pop`) and enters the neighbor at
    that interconnection's far-side PoP. The terminal ISP contributes no
    segment. ``routings`` shares Dijkstra caches across demands.

    ``blocked`` maps internetwork edge indices to severed interconnection
    columns: the hot-potato choice on those edges is restricted to the
    survivors (the AS-level path itself is unaffected — severing columns
    does not withdraw the route). An unblocked walk is bit-identical to
    the pre-severance behaviour.
    """
    if src_isp == dst_isp:
        raise RoutingError("a transit demand needs distinct endpoint ISPs")
    routings = routings if routings is not None else {}
    hops: list[TransitHop] = []
    here, pop = src_isp, src_pop
    while here != dst_isp:
        edge_index = routes.next_edge(here, dst_isp)
        edge = internetwork.edges[edge_index]
        side = internetwork.edge_side(edge_index, here)
        routing = routings.get(here)
        if routing is None:
            routing = IntradomainRouting(internetwork.get(here))
            routings[here] = routing
        severed = blocked.get(edge_index, ()) if blocked else ()
        exit_ic = early_exit_for_pop(
            edge, pop, side=side, routing=routing, blocked=severed
        )
        exit_pop = edge.exit_pops(side)[exit_ic]
        hops.append(
            TransitHop(
                isp=here,
                entry_pop=pop,
                edge_index=edge_index,
                exit_ic=exit_ic,
                exit_pop=exit_pop,
                links=routing.path_links(pop, exit_pop),
            )
        )
        here = routes.next_hop(here, dst_isp)
        pop = edge.exit_pops(edge.other_side(side))[exit_ic]
    return hops


@dataclass(frozen=True)
class TransitDemand:
    """One inter-domain demand: a source PoP sending toward a non-adjacent ISP."""

    src_isp: str
    src_pop: int
    dst_isp: str
    volume: float


class TransitLoadIndex:
    """Per-demand interdomain hop tables with incremental re-routing.

    Derives (and keeps) each demand's :func:`transit_demand_hops` chain
    once, plus a per-edge *crossing* index built from the AS-level edge
    sequences. Column severances then invalidate exactly the chains that
    cross the severed edge — the crossing set itself is static, because
    BGP route selection never looks at interconnection columns — so
    :meth:`sever` re-derives only those demands instead of walking every
    demand in the internetwork again.

    Per-ISP link loads accumulate as one :func:`numpy.bincount` over the
    canonically ordered (demand, hop, link) entries. NumPy's weighted
    bincount adds entries sequentially in input order, which is exactly
    the reference ``loads[hop.links] += volume`` loop's per-link accumulation
    order, so the result is **bit-identical** to the loop (the equivalence
    tests pin this).
    """

    def __init__(
        self,
        internetwork: Internetwork,
        routes: InterdomainRoutes,
        routings: dict[str, IntradomainRouting],
        demands: Sequence[TransitDemand],
        blocked: Mapping[int, Collection[int]] | None = None,
    ):
        self._net = internetwork
        self._routes = routes
        self._routings = routings
        self._demands: tuple[TransitDemand, ...] = tuple(demands)
        self._blocked: dict[int, set[int]] = {
            int(edge): set(columns)
            for edge, columns in (blocked or {}).items()
            if columns
        }
        self._chains: list[list[TransitHop]] = [
            self._derive(demand, self._blocked) for demand in self._demands
        ]
        # Crossing sets from the realized chains: demand d crosses edge e
        # iff e appears in d's hop sequence. Hop sequences follow the
        # AS-level next-hop table, which severances don't change, so this
        # index never needs rebuilding.
        self._crossing: dict[int, list[int]] = {}
        for demand_id, chain in enumerate(self._chains):
            for hop in chain:
                self._crossing.setdefault(hop.edge_index, []).append(
                    demand_id
                )
        self._loads_cache: dict[str, np.ndarray] | None = None

    @property
    def blocked(self) -> dict[int, frozenset[int]]:
        return {
            edge: frozenset(columns)
            for edge, columns in self._blocked.items()
        }

    def crossing(self, edge_index: int) -> tuple[int, ...]:
        """Demand ids whose chains traverse ``edge_index`` (ascending)."""
        return tuple(self._crossing.get(edge_index, ()))

    def _derive(
        self,
        demand: TransitDemand,
        blocked: Mapping[int, Collection[int]],
    ) -> list[TransitHop]:
        return transit_demand_hops(
            self._net,
            self._routes,
            demand.src_isp,
            demand.src_pop,
            demand.dst_isp,
            self._routings,
            blocked=blocked or None,
        )

    def sever(self, edge_index: int, columns: Collection[int]) -> int:
        """Block columns on one edge; re-route only the crossing demands.

        Returns the number of demand chains re-derived (0 if every column
        was already blocked). Non-crossing chains are untouched, which is
        what makes a severance O(crossing demands) instead of O(all
        demands).
        """
        fresh = set(columns) - self._blocked.get(edge_index, set())
        if not fresh:
            return 0
        self._blocked.setdefault(edge_index, set()).update(fresh)
        touched = self._crossing.get(edge_index, ())
        for demand_id in touched:
            self._chains[demand_id] = self._derive(
                self._demands[demand_id], self._blocked
            )
        self._loads_cache = None
        return len(touched)

    def _accumulate(
        self, chains: Sequence[list[TransitHop]]
    ) -> dict[str, np.ndarray]:
        per_isp_links: dict[str, list[np.ndarray]] = {
            isp.name: [] for isp in self._net.isps
        }
        per_isp_weights: dict[str, list[np.ndarray]] = {
            isp.name: [] for isp in self._net.isps
        }
        for demand, chain in zip(self._demands, chains):
            for hop in chain:
                if hop.links.size:
                    per_isp_links[hop.isp].append(hop.links)
                    per_isp_weights[hop.isp].append(
                        np.full(hop.links.size, demand.volume)
                    )
        loads: dict[str, np.ndarray] = {}
        for isp in self._net.isps:
            entries = per_isp_links[isp.name]
            if entries:
                loads[isp.name] = np.bincount(
                    np.concatenate(entries),
                    weights=np.concatenate(per_isp_weights[isp.name]),
                    minlength=isp.n_links(),
                )
            else:
                loads[isp.name] = np.zeros(isp.n_links())
        return loads

    def loads(self) -> dict[str, np.ndarray]:
        """Per-ISP background link loads of the current chains (cached).

        Callers must treat the returned arrays as read-only; the dict is
        re-derived only when a severance dirtied the chains.
        """
        if self._loads_cache is None:
            self._loads_cache = self._accumulate(self._chains)
        return self._loads_cache

    def loads_after(
        self, edge_index: int, columns: Collection[int]
    ) -> dict[str, np.ndarray]:
        """Pure preview: loads as if ``columns`` were severed on one edge.

        Re-derives only the crossing chains against the hypothetical
        blocked map and accumulates; the index itself is not mutated.
        This is the incremental engine's post-failure refresh, exposed
        side-effect-free for benchmarks and what-if probes.
        """
        blocked = {edge: set(cols) for edge, cols in self._blocked.items()}
        blocked.setdefault(edge_index, set()).update(columns)
        chains = list(self._chains)
        for demand_id in self._crossing.get(edge_index, ()):
            chains[demand_id] = self._derive(
                self._demands[demand_id], blocked
            )
        return self._accumulate(chains)
