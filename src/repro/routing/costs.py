"""Per-(flow, interconnection) cost tables.

Everything downstream of routing — exit policies, the negotiation engine,
the globally optimal router, baselines, load models — consumes the same
precomputed tables: for each flow ``f`` and each interconnection ``i``,

* ``up_weight[f, i]`` / ``down_weight[f, i]``: routing (weight) distance of
  the intra-ISP segment, used for early-/late-exit decisions;
* ``up_km[f, i]`` / ``down_km[f, i]``: geographic length of the segment,
  the Section 5.1 resource metric.

Building the table costs one Dijkstra per interconnection per side; the
builder then fills the (F, I) arrays column by column from dense per-PoP
SSSP views instead of issuing F·I per-cell routing queries.

Link data is stored once per PoP, not per flow: a flow's path inside an
ISP is the routed path between its endpoint PoP there and the chosen
interconnection, so ``up_paths[i][p]`` / ``down_paths[i][p]`` (the routing
layer's cached per-source views, shared by every table built from it) hold
all of it. Flow ``f``'s row ``i`` is ``up_paths[i][src_f]`` upstream and
``down_paths[i][dst_f]`` downstream. Each side compiles one per-PoP CSR
(:meth:`PairCostTable.pop_incidence`) on first use. Placement loads, the
sessions' load trackers and their disclosure gathers read it through the
flows' endpoints; the flow-level CSR that the LP assembly,
``fractional_loads`` and the coordinator's scope read
(:meth:`PairCostTable.incidence`) is one gather from it, also built on
first use. Tables that never touch the bandwidth machinery pay for
neither. See :mod:`repro.routing.incidence`.

Failure cases never rebuild tables at all — derived tables cover both axes
of the (F, I) space:

* **column axis** — a post-failure table is this table with one column
  removed; :meth:`PairCostTable.without_alternative` derives it (dense
  arrays sliced, each side's tuple of per-PoP paths shortened by the
  failed entry);
* **flow axis** — a negotiation scope is this table with only the affected
  flow rows; :meth:`PairCostTable.subset` derives it (dense arrays
  row-gathered, flowset reindexed as an array-backed view, paths and any
  compiled per-PoP CSR shared with the parent).

Both derivations are bit-identical to a from-scratch rebuild over the
reduced pair or flowset; the test suite pins them against cell-by-cell
reference builders.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.errors import RoutingError
from repro.routing.flows import FlowSet
from repro.routing.incidence import PathIncidence
from repro.routing.paths import IntradomainRouting
from repro.topology.interconnect import IspPair

__all__ = ["PairCostTable", "build_pair_cost_table"]


def _validate_index_set(indices, n: int, what: str) -> np.ndarray:
    """Unique, in-range, 1-D intp indices for a structural derivation.

    One validation contract for both derivation axes —
    :meth:`PairCostTable.subset` (flow rows) and
    :meth:`PairCostTable.without_alternative` /
    :meth:`PairCostTable.without_alternatives` (interconnection columns):
    non-1-D shapes, out-of-range or negative values, and duplicates raise
    :class:`RoutingError` naming the offending indices.
    """
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise RoutingError(
            f"{what} indices must be 1-D, got shape {idx.shape}"
        )
    if idx.size:
        bad = idx[(idx < 0) | (idx >= n)]
        if bad.size:
            raise RoutingError(
                f"{what} indices must be in 0..{n - 1}, got out-of-range "
                f"values {sorted(set(bad.tolist()))}"
            )
        uniq, counts = np.unique(idx, return_counts=True)
        dups = uniq[counts > 1]
        if dups.size:
            raise RoutingError(
                f"{what} indices contain duplicates: {dups.tolist()}"
            )
    return idx


@dataclass(frozen=True)
class PairCostTable:
    """Precomputed alternative costs for one (pair, direction).

    Shapes: the dense arrays are (F, I) with F flows and I
    interconnections. ``up_paths[i][p]`` is the upstream link array of the
    path between interconnection ``i``'s PoP and PoP ``p`` (``None`` if
    unreachable); ``down_paths[i][p]`` likewise for the downstream ISP.
    """

    pair: IspPair
    flowset: FlowSet
    up_weight: np.ndarray
    down_weight: np.ndarray
    up_km: np.ndarray
    down_km: np.ndarray
    ic_km: np.ndarray  # (I,) geographic length of each peering link
    up_paths: tuple[tuple[np.ndarray | None, ...], ...]
    down_paths: tuple[tuple[np.ndarray | None, ...], ...]

    # -- shape helpers -----------------------------------------------------

    @property
    def n_flows(self) -> int:
        return self.up_weight.shape[0]

    @property
    def n_alternatives(self) -> int:
        return self.up_weight.shape[1]

    def endpoints(self, side: str) -> np.ndarray:
        """Each flow's PoP on one side: its source in A, destination in B."""
        if side == "a":
            return self.flowset.srcs()
        if side == "b":
            return self.flowset.dsts()
        raise RoutingError(f"side must be 'a' or 'b', got {side!r}")

    def _cached(self, attr: str, build):
        cached = self.__dict__.get(attr)
        if cached is None:
            cached = build()
            object.__setattr__(self, attr, cached)
        return cached

    def pop_incidence(self, side: str) -> PathIncidence:
        """One side's per-PoP CSR: row ``p * I + i`` is path ``i`` of PoP ``p``.

        Compiled from ``up_paths``/``down_paths`` on first request and
        cached on the table; :meth:`subset` hands a compiled one on to the
        subset. Flow ``f``'s row ``i`` is row ``endpoints(side)[f] * I + i``
        here, which is how :func:`~repro.capacity.loads.link_loads` and
        :class:`~repro.capacity.loads.LoadTracker` read a placement or a
        preference row without building per-flow rows.
        """
        self.endpoints(side)  # raises RoutingError for a bad side
        paths = self.up_paths if side == "a" else self.down_paths
        isp = self.pair.isp(side)
        return self._cached(
            f"_pop_incidence_{side}",
            lambda: PathIncidence.from_paths(
                paths, isp.n_pops(), isp.n_links()
            ),
        )

    def incidence(self, side: str) -> PathIncidence:
        """The flow-level CSR path incidence for one side ('a' or 'b').

        One gather of :meth:`pop_incidence` through every flow's endpoint
        PoP, built on first request and cached on the table (the table is
        immutable, so it never invalidates). The kernels that read every
        row of a table as a matrix — the LP assembly, ``fractional_loads``
        and the coordinator's scope — go through this; the load trackers
        read :meth:`pop_incidence` instead.
        """
        endpoints = self.endpoints(side)
        return self._cached(
            f"_incidence_{side}",
            lambda: self.pop_incidence(side).gather(endpoints),
        )

    def total_km(self) -> np.ndarray:
        """End-to-end geographic cost per alternative: up + peering + down."""
        return self.up_km + self.ic_km[np.newaxis, :] + self.down_km

    def without_alternative(self, failed_index: int) -> "PairCostTable":
        """The post-failure table, derived by dropping column ``failed_index``.

        A failure case's table is this table with one interconnection
        removed: the dense weight/km arrays lose a column, each side's
        paths tuple loses that interconnection's entry, and the
        pair/flowset are re-bound to
        :meth:`IspPair.without_interconnections`'s reduced pair. No
        shortest path is recomputed and no size function is called — every
        value is bit-identical to rebuilding the table from scratch over
        the failed pair (the routing layer is deterministic and failure
        does not change intra-ISP paths).
        """
        return self._drop_columns(
            _validate_index_set(
                [failed_index], self.n_alternatives, "alternative drop"
            )
        )

    def without_alternatives(self, failed_indices) -> "PairCostTable":
        """The post-failure table with a *set* of columns dropped at once.

        The correlated-multi-failure generalization of
        :meth:`without_alternative`: a scenario that fails several
        interconnections simultaneously derives its table in one
        structural pass — dense arrays column-gathered on the surviving
        set, the surviving entries of each side's paths tuple kept,
        pair/flowset re-bound through
        :meth:`IspPair.without_interconnections`. No shortest path is
        recomputed.

        The result is bit-identical to any composition order of single
        drops and to rebuilding the table from scratch over the reduced
        pair.

        The drop set must be unique and in range (validated by the same
        contract as :meth:`subset`), and must leave at least one
        interconnection standing — a scenario that severs *every*
        alternative has no representable table and is the caller's
        graceful-degradation case (see
        :mod:`repro.routing.scenarios`).
        """
        return self._drop_columns(self._validate_drop_set(failed_indices))

    def _validate_drop_set(self, failed_indices) -> np.ndarray:
        idx = _validate_index_set(
            failed_indices, self.n_alternatives, "alternative drop"
        )
        if idx.size >= self.n_alternatives:
            raise RoutingError(
                "cannot drop every alternative column "
                f"(got all {self.n_alternatives} indices)"
            )
        return idx

    def _drop_columns(self, idx: np.ndarray) -> "PairCostTable":
        """The single-pass drop for an already-validated drop set."""
        survives = np.ones(self.n_alternatives, dtype=bool)
        survives[idx] = False
        keep = np.flatnonzero(survives)
        keep_list = keep.tolist()
        failed_pair = self.pair.without_interconnections(idx.tolist())
        derived = PairCostTable(
            pair=failed_pair,
            flowset=self.flowset.with_pair(failed_pair),
            up_weight=self.up_weight[:, keep],
            down_weight=self.down_weight[:, keep],
            up_km=self.up_km[:, keep],
            down_km=self.down_km[:, keep],
            ic_km=self.ic_km[keep],
            up_paths=tuple(self.up_paths[j] for j in keep_list),
            down_paths=tuple(self.down_paths[j] for j in keep_list),
        )
        derived.validate()
        return derived

    def batch_without_alternatives(
        self, drop_sets
    ) -> list["PairCostTable"]:
        """Derive one table per scenario drop set, sharing this table's state.

        The batch form of :meth:`without_alternatives` for probabilistic
        failure-scenario sweeps (thousands of scenarios per pair): every
        scenario's table is derived from *this* parent in one structural
        pass each — the dense buffers are column-gathered from the
        parent's arrays and the paths tuples keep the parent's per-PoP
        arrays — so the whole scenario set shares the parent's link data
        and pays zero routing work. Validation runs once per drop set
        against this table's column count; each result is bit-identical
        to the equivalent :meth:`without_alternatives` call (and hence to
        a per-scenario rebuild).

        Drop sets that sever every column are rejected here the same way
        :meth:`without_alternatives` rejects them — filter those scenarios
        out first (they have no representable table).
        """
        validated = [self._validate_drop_set(ks) for ks in drop_sets]
        return [self._drop_columns(idx) for idx in validated]

    def subset(self, indices: np.ndarray) -> "PairCostTable":
        """A reindexed table containing only the given flow rows.

        Used by the bandwidth experiment to negotiate over just the flows
        affected by a failure without recomputing any shortest paths.

        Everything is derived structurally: the dense arrays are
        row-gathered, the flowset becomes an array-backed reindexing view
        (:meth:`FlowSet.subset`), and the paths tuples — with their per-PoP
        CSR, if this table has compiled it — are shared. The subset's
        flow-level incidence is gathered from that CSR on first use. The
        result is bit-identical to a per-flow rebuild.

        Indices must be unique and within ``0..F-1``; out-of-range,
        negative and duplicate indices raise :class:`RoutingError`.
        """
        idx = _validate_index_set(indices, self.n_flows, "subset flow")
        derived = PairCostTable(
            pair=self.pair,
            flowset=self.flowset._subset_view(idx),  # idx validated above
            up_weight=self.up_weight[idx],
            down_weight=self.down_weight[idx],
            up_km=self.up_km[idx],
            down_km=self.down_km[idx],
            ic_km=self.ic_km.copy(),
            up_paths=self.up_paths,
            down_paths=self.down_paths,
        )
        for attr in ("_pop_incidence_a", "_pop_incidence_b"):
            if attr in self.__dict__:
                object.__setattr__(derived, attr, self.__dict__[attr])
        return derived

    def validate(self) -> None:
        f, i = self.up_weight.shape
        for name in ("down_weight", "up_km", "down_km"):
            arr = getattr(self, name)
            if arr.shape != (f, i):
                raise RoutingError(f"cost table field {name} has shape {arr.shape}")
        if self.ic_km.shape != (i,):
            raise RoutingError("ic_km has wrong shape")
        if len(self.up_paths) != i or len(self.down_paths) != i:
            raise RoutingError("path tables have wrong interconnection dimension")


def _check_reachable(
    pair: IspPair, arr: np.ndarray, what: str, side_isp: str, pops: np.ndarray
) -> None:
    """Reject non-finite routed distances, naming the pair and the PoPs.

    A disconnected (or inf-weighted) src/dst PoP would otherwise propagate
    NaN/inf silently into the table and poison every downstream kernel.
    """
    bad_rows = ~np.isfinite(arr).all(axis=1)
    if bad_rows.any():
        bad = sorted(set(np.asarray(pops)[bad_rows].tolist()))
        raise RoutingError(
            f"pair {pair.name}: {side_isp}: {what} PoPs {bad} are "
            "unreachable from an interconnection (non-finite routed "
            "distance)"
        )


def build_pair_cost_table(
    pair: IspPair,
    flowset: FlowSet,
    routing_a: IntradomainRouting | None = None,
    routing_b: IntradomainRouting | None = None,
) -> PairCostTable:
    """Build the cost table for ``flowset`` over ``pair`` (direction A->B).

    ``routing_a`` / ``routing_b`` may be passed in to share Dijkstra caches
    across multiple tables over the same ISPs (e.g. both directions, or
    several failure scenarios).

    The (F, I) arrays fill column by column from each interconnection's
    dense per-PoP SSSP views — one gather per column instead of F·I
    per-cell routing queries, so every cell is exactly the float a
    per-cell routing query returns. The per-PoP link views
    (``up_paths``/``down_paths``) pass to the table as they are.

    Disconnected src/dst PoPs raise :class:`RoutingError` naming the pair
    and the offending PoPs instead of letting non-finite distances into
    the table.
    """
    if flowset.pair is not pair and flowset.pair.name != pair.name:
        raise RoutingError("flowset was built for a different pair")
    routing_a = routing_a or IntradomainRouting(pair.isp_a)
    routing_b = routing_b or IntradomainRouting(pair.isp_b)
    ics = pair.interconnections
    # Warm the SSSP caches from the interconnection PoPs: paths are
    # symmetric on an undirected graph, so dist(src, exit) =
    # dist(exit, src).
    routing_a.warm([ic.pop_a for ic in ics])
    routing_b.warm([ic.pop_b for ic in ics])
    srcs = flowset.srcs()
    dsts = flowset.dsts()
    shape = (len(flowset), len(ics))
    up_weight = np.zeros(shape)
    down_weight = np.zeros(shape)
    up_km = np.zeros(shape)
    down_km = np.zeros(shape)
    for i, ic in enumerate(ics):
        up_weight[:, i] = routing_a.weight_distance_array(ic.pop_a)[srcs]
        up_km[:, i] = routing_a.geo_distance_array(ic.pop_a)[srcs]
        down_weight[:, i] = routing_b.weight_distance_array(ic.pop_b)[dsts]
        down_km[:, i] = routing_b.geo_distance_array(ic.pop_b)[dsts]
    _check_reachable(pair, up_weight, "source", pair.isp_a.name, srcs)
    _check_reachable(pair, down_weight, "destination", pair.isp_b.name, dsts)
    table = PairCostTable(
        pair=pair,
        flowset=flowset,
        up_weight=up_weight,
        down_weight=down_weight,
        up_km=up_km,
        down_km=down_km,
        ic_km=np.asarray([ic.length_km for ic in ics], dtype=float),
        up_paths=tuple(routing_a.path_links_array(ic.pop_a) for ic in ics),
        down_paths=tuple(routing_b.path_links_array(ic.pop_b) for ic in ics),
    )
    table.validate()
    return table
