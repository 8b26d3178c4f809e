"""Per-(flow, interconnection) cost tables.

Everything downstream of routing — exit policies, the negotiation engine,
the globally optimal router, baselines, load models — consumes the same
precomputed tables: for each flow ``f`` and each interconnection ``i``,

* ``up_weight[f, i]`` / ``down_weight[f, i]``: routing (weight) distance of
  the intra-ISP segment, used for early-/late-exit decisions;
* ``up_km[f, i]`` / ``down_km[f, i]``: geographic length of the segment,
  the Section 5.1 resource metric;
* ``up_links[f][i]`` / ``down_links[f][i]``: link indices traversed, used
  by the bandwidth/load machinery.

Building the table costs one Dijkstra per interconnection per side; the
builder then fills the (F, I) arrays column by column from dense per-PoP
SSSP views instead of issuing F·I per-cell routing queries.

The ragged link tables are tuples of per-flow row tuples whose entries alias
the routing layer's per-source link arrays; every builder and derivation
assembles them with C-level gathers (``operator.itemgetter`` over rows,
``zip`` to transpose per-interconnection views into per-PoP rows) instead
of a Python loop per flow, so a row shared by several flows may be one
tuple object. They are the *authoring* format; the load/preference hot
path consumes their compiled CSR form instead — see :meth:`PairCostTable.incidence`
and :mod:`repro.routing.incidence`. The incidence structures are built
lazily on first use and cached per (table, side), so tables that never
touch the bandwidth machinery pay nothing.

Failure cases never rebuild tables at all — derived tables cover both axes
of the (F, I) space:

* **column axis** — a post-failure table is this table with one column
  removed; :meth:`PairCostTable.without_alternative` derives it (dense
  arrays sliced, ragged rows shortened, any compiled incidence filtered
  structurally via :meth:`PathIncidence.without_alternative`);
* **flow axis** — a negotiation scope is this table with only the affected
  flow rows; :meth:`PairCostTable.subset` derives it (dense arrays
  row-gathered, ragged rows aliased, flowset reindexed as an array-backed
  view, any compiled incidence filtered via
  :meth:`PathIncidence.subset_rows`).

Both derivations are bit-identical to a from-scratch rebuild over the
reduced pair or flowset; the test suite pins them against cell-by-cell
reference builders.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from repro.errors import ConfigurationError, RoutingError
from repro.routing.flows import FlowSet
from repro.routing.incidence import PathIncidence
from repro.routing.paths import IntradomainRouting
from repro.topology.interconnect import IspPair

__all__ = [
    "PairCostTable",
    "build_pair_cost_table",
    "iter_pair_cost_table_blocks",
    "DEFAULT_CHUNK_ROWS",
]

#: Default flow-row block size for the streaming block iterators.
DEFAULT_CHUNK_ROWS = 2048


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


def _gather_rows(rows: tuple, idx: list[int]) -> tuple:
    """``tuple(rows[i] for i in idx)`` in one C-level gather."""
    if len(idx) == 1:
        return (rows[idx[0]],)
    return itemgetter(*idx)(rows) if idx else ()


def _gather_columns(rows: tuple, cols: list[int]) -> tuple:
    """``tuple(tuple(row[j] for j in cols) for row in rows)``, C-level."""
    if len(cols) == 1:
        return tuple(zip(map(itemgetter(cols[0]), rows)))
    if not cols:
        return ((),) * len(rows)
    return tuple(map(itemgetter(*cols), rows))


def _per_pop_rows(views: list, n_pops: int) -> tuple:
    """Transpose per-interconnection PoP views into per-PoP rows."""
    return tuple(zip(*views)) if views else ((),) * n_pops


@dataclass(frozen=True)
class PairCostTable:
    """Precomputed alternative costs for one (pair, direction).

    Shapes: all arrays are (F, I) with F flows and I interconnections.
    ``up_links[f][i]`` is a small int array of upstream link indices;
    ``down_links[f][i]`` likewise for the downstream ISP.
    """

    pair: IspPair
    flowset: FlowSet
    up_weight: np.ndarray
    down_weight: np.ndarray
    up_km: np.ndarray
    down_km: np.ndarray
    ic_km: np.ndarray  # (I,) geographic length of each peering link
    up_links: tuple[tuple[np.ndarray, ...], ...]
    down_links: tuple[tuple[np.ndarray, ...], ...]

    # -- shape helpers -----------------------------------------------------

    @property
    def n_flows(self) -> int:
        return self.up_weight.shape[0]

    @property
    def n_alternatives(self) -> int:
        return self.up_weight.shape[1]

    def incidence(self, side: str) -> PathIncidence:
        """The compiled CSR path incidence for one side ('a' or 'b').

        Built lazily from ``up_links``/``down_links`` on first request and
        cached on the table (the table is immutable, so the compilation
        never invalidates). All vectorized load kernels go through this.
        """
        if side == "a":
            attr, link_table = "_incidence_a", self.up_links
            n_links = self.pair.isp_a.n_links()
        elif side == "b":
            attr, link_table = "_incidence_b", self.down_links
            n_links = self.pair.isp_b.n_links()
        else:
            raise RoutingError(f"side must be 'a' or 'b', got {side!r}")
        cached = self.__dict__.get(attr)
        if cached is None:
            cached = PathIncidence.from_link_table(
                link_table, n_links, self.n_alternatives
            )
            object.__setattr__(self, attr, cached)
        return cached

    def total_km(self) -> np.ndarray:
        """End-to-end geographic cost per alternative: up + peering + down."""
        return self.up_km + self.ic_km[np.newaxis, :] + self.down_km

    def without_alternative(self, failed_index: int) -> "PairCostTable":
        """The post-failure table, derived by dropping column ``failed_index``.

        A failure case's table is this table with one interconnection
        removed: the dense weight/km arrays lose a column, the ragged link
        tables lose one entry per row, and the pair/flowset are re-bound to
        :meth:`IspPair.without_interconnection`'s reduced pair. No shortest
        path is recomputed and no size function is called — every value is
        bit-identical to rebuilding the table from scratch over the failed
        pair (the routing layer is deterministic and failure does not
        change intra-ISP paths).

        Any CSR incidence already compiled on this table is re-derived
        structurally (:meth:`PathIncidence.without_alternative`) instead of
        being recompiled from the ragged rows, so the load/LP machinery of
        a failure case starts warm.
        """
        idx = _validate_index_set(
            [failed_index], self.n_alternatives, "alternative drop"
        )
        k = int(idx[0])
        keep_list = [j for j in range(self.n_alternatives) if j != k]
        failed_pair = self.pair.without_interconnection(k)
        derived = PairCostTable(
            pair=failed_pair,
            flowset=self.flowset.with_pair(failed_pair),
            up_weight=np.delete(self.up_weight, k, axis=1),
            down_weight=np.delete(self.down_weight, k, axis=1),
            up_km=np.delete(self.up_km, k, axis=1),
            down_km=np.delete(self.down_km, k, axis=1),
            ic_km=np.delete(self.ic_km, k),
            up_links=_gather_columns(self.up_links, keep_list),
            down_links=_gather_columns(self.down_links, keep_list),
        )
        for attr in ("_incidence_a", "_incidence_b"):
            cached = self.__dict__.get(attr)
            if cached is not None:
                object.__setattr__(
                    derived, attr, cached.without_alternative(k)
                )
        derived.validate()
        return derived

    def without_alternatives(self, failed_indices) -> "PairCostTable":
        """The post-failure table with a *set* of columns dropped at once.

        The correlated-multi-failure generalization of
        :meth:`without_alternative`: a scenario that fails several
        interconnections simultaneously derives its table in one
        structural pass — dense arrays column-gathered on the surviving
        set, ragged link rows re-tupled from the parent's (still aliased)
        per-cell arrays, pair/flowset re-bound through
        :meth:`IspPair.without_interconnections`, and any compiled CSR
        incidence re-derived via
        :meth:`PathIncidence.without_alternatives`. No shortest path is
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
        keep = np.setdiff1d(
            np.arange(self.n_alternatives, dtype=np.intp), idx,
            assume_unique=True,
        )
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
            up_links=_gather_columns(self.up_links, keep_list),
            down_links=_gather_columns(self.down_links, keep_list),
        )
        for attr in ("_incidence_a", "_incidence_b"):
            cached = self.__dict__.get(attr)
            if cached is not None:
                object.__setattr__(
                    derived, attr, cached.without_alternatives(idx)
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
        pass each — the dense buffers are column-gathered views of the
        parent's arrays, the ragged rows alias the parent's per-cell link
        arrays, and compiled incidences re-derive from the parent's CSR —
        so the whole scenario set shares the parent's memory and pays zero
        routing work. Validation runs once per drop set against this
        table's column count; each result is bit-identical to the
        equivalent :meth:`without_alternatives` call (and hence to a
        per-scenario rebuild).

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
        row-gathered, the ragged link rows aliased, the flowset becomes an
        array-backed reindexing view (:meth:`FlowSet.subset`), and any
        compiled CSR incidence is re-derived by filtering its rows
        (:meth:`PathIncidence.subset_rows`) instead of being dropped — the
        negotiation machinery of a failure case starts warm, with zero
        ragged recompilation. The result is bit-identical to a per-flow
        rebuild whose incidence is compiled from the ragged rows.

        Indices must be unique and within ``0..F-1``; out-of-range,
        negative and duplicate indices raise :class:`RoutingError`.
        """
        idx = _validate_index_set(indices, self.n_flows, "subset flow")
        rows = idx.tolist()
        derived = PairCostTable(
            pair=self.pair,
            flowset=self.flowset._subset_view(idx),  # idx validated above
            up_weight=self.up_weight[idx],
            down_weight=self.down_weight[idx],
            up_km=self.up_km[idx],
            down_km=self.down_km[idx],
            ic_km=self.ic_km.copy(),
            up_links=_gather_rows(self.up_links, rows),
            down_links=_gather_rows(self.down_links, rows),
        )
        if idx.size == 0:
            # An empty scope (e.g. a zero-flow internetwork edge) gets
            # structurally-empty incidences up front — identical to what
            # compiling the empty ragged table would build, but without
            # ever invoking the compiler, warm parent or not.
            for attr, isp in (
                ("_incidence_a", self.pair.isp_a),
                ("_incidence_b", self.pair.isp_b),
            ):
                object.__setattr__(
                    derived, attr,
                    PathIncidence(
                        n_flows=0,
                        n_alternatives=self.n_alternatives,
                        n_links=isp.n_links(),
                        indptr=np.zeros(1, dtype=np.intp),
                        indices=np.empty(0, dtype=np.intp),
                        entry_flow=np.empty(0, dtype=np.intp),
                    ),
                )
            return derived
        for attr in ("_incidence_a", "_incidence_b"):
            cached = self.__dict__.get(attr)
            if cached is not None:
                object.__setattr__(derived, attr, cached.subset_rows(idx))
        return derived

    def iter_blocks(self, chunk_rows: int = DEFAULT_CHUNK_ROWS):
        """Yield this table as consecutive flow-row blocks.

        Each block is a :meth:`subset` of at most ``chunk_rows`` consecutive
        flows (so the last block may be short). Downstream kernels that
        reduce over flows — load accumulation, preference scoring — can
        stream a large table block by block instead of holding derived
        per-flow state for all F rows at once. Blocks share this table's
        storage (row-gathered views, aliased ragged rows) and are
        bit-identical to the equivalent ``subset(np.arange(lo, hi))`` call.
        """
        chunk_rows = int(chunk_rows)
        if chunk_rows < 1:
            raise ConfigurationError(
                f"chunk_rows must be >= 1, got {chunk_rows}"
            )
        for lo in range(0, self.n_flows, chunk_rows):
            hi = min(lo + chunk_rows, self.n_flows)
            yield self.subset(np.arange(lo, hi, dtype=np.intp))

    def validate(self) -> None:
        f, i = self.up_weight.shape
        for name in ("down_weight", "up_km", "down_km"):
            arr = getattr(self, name)
            if arr.shape != (f, i):
                raise RoutingError(f"cost table field {name} has shape {arr.shape}")
        if self.ic_km.shape != (i,):
            raise RoutingError("ic_km has wrong shape")
        if len(self.up_links) != f or len(self.down_links) != f:
            raise RoutingError("link tables have wrong flow dimension")


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


def _validate_chunk_rows(chunk_rows: int | None, default: int) -> int:
    if chunk_rows is None:
        return default
    chunk_rows = int(chunk_rows)
    if chunk_rows < 1:
        raise ConfigurationError(f"chunk_rows must be >= 1, got {chunk_rows}")
    return chunk_rows


class _ColumnFill:
    """One pair's per-interconnection SSSP views, gathered by flow rows.

    Both builders fill through this: :func:`build_pair_cost_table` into
    its preallocated (F, I) arrays, :func:`iter_pair_cost_table_blocks`
    into one fresh block at a time. Each column of a block is one gather
    from a dense per-PoP view, so every cell is exactly the float a
    per-cell routing query returns.
    """

    def __init__(self, pair, flowset, routing_a, routing_b):
        if flowset.pair is not pair and flowset.pair.name != pair.name:
            raise RoutingError("flowset was built for a different pair")
        routing_a = routing_a or IntradomainRouting(pair.isp_a)
        routing_b = routing_b or IntradomainRouting(pair.isp_b)
        ics = pair.interconnections
        self.pair = pair
        self.n_flows, self.n_alternatives = len(flowset), len(ics)
        self.ic_km = np.asarray([ic.length_km for ic in ics], dtype=float)
        # Warm the SSSP caches from the interconnection PoPs: paths are
        # symmetric on an undirected graph, so dist(src, exit) =
        # dist(exit, src).
        routing_a.warm([ic.pop_a for ic in ics])
        routing_b.warm([ic.pop_b for ic in ics])
        self.srcs = flowset.srcs()
        self.dsts = flowset.dsts()
        # Per-PoP ragged rows: row p holds every interconnection's link
        # array to PoP p, so a flow's row is one gather by its src/dst.
        self._rows_up = _per_pop_rows(
            [routing_a.path_links_array(ic.pop_a) for ic in ics],
            pair.isp_a.n_pops(),
        )
        self._rows_down = _per_pop_rows(
            [routing_b.path_links_array(ic.pop_b) for ic in ics],
            pair.isp_b.n_pops(),
        )
        self._up_w = [routing_a.weight_distance_array(ic.pop_a) for ic in ics]
        self._up_k = [routing_a.geo_distance_array(ic.pop_a) for ic in ics]
        self._dn_w = [routing_b.weight_distance_array(ic.pop_b) for ic in ics]
        self._dn_k = [routing_b.geo_distance_array(ic.pop_b) for ic in ics]

    def fill(self, lo, hi, up_weight, down_weight, up_km, down_km) -> None:
        """Gather flow rows ``lo:hi`` into four (hi - lo, I) arrays."""
        src_blk = self.srcs[lo:hi]
        dst_blk = self.dsts[lo:hi]
        for i in range(self.n_alternatives):
            up_weight[:, i] = self._up_w[i][src_blk]
            up_km[:, i] = self._up_k[i][src_blk]
            down_weight[:, i] = self._dn_w[i][dst_blk]
            down_km[:, i] = self._dn_k[i][dst_blk]
        pair = self.pair
        _check_reachable(pair, up_weight, "source", pair.isp_a.name, src_blk)
        _check_reachable(
            pair, down_weight, "destination", pair.isp_b.name, dst_blk
        )

    def links(self, lo, hi):
        """The ragged ``(up_links, down_links)`` rows of flows ``lo:hi``."""
        up = _gather_rows(self._rows_up, self.srcs[lo:hi].tolist())
        down = _gather_rows(self._rows_down, self.dsts[lo:hi].tolist())
        return up, down


def build_pair_cost_table(
    pair: IspPair,
    flowset: FlowSet,
    routing_a: IntradomainRouting | None = None,
    routing_b: IntradomainRouting | None = None,
    chunk_rows: int | None = None,
) -> PairCostTable:
    """Build the cost table for ``flowset`` over ``pair`` (direction A->B).

    ``routing_a`` / ``routing_b`` may be passed in to share Dijkstra caches
    across multiple tables over the same ISPs (e.g. both directions, or
    several failure scenarios).

    The (F, I) arrays fill column by column from each interconnection's
    dense per-PoP SSSP views — one gather per column instead of F·I
    per-cell routing queries. ``chunk_rows`` splits the fill into flow-row
    blocks of at most that many rows, bounding the per-block intermediate
    state; ``None`` (default) fills everything as one block. The result is
    bit-identical for every block size. For a table that should never
    fully materialize, use :func:`iter_pair_cost_table_blocks` instead.

    Disconnected src/dst PoPs raise :class:`RoutingError` naming the pair
    and the offending PoPs instead of letting non-finite distances into
    the table.
    """
    block = _validate_chunk_rows(chunk_rows, max(len(flowset), 1))
    fill = _ColumnFill(pair, flowset, routing_a, routing_b)
    n_f, n_i = fill.n_flows, fill.n_alternatives
    up_weight = np.zeros((n_f, n_i))
    down_weight = np.zeros((n_f, n_i))
    up_km = np.zeros((n_f, n_i))
    down_km = np.zeros((n_f, n_i))
    for lo in range(0, n_f, block):
        hi = min(lo + block, n_f)
        fill.fill(
            lo, hi, up_weight[lo:hi], down_weight[lo:hi], up_km[lo:hi],
            down_km[lo:hi],
        )
    up_links, down_links = fill.links(0, n_f)
    table = PairCostTable(
        pair=pair,
        flowset=flowset,
        up_weight=up_weight,
        down_weight=down_weight,
        up_km=up_km,
        down_km=down_km,
        ic_km=fill.ic_km,
        up_links=up_links,
        down_links=down_links,
    )
    table.validate()
    return table


def iter_pair_cost_table_blocks(
    pair: IspPair,
    flowset: FlowSet,
    chunk_rows: int | None = None,
    routing_a: IntradomainRouting | None = None,
    routing_b: IntradomainRouting | None = None,
):
    """Stream the cost table as independent flow-row block tables.

    The bounded-memory build path for production-scale pairs: instead of
    materializing the full (F, I) table, yields one :class:`PairCostTable`
    per consecutive block of at most ``chunk_rows`` flows (default
    :data:`DEFAULT_CHUNK_ROWS`), built directly from the shared per-source
    SSSP views. Only one block's (chunk, I) arrays exist at a time; the
    per-source dense views are O(n_pops) each and shared across blocks.

    Each yielded block is bit-identical to
    ``build_pair_cost_table(...).subset(np.arange(lo, hi))`` — same
    gathers, same aliased ragged rows, same reindexed flowset view.
    Reachability failures raise :class:`RoutingError` naming the pair, at
    the first block that touches a disconnected PoP.
    """
    chunk_rows = _validate_chunk_rows(chunk_rows, DEFAULT_CHUNK_ROWS)
    fill = _ColumnFill(pair, flowset, routing_a, routing_b)
    n_f, n_i = fill.n_flows, fill.n_alternatives
    for lo in range(0, n_f, chunk_rows):
        hi = min(lo + chunk_rows, n_f)
        up_weight, down_weight, up_km, down_km = (
            np.zeros((hi - lo, n_i)) for _ in range(4)
        )
        fill.fill(lo, hi, up_weight, down_weight, up_km, down_km)
        up_links, down_links = fill.links(lo, hi)
        block = PairCostTable(
            pair=pair,
            flowset=flowset._subset_view(np.arange(lo, hi, dtype=np.intp)),
            up_weight=up_weight,
            down_weight=down_weight,
            up_km=up_km,
            down_km=down_km,
            ic_km=fill.ic_km.copy(),
            up_links=up_links,
            down_links=down_links,
        )
        block.validate()
        yield block
