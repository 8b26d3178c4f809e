"""Link-load computation for flow placements.

Given a :class:`~repro.routing.costs.PairCostTable` and a placement (one
interconnection index per flow), these helpers accumulate per-link loads in
each ISP. :class:`LoadTracker` supports the incremental updates the
negotiation engine needs during preference reassignment.

Every kernel reads the side's *per-PoP* CSR
(:meth:`~repro.routing.costs.PairCostTable.pop_incidence`, shared by a table
and all its subsets) through each flow's endpoint row: flow ``f``'s row
``i`` is row ``endpoints[f] * I + i`` there. None of them builds the
flow-level incidence. Two kinds of kernel, each shaped by how often it
runs:

* **Batch kernels** are array expressions over gathered entries:
  :func:`link_loads` is one ``bincount`` scatter-add for a whole placement,
  and :func:`max_ratio_rows` scores a whole :class:`RowGather` of
  preference rows with one ratio expression and one ``np.maximum.at``
  over each entry's row. They run once per placement or disclosure, over
  hundreds to thousands of entries.
* **Scalar kernels** are :class:`LoadTracker`'s single-row operations
  (:meth:`~LoadTracker.place`, :meth:`~LoadTracker.peek_max_ratio`,
  :meth:`~LoadTracker.peek_cost_increase`, and their fused run over a
  session epoch, :meth:`~LoadTracker.place_epoch`).
  They work over paths of a few links, where numpy's per-call overhead is
  several times the work, so they are float loops over Python lists.

Floats accumulate in exactly the order a per-flow, per-link Python loop
would (flows ascending, links in path order), and every scalar operation
is the same IEEE add, subtract or divide as its array form; the test suite
pins both kinds against such reference loops with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import CapacityError
from repro.routing.costs import PairCostTable
from repro.routing.incidence import PathIncidence, multirange_gather

__all__ = [
    "link_loads",
    "validate_capacities",
    "RowGather",
    "max_ratio_rows",
    "LoadTracker",
]


def _n_links(table: PairCostTable, side: str) -> int:
    if side == "a":
        return table.pair.isp_a.n_links()
    if side == "b":
        return table.pair.isp_b.n_links()
    raise CapacityError(f"side must be 'a' or 'b', got {side!r}")


def _validate_choices(table: PairCostTable, choices: np.ndarray) -> np.ndarray:
    choices = np.asarray(choices, dtype=np.intp)
    if choices.shape != (table.n_flows,):
        raise CapacityError(
            f"choices must have shape ({table.n_flows},), got {choices.shape}"
        )
    if choices.size and (choices.min() < 0 or choices.max() >= table.n_alternatives):
        raise CapacityError("choice indices out of range")
    return choices


def link_loads(
    table: PairCostTable,
    choices: np.ndarray,
    side: str,
    active: np.ndarray | None = None,
    base: np.ndarray | None = None,
) -> np.ndarray:
    """Per-link loads in one ISP ('a' = upstream, 'b' = downstream).

    ``active`` optionally masks which flows are placed (default: all); it
    must be a bool array of shape (F,).
    ``base`` optionally seeds the accumulation with precomputed loads
    (e.g. the background traffic of a failure case), so a placement's
    total loads derive from the base in one pass instead of recomputing
    the base flows' contribution: the base enters the scatter-add as
    leading per-link entries, so each link accumulates ``base, flow, flow,
    ...`` in the float order of a loop started from ``base.copy()``.

    The whole placement is one scatter-add. Each placed flow's chosen row
    is gathered from the side's per-PoP CSR
    (:meth:`~repro.routing.costs.PairCostTable.pop_incidence`) through the
    flow's endpoint PoP, flows ascending and links in path order, so no
    per-flow rows are ever built.
    """
    choices = _validate_choices(table, choices)
    n_links = _n_links(table, side)
    if active is None:
        flows = np.arange(table.n_flows, dtype=np.intp)
    else:
        active = np.asarray(active)
        if active.dtype != bool or active.shape != (table.n_flows,):
            raise CapacityError(
                f"active must be a bool array of shape ({table.n_flows},), "
                f"got {active.dtype} of shape {active.shape}"
            )
        flows = np.flatnonzero(active)
    if base is not None:
        base = np.asarray(base, dtype=float)
        if base.shape != (n_links,):
            raise CapacityError(
                f"base must have shape ({n_links},), got {base.shape}"
            )
    paths = table.pop_incidence(side)
    rows = table.endpoints(side)[flows] * table.n_alternatives + choices[flows]
    positions, counts = multirange_gather(
        paths.indptr[rows], paths.indptr[rows + 1]
    )
    bins = paths.indices[positions]
    weights = np.repeat(table.flowset.sizes()[flows], counts)
    if base is not None:
        bins = np.concatenate([np.arange(n_links, dtype=np.intp), bins])
        weights = np.concatenate([base, weights])
    return np.bincount(bins, weights=weights, minlength=n_links)


def validate_capacities(
    table: PairCostTable, side: str, capacities: np.ndarray
) -> np.ndarray:
    """One side's link capacities as a float array, checked once.

    Capacities divide every load ratio, so they must be a 1-D vector of the
    side's link count with every entry finite and strictly positive; a NaN
    would otherwise surface as an out-of-range preference class and a zero
    as an infinite ratio. Raises :class:`CapacityError` on anything else.
    """
    n_links = _n_links(table, side)
    caps = np.array(capacities, dtype=float)
    if caps.shape != (n_links,):
        raise CapacityError(
            f"capacities must have shape ({n_links},), got {caps.shape}"
        )
    if not np.isfinite(caps).all():
        raise CapacityError("capacities must be finite")
    if caps.size and caps.min() <= 0:
        raise CapacityError(
            f"capacities must be > 0, got minimum {float(caps.min())!r}"
        )
    return caps


@dataclass(frozen=True)
class RowGather:
    """The path entries of every row of a set of flows, gathered once.

    Row ``k * I + i`` is alternative ``i`` of flow ``flows[k]``, read from
    the per-PoP CSR through the flow's endpoint PoP. Each entry carries its
    link id, its flow's size, its link's capacity and its row; ``start``
    holds each row's starting maximum, -inf for a row with entries and 0.0
    for an empty one. Scoring the block against current loads
    (:func:`max_ratio_rows`) and summing per-entry scores by row read
    nothing else, so a gather stays valid for as long as its flows and the
    capacities do, across any number of load changes.
    """

    flows: np.ndarray  # (K,) flow ids
    n_alternatives: int
    links: np.ndarray  # (nnz,) link id per entry
    sizes: np.ndarray  # (nnz,) flow size per entry
    capacities: np.ndarray  # (nnz,) link capacity per entry
    rows: np.ndarray  # (nnz,) row of each entry, in 0..K*I-1
    start: np.ndarray  # (K*I,) -inf for a non-empty row, 0.0 for an empty one

    @classmethod
    def build(
        cls,
        pop_incidence: PathIncidence,
        endpoints: np.ndarray,
        sizes: np.ndarray,
        flows: np.ndarray,
        capacities: np.ndarray,
    ) -> "RowGather":
        """Gather ``flows`` (any order) from ``pop_incidence``, where flow
        ``f``'s rows are those of PoP ``endpoints[f]``, and ``sizes`` and
        ``capacities`` are indexed by flow and link id."""
        positions, row_ptr = pop_incidence.flow_entries(endpoints[flows])
        links = pop_incidence.indices[positions]
        counts = np.diff(row_ptr)
        return cls(
            flows=flows,
            n_alternatives=pop_incidence.n_alternatives,
            links=links,
            sizes=np.repeat(
                sizes[flows], np.diff(row_ptr[:: pop_incidence.n_alternatives])
            ),
            capacities=capacities[links],
            rows=np.repeat(np.arange(counts.size, dtype=np.intp), counts),
            start=np.where(counts > 0, -np.inf, 0.0),
        )


def max_ratio_rows(loads: np.ndarray, gather: RowGather) -> np.ndarray:
    """(K, I) max of ``(load + size) / capacity`` over each gathered row.

    An empty row (source at the interconnection) scores 0.0, as a scalar
    peek does. Each entry's ratio is the same add and divide as the scalar
    peek's, and ``np.maximum.at`` folds them into their rows from a -inf
    start, so a non-empty row's result is its largest entry whatever the
    sign of the loads (a NaN propagates). A maximum is exact and
    order-independent, so every row equals
    :meth:`LoadTracker.peek_max_ratio`.
    """
    out = gather.start.copy()
    ratios = (loads[gather.links] + gather.sizes) / gather.capacities
    np.maximum.at(out, gather.rows, ratios)
    return out.reshape(gather.flows.size, gather.n_alternatives)


def _max_ratio(loads: list, path: list, size: float, capacities) -> float:
    """Max of ``(loads[l] + size) / capacities[l]`` over a path's links (0.0
    if empty), started from the first link's ratio like ``ratios.max()``."""
    if not path:
        return 0.0
    best = (loads[path[0]] + size) / capacities[path[0]]
    for li in path:
        ratio = (loads[li] + size) / capacities[li]
        if ratio > best:
            best = ratio
    return best


class LoadTracker:
    """Mutable per-link loads for one ISP side, with incremental placement.

    The bandwidth negotiation reassigns preferences "after negotiating each
    5% of the traffic", which requires evaluating alternatives against the
    *current* expected network state: background (unaffected) flows plus
    flows already negotiated. A tracker holds that state.

    The loads, the flow sizes, the side's per-PoP CSR
    (:meth:`~repro.routing.costs.PairCostTable.pop_incidence`'s
    ``indptr``/``indices``, P·I rows however many flows the table has)
    and each flow's first row there (``row0[f] = endpoints[f] * I``) are
    kept as Python lists, so the scalar kernels that every accepted round
    calls (:meth:`place`, :meth:`peek_max_ratio`,
    :meth:`peek_cost_increase`, :meth:`place_epoch`) are float loops over
    one row's few links, row ``row0[f] + alternative``. The list is the
    only load store: the batch readers (:attr:`loads`, :meth:`max_ratios`
    and :meth:`peek_max_ratio_block`) make an array from it when called,
    which costs one pass over the side's links.
    """

    def __init__(self, table: PairCostTable, side: str,
                 base_loads: np.ndarray | None = None):
        n_links = _n_links(table, side)
        self._pop = pop = table.pop_incidence(side)
        self._endpoints = table.endpoints(side)
        self._sizes = table.flowset.sizes()
        self._size_list: list[float] = self._sizes.tolist()
        self._indptr: list[int] = pop.indptr.tolist()
        self._indices: list[int] = pop.indices.tolist()
        self._row0: list[int] = (self._endpoints * pop.n_alternatives).tolist()
        if base_loads is None:
            self._loads = [0.0] * n_links
        else:
            base_loads = np.asarray(base_loads, dtype=float)
            if base_loads.shape != (n_links,):
                raise CapacityError(
                    f"base_loads must have shape ({n_links},), got {base_loads.shape}"
                )
            if not np.isfinite(base_loads).all():
                raise CapacityError("base_loads must be finite")
            self._loads = base_loads.tolist()

    @property
    def loads(self) -> np.ndarray:
        """Current loads (a new array; change them only through placements)."""
        return np.array(self._loads)

    def place(self, flow_index: int, alternative: int) -> None:
        """Add one flow's load along its path for ``alternative``."""
        row = self._row0[flow_index] + alternative
        size = self._size_list[flow_index]
        loads = self._loads
        for li in self._indices[self._indptr[row] : self._indptr[row + 1]]:
            loads[li] += size

    def peek_max_ratio(
        self, flow_index: int, alternative: int, capacities: Sequence[float]
    ) -> float:
        """Max (load + flow)/capacity along the flow's path if placed.

        This is the paper's bandwidth preference input: "the maximum
        increase in link load along the path". Returns 0.0 for an empty
        path (source at the interconnection). ``capacities`` is indexed by
        link id; a list is fastest.
        """
        row = self._row0[flow_index] + alternative
        path = self._indices[self._indptr[row] : self._indptr[row + 1]]
        return _max_ratio(self._loads, path, self._size_list[flow_index], capacities)

    def place_epoch(self, flows, alternatives, defaults, capacities) -> list[float]:
        """Place flows in order; return each one's max-ratio gain: the
        :meth:`peek_max_ratio` of its ``defaults`` entry minus that of its
        alternative, both just before it is placed, as one loop."""
        loads, indices, indptr = self._loads, self._indices, self._indptr
        size_list, row0 = self._size_list, self._row0
        gains = []
        for flow, alternative in zip(flows, alternatives):
            size = size_list[flow]
            first = row0[flow]
            row = first + defaults[flow]
            path = indices[indptr[row] : indptr[row + 1]]
            before = _max_ratio(loads, path, size, capacities)
            row = first + alternative
            path = indices[indptr[row] : indptr[row + 1]]
            gains.append(before - _max_ratio(loads, path, size, capacities))
            for li in path:
                loads[li] += size
        return gains

    def peek_cost_increase(
        self,
        flow_index: int,
        alternative: int,
        capacities: Sequence[float],
        link_cost: Callable[[float, float], float],
    ) -> float:
        """Sum of ``link_cost(load + size, cap) - link_cost(load, cap)``
        over the flow's path links, in path order: the marginal cost of
        placing the flow (0.0 for an empty path)."""
        row = self._row0[flow_index] + alternative
        loads = self._loads
        size = self._size_list[flow_index]
        increase = 0.0
        for li in self._indices[self._indptr[row] : self._indptr[row + 1]]:
            load = loads[li]
            cap = capacities[li]
            increase += link_cost(load + size, cap) - link_cost(load, cap)
        return increase

    # -- batch kernels ---------------------------------------------------------

    def gather(self, flows: np.ndarray, capacities: np.ndarray) -> RowGather:
        """The :class:`RowGather` of ``flows`` (any order) under ``capacities``."""
        return RowGather.build(
            self._pop,
            self._endpoints,
            self._sizes,
            np.asarray(flows, dtype=np.intp),
            np.asarray(capacities, dtype=float),
        )

    def max_ratios(self, gather: RowGather) -> np.ndarray:
        """:func:`max_ratio_rows` of a gather against the current loads."""
        return max_ratio_rows(np.array(self._loads), gather)

    def peek_max_ratio_block(
        self, flows: np.ndarray, capacities: np.ndarray
    ) -> np.ndarray:
        """:meth:`peek_max_ratio` for all alternatives of ``flows``, (K, I).

        Row ``k`` is flow ``flows[k]``, computed as one gather and one
        :func:`max_ratio_rows` pass; the rows match the scalar peeks
        exactly.
        """
        return self.max_ratios(self.gather(flows, capacities))
