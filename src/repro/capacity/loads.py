"""Link-load computation for flow placements.

Given a :class:`~repro.routing.costs.PairCostTable` and a placement (one
interconnection index per flow), these helpers accumulate per-link loads in
each ISP. :class:`LoadTracker` supports the incremental updates the
negotiation engine needs during preference reassignment.

Every kernel is a batched array expression over the table's compiled
:class:`~repro.routing.incidence.PathIncidence` (one ``bincount``
scatter-add for a whole placement, one segment-max pass for a whole
preference matrix). Floats accumulate in exactly the order a per-flow,
per-link Python loop would (flows ascending, links in path order); the
test suite pins the kernels against such reference loops with ``==``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CapacityError
from repro.routing.costs import PairCostTable
from repro.routing.incidence import segment_max

__all__ = ["link_loads", "pair_link_loads", "LoadTracker"]


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

    ``active`` optionally masks which flows are placed (default: all).
    ``base`` optionally seeds the accumulation with precomputed loads
    (e.g. the background traffic of a failure case), so a placement's
    total loads derive from the base in one pass instead of recomputing
    the base flows' contribution: the base enters the scatter-add as
    leading per-link entries, so each link accumulates ``base, flow, flow,
    ...`` in the float order of a loop started from ``base.copy()``.
    The whole placement is one scatter-add.
    """
    choices = _validate_choices(table, choices)
    if side == "a":
        n_links = table.pair.isp_a.n_links()
    elif side == "b":
        n_links = table.pair.isp_b.n_links()
    else:
        raise CapacityError(f"side must be 'a' or 'b', got {side!r}")
    if base is not None:
        base = np.asarray(base, dtype=float)
        if base.shape != (n_links,):
            raise CapacityError(
                f"base must have shape ({n_links},), got {base.shape}"
            )

    return table.incidence(side).accumulate_loads(
        choices, table.flowset.sizes(), active, base=base
    )


def pair_link_loads(
    table: PairCostTable,
    choices: np.ndarray,
    active: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Loads in both ISPs: ``(loads_a, loads_b)``."""
    return (
        link_loads(table, choices, "a", active),
        link_loads(table, choices, "b", active),
    )


class LoadTracker:
    """Mutable per-link loads for one ISP side, with incremental placement.

    The bandwidth negotiation reassigns preferences "after negotiating each
    5% of the traffic", which requires evaluating alternatives against the
    *current* expected network state: background (unaffected) flows plus
    flows already negotiated. A tracker holds that state.

    Besides the single-(flow, alternative) peeks, the tracker exposes the
    batch kernels the vectorized evaluators are built on:
    :meth:`peek_max_ratio_all` (one flow, all alternatives) and
    :meth:`peek_max_ratio_matrix` (all remaining flows at once).
    """

    def __init__(self, table: PairCostTable, side: str,
                 base_loads: np.ndarray | None = None):
        if side == "a":
            n_links = table.pair.isp_a.n_links()
        elif side == "b":
            n_links = table.pair.isp_b.n_links()
        else:
            raise CapacityError(f"side must be 'a' or 'b', got {side!r}")
        self._table = table
        self._incidence = table.incidence(side)
        self._sizes = table.flowset.sizes()
        if base_loads is None:
            self._loads = np.zeros(n_links)
        else:
            base_loads = np.asarray(base_loads, dtype=float)
            if base_loads.shape != (n_links,):
                raise CapacityError(
                    f"base_loads must have shape ({n_links},), got {base_loads.shape}"
                )
            self._loads = base_loads.copy()

    @property
    def loads(self) -> np.ndarray:
        """Current loads (copy; mutate only through place/remove)."""
        return self._loads.copy()

    def loads_view(self) -> np.ndarray:
        """The internal load array itself — read-only by convention.

        Hot kernels (the evaluators' recompute) read this instead of the
        copying :attr:`loads` property; callers must not mutate it.
        """
        return self._loads

    def place(self, flow_index: int, alternative: int) -> None:
        """Add one flow's load along its path for ``alternative``."""
        links = self._incidence.row_links(flow_index, alternative)
        np.add.at(self._loads, links, self._sizes[flow_index])

    def remove(self, flow_index: int, alternative: int) -> None:
        """Remove a previously placed flow (inverse of :meth:`place`)."""
        links = self._incidence.row_links(flow_index, alternative)
        np.subtract.at(self._loads, links, self._sizes[flow_index])

    def peek_max_ratio(
        self, flow_index: int, alternative: int, capacities: np.ndarray
    ) -> float:
        """Max (load + flow)/capacity along the flow's path if placed.

        This is the paper's bandwidth preference input: "the maximum
        increase in link load along the path". Returns 0.0 for an empty
        path (source at the interconnection).
        """
        links = self._incidence.row_links(flow_index, alternative)
        if len(links) == 0:
            return 0.0
        size = self._sizes[flow_index]
        ratios = (self._loads[links] + size) / capacities[links]
        return float(ratios.max())

    # -- batch kernels ---------------------------------------------------------

    def peek_max_ratio_all(
        self, flow_index: int, capacities: np.ndarray
    ) -> np.ndarray:
        """:meth:`peek_max_ratio` for every alternative of one flow, (I,)."""
        inc = self._incidence
        n_alt = inc.n_alternatives
        start = inc.indptr[flow_index * n_alt]
        end = inc.indptr[(flow_index + 1) * n_alt]
        links = inc.indices[start:end]
        ratios = (self._loads[links] + self._sizes[flow_index]) / capacities[links]
        ptr = inc.indptr[flow_index * n_alt : (flow_index + 1) * n_alt + 1] - start
        return segment_max(ratios, ptr)

    def peek_max_ratio_block(
        self, flows: np.ndarray, capacities: np.ndarray
    ) -> np.ndarray:
        """:meth:`peek_max_ratio` for all alternatives of ``flows``, (K, I).

        The compact form of :meth:`peek_max_ratio_matrix` — row ``k`` is
        flow ``flows[k]`` — computed in one gather + one segment-max pass.
        The per-entry float operations are identical to the scalar peeks,
        so the rows match them exactly.
        """
        flows = np.asarray(flows, dtype=np.intp)
        n_alt = self._table.n_alternatives
        if not flows.size:
            return np.zeros((0, n_alt))
        inc = self._incidence
        positions, row_ptr = inc.flow_entries(flows)
        links = inc.indices[positions]
        ratios = (
            self._loads[links] + self._sizes[inc.entry_flow[positions]]
        ) / capacities[links]
        return segment_max(ratios, row_ptr).reshape(flows.size, n_alt)

    def peek_max_ratio_matrix(
        self, remaining: np.ndarray, capacities: np.ndarray
    ) -> np.ndarray:
        """The (F, I) matrix of :meth:`peek_max_ratio` for remaining flows.

        Rows of flows outside ``remaining`` are left at 0.0.
        """
        remaining = np.asarray(remaining, dtype=bool)
        out = np.zeros((self._table.n_flows, self._table.n_alternatives))
        flows = np.flatnonzero(remaining)
        if flows.size:
            out[flows] = self.peek_max_ratio_block(flows, capacities)
        return out
