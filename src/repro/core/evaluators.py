"""ISP-internal evaluation of routing choices (Nexit step 1).

An :class:`Evaluator` is one ISP's private machinery: it knows the ISP's
internal optimization criterion and produces the opaque preference classes
the protocol discloses. The session never sees the underlying metric.

Three concrete evaluators:

* :class:`StaticPreferenceEvaluator` — preferences given directly (worked
  examples, tests, and the Figure 3 trace);
* :class:`StaticCostEvaluator` — per-flow costs independent of other flows
  (the distance metric: "mapping per-flow objectives ... is straightforward
  as the preferences for different alternatives are independent");
* :class:`LoadAwareEvaluator` — preferences derived from current link
  loads (the bandwidth metric), recomputed on reassignment as "preferences
  are based on constraints such as available bandwidth that may change
  after some flows have been negotiated".

The load-dependent evaluators (:class:`LoadAwareEvaluator`,
:class:`FortzCostEvaluator`) recompute whole preference matrices per
reassignment as a handful of array expressions over the table's compiled
path incidence (gather, per-entry score, segment reduction) — no
Python-level per-(flow, alternative) calls — while ``true_delta`` and
``commit`` run the tracker's scalar list kernels (fused over a session
epoch in :class:`LoadAwareEvaluator`'s ``commit_epoch``). Both
check their capacities once, at construction
(:func:`~repro.capacity.loads.validate_capacities`), and keep them fixed.
The equivalence tests pin them bit for bit against per-(flow, alternative)
reference loops.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.capacity.loads import LoadTracker, RowGather, validate_capacities
from repro.core.mapping import (
    PreferenceMapper,
    check_unit,
    conservative_round,
    map_cost_matrix,
)
from repro.core.preferences import PreferenceRange
from repro.errors import PreferenceError
from repro.routing.costs import PairCostTable
from repro.routing.incidence import segment_sum

__all__ = [
    "Evaluator",
    "StaticPreferenceEvaluator",
    "StaticCostEvaluator",
    "LoadAwareEvaluator",
    "FortzCostEvaluator",
]


class Evaluator(Protocol):
    """One ISP's private preference machinery."""

    @property
    def n_flows(self) -> int: ...

    @property
    def n_alternatives(self) -> int: ...

    @property
    def defaults(self) -> np.ndarray:
        """Default alternative per flow (maps to class 0)."""
        ...

    def preferences(self) -> np.ndarray:
        """Current disclosed preference classes, (F, I) int array.

        Rows of already-negotiated flows are retained but ignored by the
        session.
        """
        ...

    def commit(self, flow_index: int, alternative: int) -> None:
        """Record that a flow was negotiated to ``alternative``."""
        ...

    def reassign(self, remaining: np.ndarray) -> None:
        """Recompute preferences for the flows still on the table."""
        ...

    def true_delta(self, flow_index: int, alternative: int) -> float:
        """This ISP's *actual* metric improvement if the flow moves to
        ``alternative`` (positive = better than default). Used only for
        the ISP's private accounting (win-win rollback); never disclosed.
        """
        ...


def commit_in_order(evaluator: Evaluator, flows, alternatives) -> list[float]:
    """One ``true_delta`` then one ``commit`` per flow, in order; the deltas.
    An evaluator may fuse it into a ``commit_epoch`` method of its own."""
    deltas = []
    for flow_index, alternative in zip(flows, alternatives):
        deltas.append(float(evaluator.true_delta(flow_index, alternative)))
        evaluator.commit(flow_index, alternative)
    return deltas


def _overrides_steps(evaluator, base: type) -> bool:
    """Whether ``evaluator``'s class overrides ``base``'s ``true_delta`` or
    ``commit``, so that ``base``'s fused ``commit_epoch`` no longer applies."""
    cls = type(evaluator)
    return cls.true_delta is not base.true_delta or cls.commit is not base.commit


class StaticPreferenceEvaluator:
    """Preferences supplied directly as class matrices.

    ``stages`` optionally provides successive matrices consumed one per
    reassignment — exactly what the Figure 3 worked example needs (initial
    list, then the post-reassignment list).
    """

    def __init__(
        self,
        prefs: np.ndarray,
        defaults: np.ndarray,
        range_: PreferenceRange | None = None,
        stages: list[np.ndarray] | None = None,
    ):
        self.range = range_ or PreferenceRange()
        self._prefs = np.asarray(prefs, dtype=np.int64)
        self._defaults = np.asarray(defaults, dtype=np.intp)
        if self._prefs.ndim != 2:
            raise PreferenceError("preference matrix must be 2-D")
        if self._defaults.shape != (self._prefs.shape[0],):
            raise PreferenceError("defaults shape mismatch")
        self.range.validate_array(self._prefs)
        self._stages = [np.asarray(s, dtype=np.int64) for s in (stages or [])]
        for stage in self._stages:
            if stage.shape != self._prefs.shape:
                raise PreferenceError("stage matrices must match initial shape")
            self.range.validate_array(stage)

    @property
    def n_flows(self) -> int:
        return self._prefs.shape[0]

    @property
    def n_alternatives(self) -> int:
        return self._prefs.shape[1]

    @property
    def defaults(self) -> np.ndarray:
        return self._defaults

    def preferences(self) -> np.ndarray:
        return self._prefs

    def commit(self, flow_index: int, alternative: int) -> None:
        # Stateless with respect to commitments.
        del flow_index, alternative

    def reassign(self, remaining: np.ndarray) -> None:
        del remaining
        if self._stages:
            self._prefs = self._stages.pop(0)

    def true_delta(self, flow_index: int, alternative: int) -> float:
        # No underlying metric: the classes are the ground truth.
        return float(self._prefs[flow_index, alternative])


class StaticCostEvaluator:
    """Per-flow costs mapped to classes once (load-independent metrics)."""

    def __init__(
        self,
        costs: np.ndarray,
        defaults: np.ndarray,
        mapper: PreferenceMapper,
    ):
        self._costs = np.asarray(costs, dtype=float)
        self._defaults = np.asarray(defaults, dtype=np.intp)
        self.mapper = mapper
        self.range = mapper.range
        self._prefs = map_cost_matrix(self._costs, self._defaults, mapper)

    @property
    def n_flows(self) -> int:
        return self._prefs.shape[0]

    @property
    def n_alternatives(self) -> int:
        return self._prefs.shape[1]

    @property
    def defaults(self) -> np.ndarray:
        return self._defaults

    @property
    def costs(self) -> np.ndarray:
        """The underlying private cost matrix (never disclosed)."""
        return self._costs

    def preferences(self) -> np.ndarray:
        return self._prefs

    def commit(self, flow_index: int, alternative: int) -> None:
        del flow_index, alternative

    def reassign(self, remaining: np.ndarray) -> None:
        # Load-independent: preferences never change.
        del remaining

    def true_delta(self, flow_index: int, alternative: int) -> float:
        default = self._defaults[flow_index]
        return float(
            self._costs[flow_index, default] - self._costs[flow_index, alternative]
        )

    def commit_epoch(self, flows: list[int], alternatives: list[int]) -> list[float]:
        """:func:`commit_in_order` as one gather (commits are no-ops)."""
        if _overrides_steps(self, StaticCostEvaluator):
            return commit_in_order(self, flows, alternatives)
        flows = np.asarray(flows, dtype=np.intp)
        costs = self._costs
        deltas = costs[flows, self._defaults[flows]] - costs[flows, alternatives]
        return deltas.tolist()


class LoadAwareEvaluator:
    """Bandwidth preferences: max load-increase ratio along the path.

    For a remaining flow ``f`` and alternative ``i``, the internal score is
    the maximum of ``(load + size_f) / capacity`` over the links of the
    (f, i) path inside this ISP's network — "both ISPs using the maximum
    increase in link load along the path to map flows to preferences"
    (Section 5.2). The class is the default-relative improvement in that
    ratio, at ``ratio_unit`` per class.

    The evaluator holds a :class:`LoadTracker` seeded with background
    (non-negotiated) traffic. Committed flows are placed into the tracker,
    but disclosed preferences only change when :meth:`reassign` runs —
    Nexit reassigns "after negotiating each 5% of the traffic".

    Capacities are validated and copied at construction and never change
    afterwards (a list copy feeds the tracker's scalar peeks). The tracker
    keeps its state in Python lists, so :meth:`true_delta` and
    :meth:`commit` cost a float loop over one path each.

    Each disclosure scores a *live* flow set from one
    :class:`~repro.capacity.loads.RowGather` (link ids, entry sizes, entry
    capacities, non-empty row starts) taken when that set was chosen: the
    whole live block is scored against the current loads and the
    remaining flows' rows are picked out. The live set is re-gathered as
    the remaining flows when they fall below half of it, or when a flow
    outside it comes back, so a disclosure never scores more than twice
    the remaining flows' rows. The factor of one half is a constant:
    scoring every live row is cheaper than re-deriving the remaining rows'
    entry positions on each disclosure for as long as about a quarter to a
    third of the live rows remain, and the halving rule never lets fewer
    than half remain.
    """

    def __init__(
        self,
        table: PairCostTable,
        side: str,
        capacities: np.ndarray,
        defaults: np.ndarray,
        base_loads: np.ndarray | None = None,
        range_: PreferenceRange | None = None,
        ratio_unit: float = 0.1,
        conservative: bool = True,
    ):
        self.range = range_ or PreferenceRange()
        self.ratio_unit = check_unit(ratio_unit, "ratio_unit")
        self.conservative = conservative
        self._table = table
        self._side = side
        self._capacities = validate_capacities(table, side, capacities)
        self._cap_list = self._capacities.tolist()
        self._defaults = np.asarray(defaults, dtype=np.intp)
        if self._defaults.shape != (table.n_flows,):
            raise PreferenceError("defaults shape mismatch")
        self._default_list = self._defaults.tolist()
        self._tracker = LoadTracker(table, side, base_loads=base_loads)
        self._prefs = np.zeros((table.n_flows, table.n_alternatives), dtype=np.int64)
        #: The live gather and each flow's row in it (-1 outside it).
        self._live: RowGather | None = None
        self._live_rows = np.full(table.n_flows, -1, dtype=np.intp)
        self._recompute(np.ones(table.n_flows, dtype=bool))

    @property
    def n_flows(self) -> int:
        return self._table.n_flows

    @property
    def n_alternatives(self) -> int:
        return self._table.n_alternatives

    @property
    def defaults(self) -> np.ndarray:
        return self._defaults

    @property
    def tracker(self) -> LoadTracker:
        return self._tracker

    def preferences(self) -> np.ndarray:
        return self._prefs

    def commit(self, flow_index: int, alternative: int) -> None:
        self._tracker.place(flow_index, alternative)

    def reassign(self, remaining: np.ndarray) -> None:
        self._recompute(np.asarray(remaining, dtype=bool))

    def true_delta(self, flow_index: int, alternative: int) -> float:
        """Improvement in this ISP's max load-increase ratio for the flow,
        evaluated against the *current* network state (call before
        :meth:`commit` places the flow)."""
        peek = self._tracker.peek_max_ratio
        return peek(
            flow_index, self._default_list[flow_index], self._cap_list
        ) - peek(flow_index, alternative, self._cap_list)

    def commit_epoch(self, flows: list[int], alternatives: list[int]) -> list[float]:
        """:func:`commit_in_order` as one tracker loop."""
        if _overrides_steps(self, LoadAwareEvaluator):
            return commit_in_order(self, flows, alternatives)
        return self._tracker.place_epoch(
            flows, alternatives, self._default_list, self._cap_list
        )

    def _recompute(self, remaining: np.ndarray) -> None:
        """Refresh classes for the remaining flows from current loads.

        The nominal max-ratio block comes from the live gather
        (:meth:`_nominal_block`), :meth:`_score_block` turns it into the
        internal score, and a whole-matrix class mapping
        (:meth:`_apply_scores`) discloses it. Subclasses override
        :meth:`_score_block` to substitute their own internal score while
        inheriting the gather and the class mapping unchanged.
        """
        flows = np.flatnonzero(remaining)
        if not flows.size:
            return
        self._apply_scores(
            flows, self._score_block(flows, self._nominal_block(flows))
        )

    def _nominal_block(self, flows: np.ndarray) -> np.ndarray:
        """(K, I) max load-increase ratios of ``flows`` (ascending).

        Scores the whole live gather and picks the rows of ``flows``;
        re-gathers first when ``flows`` leaves the live set or is under
        half its size.
        """
        live = self._live
        rows = self._live_rows[flows]
        if live is None or 2 * flows.size < live.flows.size or rows.min() < 0:
            live = self._live = self._tracker.gather(flows, self._capacities)
            self._live_rows.fill(-1)
            self._live_rows[flows] = np.arange(flows.size)
            return self._tracker.max_ratios(live)
        block = self._tracker.max_ratios(live)
        return block if flows.size == live.flows.size else block[rows]

    def _score_block(self, flows: np.ndarray, nominal: np.ndarray) -> np.ndarray:
        """Internal (K, I) scores of ``flows`` from their nominal block."""
        return nominal

    def _apply_scores(self, flows: np.ndarray, sel: np.ndarray) -> None:
        """Map a (K, I) score block to preference classes for ``flows``."""
        defaults = self._defaults[flows]
        rows = np.arange(flows.size)
        default_scores = sel[rows, defaults]
        units = (default_scores[:, np.newaxis] - sel) / self.ratio_unit
        if self.conservative:
            units = conservative_round(units)
        prefs = self.range.clamp_array(units)
        # The default is 0 by construction; enforce against fp noise.
        prefs[rows, defaults] = 0
        self._prefs[flows] = prefs


class FortzCostEvaluator:
    """Bandwidth preferences from the Fortz-Thorup network cost.

    The paper's alternate ISP optimization metric: "a metric based on a
    linear programming formulation of optimal routing [10]. This metric
    minimizes the sum of link costs, where the cost is a piecewise linear
    function of load with increasing slope." The internal score of a
    (flow, alternative) is the *increase* in this ISP's total network cost
    if the flow is placed there, evaluated against the current expected
    state; preferences are the default-relative improvement at
    ``cost_unit`` per class.
    """

    def __init__(
        self,
        table: PairCostTable,
        side: str,
        capacities: np.ndarray,
        defaults: np.ndarray,
        base_loads: np.ndarray | None = None,
        range_: PreferenceRange | None = None,
        cost_unit: float | None = None,
        conservative: bool = True,
    ):
        from repro.metrics.fortz import (
            piecewise_link_cost,
            piecewise_link_cost_array,
        )

        self._piecewise = piecewise_link_cost
        self._piecewise_array = piecewise_link_cost_array
        self.range = range_ or PreferenceRange()
        self._table = table
        self._side = side
        self._capacities = validate_capacities(table, side, capacities)
        self._cap_list = self._capacities.tolist()
        self._defaults = np.asarray(defaults, dtype=np.intp)
        if self._defaults.shape != (table.n_flows,):
            raise PreferenceError("defaults shape mismatch")
        self._default_list = self._defaults.tolist()
        self._tracker = LoadTracker(table, side, base_loads=base_loads)
        self._sizes = table.flowset.sizes()
        # Default unit: half the cost of one mean-size flow crossing one
        # low-utilization (slope-1) link — a scale that keeps typical
        # deltas at a few classes without instance peeking.
        if cost_unit is None:
            cost_unit = max(float(self._sizes.mean()), 1e-9) * 0.5
        self.cost_unit = check_unit(cost_unit, "cost_unit")
        self.conservative = conservative
        self._prefs = np.zeros((table.n_flows, table.n_alternatives),
                               dtype=np.int64)
        self._recompute(np.ones(table.n_flows, dtype=bool))

    @property
    def n_flows(self) -> int:
        return self._table.n_flows

    @property
    def n_alternatives(self) -> int:
        return self._table.n_alternatives

    @property
    def defaults(self) -> np.ndarray:
        return self._defaults

    def preferences(self) -> np.ndarray:
        return self._prefs

    def commit(self, flow_index: int, alternative: int) -> None:
        self._tracker.place(flow_index, alternative)

    def reassign(self, remaining: np.ndarray) -> None:
        self._recompute(np.asarray(remaining, dtype=bool))

    def true_delta(self, flow_index: int, alternative: int) -> float:
        default_cost = self._placement_cost_increase(
            flow_index, self._default_list[flow_index]
        )
        alt_cost = self._placement_cost_increase(flow_index, alternative)
        return default_cost - alt_cost

    def _placement_cost_increase(self, flow_index: int, alternative: int) -> float:
        """Marginal Fortz cost of placing the flow on its path links.

        The tracker's scalar kernel accumulates per-link marginal costs in
        path order — the exact summation order of the vectorized kernel.
        """
        return self._tracker.peek_cost_increase(
            flow_index, alternative, self._cap_list, self._piecewise
        )

    def _recompute(self, remaining: np.ndarray) -> None:
        """Refresh classes from the current loads.

        Gathers all remaining rows' path entries, evaluates the piecewise
        marginal cost per entry, and segment-sums per row — three array
        passes instead of F·I Python calls.
        """
        flows = np.flatnonzero(remaining)
        if not flows.size:
            return
        inc = self._tracker.incidence
        positions, row_ptr = inc.flow_entries(flows)
        links = inc.indices[positions]
        loads = self._tracker.loads_view()[links]
        caps = self._capacities[links]
        entry_sizes = self._sizes[inc.entry_flow[positions]]
        delta = (
            self._piecewise_array(loads + entry_sizes, caps)
            - self._piecewise_array(loads, caps)
        )
        scores = segment_sum(delta, row_ptr).reshape(
            flows.size, self.n_alternatives
        )
        defaults = self._defaults[flows]
        rows = np.arange(flows.size)
        default_scores = scores[rows, defaults]
        units = (default_scores[:, np.newaxis] - scores) / self.cost_unit
        if self.conservative:
            units = conservative_round(units)
        prefs = self.range.clamp_array(units)
        prefs[rows, defaults] = 0
        self._prefs[flows] = prefs
