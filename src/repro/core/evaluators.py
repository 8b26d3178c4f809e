"""ISP-internal evaluation of routing choices (Nexit step 1).

An :class:`Evaluator` is one ISP's private machinery: it knows the ISP's
internal optimization criterion and produces the opaque preference classes
the protocol discloses. The session never sees the underlying metric.

Four concrete evaluators share two private bases, so each states only its
own metric. ``_Evaluator`` holds what every evaluator has: the (F, I)
class matrix, the defaults (checked once, at construction: an integer
array of one alternative index per flow, else :class:`PreferenceError`),
a no-op ``reassign``, and ``true_delta``, ``commit`` and ``commit_epoch``,
which refuse a cell outside the (F, I) table before they run a subclass's
``_true_delta``, ``_commit`` and ``_commit_epoch``. Two evaluators build
on it directly:

* :class:`StaticPreferenceEvaluator` — preferences given directly (worked
  examples, tests, and the Figure 3 trace);
* :class:`StaticCostEvaluator` — per-flow costs independent of other flows
  (the distance metric: "mapping per-flow objectives ... is straightforward
  as the preferences for different alternatives are independent").

``_LoadEvaluator`` adds what the load-dependent metrics share: a
:class:`~repro.capacity.loads.LoadTracker` seeded with background traffic,
which ``commit`` places flows into, capacities checked once at
construction (:func:`~repro.capacity.loads.validate_capacities`) and kept
fixed, and the one class mapping each reassignment runs over the
remaining flows' scores. Preferences "are based on constraints such as
available bandwidth that may change after some flows have been
negotiated", so they are recomputed on reassignment. Each subclass
supplies its score and its unit:

* :class:`LoadAwareEvaluator` — the maximum load-increase ratio along the
  path (the bandwidth metric);
* :class:`FortzCostEvaluator` — the increase in the Fortz-Thorup network
  cost (the paper's alternate bandwidth metric).

Their scores are a handful of array expressions over one
:class:`~repro.capacity.loads.RowGather` of the side's per-PoP path CSR,
read through each flow's endpoint row (gather, per-entry score, per-row
reduction) — no Python-level per-(flow, alternative) calls — while
``true_delta`` and ``commit`` run the tracker's scalar list kernels. The
equivalence tests pin them bit for bit against per-(flow, alternative)
reference loops.

A session settles each epoch through one ``commit_epoch`` call per side:
the epoch's accepted flows placed in order, each with its true delta taken
just before its placement. The base checks the epoch's lists once and
settles them in order (``_commit_in_order``: one ``_true_delta`` and one
``_commit`` per flow); :class:`StaticCostEvaluator` and
:class:`LoadAwareEvaluator` fuse it (one gather, one tracker loop).
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.capacity.loads import LoadTracker, RowGather, validate_capacities
from repro.core.mapping import (
    PreferenceMapper,
    check_defaults,
    check_unit,
    conservative_round,
    map_cost_matrix,
)
from repro.core.preferences import PreferenceRange
from repro.errors import PreferenceError
from repro.routing.costs import PairCostTable

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

    def reassign(self, remaining: np.ndarray) -> None:
        """Recompute preferences for the flows still on the table."""
        ...

    def commit_epoch(self, flows: list[int], alternatives: list[int]) -> list[float]:
        """Record that each flow was negotiated to its alternative, in order,
        and return each one's true delta: this ISP's *actual* metric
        improvement from the move (positive = better than default), taken
        just before that flow's placement. The deltas serve only the ISP's
        private accounting (win-win rollback); they are never disclosed.
        A flow outside 0..F-1, an alternative outside 0..I-1 or lists of
        unequal length raise :class:`PreferenceError`.
        """
        ...


class _Evaluator:
    """The state every evaluator holds: the (F, I) class matrix (zeros
    until a subclass discloses) and the defaults, checked by
    :func:`~repro.core.mapping.check_defaults` (an integer array of shape
    (F,) with entries in 0..I-1, else :class:`PreferenceError`).

    ``true_delta``, ``commit`` and ``commit_epoch`` refuse a flow outside
    0..F-1, an alternative outside 0..I-1 and lists of unequal length
    with :class:`PreferenceError` (``commit_epoch`` checks its lists once
    per call), then run the subclass's ``_true_delta``, ``_commit`` and
    ``_commit_epoch``. ``_commit`` and ``reassign`` are no-ops here, and
    ``_commit_epoch`` is :meth:`_commit_in_order`.
    """

    def __init__(
        self, shape: tuple[int, ...], defaults: np.ndarray, range_: PreferenceRange
    ):
        if len(shape) != 2:
            raise PreferenceError(
                f"preference matrix must be 2-D, got shape {shape}"
            )
        self.range = range_
        self._defaults = check_defaults(defaults, *shape)
        self._prefs = np.zeros(shape, dtype=np.int64)

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

    def true_delta(self, flow_index: int, alternative: int) -> float:
        """This ISP's true metric improvement from moving the flow off its
        default to ``alternative`` (positive = better), in the current
        state."""
        self._check_cell(flow_index, alternative)
        return self._true_delta(flow_index, alternative)

    def commit(self, flow_index: int, alternative: int) -> None:
        """Record that the flow was negotiated to ``alternative``."""
        self._check_cell(flow_index, alternative)
        self._commit(flow_index, alternative)

    def commit_epoch(self, flows: list[int], alternatives: list[int]) -> list[float]:
        """See :meth:`Evaluator.commit_epoch`."""
        if len(flows) != len(alternatives):
            raise PreferenceError(
                f"commit_epoch got {len(flows)} flows and "
                f"{len(alternatives)} alternatives"
            )
        if len(flows):
            self._check_cell(min(flows), min(alternatives))
            self._check_cell(max(flows), max(alternatives))
        return self._commit_epoch(flows, alternatives)

    def reassign(self, remaining: np.ndarray) -> None:
        del remaining

    def _check_cell(self, flow_index: int, alternative: int) -> None:
        n_flows, n_alternatives = self._prefs.shape
        if not (0 <= flow_index < n_flows and 0 <= alternative < n_alternatives):
            raise PreferenceError(
                f"flows must lie in 0..{n_flows - 1} and alternatives in "
                f"0..{n_alternatives - 1}, got flow {flow_index} and "
                f"alternative {alternative}"
            )

    def _commit(self, flow_index: int, alternative: int) -> None:
        del flow_index, alternative

    def _commit_in_order(self, flows, alternatives) -> list[float]:
        """``commit_epoch`` as one ``_true_delta`` then one ``_commit`` per
        flow, in order; returns the deltas."""
        deltas = []
        for flow_index, alternative in zip(flows, alternatives):
            deltas.append(float(self._true_delta(flow_index, alternative)))
            self._commit(flow_index, alternative)
        return deltas

    _commit_epoch = _commit_in_order


class StaticPreferenceEvaluator(_Evaluator):
    """Preferences supplied directly as class matrices.

    ``stages`` optionally provides successive matrices consumed one per
    reassignment — exactly what the Figure 3 worked example needs (initial
    list, then the post-reassignment list). The classes and every stage
    must be integers inside the range, checked before they are cast.
    """

    def __init__(
        self,
        prefs: np.ndarray,
        defaults: np.ndarray,
        range_: PreferenceRange | None = None,
        stages: list[np.ndarray] | None = None,
    ):
        range_ = range_ or PreferenceRange()
        prefs = range_.validate_array(prefs)
        super().__init__(prefs.shape, defaults, range_)
        self._prefs = prefs.astype(np.int64, copy=False)
        self._stages = [
            range_.validate_array(s).astype(np.int64, copy=False)
            for s in stages or []
        ]
        if any(stage.shape != prefs.shape for stage in self._stages):
            raise PreferenceError("stage matrices must match initial shape")

    def reassign(self, remaining: np.ndarray) -> None:
        del remaining
        if self._stages:
            self._prefs = self._stages.pop(0)

    def _true_delta(self, flow_index: int, alternative: int) -> float:
        # No underlying metric: the classes are the ground truth.
        return float(self._prefs[flow_index, alternative])


class StaticCostEvaluator(_Evaluator):
    """Per-flow costs mapped to classes once (load-independent metrics)."""

    def __init__(
        self,
        costs: np.ndarray,
        defaults: np.ndarray,
        mapper: PreferenceMapper,
    ):
        self._costs = np.asarray(costs, dtype=float)
        super().__init__(self._costs.shape, defaults, mapper.range)
        self._prefs = map_cost_matrix(self._costs, self._defaults, mapper)

    def _true_delta(self, flow_index: int, alternative: int) -> float:
        default = self._defaults[flow_index]
        return float(
            self._costs[flow_index, default] - self._costs[flow_index, alternative]
        )

    def _commit_epoch(self, flows: list[int], alternatives: list[int]) -> list[float]:
        """``_commit_in_order`` as one gather (commits are no-ops)."""
        flows = np.asarray(flows, dtype=np.intp)
        costs = self._costs
        deltas = costs[flows, self._defaults[flows]] - costs[flows, alternatives]
        return deltas.tolist()


class _LoadEvaluator(_Evaluator):
    """What the tracker-backed load metrics share.

    It holds the table, the side, the checked capacities (a list copy
    feeds the tracker's scalar kernels), the defaults as a list and a
    :class:`LoadTracker` seeded with ``base_loads``. ``_commit`` places a
    flow in the tracker, but disclosed classes change only when
    :meth:`reassign` runs — Nexit reassigns "after negotiating each 5% of
    the traffic".

    A subclass passes its ``unit`` (the score difference per class) and
    supplies ``_scores(flows)``: the (K, I) internal scores of ``flows``
    (ascending) against the current loads, lower being better. The first
    disclosure runs at construction, so a subclass sets the state its
    ``_scores`` reads before it calls this ``__init__``.
    """

    def __init__(
        self,
        table: PairCostTable,
        side: str,
        capacities: np.ndarray,
        defaults: np.ndarray,
        base_loads: np.ndarray | None,
        range_: PreferenceRange | None,
        unit: float,
    ):
        capacities = validate_capacities(table, side, capacities)
        super().__init__(
            (table.n_flows, table.n_alternatives), defaults,
            range_ or PreferenceRange(),
        )
        self._table = table
        self._side = side
        self._unit = unit
        self._capacities = capacities
        self._cap_list = capacities.tolist()
        self._default_list = self._defaults.tolist()
        self._tracker = LoadTracker(table, side, base_loads=base_loads)
        self._recompute(np.ones(table.n_flows, dtype=bool))

    def _commit(self, flow_index: int, alternative: int) -> None:
        self._tracker.place(flow_index, alternative)

    def reassign(self, remaining: np.ndarray) -> None:
        self._recompute(np.asarray(remaining, dtype=bool))

    def _recompute(self, remaining: np.ndarray) -> None:
        """Refresh the remaining flows' classes from the current loads.

        The one class mapping: each alternative's improvement on the
        default's score at ``unit`` per class, rounded conservatively
        (gains floored, losses ceiled, so a class never promises more than
        the metric delivers) and clamped to the range. The default is 0 by
        construction and is set so against fp noise.
        """
        flows = np.flatnonzero(remaining)
        if not flows.size:
            return
        scores = self._scores(flows)
        defaults = self._defaults[flows]
        rows = np.arange(flows.size)
        default_scores = scores[rows, defaults]
        units = (default_scores[:, np.newaxis] - scores) / self._unit
        prefs = self.range.clamp_array(conservative_round(units))
        prefs[rows, defaults] = 0
        self._prefs[flows] = prefs


class LoadAwareEvaluator(_LoadEvaluator):
    """Bandwidth preferences: max load-increase ratio along the path.

    For a remaining flow ``f`` and alternative ``i``, the internal score is
    the maximum of ``(load + size_f) / capacity`` over the links of the
    (f, i) path inside this ISP's network — "both ISPs using the maximum
    increase in link load along the path to map flows to preferences"
    (Section 5.2). The class is the default-relative improvement in that
    ratio, at ``ratio_unit`` per class. The tracker keeps its state in
    Python lists, so :meth:`true_delta` and :meth:`commit` cost a float
    loop over one path each.

    Each disclosure scores a *live* flow set from one
    :class:`~repro.capacity.loads.RowGather` (link ids, entry sizes, entry
    capacities, entry rows, row starts) taken when that set was chosen: the
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
    ):
        #: The live gather and each flow's row in it (-1 outside it).
        self._live: RowGather | None = None
        self._live_rows = np.full(table.n_flows, -1, dtype=np.intp)
        super().__init__(
            table, side, capacities, defaults, base_loads, range_,
            check_unit(ratio_unit, "ratio_unit"),
        )

    def _true_delta(self, flow_index: int, alternative: int) -> float:
        """Improvement in this ISP's max load-increase ratio for the flow,
        evaluated against the *current* network state (call before
        :meth:`commit` places the flow)."""
        peek = self._tracker.peek_max_ratio
        return peek(
            flow_index, self._default_list[flow_index], self._cap_list
        ) - peek(flow_index, alternative, self._cap_list)

    def _commit_epoch(self, flows: list[int], alternatives: list[int]) -> list[float]:
        """``_commit_in_order`` as one tracker loop."""
        return self._tracker.place_epoch(
            flows, alternatives, self._default_list, self._cap_list
        )

    def _scores(self, flows: np.ndarray) -> np.ndarray:
        """The nominal max-ratio block from the live gather
        (:meth:`_nominal_block`), turned into the internal score by
        :meth:`_score_block`, which subclasses override to substitute
        their own score while inheriting the gather unchanged."""
        return self._score_block(flows, self._nominal_block(flows))

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


class FortzCostEvaluator(_LoadEvaluator):
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
    ):
        from repro.metrics.fortz import (
            piecewise_link_cost,
            piecewise_link_cost_array,
        )

        self._piecewise = piecewise_link_cost
        self._piecewise_array = piecewise_link_cost_array
        # Default unit: half the cost of one mean-size flow crossing one
        # low-utilization (slope-1) link — a scale that keeps typical
        # deltas at a few classes without instance peeking. With no flows
        # no class is ever computed, so any positive unit serves.
        if cost_unit is None:
            sizes = table.flowset.sizes()
            mean = float(sizes.mean()) if sizes.size else 1.0
            cost_unit = max(mean, 1e-9) * 0.5
        super().__init__(
            table, side, capacities, defaults, base_loads, range_,
            check_unit(cost_unit, "cost_unit"),
        )

    def _true_delta(self, flow_index: int, alternative: int) -> float:
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

    def _scores(self, flows: np.ndarray) -> np.ndarray:
        """Marginal Fortz costs of ``flows``' alternatives, (K, I).

        Gathers the rows' path entries (the tracker's
        :class:`~repro.capacity.loads.RowGather`), evaluates the piecewise
        marginal cost per entry, and sums each row's entries with one
        ``bincount`` over the entry rows, in path order — three array
        passes instead of K·I Python calls.
        """
        gather = self._tracker.gather(flows, self._capacities)
        loads = self._tracker.loads[gather.links]
        delta = (
            self._piecewise_array(loads + gather.sizes, gather.capacities)
            - self._piecewise_array(loads, gather.capacities)
        )
        sums = np.bincount(gather.rows, weights=delta, minlength=gather.start.size)
        return sums.reshape(flows.size, self.n_alternatives)
