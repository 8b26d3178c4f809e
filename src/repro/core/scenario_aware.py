"""Failure-aware negotiation preferences (CVaR-blended evaluation).

PR 6 could *score* an agreement against a correlated-failure distribution
after the fact; this module feeds that distribution into the negotiation
itself. :class:`ScenarioAwareEvaluator` derives preference classes from
the blended objective

    ``(1 - tail_weight) * nominal + tail_weight * CVaR_q``

where *nominal* is the load-aware max load-increase ratio of a candidate
placement (exactly :class:`~repro.core.evaluators.LoadAwareEvaluator`'s
score) and *CVaR_q* is the conditional value-at-risk of that score over
the enumerated :class:`~repro.routing.scenarios.FailureModel` scenario
set: under scenario ``s`` a candidate column that survives keeps its
nominal score, and a candidate that fails is scored at the **worst
surviving** alternative, floored at its own nominal score — a
conservative re-route bound. (Re-routing after a correlated failure is
contended — every flow on the failed columns moves at once — so the
best-refuge score a lone flow would see is systematically optimistic;
scoring it would even make failure *reduce* a risky column's tail, since
a greedy refuge is by construction no worse than any survivor. The
pessimistic bound is the preference-side counterpart of
``conservative_round``: never promise a gain the tail cannot deliver.)

The whole (scenario, flow, alternative) value stack comes from **one**
nominal max-ratio block — the load-aware evaluator's live-gather block on
a disclosure, a one-flow :meth:`~repro.capacity.loads.LoadTracker.peek_max_ratio_block`
in :meth:`ScenarioAwareEvaluator.true_delta` — valid because a derived
table's ratio entries are bit-identical to the parent's restricted to its
surviving columns (the derive contract), so masking the parent's block
*is* deriving. The equivalence tests pin it against a reference that
materializes each scenario's post-failure table and scores it with its own
tracker.

Degenerate mass: scenarios that sever *every* column have a
candidate-independent (infinite) value, so they cannot reorder
preferences; their probability joins the enumeration's uncovered mass and
is scored at the worst enumerated per-candidate value — the availability
experiment's documented lower-bound convention. ``tail_weight=0`` is a
strict short-circuit: the evaluator is then bit-identical to a plain
:class:`~repro.core.evaluators.LoadAwareEvaluator`.

:func:`scenario_placement_mels` is the assessment-side companion: the
per-scenario own-network MELs of a *fixed* placement under the same
greedy re-route rule, used by the coordinator's (nominal, CVaR) Pareto
gate and the robustness experiment's reporting.
"""

from __future__ import annotations

import math

import numpy as np

from repro.capacity.loads import LoadTracker, link_loads
from repro.core.evaluators import LoadAwareEvaluator
from repro.core.preferences import PreferenceRange
from repro.errors import ConfigurationError
from repro.metrics.mel import max_excess_load
from repro.metrics.tail import cvar_matrix
from repro.routing.costs import PairCostTable
from repro.routing.scenarios import (
    FailureModel,
    FailureScenarioSet,
    enumerate_failure_scenarios,
)
from repro.util.validation import check_probability, check_quantile

__all__ = [
    "ScenarioAwareEvaluator",
    "scenario_placement_mels",
]


class ScenarioAwareEvaluator(LoadAwareEvaluator):
    """Load-aware preferences blended with failure-scenario CVaR.

    A drop-in :class:`~repro.core.evaluators.LoadAwareEvaluator` whose
    internal score of a (flow, alternative) is the blended objective
    described in the module docstring. ``tail_weight`` selects the blend
    (0 = pure nominal, bit-identical to the parent class; 1 = pure CVaR)
    and ``tail_quantile`` the CVaR quantile ``q``.

    It inherits the parent's tracker, capacities, class mapping and
    disclosure path, and overrides only :meth:`_score_block`: each
    disclosure blends the nominal block scored from the live gather
    (re-gathered when the remaining flows fall below half of it).
    :meth:`true_delta` scores one flow per commit, so it gathers that flow
    alone instead of scoring the live set. The parent's fused
    ``commit_epoch`` takes nominal deltas, so this class settles its
    epochs in order, one blended ``true_delta`` and one ``commit`` per
    flow.
    """

    def __init__(
        self,
        table: PairCostTable,
        side: str,
        capacities: np.ndarray,
        defaults: np.ndarray,
        model: FailureModel,
        tail_weight: float = 0.5,
        tail_quantile: float = 0.95,
        base_loads: np.ndarray | None = None,
        range_: PreferenceRange | None = None,
        ratio_unit: float = 0.1,
    ):
        self.model = model
        self.tail_weight = check_probability(tail_weight, "tail_weight")
        self.tail_quantile = check_quantile(tail_quantile, "tail_quantile")
        n_alternatives = table.n_alternatives
        scenario_set = enumerate_failure_scenarios(n_alternatives, model)
        routable = tuple(
            s for s in scenario_set.scenarios
            if not s.severs_all(n_alternatives)
        )
        if not routable:
            raise ConfigurationError(
                "the failure model's cutoff excludes every routable "
                "scenario; raise cutoff coverage or lower probabilities"
            )
        self.scenario_set = scenario_set
        self._scn_probs = np.array(
            [s.probability for s in routable], dtype=float
        )
        # Severed + below-cutoff mass, scored at the worst enumerated
        # per-candidate value (documented lower bound).
        self._residual = max(0.0, 1.0 - float(self._scn_probs.sum()))
        masks = np.zeros((len(routable), n_alternatives), dtype=bool)
        for si, s in enumerate(routable):
            if s.failed:
                masks[si, list(s.failed)] = True
        self._failed_masks = masks
        self._any_failure = bool(masks.any()) or self._residual > 0.0
        # The parent __init__ runs the first _recompute, which reads the
        # scenario state above — it must already be in place.
        super().__init__(
            table, side, capacities, defaults,
            base_loads=base_loads, range_=range_, ratio_unit=ratio_unit,
        )

    # -- scoring ----------------------------------------------------------

    def _score_block(self, flows: np.ndarray, sel: np.ndarray) -> np.ndarray:
        """Blended (K, I) scores from the nominal block ``sel``:
        (1-λ)·nominal + λ·CVaR_q."""
        if self.tail_weight == 0.0 or not self._any_failure:
            # Strict short-circuit: bit-identical to LoadAwareEvaluator.
            return sel
        stack = self._scenario_stack(flows, sel)
        cvar = self._cvar_from_stack(stack)
        if self.tail_weight == 1.0:
            return cvar
        return (1.0 - self.tail_weight) * sel + self.tail_weight * cvar

    def _scenario_stack(
        self, flows: np.ndarray, sel: np.ndarray
    ) -> np.ndarray:
        """The (S, K, I) per-scenario score stack for a flow block.

        Under scenario ``s`` a surviving column keeps its nominal score;
        a failed column is scored at the worst surviving alternative,
        floored at its own nominal score (the conservative contended
        re-route bound — see the module docstring).
        """
        masks = self._failed_masks[:, np.newaxis, :]  # (S, 1, I)
        spread = np.broadcast_to(
            sel, (self._failed_masks.shape[0],) + sel.shape
        )
        worst = np.where(masks, -np.inf, spread).max(axis=2)
        return np.where(
            masks, np.maximum(worst[:, :, np.newaxis], spread), spread
        )

    def _cvar_from_stack(self, stack: np.ndarray) -> np.ndarray:
        probs = self._scn_probs
        if self._residual > 0.0:
            worst = stack.max(axis=0)
            stack = np.concatenate([stack, worst[np.newaxis]], axis=0)
            probs = np.append(probs, self._residual)
        return cvar_matrix(stack, probs, self.tail_quantile)

    def _true_delta(self, flow_index: int, alternative: int) -> float:
        """Blended-objective improvement over the default placement.

        Scores the one flow from its own one-flow gather: a commit needs a
        single row, not a pass over the live set.
        """
        flows = np.asarray([flow_index], dtype=np.intp)
        nominal = self._tracker.peek_max_ratio_block(flows, self._capacities)
        row = self._score_block(flows, nominal)[0]
        return float(
            row[self._defaults[flow_index]] - row[alternative]
        )

    # The parent's fused form settles on nominal deltas.
    _commit_epoch = LoadAwareEvaluator._commit_in_order


def scenario_placement_mels(
    table: PairCostTable,
    choices: np.ndarray,
    side: str,
    capacities: np.ndarray,
    scenario_set: FailureScenarioSet,
    base: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-scenario own-network MELs of a fixed placement.

    Under each scenario, flows placed on failed columns are re-routed —
    each independently — to the surviving column minimizing its max
    load-increase ratio against the *unaffected* flows' loads (plus
    ``base``), the same greedy fallback the scenario-aware evaluator
    scores. Severs-all scenarios yield ``inf``. Returns ``(probs, mels)``
    aligned with ``scenario_set.scenarios``; pair with
    ``scenario_set.coverage`` for the tail metrics.
    """
    choices = np.asarray(choices)
    n_alt = table.n_alternatives
    if scenario_set.n_alternatives != n_alt:
        raise ConfigurationError(
            f"scenario set enumerates {scenario_set.n_alternatives} "
            f"columns but the table has {n_alt}"
        )
    probs = np.empty(len(scenario_set.scenarios))
    mels = np.empty(len(scenario_set.scenarios))
    for si, scenario in enumerate(scenario_set.scenarios):
        probs[si] = scenario.probability
        if scenario.severs_all(n_alt):
            mels[si] = math.inf
            continue
        if not scenario.failed:
            loads = link_loads(table, choices, side, base=base)
            mels[si] = max_excess_load(loads, capacities)
            continue
        failed = np.asarray(scenario.failed)
        affected = np.isin(choices, failed)
        rest = link_loads(
            table, choices, side, active=~affected, base=base
        )
        affected_idx = np.flatnonzero(affected)
        if affected_idx.size == 0:
            mels[si] = max_excess_load(rest, capacities)
            continue
        tracker = LoadTracker(table, side, base_loads=rest)
        block = tracker.peek_max_ratio_block(affected_idx, capacities)
        mask = np.zeros(n_alt, dtype=bool)
        mask[failed] = True
        rerouted = np.where(mask[np.newaxis, :], np.inf, block).argmin(axis=1)
        full = choices.copy()
        full[affected_idx] = rerouted
        loads = link_loads(table, full, side, active=affected, base=rest)
        mels[si] = max_excess_load(loads, capacities)
    return probs, mels
