"""Scenario-aware scoring from loop-scored nominal blocks.

:class:`LoopNominalEvaluator` replaces only the nominal max-ratio path
(the production tracker and its live gather) with per-(flow, alternative)
loops; :class:`ScenarioAwareEvaluator` also scores every failure scenario
on its own materialized post-failure table.
"""

from __future__ import annotations

import numpy as np

from repro.capacity.loads import LoadTracker
from repro.core import scenario_aware

from reference import loads as reference_loads


class LoopNominalEvaluator(scenario_aware.ScenarioAwareEvaluator):
    """The production evaluator with a loop-scored nominal block.

    The ragged-table :class:`reference.loads.LoadTracker` replaces the
    production tracker, so the nominal block (every disclosure's and
    ``true_delta``'s) is scored one (flow, alternative) at a time; the
    scenario stack and the class mapping are inherited.
    """

    def __init__(self, table, side, capacities, defaults, model,
                 base_loads=None, **kwargs):
        super().__init__(
            table, side, capacities, defaults, model,
            base_loads=base_loads, **kwargs,
        )
        # Nothing is placed yet, so the loop tracker starts where the
        # production one did; recompute every row against it.
        self._tracker = reference_loads.LoadTracker(
            table, side, base_loads=base_loads
        )
        self._recompute(np.ones(table.n_flows, dtype=bool))

    def _nominal_block(self, flows) -> np.ndarray:
        return self._tracker.peek_max_ratio_block(flows, self._capacities)


class ScenarioAwareEvaluator(LoopNominalEvaluator):
    """Scores each failure scenario on its own derived post-failure table.

    For every routable scenario the post-failure table is materialized
    with ``without_alternatives`` and scored by a fresh tracker seeded
    with the current loads; a failed column takes the worst surviving
    score, floored at its own nominal score.
    """

    def _scenario_stack(self, flows, sel) -> np.ndarray:
        n_alt = self.n_alternatives
        routable = [
            s for s in self.scenario_set.scenarios if not s.severs_all(n_alt)
        ]
        stack = np.empty((len(routable), flows.size, n_alt))
        for si, scenario in enumerate(routable):
            if not scenario.failed:
                stack[si] = sel
                continue
            tracker = LoadTracker(
                self._table.without_alternatives(scenario.failed),
                self._side,
                base_loads=self._tracker.loads,
            )
            block = tracker.peek_max_ratio_block(flows, self._capacities)
            keep = np.setdiff1d(np.arange(n_alt), np.asarray(scenario.failed))
            worst = block.max(axis=1)
            stack[si] = np.maximum(sel, worst[:, np.newaxis])
            stack[si][:, keep] = block
        return stack
