"""Scenario-aware scoring over one materialized table per scenario."""

from __future__ import annotations

import numpy as np

from repro.capacity.loads import LoadTracker
from repro.core import scenario_aware


class ScenarioAwareEvaluator(scenario_aware.ScenarioAwareEvaluator):
    """Scores each failure scenario on its own derived post-failure table.

    For every routable scenario the post-failure table is materialized
    with ``without_alternatives`` and scored by a fresh tracker seeded
    with the live loads; a failed column takes the worst surviving score,
    floored at its own nominal score.
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
                base_loads=self._tracker.loads_view().copy(),
            )
            block = tracker.peek_max_ratio_block(flows, self._capacities)
            keep = np.setdiff1d(np.arange(n_alt), np.asarray(scenario.failed))
            worst = block.max(axis=1)
            stack[si] = np.maximum(sel, worst[:, np.newaxis])
            stack[si][:, keep] = block
        return stack
