"""Load-dependent evaluators that score one (flow, alternative) at a time.

Both subclass the production evaluators, swap in the ragged-table
:class:`reference.loads.LoadTracker`, and replace the whole-matrix
recompute (the load base's scores and class mapping) with the per-flow
loop it vectorized, rounding with the three-branch
:func:`conservative_round` below. Every other method is inherited, so a
difference can only come from the kernels under test.
"""

from __future__ import annotations

import numpy as np

from repro.core import evaluators

from reference.loads import LoadTracker


def conservative_round(units, atol: float = 1e-9) -> np.ndarray:
    """Floor gains and ceil the magnitude of losses, branch by branch."""
    units = np.asarray(units, dtype=float)
    snapped = np.where(np.abs(units) <= atol, 0.0, units)
    return np.where(snapped >= 0, np.floor(snapped), -np.ceil(-snapped))


class _LoopRecompute:
    def __init__(self, table, side, capacities, defaults, base_loads=None,
                 **kwargs):
        super().__init__(
            table, side, capacities, defaults, base_loads=base_loads, **kwargs
        )
        # Nothing is placed yet, so the reference tracker starts where the
        # production one did; recompute every row against it.
        self._tracker = LoadTracker(table, side, base_loads=base_loads)
        self._recompute(np.ones(table.n_flows, dtype=bool))

    def _recompute(self, remaining) -> None:
        for f in np.flatnonzero(remaining):
            f = int(f)
            scores = np.asarray([
                self._score(f, i) for i in range(self.n_alternatives)
            ])
            units = (scores[self._defaults[f]] - scores) / self._unit
            self._prefs[f] = self.range.clamp_array(conservative_round(units))
            self._prefs[f, self._defaults[f]] = 0


class LoadAwareEvaluator(_LoopRecompute, evaluators.LoadAwareEvaluator):
    def _score(self, flow_index, alternative) -> float:
        return self._tracker.peek_max_ratio(
            flow_index, alternative, self._capacities
        )


class FortzCostEvaluator(_LoopRecompute, evaluators.FortzCostEvaluator):
    def _score(self, flow_index, alternative) -> float:
        return self._placement_cost_increase(flow_index, alternative)
