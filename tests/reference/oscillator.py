"""The shared synthetic two-cycle of the multi-ISP coordinator."""

from __future__ import annotations

import numpy as np

from repro.core.multi_session import MultiSessionCoordinator
from repro.core.outcomes import TerminationReason


class FlipCoordinator(MultiSessionCoordinator):
    """A coordinator whose sessions flip every flow between alternatives
    0 and 1.

    Every scope is every flow and both endpoint MELs read 0.0. The flip
    is an involution, so an undamped run enters the canonical two-cycle
    immediately; the flat MELs let the plain Pareto gate always adopt
    while any armed hysteresis margin always rejects.
    """

    def _run_session(self, edge_index, scope, base_a, base_b,
                     max_session_rounds=None, choices=None):
        if choices is None:
            choices = self._states[edge_index].choices
        flipped = np.where(choices[scope] == 0, 1, 0).astype(np.intp)
        return flipped, TerminationReason.NO_JOINT_GAIN

    def _edge_mels(self, edge_index, choices, base_a, base_b):
        return 0.0, 0.0

    def _scope(self, edge_index, base_a, base_b):
        return np.arange(
            self._states[edge_index].table.n_flows, dtype=np.intp
        )
