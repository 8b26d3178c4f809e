"""The session's rescanning paths: masked-rescan stop, rescanned proposals."""

from __future__ import annotations

import numpy as np

from repro.core.agent import NegotiationAgent
from repro.core.strategies import MaxCombinedProposals, TerminationMode


class ScanningAgent(NegotiationAgent):
    """An agent whose stop rule rescans the masked preference matrix."""

    def wants_to_stop(self, remaining, reassignable=False) -> bool:
        if self.termination is TerminationMode.FULL:
            return False
        masked = self.true_preferences()[np.asarray(remaining, dtype=bool)]
        if not masked.size:
            return True
        return int(masked.max()) < (0 if reassignable else 1)


class RescanningProposals(MaxCombinedProposals):
    """The stock proposal rule under another type.

    The session keeps its incremental scoreboard only for exactly
    :class:`MaxCombinedProposals`, so this subclass runs the same rule
    through the loop that rescans the (F, I) matrix every round.
    """
