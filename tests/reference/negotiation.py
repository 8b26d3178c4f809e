"""The session's rescanning paths: masked-rescan stop, rescanned proposals,
and the min-and-remove win-win rollback."""

from __future__ import annotations

import numpy as np

from repro.core.agent import NegotiationAgent
from repro.core.session import NegotiationSession
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

    The session keeps its presorted scoreboard only for exactly
    :class:`MaxCombinedProposals`, so this subclass runs the same rule
    through the loop that rescans the (F, I) matrix every round.
    """


def rollback_victims(accepted, gains, floors):
    """The win-win rollback as a min-and-remove loop over the accepted list.

    Same contract as :func:`repro.core.session.rollback_victims`: returns
    the victims in removal order and the gains after removing them.
    O(A²) for A accepted rounds.
    """
    accepted_order = list(accepted)
    gain_a, gain_b, true_a, true_b = gains
    rolled_back = []
    tol = 1e-9
    floor_a, floor_b = floors
    guard_true_a = floor_a == 0.0
    guard_true_b = floor_b == 0.0
    while accepted_order:
        if gain_a < floor_a:
            victim = min(accepted_order, key=lambda r: r.pref_a)
        elif gain_b < floor_b:
            victim = min(accepted_order, key=lambda r: r.pref_b)
        elif guard_true_a and true_a < -tol:
            victim = min(accepted_order, key=lambda r: r.true_a)
        elif guard_true_b and true_b < -tol:
            victim = min(accepted_order, key=lambda r: r.true_b)
        else:
            break
        accepted_order.remove(victim)
        gain_a -= victim.pref_a
        gain_b -= victim.pref_b
        true_a -= victim.true_a
        true_b -= victim.true_b
        rolled_back.append(victim)
    return rolled_back, (gain_a, gain_b, true_a, true_b)


class ReferenceRollbackSession(NegotiationSession):
    """A session whose win-win rollback is the min-and-remove loop."""

    _rollback_victims = staticmethod(rollback_victims)


def outcome_signature(outcome):
    """Everything a session outcome decides, as plain comparable values."""
    return (
        outcome.choices.tolist(),
        outcome.negotiated.tolist(),
        outcome.gain_a,
        outcome.gain_b,
        outcome.true_gain_a,
        outcome.true_gain_b,
        [
            (r.round_index, r.proposer, r.flow_index, r.alternative,
             r.pref_a, r.pref_b, r.accepted, r.true_a, r.true_b)
            for r in outcome.rounds
        ],
        outcome.rolled_back,
        outcome.reason,
        outcome.reassignments,
    )
