"""Negotiation agents: the per-ISP protocol participants.

A :class:`NegotiationAgent` owns an :class:`~repro.core.evaluators.Evaluator`
(the ISP's private metric machinery) and implements the per-ISP decisions of
the protocol: what to disclose, when to stop, and whether to accept a
proposal. Deployment-wise this is the "negotiation agent" of Figure 12 that
sits on top of the routing infrastructure.

A session reads :meth:`~NegotiationAgent.disclosed_preferences` and
:meth:`~NegotiationAgent.gain_flows` once per epoch (the rounds between two
disclosures), asks :meth:`~NegotiationAgent.decide_accept` every round, and
settles each epoch with :meth:`~NegotiationAgent.commit_epoch`. A subclass
may override what it discloses, provided that changes only on
reassignment, and how it accepts; an accept override sees
``cumulative_gain`` each round but evaluator state as of the epoch's start.
"""

from __future__ import annotations

import numpy as np

from repro.core.evaluators import Evaluator
from repro.core.strategies import AcceptancePolicy, AlwaysAccept, TerminationMode
from repro.errors import NegotiationError

__all__ = ["NegotiationAgent"]


class NegotiationAgent:
    """One ISP's side of a Nexit session."""

    def __init__(
        self,
        name: str,
        evaluator: Evaluator,
        termination: TerminationMode = TerminationMode.EARLY,
        acceptance: AcceptancePolicy | None = None,
    ):
        if not name:
            raise NegotiationError("agent name cannot be empty")
        self.name = name
        self.evaluator = evaluator
        self.termination = termination
        self.acceptance = acceptance or AlwaysAccept()
        self.cumulative_gain = 0
        #: Private accounting on the ISP's actual metric (never disclosed).
        self.true_cumulative = 0.0

    # -- disclosure ---------------------------------------------------------

    def disclosed_preferences(self) -> np.ndarray:
        """The preference classes this agent shares with its neighbor.

        A truthful agent discloses its evaluator's output unchanged;
        :class:`~repro.core.cheating.CheatingAgent` overrides this.
        """
        return self.evaluator.preferences()

    def true_preferences(self) -> np.ndarray:
        """The agent's actual preferences (drives stop/accept decisions)."""
        return self.evaluator.preferences()

    @property
    def defaults(self) -> np.ndarray:
        return self.evaluator.defaults

    # -- protocol decisions ---------------------------------------------------

    def gain_flows(self, remaining: np.ndarray,
                   reassignable: bool = False) -> list[int]:
        """The "Stop?" step: the remaining flows with a true class of 1 or
        more, or 0 or more when ``reassignable``.

        Under early termination the agent stops on its turn once none of
        them is left: it "perceives no additional gain in continuing". When
        preferences are ``reassignable`` (load-dependent), a zero-now
        alternative can become positive after reassignment, so the agent
        only stops once every remaining alternative is strictly negative.
        Under full termination it never stops on its own (the session
        stops when joint gain is exhausted).
        """
        floor = 0 if reassignable else 1
        gains = (self.true_preferences() >= floor).any(axis=1)
        return np.flatnonzero(np.asarray(remaining, dtype=bool) & gains).tolist()

    def decide_accept(self, flow_index: int, alternative: int,
                      other_pref: int) -> bool:
        """The "Accept alternative?" step for a proposal from the peer."""
        own_pref = int(self.true_preferences()[flow_index, alternative])
        return self.acceptance.accept(own_pref, other_pref, self.cumulative_gain)

    # -- state updates ---------------------------------------------------------

    def commit_epoch(self, flows: list[int], alternatives: list[int]) -> list[float]:
        """Place an epoch's accepted flows in order and add their true deltas
        to :attr:`true_cumulative`; returns the deltas.

        Each delta is evaluated *before* the evaluator registers that
        flow's placement (load-aware metrics are state-dependent). The
        session adds the class gains itself, round by round.
        """
        deltas = self.evaluator.commit_epoch(flows, alternatives)
        for delta in deltas:
            self.true_cumulative += delta
        return deltas

    def reassign(self, remaining: np.ndarray) -> None:
        self.evaluator.reassign(remaining)

    def reset(self) -> None:
        """Clear cumulative gains (evaluator state is not reset)."""
        self.cumulative_gain = 0
        self.true_cumulative = 0.0
