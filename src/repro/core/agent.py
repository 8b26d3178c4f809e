"""Negotiation agents: the per-ISP protocol participants.

A :class:`NegotiationAgent` owns an :class:`~repro.core.evaluators.Evaluator`
(the ISP's private metric machinery) and implements the per-ISP decisions of
the protocol: what to disclose, when to stop, and whether to accept a
proposal. Deployment-wise this is the "negotiation agent" of Figure 12 that
sits on top of the routing infrastructure.

A session runs the stop rule over an epoch from
:meth:`~NegotiationAgent.gain_flows` and settles the epoch with
:meth:`~NegotiationAgent.commit_epoch`, so an override of a decision sees
``cumulative_gain`` each round but evaluator state as of the epoch's start.
"""

from __future__ import annotations

import numpy as np

from repro.core.evaluators import Evaluator, commit_in_order
from repro.core.strategies import AcceptancePolicy, AlwaysAccept, TerminationMode
from repro.errors import NegotiationError

__all__ = ["NegotiationAgent"]


class NegotiationAgent:
    """One ISP's side of a Nexit session."""

    #: Disclosed and true classes only change on reassignment, so a session
    #: decides an epoch from one read of them. A subclass whose classes vary
    #: round to round sets this False, making every epoch one round long.
    disclosure_changes_only_on_reassign = True

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

    def wants_to_stop(self, remaining: np.ndarray,
                      reassignable: bool = False) -> bool:
        """The "Stop?" step, from this agent's perspective.

        Early termination: stop when no remaining alternative carries a
        positive preference for *this* agent — it "perceives no additional
        gain in continuing". When preferences are ``reassignable``
        (load-dependent), a zero-now alternative can become positive after
        reassignment, so the agent only stops once every remaining
        alternative is strictly negative. Full termination: never stop
        unilaterally (the session stops when joint gain is exhausted).

        A session answers this for the stock agent from a cursor over
        :meth:`gain_flows` and only calls an override of it.
        """
        if self.termination is TerminationMode.FULL:
            return False
        return not self.gain_flows(remaining, reassignable)

    def gain_flows(self, remaining: np.ndarray,
                   reassignable: bool = False) -> list[int]:
        """The remaining flows with a true class of 1 or more (0 or more when
        ``reassignable``): an EARLY agent stops once none is left."""
        floor = 0 if reassignable else 1
        gains = (self.true_preferences() >= floor).any(axis=1)
        return np.flatnonzero(np.asarray(remaining, dtype=bool) & gains).tolist()

    def decide_accept(self, flow_index: int, alternative: int,
                      other_pref: int) -> bool:
        """The "Accept alternative?" step for a proposal from the peer."""
        own_pref = int(self.true_preferences()[flow_index, alternative])
        return self.acceptance.accept(own_pref, other_pref, self.cumulative_gain)

    # -- state updates ---------------------------------------------------------

    def commit(self, flow_index: int, alternative: int, own_pref: int) -> float:
        """Record an accepted alternative; returns this agent's true delta.

        The true delta is evaluated *before* the evaluator registers the
        placement (load-aware metrics are state-dependent). A session does
        not call this: it adds class gains itself and settles each epoch
        through :meth:`commit_epoch`.
        """
        delta = float(self.evaluator.true_delta(flow_index, alternative))
        self.evaluator.commit(flow_index, alternative)
        self.cumulative_gain += int(own_pref)
        self.true_cumulative += delta
        return delta

    def commit_epoch(self, flows: list[int], alternatives: list[int]) -> list[float]:
        """:meth:`commit` for an epoch's flows in order, minus the class gain
        (the session adds it per round); returns the true deltas. Uses the
        evaluator's fused ``commit_epoch`` where it has one."""
        fused = getattr(self.evaluator, "commit_epoch", None)
        deltas = (fused(flows, alternatives) if fused
                  else commit_in_order(self.evaluator, flows, alternatives))
        for delta in deltas:
            self.true_cumulative += delta
        return deltas

    def reassign(self, remaining: np.ndarray) -> None:
        self.evaluator.reassign(remaining)

    def reset(self) -> None:
        """Clear cumulative gains (evaluator state is not reset)."""
        self.cumulative_gain = 0
        self.true_cumulative = 0.0
