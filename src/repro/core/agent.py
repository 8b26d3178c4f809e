"""Negotiation agents: the per-ISP protocol participants.

A :class:`NegotiationAgent` owns an :class:`~repro.core.evaluators.Evaluator`
(the ISP's private metric machinery) and implements the per-ISP decisions of
the protocol: what to disclose, when to stop, and whether to accept a
proposal. Deployment-wise this is the "negotiation agent" of Figure 12 that
sits on top of the routing infrastructure.
"""

from __future__ import annotations

import numpy as np

from repro.core.evaluators import Evaluator
from repro.core.strategies import AcceptancePolicy, AlwaysAccept, TerminationMode
from repro.errors import NegotiationError

__all__ = ["NegotiationAgent"]


class NegotiationAgent:
    """One ISP's side of a Nexit session."""

    #: Disclosed preferences are stable between reassignments, so the
    #: session may cache structures derived from them across rounds (the
    #: presorted proposal scoreboard). Subclasses whose
    #: ``disclosed_preferences`` varies round-to-round for other reasons
    #: must set this to False to keep the session on the rescanning path.
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
        #: The remaining-rows preference maximum is kept incrementally:
        #: [flows by descending row max (array and list), their row maxima,
        #: cursor] — rebuilt on reassignment (see :meth:`wants_to_stop`).
        self._stop_cache: list | None = None
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

        The remaining-rows maximum is answered from one descending sort of
        the per-flow row maxima, built once per disclosure, plus a cursor
        that advances past flows no longer in ``remaining`` — amortized
        O(1) per round instead of an O(F·I) masked rescan. If a flow the
        cursor already skipped is back in the mask (the mask is not a
        subset of the earlier ones), the cursor rewinds to the start, so
        arbitrary callers still get exact answers.
        """
        if self.termination is TerminationMode.FULL:
            return False
        remaining = np.asarray(remaining, dtype=bool)
        cache = self._stop_cache
        if cache is None or cache[0].shape != remaining.shape:
            prefs = self.true_preferences()
            if prefs.shape[1] == 0:
                return True
            row_max = prefs.max(axis=1)
            order = np.argsort(-row_max, kind="stable")
            cache = [order, order.tolist(), row_max[order].tolist(), 0]
            self._stop_cache = cache
        order, flows, maxima, k = cache
        if k and np.count_nonzero(remaining[order[:k]]):
            k = 0
        n = len(flows)
        while k < n and not remaining[flows[k]]:
            k += 1
        cache[3] = k
        return k == n or maxima[k] < (0 if reassignable else 1)

    def decide_accept(self, flow_index: int, alternative: int,
                      other_pref: int) -> bool:
        """The "Accept alternative?" step for a proposal from the peer."""
        own_pref = int(self.true_preferences()[flow_index, alternative])
        return self.acceptance.accept(own_pref, other_pref, self.cumulative_gain)

    # -- state updates ---------------------------------------------------------

    def commit(self, flow_index: int, alternative: int, own_pref: int) -> float:
        """Record an accepted alternative; returns this agent's true delta.

        The true delta is evaluated *before* the evaluator registers the
        placement (load-aware metrics are state-dependent).
        """
        delta = float(self.evaluator.true_delta(flow_index, alternative))
        self.evaluator.commit(flow_index, alternative)
        self.cumulative_gain += int(own_pref)
        self.true_cumulative += delta
        return delta

    def reassign(self, remaining: np.ndarray) -> None:
        self.evaluator.reassign(remaining)
        # Preferences (and hence row maxima) changed; rebuild lazily.
        self._stop_cache = None

    def reset(self) -> None:
        """Clear cumulative gains (evaluator state is not reset)."""
        self.cumulative_gain = 0
        self.true_cumulative = 0.0
