"""Credits: decoupling compromises in time (Section 3, future work).

"For systems where simultaneous, mutual compromises are hard to find,
compromises can be decoupled in time using 'credits', a topic we leave for
future work."

The mechanism implemented here: a :class:`CreditLedger` tracks each ISP's
running balance (in preference classes) across successive negotiation
sessions. Within one session, an ISP accepts ending below its default by at
most its *available credit* (``credit_limit + balance``); the shortfall is
recorded as debt and repaid when later sessions favor it. Over any horizon
every balance stays above ``-credit_limit``, so the long-run no-loss
guarantee is preserved while one-sided sessions — where the strict
per-session win-win rule would forfeit all gains — become tradeable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.agent import NegotiationAgent
from repro.core.outcomes import NegotiationOutcome
from repro.core.session import NegotiationSession, SessionConfig
from repro.core.strategies import TerminationMode
from repro.errors import NegotiationError

__all__ = ["CreditLedger", "CreditSessionRunner"]


@dataclass
class CreditLedger:
    """Class-denominated credit balances between two ISPs.

    Attributes:
        credit_limit: the maximum debt either side will extend. 0 recovers
            the strict per-session win-win rule.
        balance_a / balance_b: cumulative class gains across settled
            sessions (negative = in debt).
    """

    credit_limit: float = 0.0
    balance_a: float = 0.0
    balance_b: float = 0.0
    history: list[tuple[float, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if math.isnan(self.credit_limit) or self.credit_limit < 0:
            raise NegotiationError("credit_limit must be >= 0 and not NaN")

    def available_credit(self, side: str) -> float:
        """How far below default this side can go in the next session."""
        balance = self.balance_a if side == "a" else self.balance_b
        return max(0.0, self.credit_limit + balance)

    def floors(self) -> tuple[float, float]:
        """Per-session rollback floors implied by the current balances."""
        return (-self.available_credit("a"), -self.available_credit("b"))

    def settle(self, gain_a: float, gain_b: float) -> None:
        """Record a session's outcome into the balances."""
        self.balance_a += gain_a
        self.balance_b += gain_b
        self.history.append((gain_a, gain_b))
        if self.balance_a < -self.credit_limit - 1e-9:
            raise NegotiationError("ISP A exceeded its credit limit")
        if self.balance_b < -self.credit_limit - 1e-9:
            raise NegotiationError("ISP B exceeded its credit limit")

    @property
    def n_sessions(self) -> int:
        return len(self.history)


class CreditSessionRunner:
    """Runs a sequence of sessions under a shared credit ledger.

    Each epoch's agents are built by caller-supplied factories (state such
    as load trackers usually should not leak between epochs). Sessions use
    full termination — an indebted ISP keeps negotiating to repay — and
    rollback floors derived from the ledger.
    """

    def __init__(self, ledger: CreditLedger):
        self.ledger = ledger
        self.outcomes: list[NegotiationOutcome] = []

    def run_epoch(
        self,
        agent_a: NegotiationAgent,
        agent_b: NegotiationAgent,
        defaults: np.ndarray | None = None,
        sizes: np.ndarray | None = None,
    ) -> NegotiationOutcome:
        """Run one negotiation session and settle it into the ledger."""
        if agent_a.termination is not TerminationMode.FULL:
            agent_a.termination = TerminationMode.FULL
        if agent_b.termination is not TerminationMode.FULL:
            agent_b.termination = TerminationMode.FULL
        config = SessionConfig(rollback_floors=self.ledger.floors())
        session = NegotiationSession(
            agent_a, agent_b, defaults=defaults, sizes=sizes, config=config
        )
        outcome = session.run()
        self.ledger.settle(outcome.gain_a, outcome.gain_b)
        self.outcomes.append(outcome)
        return outcome

    def total_gains(self) -> tuple[float, float]:
        """Cumulative class gains over all epochs (the ledger balances)."""
        return self.ledger.balance_a, self.ledger.balance_b
