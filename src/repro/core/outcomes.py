"""Negotiation outcomes and round records."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.errors import NegotiationError

__all__ = ["TerminationReason", "RoundRecord", "NegotiationOutcome"]


class TerminationReason(enum.Enum):
    """Why a negotiation session ended."""

    EXHAUSTED = "all flows negotiated"
    NO_JOINT_GAIN = "no remaining alternative with positive joint gain"
    EARLY_STOP_A = "ISP A perceived no additional gain"
    EARLY_STOP_B = "ISP B perceived no additional gain"
    ROUND_LIMIT = "round limit reached"


class RoundRecord(NamedTuple):
    """One accepted (or vetoed) round of the protocol.

    A ``NamedTuple``: a session builds one per round, and a tuple's
    constructor costs about a quarter of a frozen dataclass's, whose
    ``__init__`` sets each field through ``object.__setattr__``. Fields
    read by name, and assigning one raises ``AttributeError`` as before.

    Attributes:
        round_index: 0-based round number.
        proposer: 0 for ISP A, 1 for ISP B.
        flow_index: the flow whose alternative was proposed.
        alternative: proposed interconnection index.
        pref_a / pref_b: the disclosed preference classes at proposal time.
        accepted: whether the responder accepted.
        true_a / true_b: each ISP's improvement on its actual (private)
            metric; 0 for rejected rounds. Used by the win-win rollback.
    """

    round_index: int
    proposer: int
    flow_index: int
    alternative: int
    pref_a: int
    pref_b: int
    accepted: bool
    true_a: float = 0.0
    true_b: float = 0.0

    @property
    def combined(self) -> int:
        return self.pref_a + self.pref_b


@dataclass
class NegotiationOutcome:
    """The result of one Nexit session.

    Attributes:
        choices: final alternative per flow, (F,) int array. Flows not
            negotiated (or rolled back) sit at their default alternative.
        negotiated: boolean (F,) mask of flows whose assignment was agreed
            in the session (post-rollback).
        gain_a / gain_b: cumulative disclosed preference gain of each ISP
            over the agreed flows (post-rollback). Nexit's win-win guard
            ensures both are >= 0 when rollback is enabled.
        rounds: full protocol trace, including rolled-back rounds.
        rolled_back: indices of rounds dropped by the win-win rollback.
        reason: why the session stopped.
        reassignments: how many preference reassignments occurred.
    """

    choices: np.ndarray
    negotiated: np.ndarray
    gain_a: int
    gain_b: int
    true_gain_a: float = 0.0
    true_gain_b: float = 0.0
    rounds: list[RoundRecord] = field(default_factory=list)
    rolled_back: list[int] = field(default_factory=list)
    reason: TerminationReason = TerminationReason.EXHAUSTED
    reassignments: int = 0

    def __post_init__(self) -> None:
        self.choices = np.asarray(self.choices, dtype=np.intp)
        self.negotiated = np.asarray(self.negotiated, dtype=bool)
        if self.choices.shape != self.negotiated.shape:
            raise NegotiationError("choices/negotiated shape mismatch")

    @property
    def n_negotiated(self) -> int:
        return int(self.negotiated.sum())

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    def accepted_rounds(self) -> list[RoundRecord]:
        return [r for r in self.rounds if r.accepted]

    def summary(self) -> str:
        return (
            f"negotiated {self.n_negotiated}/{len(self.choices)} flows in "
            f"{self.n_rounds} rounds (gain A={self.gain_a}, B={self.gain_b}; "
            f"{len(self.rolled_back)} rolled back; {self.reason.value})"
        )
