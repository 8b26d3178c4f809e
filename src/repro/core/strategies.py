"""Negotiation-protocol strategies (Section 4, step 2).

"The exact implementation method of each step is agreed upon contractually
in advance by the ISPs." Each protocol step is therefore a pluggable
policy:

* **Decide turn** — :class:`AlternatingTurns` (the paper's experiments),
  :class:`LowerGainTurns` (approximates max-min fairness), or
  :class:`CoinTossTurns`.
* **Propose an alternative** — :class:`MaxCombinedProposals` ("picks from
  the set that maximizes the sum of preferences of the two ISPs, breaking
  ties using local preferences"; the paper's experiments), or
  :class:`BestLocalProposals` ("propose the best local alternative with
  minimal negative impact on the other ISP").
* **Accept alternative?** — :class:`AlwaysAccept` (the paper's
  experiments) or :class:`VetoIfWorseThanDefault`.
* **Reassign preferences?** — :class:`ReassignNever` (distance) or
  :class:`ReassignEveryFraction` (bandwidth: each 5% of traffic).
* **Stop?** — :class:`TerminationMode.EARLY` ("ISPs stop when they
  perceive no additional gain in continuing") or
  :class:`TerminationMode.FULL` (continue while joint gain exists).

A proposal policy speaks in epochs: the session asks it for one order of
candidate cells per proposer and disclosure (see :class:`ProposalPolicy`)
and walks that order round by round. The turn, acceptance and reassignment
policies are called every round.
"""

from __future__ import annotations

import enum
from typing import Protocol

import numpy as np

from repro.errors import ConfigurationError
from repro.util.rng import RngSource, make_rng
from repro.util.validation import check_fraction

__all__ = [
    "TurnPolicy",
    "AlternatingTurns",
    "LowerGainTurns",
    "CoinTossTurns",
    "ProposalPolicy",
    "MaxCombinedProposals",
    "BestLocalProposals",
    "AcceptancePolicy",
    "AlwaysAccept",
    "VetoIfWorseThanDefault",
    "ReassignmentPolicy",
    "ReassignNever",
    "ReassignEveryFraction",
    "TerminationMode",
]


# ---------------------------------------------------------------------------
# Decide turn
# ---------------------------------------------------------------------------


class TurnPolicy(Protocol):
    """Chooses which side (0 = A, 1 = B) proposes in the current round."""

    def proposer(self, round_index: int, cumulative_gains: tuple[int, int]) -> int: ...


class AlternatingTurns:
    """"The method we use in our experiments is that the ISPs alternate."""

    def __init__(self, first: int = 0):
        if first not in (0, 1):
            raise ConfigurationError("first proposer must be 0 or 1")
        self.first = first

    def proposer(self, round_index: int, cumulative_gains: tuple[int, int]) -> int:
        del cumulative_gains
        return (self.first + round_index) % 2


class LowerGainTurns:
    """"The ISP with the lower cumulative gain ... gets the next turn."

    Ties go to side A for determinism. Approximates max-min fair outcomes
    when metrics are compatible (Section 4.2).
    """

    def proposer(self, round_index: int, cumulative_gains: tuple[int, int]) -> int:
        del round_index
        gain_a, gain_b = cumulative_gains
        return 0 if gain_a <= gain_b else 1


class CoinTossTurns:
    """"Yet another possibility is a coin toss." Deterministic in the seed."""

    def __init__(self, seed: RngSource = None):
        self._rng = make_rng(seed)

    def proposer(self, round_index: int, cumulative_gains: tuple[int, int]) -> int:
        del round_index, cumulative_gains
        return int(self._rng.integers(2))


# ---------------------------------------------------------------------------
# Propose an alternative
# ---------------------------------------------------------------------------


class ProposalPolicy(Protocol):
    """Selects the (flow, alternative) cells a proposer offers, one epoch at
    a time (an epoch is the rounds between two disclosures).

    A session calls :meth:`viable_cells` once per epoch on both sides'
    disclosed classes, and :meth:`pick_order` once per proposer with its own
    classes first. Each round it proposes the first listed cell whose flow
    is still remaining and that has not been rejected since; none left
    ends the session. Remaining ties resolve to the lowest
    (flow, alternative), making the whole protocol deterministic.

    ``allow_zero`` is set by the session when preferences are
    load-dependent (reassignable): committing a zero-gain alternative is
    then still useful, because it changes the expected network state and
    later reassignments may reveal gains (the Figure 3 dynamic). With
    static preferences a zero-gain proposal is pointless and ``allow_zero``
    is False.
    """

    def viable_cells(
        self,
        prefs_a: np.ndarray,
        prefs_b: np.ndarray,
        remaining: np.ndarray,
        banned: np.ndarray,
        allow_zero: bool = False,
    ) -> tuple: ...

    def pick_order(
        self, own: np.ndarray, other: np.ndarray, viable: tuple
    ) -> tuple[list[int], list[int]]: ...


class MaxCombinedProposals:
    """Maximize the two ISPs' preference sum; break ties locally.

    With static preferences, only positive joint gains are worth proposing:
    a flow whose best alternative is its default simply stays at the
    default. With reassignable preferences, zero-gain commitments still
    advance the negotiation.
    """

    @staticmethod
    def viable_cells(prefs_a, prefs_b, remaining, banned, allow_zero=False) -> tuple:
        """The cells in a remaining flow, not banned, with a combined class
        at the floor or above, as row-major flat indices and their negated
        combined classes (one pass serves both proposers)."""
        combined = np.add(prefs_a, prefs_b, dtype=np.int64)
        floor = 0 if allow_zero else 1
        cells = np.flatnonzero((combined >= floor) & ~banned & remaining[:, None])
        return cells, -combined.ravel()[cells]

    @staticmethod
    def pick_order(own, other, viable) -> tuple[list, list]:
        """``viable`` in ``(-combined, -own, flow, alternative)`` order (the
        lexsort is stable over row-major cells)."""
        del other
        cells, neg_combined = viable
        n_alt = own.shape[1]
        own = np.asarray(own, dtype=np.int64).ravel()[cells]
        cells = cells[np.lexsort((-own, neg_combined))]
        return (cells // n_alt).tolist(), (cells % n_alt).tolist()


class BestLocalProposals:
    """Best local alternative, minimal negative impact on the other ISP.

    Among remaining candidates with the highest *own* preference, picks the
    one the other ISP dislikes least. Stops proposing when its own best
    remaining preference is not positive (non-negative if ``allow_zero``).
    """

    @staticmethod
    def viable_cells(prefs_a, prefs_b, remaining, banned, allow_zero=False) -> tuple:
        """The cells in a remaining flow and not banned, as row-major flat
        indices, and the proposer's class floor."""
        del prefs_a, prefs_b
        cells = np.flatnonzero(~banned & remaining[:, None])
        return cells, 0 if allow_zero else 1

    @staticmethod
    def pick_order(own, other, viable) -> tuple[list, list]:
        """The cells of ``viable`` whose own class is at the floor or above,
        in ``(-own, -other, flow, alternative)`` order."""
        cells, floor = viable
        n_alt = own.shape[1]
        own = np.asarray(own, dtype=np.int64).ravel()[cells]
        keep = own >= floor
        cells, own = cells[keep], own[keep]
        other = np.asarray(other, dtype=np.int64).ravel()[cells]
        cells = cells[np.lexsort((-other, -own))]
        return (cells // n_alt).tolist(), (cells % n_alt).tolist()


# ---------------------------------------------------------------------------
# Accept alternative?
# ---------------------------------------------------------------------------


class AcceptancePolicy(Protocol):
    """The responder's veto. Returns True to accept the proposal."""

    def accept(
        self,
        own_pref: int,
        other_pref: int,
        own_cumulative: int,
    ) -> bool: ...


class AlwaysAccept:
    """"We always accept proposed alternatives in our experiments."""

    def accept(self, own_pref: int, other_pref: int, own_cumulative: int) -> bool:
        del own_pref, other_pref, own_cumulative
        return True


class VetoIfWorseThanDefault:
    """Reject proposals that would drive the responder's cumulative gain
    below zero — one concrete use of the veto power the protocol grants
    ("which they might use if ... they perceive that the proposer is not
    playing by the mutually agreed rules").
    """

    def accept(self, own_pref: int, other_pref: int, own_cumulative: int) -> bool:
        del other_pref
        return own_cumulative + own_pref >= 0


# ---------------------------------------------------------------------------
# Reassign preferences?
# ---------------------------------------------------------------------------


class ReassignmentPolicy(Protocol):
    """Decides when evaluators refresh preferences mid-negotiation."""

    #: Whether preferences can ever change (drives zero-gain semantics:
    #: proposing/continuing at zero gain only makes sense when later
    #: reassignment can reveal new gains).
    may_change: bool

    def should_reassign(self, negotiated_size: float, total_size: float) -> bool: ...

    def mark_reassigned(self, negotiated_size: float) -> None: ...


class ReassignNever:
    """Distance experiments: "do not reassign preferences"."""

    may_change = False

    def should_reassign(self, negotiated_size: float, total_size: float) -> bool:
        del negotiated_size, total_size
        return False

    def mark_reassigned(self, negotiated_size: float) -> None:
        del negotiated_size


class ReassignEveryFraction:
    """Bandwidth experiments: reassign after each ``fraction`` of traffic.

    The paper reassigns "after negotiating each 5% of the traffic"
    — ``fraction=0.05``. Each session run restarts it with
    ``mark_reassigned(0.0)``.
    """

    may_change = True

    def __init__(self, fraction: float = 0.05):
        self.fraction = check_fraction(fraction, "fraction")
        self._last_threshold = 0.0

    def should_reassign(self, negotiated_size: float, total_size: float) -> bool:
        if total_size <= 0:
            return False
        return (negotiated_size - self._last_threshold) >= self.fraction * total_size

    def mark_reassigned(self, negotiated_size: float) -> None:
        self._last_threshold = negotiated_size


# ---------------------------------------------------------------------------
# Stop?
# ---------------------------------------------------------------------------


class TerminationMode(enum.Enum):
    """When the negotiation stops (Section 4, "Stop?").

    EARLY: each ISP stops "when they perceive no additional gain in
    continuing" — i.e. when no remaining alternative carries a positive
    preference for it.

    FULL: "ISPs may continue as long as their cumulative gain is positive
    ... preferred in interest of social welfare" — negotiation runs until
    no remaining alternative offers a positive *joint* gain.
    """

    EARLY = "early"
    FULL = "full"
