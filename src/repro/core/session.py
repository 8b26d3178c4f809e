"""The Nexit negotiation session engine.

Runs the round-based protocol of Section 4 between two
:class:`~repro.core.agent.NegotiationAgent` instances:

    decide turn -> propose an alternative -> accept? -> reassign? -> stop?

The engine is deterministic given the agents and policies. A win-win
*rollback* guard (on by default) implements the paper's guarantee that "an
ISP can ensure that it is no worse off than the default case": if the
session ends with either side's cumulative disclosed gain negative, the most
recent concessions are rolled back ("the ISP can partially or fully rollback
the compromises made", Section 6) until both sides are at or above the
default. With truthful agents and early termination this rarely triggers,
but it makes the no-loss property structural rather than statistical.

Performance: every round costs amortized O(1) on top of the agents' own
evaluator work, and a disclosure (the initial one and each reassignment)
costs O(F·I·log(F·I)) once:

* with the stock MaxCombined proposal rule, the candidate cells are sorted
  once per disclosure into each proposer's pick order and ``propose``
  advances a monotone cursor past committed flows and banned cells (see
  :class:`~repro.core.strategies.CombinedScoreboard`);
* ``wants_to_stop`` reads the remaining-rows maximum from a cursor over the
  flows sorted by row maximum, also sorted once per disclosure (see
  :meth:`~repro.core.agent.NegotiationAgent.wants_to_stop`);
* the win-win rollback picks each victim from lazily pruned per-key heaps,
  O(A·log A) for A accepted rounds (see :func:`rollback_victims`);
* wire-message objects are only built when ``record_messages`` is on.

A whole session is therefore O(R + D·F·I·log(F·I)) for R rounds and D
disclosures, against O(R·F·I) for the rescanning loop. Any other proposal
rule (a subclass included) runs the rescanning loop; outcomes are identical
either way, and the equivalence tests compare the two exactly.

The load-aware evaluators keep their side of that bound. An accepted
round's ``true_delta`` and ``commit`` are float loops over one path of the
list-backed :class:`~repro.capacity.loads.LoadTracker`, with no numpy
call. A disclosure scores the evaluator's live flow set from one gather,
re-taken when the remaining flows fall below half of it, so it touches at
most about twice the remaining rows' path entries (see
:class:`~repro.core.evaluators.LoadAwareEvaluator`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.core.agent import NegotiationAgent
from repro.core.messages import (
    AcceptMessage,
    Message,
    PreferenceAdvertisement,
    ProposalMessage,
    ReassignMessage,
    RejectMessage,
    StopMessage,
)
from repro.core.outcomes import NegotiationOutcome, RoundRecord, TerminationReason
from repro.core.strategies import (
    AlternatingTurns,
    CombinedScoreboard,
    MaxCombinedProposals,
    ProposalPolicy,
    ReassignNever,
    ReassignmentPolicy,
    TurnPolicy,
)
from repro.errors import NegotiationError

__all__ = ["SessionConfig", "NegotiationSession"]


@dataclass
class SessionConfig:
    """Protocol-step policies agreed "contractually in advance".

    Attributes:
        turn_policy: who proposes each round (default: alternate).
        proposal_policy: how the proposer picks (default: max combined sum,
            local tie-break — the paper's experimental setting).
        reassignment_policy: when preferences refresh (default: never).
        rollback: enforce the win-win guarantee by rolling back trailing
            concessions if either side ends below the default.
        rollback_floors: minimum acceptable cumulative class gain per side,
            ``(floor_a, floor_b)``. The default (0, 0) is the strict
            no-worse-than-default guarantee; negative floors let an ISP
            extend *credit* — accept a bounded loss now to be repaid in a
            later session (the Section 3 "credits" idea, see
            :mod:`repro.core.credits`). The private true-metric guard only
            applies at a floor of 0, since credit is denominated in
            preference classes.
        max_rounds: safety valve (default: flows + slack).
        record_messages: keep a full wire-message transcript.
    """

    turn_policy: TurnPolicy = field(default_factory=AlternatingTurns)
    proposal_policy: ProposalPolicy = field(default_factory=MaxCombinedProposals)
    reassignment_policy: ReassignmentPolicy = field(default_factory=ReassignNever)
    rollback: bool = True
    rollback_floors: tuple[float, float] = (0.0, 0.0)
    max_rounds: int | None = None
    record_messages: bool = False

    def __post_init__(self) -> None:
        if len(self.rollback_floors) != 2:
            raise NegotiationError("rollback_floors must be a (a, b) pair")
        if any(f > 0 for f in self.rollback_floors):
            raise NegotiationError(
                "rollback floors must be <= 0 (0 = strict no-loss)"
            )


def rollback_victims(
    accepted: list[RoundRecord],
    gains: tuple[float, float, float, float],
    floors: tuple[float, float],
) -> tuple[list[RoundRecord], tuple[float, float, float, float]]:
    """The win-win rollback: which accepted rounds to undo, and the gains after.

    Undoes concessions while either side is below its floor — on the
    disclosed classes *or* on its private metric ("the ISP can partially or
    fully rollback the compromises made", Section 6). Each step removes the
    worst remaining trade for the first side found below its floor (class
    gain A, class gain B, then the true metric of A and B, the latter only
    under a strict 0 floor), so as few good trades as possible are
    sacrificed; among equal keys the earliest accepted round goes first.
    Terminates at the empty agreement (0, 0).

    ``accepted`` is in acceptance order and ``gains`` is
    ``(gain_a, gain_b, true_a, true_b)``. Returns the victims in removal
    order and the gains with their contributions subtracted. Each key's
    heap of ``(key, position)`` is built on first use and prunes rounds
    another key already removed lazily, so the whole rollback is
    O(A·log A) for A accepted rounds.
    """
    gain_a, gain_b, true_a, true_b = gains
    floor_a, floor_b = floors
    # The private true-metric guard only applies under the strict floor;
    # credit (negative floors) is class-denominated.
    guard_true_a = floor_a == 0.0
    guard_true_b = floor_b == 0.0
    tol = 1e-9
    heaps: dict[str, list[tuple[float, int]]] = {}
    removed = [False] * len(accepted)
    victims: list[RoundRecord] = []
    while len(victims) < len(accepted):
        if gain_a < floor_a:
            key = "pref_a"
        elif gain_b < floor_b:
            key = "pref_b"
        elif guard_true_a and true_a < -tol:
            key = "true_a"
        elif guard_true_b and true_b < -tol:
            key = "true_b"
        else:
            break
        heap = heaps.get(key)
        if heap is None:
            heap = [
                (getattr(r, key), pos)
                for pos, r in enumerate(accepted)
                if not removed[pos]
            ]
            heapq.heapify(heap)
            heaps[key] = heap
        while removed[heap[0][1]]:
            heapq.heappop(heap)
        pos = heapq.heappop(heap)[1]
        removed[pos] = True
        victim = accepted[pos]
        victims.append(victim)
        gain_a -= victim.pref_a
        gain_b -= victim.pref_b
        true_a -= victim.true_a
        true_b -= victim.true_b
    return victims, (gain_a, gain_b, true_a, true_b)


class NegotiationSession:
    """One bilateral negotiation over a fixed set of flows."""

    #: The win-win rollback (see :func:`rollback_victims`).
    _rollback_victims = staticmethod(rollback_victims)

    def __init__(
        self,
        agent_a: NegotiationAgent,
        agent_b: NegotiationAgent,
        sizes: np.ndarray | None = None,
        defaults: np.ndarray | None = None,
        config: SessionConfig | None = None,
    ):
        self.agent_a = agent_a
        self.agent_b = agent_b
        self.config = config or SessionConfig()
        shape_a = (agent_a.evaluator.n_flows, agent_a.evaluator.n_alternatives)
        shape_b = (agent_b.evaluator.n_flows, agent_b.evaluator.n_alternatives)
        if shape_a != shape_b:
            raise NegotiationError(
                f"agents disagree on problem shape: {shape_a} vs {shape_b}"
            )
        self.n_flows, self.n_alternatives = shape_a
        if sizes is None:
            self.sizes = np.ones(self.n_flows)
        else:
            self.sizes = np.asarray(sizes, dtype=float)
            if self.sizes.shape != (self.n_flows,):
                raise NegotiationError("sizes shape mismatch")
            if self.n_flows and not (
                np.isfinite(self.sizes).all() and self.sizes.min() > 0
            ):
                raise NegotiationError("flow sizes must be finite and positive")
        # The operational default routing: where flows land without any
        # agreement. "The two ISPs need not agree on the default" for
        # preference mapping, but the session needs one ground truth for
        # the flows that remain un-negotiated. Defaults to ISP A's view.
        if defaults is None:
            self.defaults = np.asarray(agent_a.defaults, dtype=np.intp).copy()
        else:
            self.defaults = np.asarray(defaults, dtype=np.intp).copy()
            if self.defaults.shape != (self.n_flows,):
                raise NegotiationError("defaults shape mismatch")
        if self.n_flows and (
            self.defaults.min() < 0 or self.defaults.max() >= self.n_alternatives
        ):
            raise NegotiationError("default alternative out of range")
        self.messages: list[Message] = []

    # -- helpers -------------------------------------------------------------

    def _record(self, message: Message) -> None:
        if self.config.record_messages:
            self.messages.append(message)

    def _advertise_initial(self) -> None:
        if not self.config.record_messages:
            return
        for sender, agent in (("a", self.agent_a), ("b", self.agent_b)):
            prefs = agent.disclosed_preferences()
            self._record(
                PreferenceAdvertisement(
                    sender=sender,
                    preferences=tuple(tuple(int(x) for x in row) for row in prefs),
                    defaults=tuple(int(x) for x in agent.defaults),
                )
            )

    # -- the protocol ----------------------------------------------------------

    def run(self) -> NegotiationOutcome:
        """Execute the session and return the (post-rollback) outcome."""
        cfg = self.config
        record_messages = cfg.record_messages
        n_f = self.n_flows
        remaining = np.ones(n_f, dtype=bool)
        n_remaining = n_f
        banned = np.zeros((n_f, self.n_alternatives), dtype=bool)
        choices = self.defaults.copy()
        negotiated = np.zeros(n_f, dtype=bool)
        rounds: list[RoundRecord] = []
        accepted_order: list[RoundRecord] = []
        reassignments = 0
        negotiated_size = 0.0
        total_size = float(self.sizes.sum())
        max_rounds = cfg.max_rounds
        if max_rounds is None:
            # Every flow needs at most one accepted round; allow slack for
            # vetoed proposals.
            max_rounds = n_f * (self.n_alternatives + 1) + 8
        reassignable = getattr(cfg.reassignment_policy, "may_change", False)

        self.agent_a.reset()
        self.agent_b.reset()
        self._advertise_initial()

        # Presorted proposals: when the proposal policy is the stock
        # MaxCombined rule and disclosures only change on reassignment, the
        # candidate order is sorted once per disclosure and each round only
        # advances a cursor, instead of rescanning the (F, I) matrix.
        use_scoreboard = (
            type(cfg.proposal_policy) is MaxCombinedProposals
            and getattr(
                self.agent_a, "disclosure_changes_only_on_reassign", False
            )
            and getattr(
                self.agent_b, "disclosure_changes_only_on_reassign", False
            )
        )
        scoreboard: CombinedScoreboard | None = None

        reason = TerminationReason.EXHAUSTED
        round_index = 0
        while n_remaining:
            if round_index >= max_rounds:
                reason = TerminationReason.ROUND_LIMIT
                break

            # Decide turn.
            proposer = cfg.turn_policy.proposer(
                round_index,
                (self.agent_a.cumulative_gain, self.agent_b.cumulative_gain),
            )

            # Stop? On its turn, an ISP that perceives no additional gain
            # in continuing declares stop instead of proposing. Checking
            # only on one's own turn is essential to the win-win dynamic:
            # the peer always gets its reciprocal turn before the other
            # side can walk away with a one-sided gain.
            proposing_agent = self.agent_a if proposer == 0 else self.agent_b
            if proposing_agent.wants_to_stop(remaining, reassignable=reassignable):
                reason = (
                    TerminationReason.EARLY_STOP_A
                    if proposer == 0
                    else TerminationReason.EARLY_STOP_B
                )
                self._record(
                    StopMessage(
                        sender="a" if proposer == 0 else "b", reason=reason.value
                    )
                )
                break

            prefs_a = self.agent_a.disclosed_preferences()
            prefs_b = self.agent_b.disclosed_preferences()

            # Propose an alternative.
            if use_scoreboard:
                if scoreboard is None:
                    scoreboard = CombinedScoreboard(
                        prefs_a, prefs_b, banned, remaining
                    )
                pick = scoreboard.propose(
                    proposer, remaining, allow_zero=reassignable
                )
            else:
                own, other = (
                    (prefs_a, prefs_b) if proposer == 0 else (prefs_b, prefs_a)
                )
                candidates = remaining[:, np.newaxis] & ~banned
                pick = cfg.proposal_policy.propose(
                    own, other, candidates, allow_zero=reassignable
                )
            if pick is None:
                reason = TerminationReason.NO_JOINT_GAIN
                break
            flow_index, alternative = pick
            pref_a = int(prefs_a[flow_index, alternative])
            pref_b = int(prefs_b[flow_index, alternative])
            if record_messages:
                self.messages.append(
                    ProposalMessage(
                        sender="a" if proposer == 0 else "b",
                        round_index=round_index,
                        flow_index=flow_index,
                        alternative=alternative,
                    )
                )

            # Accept alternative?
            responder = self.agent_b if proposer == 0 else self.agent_a
            proposer_pref = pref_a if proposer == 0 else pref_b
            accepted = responder.decide_accept(
                flow_index, alternative, other_pref=proposer_pref
            )
            if record_messages:
                message_cls = AcceptMessage if accepted else RejectMessage
                self.messages.append(
                    message_cls(
                        sender="b" if proposer == 0 else "a",
                        round_index=round_index,
                        flow_index=flow_index,
                        alternative=alternative,
                    )
                )
            if not accepted:
                rounds.append(
                    RoundRecord(
                        round_index=round_index,
                        proposer=proposer,
                        flow_index=flow_index,
                        alternative=alternative,
                        pref_a=pref_a,
                        pref_b=pref_b,
                        accepted=False,
                    )
                )
                banned[flow_index, alternative] = True
                round_index += 1
                continue

            # Commit: "Accepted flows are removed from the preference lists."
            choices[flow_index] = alternative
            remaining[flow_index] = False
            n_remaining -= 1
            negotiated[flow_index] = True
            true_a = self.agent_a.commit(flow_index, alternative, pref_a)
            true_b = self.agent_b.commit(flow_index, alternative, pref_b)
            record = RoundRecord(
                round_index=round_index,
                proposer=proposer,
                flow_index=flow_index,
                alternative=alternative,
                pref_a=pref_a,
                pref_b=pref_b,
                accepted=True,
                true_a=true_a,
                true_b=true_b,
            )
            rounds.append(record)
            accepted_order.append(record)
            negotiated_size += float(self.sizes[flow_index])

            # Reassign preferences?
            if cfg.reassignment_policy.should_reassign(negotiated_size, total_size):
                self.agent_a.reassign(remaining)
                self.agent_b.reassign(remaining)
                cfg.reassignment_policy.mark_reassigned(negotiated_size)
                reassignments += 1
                scoreboard = None  # disclosures changed; rebuild lazily
                if record_messages:
                    for sender_name, agent in (("a", self.agent_a),
                                               ("b", self.agent_b)):
                        prefs = agent.disclosed_preferences()
                        self._record(
                            ReassignMessage(
                                sender=sender_name,
                                preferences=tuple(
                                    tuple(int(x) for x in row) for row in prefs
                                ),
                            )
                        )

            round_index += 1

        gain_a = self.agent_a.cumulative_gain
        gain_b = self.agent_b.cumulative_gain
        true_a = self.agent_a.true_cumulative
        true_b = self.agent_b.true_cumulative

        rolled_back: list[int] = []
        if cfg.rollback:
            victims, (gain_a, gain_b, true_a, true_b) = self._rollback_victims(
                accepted_order, (gain_a, gain_b, true_a, true_b),
                cfg.rollback_floors,
            )
            for victim in victims:
                choices[victim.flow_index] = self.defaults[victim.flow_index]
                negotiated[victim.flow_index] = False
                rolled_back.append(victim.round_index)

        return NegotiationOutcome(
            choices=choices,
            negotiated=negotiated,
            gain_a=gain_a,
            gain_b=gain_b,
            true_gain_a=true_a,
            true_gain_b=true_b,
            rounds=rounds,
            rolled_back=rolled_back,
            reason=reason,
            reassignments=reassignments,
        )
