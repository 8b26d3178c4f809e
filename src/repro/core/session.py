"""The Nexit negotiation session engine.

Runs the round-based protocol of Section 4 between two
:class:`~repro.core.agent.NegotiationAgent` instances:

    decide turn -> propose an alternative -> accept? -> reassign? -> stop?

The engine is deterministic given the agents and policies. A win-win
*rollback* guard implements the paper's guarantee that "an ISP can ensure
that it is no worse off than the default case": if the session ends with
either side's cumulative disclosed gain below its floor (0 by default), the
worst concessions are rolled back ("the ISP can partially or fully rollback
the compromises made", Section 6) until both sides are at or above it.
With truthful agents and early termination this rarely triggers, but it
makes the no-loss property structural rather than statistical.

Performance: the session runs in *epochs*, the rounds between two
disclosures (the first, then each reassignment). No decision inside an
epoch reads evaluator state (classes change only on reassignment), so each
epoch is decided, then settled:

* **decide**: each round is list bookkeeping plus the turn, accept and
  reassignment calls. The stop test is a cursor over each EARLY agent's
  :meth:`~repro.core.agent.NegotiationAgent.gain_flows` (a FULL agent
  never stops on its own) and the pick a cursor over each proposer's
  :meth:`~repro.core.strategies.ProposalPolicy.pick_order`, both taken
  once per epoch. An epoch ends only on a reassignment, a stop,
  exhaustion or the round limit.
* **settle**: one :meth:`~repro.core.agent.NegotiationAgent.commit_epoch`
  call per side returns each accepted flow's true delta, taken just before
  its placement; both sides then reassign. Agents may not share an
  evaluator, so settling A's epoch, then B's, equals interleaving them.

A round costs amortized O(1), an epoch O(F·I·log(F·I)) plus one
``commit_epoch`` per side (one float loop for the load-aware evaluator):
O(R + D·F·I·log(F·I)) for R rounds and D disclosures, against O(R·F·I) for
rescanning each round. The rollback is O(A·log A) for A accepted rounds
(see :func:`rollback_victims`); wire messages are built only when recorded.
Each round's :class:`~repro.core.outcomes.RoundRecord` is a ``NamedTuple``
built at settle, a quarter of a frozen dataclass's construction cost.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from numbers import Integral, Real

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
    MaxCombinedProposals,
    ProposalPolicy,
    ReassignNever,
    ReassignmentPolicy,
    TerminationMode,
    TurnPolicy,
)
from repro.errors import NegotiationError

__all__ = ["SessionConfig", "NegotiationSession"]


def _missing(obj, *methods: str) -> list[str]:
    """The names among ``methods`` that ``obj`` cannot call."""
    return [name for name in methods if not callable(getattr(obj, name, None))]


@dataclass
class SessionConfig:
    """Protocol-step policies agreed "contractually in advance".

    Attributes:
        turn_policy: who proposes each round (default: alternate).
        proposal_policy: how the proposer picks, in the epoch form of
            :class:`~repro.core.strategies.ProposalPolicy` (default: max
            combined sum, local tie-break — the paper's experimental
            setting).
        reassignment_policy: when preferences refresh (default: never);
            each run restarts it from a zero threshold.
        rollback_floors: the win-win rollback's minimum cumulative class
            gain per side, ``(floor_a, floor_b)``, each a real ``<= 0`` and
            not NaN. The default (0, 0) is the strict no-worse-than-default
            guarantee; negative floors let an ISP extend *credit* — accept a
            bounded loss now to be repaid in a later session (the Section 3
            "credits" idea, see :mod:`repro.core.credits`), and ``-inf`` is
            unlimited credit: ``(-inf, -inf)`` rolls nothing back. The
            private true-metric guard only applies at a floor of 0, since
            credit is denominated in preference classes.
        max_rounds: safety valve, ``None`` (flows + slack) or an int >= 0.
        record_messages: keep a full wire-message transcript.
    """

    turn_policy: TurnPolicy = field(default_factory=AlternatingTurns)
    proposal_policy: ProposalPolicy = field(default_factory=MaxCombinedProposals)
    reassignment_policy: ReassignmentPolicy = field(default_factory=ReassignNever)
    rollback_floors: tuple[float, float] = (0.0, 0.0)
    max_rounds: int | None = None
    record_messages: bool = False

    def __post_init__(self) -> None:
        missing = _missing(self.proposal_policy, "viable_cells", "pick_order")
        if missing:
            raise NegotiationError(
                f"proposal policy {type(self.proposal_policy).__name__} has no "
                f"{' or '.join(missing)}; a policy speaks the epoch form"
            )
        floors = self.rollback_floors
        if not (
            isinstance(floors, (tuple, list)) and len(floors) == 2
            and all(isinstance(f, Real) and not isinstance(f, bool) for f in floors)
        ):
            raise NegotiationError(
                f"rollback_floors must be a pair of real numbers: {floors!r}"
            )
        if any(math.isnan(f) or f > 0 for f in floors):
            raise NegotiationError(
                "rollback floors must be <= 0 and not NaN (0 = strict no-loss)"
            )
        rounds = self.max_rounds
        if rounds is not None and (
            isinstance(rounds, bool) or not isinstance(rounds, Integral) or rounds < 0
        ):
            raise NegotiationError(f"max_rounds must be None or int >= 0: {rounds!r}")


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
        # One shared evaluator would see A's epoch placed before B's deltas.
        if agent_a.evaluator is agent_b.evaluator:
            raise NegotiationError(
                "the two agents share one evaluator object; each ISP needs "
                "its own"
            )
        for agent in (agent_a, agent_b):
            if _missing(agent.evaluator, "commit_epoch"):
                raise NegotiationError(
                    f"agent {agent.name!r}'s evaluator "
                    f"{type(agent.evaluator).__name__} has no commit_epoch"
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
            defaults = np.asarray(defaults)
            if defaults.dtype.kind not in "iu":
                raise NegotiationError(
                    f"defaults must be integer alternative indices, not "
                    f"{defaults.dtype}"
                )
            self.defaults = defaults.astype(np.intp)
            if self.defaults.shape != (self.n_flows,):
                raise NegotiationError("defaults shape mismatch")
        if self.n_flows and (
            self.defaults.min() < 0 or self.defaults.max() >= self.n_alternatives
        ):
            raise NegotiationError("default alternative out of range")
        self.messages: list[Message] = []

    # -- helpers -------------------------------------------------------------

    def _advertise(self, reassigned: bool = False) -> None:
        """Record both sides' disclosed classes (and, initially, defaults)."""
        if not self.config.record_messages:
            return
        for sender, agent in (("a", self.agent_a), ("b", self.agent_b)):
            prefs = tuple(tuple(map(int, row)) for row in agent.disclosed_preferences())
            self.messages.append(
                ReassignMessage(sender, prefs) if reassigned else
                PreferenceAdvertisement(sender, prefs, tuple(map(int, agent.defaults)))
            )

    # -- the protocol ----------------------------------------------------------

    def run(self) -> NegotiationOutcome:
        """Execute the session and return the (post-rollback) outcome."""
        cfg = self.config
        agent_a, agent_b = agents = (self.agent_a, self.agent_b)
        record = self.messages.append if cfg.record_messages else None
        n_f, n_alt = self.n_flows, self.n_alternatives
        sizes = self.sizes.tolist()
        total_size = float(self.sizes.sum())
        max_rounds = cfg.max_rounds
        if max_rounds is None:
            # Every flow needs at most one accepted round; allow slack for
            # vetoed proposals.
            max_rounds = n_f * (n_alt + 1) + 8
        turn_policy, proposals = cfg.turn_policy, cfg.proposal_policy
        reassigner = cfg.reassignment_policy
        # With reassignable (load-dependent) classes a zero-gain round still
        # helps, so the stop test and the pick both accept a zero.
        reassignable = getattr(reassigner, "may_change", False)
        early = [a.termination is TerminationMode.EARLY for a in agents]

        reassigner.mark_reassigned(0.0)  # a reused config starts afresh
        agent_a.reset()
        agent_b.reset()
        self._advertise()

        remaining = np.ones(n_f, dtype=bool)
        live = [True] * n_f
        n_remaining = n_f
        banned = np.zeros((n_f, n_alt), dtype=bool)
        bans: set[tuple[int, int]] = set()
        choices = self.defaults.copy()
        negotiated = np.zeros(n_f, dtype=bool)
        rounds: list[RoundRecord] = []
        accepted_order: list[RoundRecord] = []
        reassignments = 0
        negotiated_size = 0.0
        round_index = 0
        reason: TerminationReason | None = None
        while reason is None:
            # -- decide this epoch's rounds from one read of the classes.
            disclosed = viable = None
            picks, pick_at = [None, None], [0, 0]  # per proposer, lazily
            stops, stop_at = [None, None], [0, 0]  # per EARLY agent, lazily
            decided, flows, alternatives = [], [], []
            reassign = False
            while True:
                if not n_remaining:
                    reason = TerminationReason.EXHAUSTED
                    break
                if round_index >= max_rounds:
                    reason = TerminationReason.ROUND_LIMIT
                    break
                if disclosed is None:
                    disclosed = tuple(a.disclosed_preferences() for a in agents)

                # Decide turn.
                proposer = turn_policy.proposer(
                    round_index, (agent_a.cumulative_gain, agent_b.cumulative_gain)
                )

                # Stop? On its turn, an ISP that perceives no additional gain
                # in continuing declares stop instead of proposing. Checking
                # only on one's own turn is essential to the win-win dynamic:
                # the peer always gets its reciprocal turn before the other
                # side can walk away with a one-sided gain.
                if early[proposer]:
                    keep = stops[proposer]
                    if keep is None:
                        keep = stops[proposer] = agents[proposer].gain_flows(
                            remaining, reassignable
                        )
                    k, n = stop_at[proposer], len(keep)
                    while k < n and not live[keep[k]]:
                        k += 1
                    stop_at[proposer] = k
                    if k == n:
                        reason = (TerminationReason.EARLY_STOP_A,
                                  TerminationReason.EARLY_STOP_B)[proposer]
                        if record:
                            record(StopMessage("ab"[proposer], reason.value))
                        break

                # Propose an alternative: the first cell of the proposer's
                # order still in a remaining flow and not rejected since.
                order = picks[proposer]
                if order is None:
                    if viable is None:
                        viable = proposals.viable_cells(
                            *disclosed, remaining, banned, reassignable
                        )
                    order = picks[proposer] = proposals.pick_order(
                        disclosed[proposer], disclosed[1 - proposer], viable
                    )
                pick_flows, pick_alts = order
                k, n = pick_at[proposer], len(pick_flows)
                while k < n and not (
                    live[pick_flows[k]]
                    and not (bans and (pick_flows[k], pick_alts[k]) in bans)
                ):
                    k += 1
                pick_at[proposer] = k
                if k == n:
                    reason = TerminationReason.NO_JOINT_GAIN
                    break
                flow, alternative = pick_flows[k], pick_alts[k]
                pref_a = int(disclosed[0][flow, alternative])
                pref_b = int(disclosed[1][flow, alternative])
                if record:
                    record(ProposalMessage(
                        "ab"[proposer], round_index, flow, alternative
                    ))

                # Accept alternative?
                r = 1 - proposer
                accepted = bool(agents[r].decide_accept(
                    flow, alternative, other_pref=pref_a if proposer == 0 else pref_b
                ))
                if record:
                    record((AcceptMessage if accepted else RejectMessage)(
                        "ab"[r], round_index, flow, alternative
                    ))
                decided.append((round_index, proposer, flow, alternative,
                                pref_a, pref_b, accepted))
                round_index += 1
                if accepted:
                    # "Accepted flows are removed from the preference lists";
                    # the evaluators take them at settle.
                    live[flow] = False
                    remaining[flow] = False
                    n_remaining -= 1
                    agent_a.cumulative_gain += pref_a
                    agent_b.cumulative_gain += pref_b
                    flows.append(flow)
                    alternatives.append(alternative)
                    negotiated_size += sizes[flow]
                    # Reassign preferences? That ends the epoch.
                    if reassigner.should_reassign(negotiated_size, total_size):
                        reassign = True
                        break
                else:
                    banned[flow, alternative] = True
                    bans.add((flow, alternative))

            # -- settle: one call per side, then the epoch's round records.
            if flows:
                choices[flows] = alternatives
                negotiated[flows] = True
                deltas = zip(
                    agent_a.commit_epoch(flows, alternatives),
                    agent_b.commit_epoch(flows, alternatives),
                )
            for fields in decided:
                if fields[-1]:
                    accepted_order.append(RoundRecord(*fields, *next(deltas)))
                    rounds.append(accepted_order[-1])
                else:
                    rounds.append(RoundRecord(*fields))
            if reassign:
                agent_a.reassign(remaining)
                agent_b.reassign(remaining)
                reassigner.mark_reassigned(negotiated_size)
                reassignments += 1
                self._advertise(reassigned=True)

        # (gain_a, gain_b, true_a, true_b), after the win-win rollback.
        victims, gains = self._rollback_victims(
            accepted_order,
            (agent_a.cumulative_gain, agent_b.cumulative_gain,
             agent_a.true_cumulative, agent_b.true_cumulative),
            cfg.rollback_floors,
        )
        for victim in victims:
            choices[victim.flow_index] = self.defaults[victim.flow_index]
            negotiated[victim.flow_index] = False
        return NegotiationOutcome(
            choices, negotiated, *gains, rounds=rounds,
            rolled_back=[victim.round_index for victim in victims],
            reason=reason, reassignments=reassignments,
        )
