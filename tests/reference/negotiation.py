"""The session protocol one round at a time: the oracle for the epoch loop.

:class:`PerRoundSession` runs every protocol step as a call per round —
turn policy, the masked-rescan stop rule, the proposal rule over the (F, I)
candidate mask, the accept decision, one per-flow commit per side, and the
reassignment test — exactly the loop the production
:class:`~repro.core.session.NegotiationSession` decides an epoch at a time.
The production agents, evaluators and policies speak only the epoch form
(a stop cursor, a pick order, one ``commit_epoch`` per side), so the
per-round stop, proposal and commit rules live here, and any production
agent or policy runs under both sessions. :class:`ReferenceRollbackSession`
adds the min-and-remove rollback.
"""

from __future__ import annotations

import numpy as np

from repro.core.messages import (
    AcceptMessage,
    ProposalMessage,
    ReassignMessage,
    RejectMessage,
    StopMessage,
)
from repro.core.outcomes import NegotiationOutcome, RoundRecord, TerminationReason
from repro.core.session import NegotiationSession
from repro.core.strategies import (
    BestLocalProposals,
    MaxCombinedProposals,
    TerminationMode,
)


def wants_to_stop(agent, remaining, reassignable=False) -> bool:
    """The "Stop?" step as a rescan of the agent's masked true classes.

    An EARLY agent stops when no remaining alternative reaches its class
    floor (1, or 0 when ``reassignable``); a FULL agent never stops on its
    own.
    """
    if agent.termination is TerminationMode.FULL:
        return False
    masked = agent.true_preferences()[np.asarray(remaining, dtype=bool)]
    if not masked.size:
        return True
    return int(masked.max()) < (0 if reassignable else 1)


def masked_argmax(primary, tiebreak, mask):
    """Argmax of ``primary`` over ``mask``, ties broken by ``tiebreak``.

    Remaining ties resolve to the lowest (flow, alternative), making the
    whole protocol deterministic.
    """
    if not mask.any():
        return None
    neg_inf = np.finfo(float).min
    masked_primary = np.where(mask, primary.astype(float), neg_inf)
    best_primary = masked_primary.max()
    at_best = masked_primary >= best_primary  # == best within fp exactness
    masked_tie = np.where(at_best, tiebreak.astype(float), neg_inf)
    best_tie = masked_tie.max()
    final = at_best & (tiebreak >= best_tie)
    flows, alts = np.nonzero(final)
    return int(flows[0]), int(alts[0])


def max_combined_pick(own, other, candidates, allow_zero=False):
    """:class:`MaxCombinedProposals` for one round: the candidate with the
    largest combined class at the floor or above, own class breaking ties."""
    combined = own + other
    if not candidates.any():
        return None
    floor = 0 if allow_zero else 1
    viable = candidates & (combined >= floor)
    if not viable.any():
        return None
    return masked_argmax(combined, own, viable)


def best_local_pick(own, other, candidates, allow_zero=False):
    """:class:`BestLocalProposals` for one round: the candidate with the
    largest own class at the floor or above, the peer's class breaking
    ties."""
    if not candidates.any():
        return None
    floor = 0 if allow_zero else 1
    viable = candidates & (own >= floor)
    if not viable.any():
        return None
    return masked_argmax(own, other, viable)


#: The per-round rule of each production proposal policy.
PROPOSAL_RULES = {
    MaxCombinedProposals: max_combined_pick,
    BestLocalProposals: best_local_pick,
}


def commit(agent, flow_index, alternative, own_pref) -> float:
    """Settle one accepted round for ``agent``: its true delta, taken before
    the evaluator places the flow, then the placement, then both ledgers.
    Returns the delta."""
    delta = float(agent.evaluator.true_delta(flow_index, alternative))
    agent.evaluator.commit(flow_index, alternative)
    agent.cumulative_gain += int(own_pref)
    agent.true_cumulative += delta
    return delta


class PerRoundSession(NegotiationSession):
    """The protocol loop with one call per step per round."""

    def run(self) -> NegotiationOutcome:
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
            max_rounds = n_f * (self.n_alternatives + 1) + 8
        reassignable = getattr(cfg.reassignment_policy, "may_change", False)
        propose = PROPOSAL_RULES[type(cfg.proposal_policy)]

        cfg.reassignment_policy.mark_reassigned(0.0)
        self.agent_a.reset()
        self.agent_b.reset()
        self._advertise()

        reason = TerminationReason.EXHAUSTED
        round_index = 0
        while n_remaining:
            if round_index >= max_rounds:
                reason = TerminationReason.ROUND_LIMIT
                break

            proposer = cfg.turn_policy.proposer(
                round_index,
                (self.agent_a.cumulative_gain, self.agent_b.cumulative_gain),
            )
            proposing_agent = self.agent_a if proposer == 0 else self.agent_b
            if wants_to_stop(proposing_agent, remaining, reassignable):
                reason = (
                    TerminationReason.EARLY_STOP_A
                    if proposer == 0
                    else TerminationReason.EARLY_STOP_B
                )
                if record_messages:
                    self.messages.append(
                        StopMessage(
                            sender="a" if proposer == 0 else "b", reason=reason.value
                        )
                    )
                break

            prefs_a = self.agent_a.disclosed_preferences()
            prefs_b = self.agent_b.disclosed_preferences()
            own, other = (
                (prefs_a, prefs_b) if proposer == 0 else (prefs_b, prefs_a)
            )
            candidates = remaining[:, np.newaxis] & ~banned
            pick = propose(own, other, candidates, allow_zero=reassignable)
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

            choices[flow_index] = alternative
            remaining[flow_index] = False
            n_remaining -= 1
            negotiated[flow_index] = True
            true_a = commit(self.agent_a, flow_index, alternative, pref_a)
            true_b = commit(self.agent_b, flow_index, alternative, pref_b)
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

            if cfg.reassignment_policy.should_reassign(negotiated_size, total_size):
                self.agent_a.reassign(remaining)
                self.agent_b.reassign(remaining)
                cfg.reassignment_policy.mark_reassigned(negotiated_size)
                reassignments += 1
                if record_messages:
                    for sender_name, agent in (("a", self.agent_a),
                                               ("b", self.agent_b)):
                        prefs = agent.disclosed_preferences()
                        self.messages.append(
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


class ReferenceRollbackSession(PerRoundSession):
    """The per-round session with the min-and-remove win-win rollback."""

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
