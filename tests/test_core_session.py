"""Tests for the Nexit session engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agent import NegotiationAgent
from repro.core.evaluators import StaticCostEvaluator, StaticPreferenceEvaluator
from repro.core.mapping import LinearDeltaMapper
from repro.core.outcomes import TerminationReason
from repro.core.preferences import PreferenceRange
from repro.core.session import NegotiationSession, SessionConfig
from repro.core.strategies import (
    LowerGainTurns,
    ReassignEveryFraction,
    TerminationMode,
    VetoIfWorseThanDefault,
)
from repro.errors import NegotiationError

from reference.negotiation import outcome_signature

#: Floors that roll nothing back: no class gain is below -inf, and the
#: true-metric guard applies only at a floor of 0.
NO_ROLLBACK = (float("-inf"), float("-inf"))


def make_session(prefs_a, prefs_b, defaults=None, config=None, sizes=None,
                 term=TerminationMode.EARLY):
    prefs_a = np.asarray(prefs_a)
    prefs_b = np.asarray(prefs_b)
    if defaults is None:
        defaults = np.zeros(prefs_a.shape[0], dtype=int)
    ev_a = StaticPreferenceEvaluator(prefs_a, defaults)
    ev_b = StaticPreferenceEvaluator(prefs_b, defaults)
    return NegotiationSession(
        NegotiationAgent("a", ev_a, termination=term),
        NegotiationAgent("b", ev_b, termination=term),
        defaults=defaults,
        sizes=sizes,
        config=config,
    )


class TestBasicDynamics:
    def test_uncompensated_concession_never_happens(self):
        # A single flow where only B gains: A, proposing first with no
        # upside anywhere, stops immediately — no one-sided charity.
        out = make_session([[0, -1]], [[0, 3]]).run()
        assert out.choices[0] == 0
        assert out.reason == TerminationReason.EARLY_STOP_A

    def test_positive_sum_trade_happens_under_full_termination(self):
        # Under full termination with no rollback floor, the socially
        # positive (but A-losing) trade completes — the social-welfare
        # configuration of the protocol.
        out = make_session([[0, -1]], [[0, 3]], term=TerminationMode.FULL,
                           config=SessionConfig(rollback_floors=NO_ROLLBACK)).run()
        assert out.choices[0] == 1
        assert out.gain_a == -1 and out.gain_b == 3

    def test_full_termination_with_rollback_reverts_loser(self):
        out = make_session([[0, -1]], [[0, 3]],
                           term=TerminationMode.FULL).run()
        # The trade is proposed and accepted, then rolled back to protect A.
        assert out.choices[0] == 0
        assert out.gain_a >= 0 and out.gain_b >= 0
        assert len(out.rolled_back) == 1

    def test_negative_sum_trade_rejected(self):
        out = make_session([[0, -3]], [[0, 1]],
                           term=TerminationMode.FULL).run()
        assert out.choices[0] == 0
        assert out.reason == TerminationReason.NO_JOINT_GAIN

    def test_mutual_compensation_across_flows(self):
        """The core Nexit dynamic: trade a loss here for a gain there."""
        prefs_a = [[0, -2], [0, 5]]
        prefs_b = [[0, 5], [0, -2]]
        out = make_session(prefs_a, prefs_b).run()
        assert list(out.choices) == [1, 1]
        assert out.gain_a == 3 and out.gain_b == 3

    def test_flows_removed_after_acceptance(self):
        out = make_session([[0, 1]], [[0, 1]]).run()
        assert out.n_negotiated == 1
        assert out.reason == TerminationReason.EXHAUSTED

    def test_defaults_kept_for_unnegotiated(self):
        defaults = np.array([1, 0])
        out = make_session([[0, 0], [0, 0]], [[0, 0], [0, 0]],
                           defaults=defaults).run()
        assert np.array_equal(out.choices, defaults)


class TestWinWinGuarantee:
    def test_rollback_protects_loser(self):
        # Only A gains; every trade hurts B: nothing should survive.
        prefs_a = [[0, 5], [0, 4]]
        prefs_b = [[0, -1], [0, -1]]
        out = make_session(prefs_a, prefs_b).run()
        assert out.gain_a >= 0 and out.gain_b >= 0
        assert np.array_equal(out.choices, [0, 0])
        assert len(out.rolled_back) > 0

    def test_rollback_keeps_good_trades(self):
        # Two good trades plus one that pushes B negative.
        prefs_a = [[0, -1], [0, 5], [0, 9]]
        prefs_b = [[0, 4], [0, -2], [0, -3]]
        out = make_session(prefs_a, prefs_b).run()
        assert out.gain_a >= 0 and out.gain_b >= 0
        # At least the mutually-compensating pair survives.
        assert out.n_negotiated >= 2

    def test_rollback_disabled(self):
        prefs_a = [[0, 5], [0, 4]]
        prefs_b = [[0, -1], [0, -1]]
        out = make_session(prefs_a, prefs_b,
                           config=SessionConfig(rollback_floors=NO_ROLLBACK)).run()
        # -inf floors roll nothing back, so B ends negative: the outcome
        # a session without the rollback step reaches.
        assert out.rolled_back == []
        assert list(out.choices) == [1, 0]
        assert (out.gain_a, out.gain_b) == (5, -1)
        assert (out.true_gain_a, out.true_gain_b) == (5.0, -1.0)

    @settings(deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 12), st.integers(2, 4))
    def test_never_worse_than_default(self, seed, n_flows, n_alts):
        """Property: with rollback, both class gains are >= 0 always."""
        rng = np.random.default_rng(seed)
        prefs_a = rng.integers(-5, 6, size=(n_flows, n_alts))
        prefs_b = rng.integers(-5, 6, size=(n_flows, n_alts))
        defaults = rng.integers(0, n_alts, size=n_flows)
        rows = np.arange(n_flows)
        prefs_a[rows, defaults] = 0
        prefs_b[rows, defaults] = 0
        out = make_session(prefs_a, prefs_b, defaults=defaults).run()
        assert out.gain_a >= 0
        assert out.gain_b >= 0
        assert out.true_gain_a >= -1e-9
        assert out.true_gain_b >= -1e-9


class TestTermination:
    def test_early_stop_when_no_own_upside(self):
        # A has zero upside anywhere and proposes first: stops immediately.
        prefs_a = [[0, 0], [0, -1]]
        prefs_b = [[0, 1], [0, 1]]
        out = make_session(prefs_a, prefs_b).run()
        assert out.reason == TerminationReason.EARLY_STOP_A
        assert out.n_negotiated == 0

    def test_full_termination_exhausts_joint_gains(self):
        prefs_a = [[0, 0], [0, -1]]
        prefs_b = [[0, 1], [0, 1]]
        out = make_session(prefs_a, prefs_b, term=TerminationMode.FULL).run()
        # Flow 0 is a free Pareto improvement for B; full termination takes it.
        assert out.choices[0] == 1
        assert out.gain_a == 0 and out.gain_b == 1

    def test_round_limit(self):
        prefs_a = [[0, 1]] * 5
        prefs_b = [[0, 1]] * 5
        out = make_session(prefs_a, prefs_b,
                           config=SessionConfig(max_rounds=2)).run()
        assert out.reason == TerminationReason.ROUND_LIMIT
        assert out.n_negotiated == 2


class TestVeto:
    def test_vetoed_proposal_banned_and_negotiation_continues(self):
        # Flow 0 (A +9, B -5) ties flow 1 (A +1, B +3) on combined sum;
        # A's local tie-break proposes flow 0 first, B vetoes it (its
        # cumulative would go negative), and negotiation then completes
        # the mutually good flow 1 instead of deadlocking.
        prefs_a = [[0, 9], [0, 1]]
        prefs_b = [[0, -5], [0, 3]]
        ev_a = StaticPreferenceEvaluator(np.array(prefs_a), np.zeros(2, int))
        ev_b = StaticPreferenceEvaluator(np.array(prefs_b), np.zeros(2, int))
        session = NegotiationSession(
            NegotiationAgent("a", ev_a),
            NegotiationAgent("b", ev_b, acceptance=VetoIfWorseThanDefault()),
        )
        out = session.run()
        assert out.choices[0] == 0  # vetoed
        assert out.choices[1] == 1  # accepted
        rejected = [r for r in out.rounds if not r.accepted]
        assert len(rejected) == 1
        assert rejected[0].flow_index == 0


class TestReassignment:
    def test_figure3_dynamics(self):
        """Zero-gain commit then reassignment-revealed gain (Figure 3)."""
        p1 = PreferenceRange(1)
        ev_a = StaticPreferenceEvaluator(
            np.array([[-1, 0], [0, 0]]), np.array([1, 1]), p1,
            stages=[np.array([[-1, 0], [0, 0]])],
        )
        ev_b = StaticPreferenceEvaluator(
            np.array([[0, 0], [0, 0]]), np.array([1, 1]), p1,
            stages=[np.array([[0, 0], [1, 0]])],
        )
        session = NegotiationSession(
            NegotiationAgent("a", ev_a),
            NegotiationAgent("b", ev_b),
            config=SessionConfig(reassignment_policy=ReassignEveryFraction(0.5)),
        )
        out = session.run()
        assert list(out.choices) == [1, 0]
        assert out.reassignments >= 1

    def test_reused_config_starts_each_session_afresh(self):
        """Regression: a reused config carried the reassignment threshold
        of its last session into the next one."""
        # Each reassignment reveals a larger class on every remaining flow.
        stages = [np.tile([[0, k]], (10, 1)) for k in range(1, 7)]

        def run(config):
            agents = [
                NegotiationAgent(name, StaticPreferenceEvaluator(
                    stages[0], np.zeros(10, int), stages=stages[1:]
                ))
                for name in "ab"
            ]
            return outcome_signature(NegotiationSession(*agents, config=config).run())

        def config():
            return SessionConfig(reassignment_policy=ReassignEveryFraction(0.2))

        shared = config()
        reused = [run(shared), run(shared)]
        assert reused == [run(config()), run(config())]
        assert reused[1][-1] == 5  # reassignments, as in the first session

    def test_reassignment_counted_by_traffic_fraction(self):
        prefs = [[0, 1]] * 4
        out = make_session(
            prefs, prefs,
            sizes=np.array([1.0, 1.0, 1.0, 97.0]),
            config=SessionConfig(
                reassignment_policy=ReassignEveryFraction(0.5)
            ),
        ).run()
        # Only the 97-unit flow crosses the 50% threshold.
        assert out.reassignments == 1


class TestTurnPolicies:
    def test_lower_gain_turns(self):
        # Flow 0 favors A, flow 1 favors B; the policy hands the turn to
        # whoever trails in cumulative gain.
        prefs_a = [[0, 2], [0, 1]]
        prefs_b = [[0, 1], [0, 2]]
        cfg = SessionConfig(turn_policy=LowerGainTurns())
        out = make_session(prefs_a, prefs_b, config=cfg).run()
        proposers = [r.proposer for r in out.accepted_rounds()]
        # A (tie at 0,0) proposes flow 0 and pulls ahead 2-1; B, trailing,
        # gets the next turn.
        assert proposers == [0, 1]


class TestValidation:
    def test_shape_mismatch_rejected(self):
        ev_a = StaticPreferenceEvaluator(np.zeros((2, 2), int), np.zeros(2, int))
        ev_b = StaticPreferenceEvaluator(np.zeros((3, 2), int), np.zeros(3, int))
        with pytest.raises(NegotiationError):
            NegotiationSession(NegotiationAgent("a", ev_a),
                               NegotiationAgent("b", ev_b))

    def test_bad_sizes_rejected(self):
        with pytest.raises(NegotiationError):
            make_session([[0, 1]], [[0, 1]], sizes=np.array([0.0]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_sizes_rejected(self, bad):
        # Regression: min() of [1, nan] is nan, which passed ``<= 0``.
        with pytest.raises(NegotiationError, match="finite"):
            make_session([[0, 1], [0, 1]], [[0, 1], [0, 1]],
                         sizes=np.array([1.0, bad]))

    @staticmethod
    def _session(defaults):
        """Evaluators with valid defaults; ``defaults`` reach the session
        only (an evaluator refuses bad defaults itself)."""
        agents = []
        for name in "ab":
            evaluator = StaticPreferenceEvaluator(
                np.tile([0, 1], (2, 1)), np.zeros(2, dtype=int)
            )
            agents.append(NegotiationAgent(name, evaluator))
        return NegotiationSession(*agents, defaults=defaults)

    def test_bad_defaults_rejected(self):
        with pytest.raises(NegotiationError):
            self._session(np.array([7, 0]))

    @pytest.mark.parametrize("floors", [(float("nan"), 0.0), (0.0, float("nan"))])
    def test_nan_floor_rejected(self, floors):
        # Regression: a NaN floor compares False against every gain, so it
        # switched the win-win rollback off without a word.
        with pytest.raises(NegotiationError, match="NaN"):
            SessionConfig(rollback_floors=floors)

    def test_infinite_credit_floor_accepted(self):
        # CreditLedger(credit_limit=inf) hands the session -inf floors.
        config = SessionConfig(rollback_floors=(float("-inf"), 0.0))
        out = make_session([[0, -1]], [[0, 3]], term=TerminationMode.FULL,
                           config=config).run()
        assert out.gain_a == -1 and out.rolled_back == []

    @pytest.mark.parametrize("floors", [0.0, (0.0,), (0.0, 0.0, 0.0)])
    def test_floors_not_a_pair_rejected(self, floors):
        # Regression: a scalar raised a bare TypeError from len().
        with pytest.raises(NegotiationError, match="pair"):
            SessionConfig(rollback_floors=floors)

    @pytest.mark.parametrize("floors", [("x", 0.0), (0.0, None), (False, 0.0)])
    def test_non_numeric_floor_rejected(self, floors):
        # Regression: a string raised a bare TypeError from math.isnan.
        with pytest.raises(NegotiationError, match="real numbers"):
            SessionConfig(rollback_floors=floors)

    @pytest.mark.parametrize(
        "defaults", [np.array([0.7, 0.2]), np.array([True, False])]
    )
    def test_non_integer_defaults_rejected(self, defaults):
        # Regression: floats were truncated to [0, 0] and a bool mask read
        # as [1, 0].
        with pytest.raises(NegotiationError, match="integer"):
            self._session(defaults)

    def test_per_round_proposal_policy_rejected(self):
        class PerRoundPolicy:
            def propose(self, own, other, candidates, allow_zero=False):
                return None

        with pytest.raises(NegotiationError, match="viable_cells or pick_order"):
            SessionConfig(proposal_policy=PerRoundPolicy())

    def test_evaluator_without_commit_epoch_rejected(self):
        class PerFlowEvaluator(StaticPreferenceEvaluator):
            commit_epoch = None

        ev = PerFlowEvaluator(np.zeros((1, 2), int), np.zeros(1, int))
        peer = StaticPreferenceEvaluator(np.zeros((1, 2), int), np.zeros(1, int))
        with pytest.raises(NegotiationError, match="commit_epoch"):
            NegotiationSession(NegotiationAgent("a", ev), NegotiationAgent("b", peer))

    def test_negative_max_rounds_rejected(self):
        # Regression: -5 used to end the session with ROUND_LIMIT at once.
        with pytest.raises(NegotiationError, match="max_rounds"):
            SessionConfig(max_rounds=-5)

    def test_fractional_max_rounds_rejected(self):
        # Regression: 2.5 used to act as 3.
        with pytest.raises(NegotiationError, match="max_rounds"):
            SessionConfig(max_rounds=2.5)

    def test_bool_max_rounds_rejected(self):
        with pytest.raises(NegotiationError, match="max_rounds"):
            SessionConfig(max_rounds=True)

    def test_zero_max_rounds_runs_no_round(self):
        out = make_session([[0, 1]], [[0, 1]],
                           config=SessionConfig(max_rounds=0)).run()
        assert out.reason == TerminationReason.ROUND_LIMIT
        assert out.n_rounds == 0


class TestMessageTranscript:
    def test_transcript_structure(self):
        cfg = SessionConfig(record_messages=True)
        session = make_session([[0, -1], [0, 5]], [[0, 5], [0, -1]], config=cfg)
        out = session.run()
        kinds = [type(m).__name__ for m in session.messages]
        assert kinds.count("PreferenceAdvertisement") == 2
        assert kinds.count("ProposalMessage") == out.n_rounds
        assert kinds.count("AcceptMessage") == len(out.accepted_rounds())

    def test_no_transcript_by_default(self):
        session = make_session([[0, 1]], [[0, 1]])
        session.run()
        assert session.messages == []


class TestTrueGainAccounting:
    def test_true_gains_from_cost_evaluators(self):
        # Mirrored compensation: each ISP loses 2.5 km on one flow and
        # gains 9 km on the other.
        costs_a = np.array([[10.0, 12.5], [20.0, 11.0]])
        costs_b = np.array([[20.0, 11.0], [10.0, 12.5]])
        defaults = np.array([0, 0])
        mapper = LinearDeltaMapper(PreferenceRange(10), unit=1.0)
        session = NegotiationSession(
            NegotiationAgent("a", StaticCostEvaluator(costs_a, defaults, mapper)),
            NegotiationAgent("b", StaticCostEvaluator(costs_b, defaults, mapper)),
        )
        out = session.run()
        assert list(out.choices) == [1, 1]
        assert out.true_gain_a == pytest.approx(6.5)
        assert out.true_gain_b == pytest.approx(6.5)

    def test_true_metric_rollback(self):
        # Classes say the trade is neutral-positive, but A's true metric
        # loses: the session must roll it back.
        costs_a = np.array([[10.0, 10.4]])  # true loss, class 0
        costs_b = np.array([[20.0, 19.0]])  # true gain +1, class +1
        mapper = LinearDeltaMapper(PreferenceRange(10), unit=1.0)
        session = NegotiationSession(
            NegotiationAgent("a", StaticCostEvaluator(costs_a, np.array([0]), mapper)),
            NegotiationAgent("b", StaticCostEvaluator(costs_b, np.array([0]), mapper)),
        )
        out = session.run()
        assert out.choices[0] == 0
        assert out.true_gain_a == 0.0
