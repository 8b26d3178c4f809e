"""Tests for repro.core.agent."""

import numpy as np
import pytest

from repro.core.agent import NegotiationAgent
from repro.core.evaluators import StaticPreferenceEvaluator
from repro.core.outcomes import TerminationReason
from repro.core.session import NegotiationSession
from repro.core.strategies import TerminationMode
from repro.errors import NegotiationError

from reference import negotiation as reference


def make_agent(prefs, defaults=None, term=TerminationMode.EARLY):
    prefs = np.asarray(prefs)
    if defaults is None:
        defaults = np.zeros(prefs.shape[0], dtype=int)
    return NegotiationAgent("agent", StaticPreferenceEvaluator(prefs, defaults),
                            termination=term)


class TestConstruction:
    def test_empty_name_rejected(self):
        ev = StaticPreferenceEvaluator(np.zeros((1, 2), int), np.zeros(1, int))
        with pytest.raises(NegotiationError):
            NegotiationAgent("", ev)

    def test_initial_state(self):
        agent = make_agent([[0, 1]])
        assert agent.cumulative_gain == 0
        assert agent.true_cumulative == 0.0


class TestDisclosure:
    def test_truthful_disclosure(self):
        agent = make_agent([[0, 3]])
        assert np.array_equal(agent.disclosed_preferences(),
                              agent.true_preferences())


def stops(agent, remaining, reassignable=False) -> bool:
    """Whether an EARLY agent stops on its turn: no gain flow is left."""
    return not agent.gain_flows(np.asarray(remaining), reassignable)


class TestStop:
    def test_stops_without_positive_prefs(self):
        agent = make_agent([[0, -1], [0, 0]])
        assert stops(agent, [True, True])

    def test_continues_with_positive_pref(self):
        agent = make_agent([[0, -1], [0, 2]])
        assert agent.gain_flows(np.array([True, True])) == [1]

    def test_masked_positive_ignored(self):
        agent = make_agent([[0, 2], [0, 0]])
        # The only positive pref belongs to an already-negotiated flow.
        assert stops(agent, [False, True])

    def test_empty_remaining_stops(self):
        agent = make_agent([[0, 2]])
        assert stops(agent, [False])

    def test_reassignable_continues_at_zero(self):
        agent = make_agent([[0, 0]])
        assert stops(agent, [True], reassignable=False)
        assert not stops(agent, [True], reassignable=True)

    def test_reassignable_stops_when_all_negative(self):
        # Every remaining alternative strictly hurts: even reassignable, stop.
        ev = StaticPreferenceEvaluator(np.array([[-1, -2]]), np.array([1]))
        assert stops(NegotiationAgent("x", ev), [True], reassignable=True)
        # The default maps to 0, so reassignable keeps a normal row alive.
        agent = make_agent([[0, -2]])
        assert not stops(agent, [True], reassignable=True)

    def test_full_termination_never_stops(self):
        # A has no gain flow, which would stop it under early termination;
        # under full termination it proposes, and B takes its free gain.
        agent = make_agent([[0, 0]], term=TerminationMode.FULL)
        peer = make_agent([[0, 2]], term=TerminationMode.FULL)
        assert stops(agent, [True])
        outcome = NegotiationSession(agent, peer).run()
        assert outcome.reason is TerminationReason.EXHAUSTED
        assert outcome.choices.tolist() == [1]


class TestIncrementalStop:
    """The gain-flow stop test vs the reference masked rescan, over
    shrinking, growing and reassigned masks."""

    def _incremental(self, prefs, stages=None):
        return NegotiationAgent(
            "fast",
            StaticPreferenceEvaluator(
                prefs, np.zeros(prefs.shape[0], int), stages=stages
            ),
        )

    def test_matches_scan_over_shrinking_masks(self):
        rng = np.random.default_rng(99)
        prefs = rng.integers(-5, 6, size=(40, 4))
        agent = self._incremental(prefs)
        remaining = np.ones(40, dtype=bool)
        order = rng.permutation(40)
        for f in order:
            for reassignable in (False, True):
                assert stops(agent, remaining, reassignable) == (
                    reference.wants_to_stop(agent, remaining, reassignable)
                )
            remaining[f] = False
        assert stops(agent, remaining)  # empty mask stops

    def test_reassign_invalidates_cache(self):
        first = np.array([[0, 3], [0, 1]])
        second = np.array([[0, -1], [0, -2]])
        agent = self._incremental(first, stages=[second])
        remaining = np.ones(2, dtype=bool)
        assert not stops(agent, remaining)
        agent.reassign(remaining)  # evaluator advances to the second stage
        assert stops(agent, remaining)

    def test_mask_growth_falls_back_to_rebuild(self):
        prefs = np.array([[0, 5], [0, -1]])
        agent = self._incremental(prefs)
        # First query with only the losing flow remaining...
        assert stops(agent, [False, True])
        # ...then a *wider* mask (not a subset): must see flow 0 again.
        assert not stops(agent, [True, True])

    def test_session_outcomes_identical(self):
        """The session's stop cursor and the per-round rescan agree."""
        rng = np.random.default_rng(5)
        prefs_a = rng.integers(-3, 4, size=(25, 3))
        prefs_b = rng.integers(-3, 4, size=(25, 3))
        defaults = np.zeros(25, dtype=int)
        prefs_a[np.arange(25), defaults] = 0
        prefs_b[np.arange(25), defaults] = 0

        def run(session_cls):
            session = session_cls(
                NegotiationAgent("a", StaticPreferenceEvaluator(prefs_a, defaults)),
                NegotiationAgent("b", StaticPreferenceEvaluator(prefs_b, defaults)),
                defaults=defaults,
            )
            return reference.outcome_signature(session.run())

        assert run(NegotiationSession) == run(reference.PerRoundSession)


class TestCommit:
    def test_commit_epoch_updates_true_ledger(self):
        agent = make_agent([[0, 3], [0, 2]])
        # Static evaluator: true == class. The session adds the class gains.
        assert agent.commit_epoch([0, 1], [1, 1]) == [3.0, 2.0]
        assert agent.true_cumulative == 5.0
        assert agent.cumulative_gain == 0

    def test_reset(self):
        agent = make_agent([[0, 3]])
        agent.commit_epoch([0], [1])
        agent.cumulative_gain += 3
        agent.reset()
        assert agent.cumulative_gain == 0
        assert agent.true_cumulative == 0.0


class TestAccept:
    def test_default_always_accepts(self):
        agent = make_agent([[0, -9]])
        assert agent.decide_accept(0, 1, other_pref=1)
