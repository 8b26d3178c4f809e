"""Tests for the Section 5.4 cheating machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agent import NegotiationAgent
from repro.core.cheating import CheatingAgent, inflate_best_alternative
from repro.core.evaluators import StaticPreferenceEvaluator
from repro.core.preferences import PreferenceRange
from repro.core.session import NegotiationSession
from repro.errors import NegotiationError


class TestInflateBestAlternative:
    def test_best_becomes_max_sum(self):
        true = np.array([[0, 4, 1]])
        opp = np.array([[0, -5, 3]])
        # Joint best is alt 2 (1 + 3 = 4); cheater's best is alt 1.
        disclosed = inflate_best_alternative(true, opp, PreferenceRange(10))
        combined = disclosed[0] + opp[0]
        assert combined[1] == combined.max()

    def test_inflation_is_minimal(self):
        true = np.array([[0, 4, 1]])
        opp = np.array([[0, -5, 3]])
        disclosed = inflate_best_alternative(true, opp, PreferenceRange(10))
        # needed = maxsum(4) - opp[best](-5) = 9; no more than that.
        assert disclosed[0, 1] == 9

    def test_no_change_when_already_max_sum(self):
        true = np.array([[0, 5]])
        opp = np.array([[0, 5]])
        disclosed = inflate_best_alternative(true, opp, PreferenceRange(10))
        assert np.array_equal(disclosed, true)

    def test_cap_triggers_lowering_others(self):
        # Inflation capped at P: the other alternatives get lowered as far
        # as the range allows. When even -P cannot suppress a rival
        # alternative (the peer loves it too much), the cheat is simply
        # bounded — classes never leave [-P, P].
        true = np.array([[0, 2, 1]])
        opp = np.array([[0, -9, 9]])
        p = PreferenceRange(3)
        disclosed = inflate_best_alternative(true, opp, p)
        assert disclosed.max() <= 3 and disclosed.min() >= -3
        # Both non-best alternatives were pushed to the floor.
        assert disclosed[0, 0] == -3
        assert disclosed[0, 2] == -3
        # The best alternative was inflated to the ceiling.
        assert disclosed[0, 1] == 3

    def test_shape_mismatch(self):
        with pytest.raises(NegotiationError):
            inflate_best_alternative(np.zeros((1, 2)), np.zeros((2, 2)),
                                     PreferenceRange(5))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 8), st.integers(2, 4),
           st.integers(1, 10))
    def test_invariants(self, seed, n_flows, n_alts, p):
        rng = np.random.default_rng(seed)
        true = rng.integers(-p, p + 1, size=(n_flows, n_alts))
        opp = rng.integers(-p, p + 1, size=(n_flows, n_alts))
        range_ = PreferenceRange(p)
        disclosed = inflate_best_alternative(true, opp, range_)
        # Always inside [-P, P].
        assert disclosed.min() >= -p and disclosed.max() <= p
        for f in range(n_flows):
            best = int(np.argmax(true[f]))
            combined = disclosed[f] + opp[f]
            for j in range(n_alts):
                # The cheater's best attains the combined maximum, except
                # where the floor -P could not suppress a rival the peer
                # strongly favors (the cheat is range-bounded).
                assert (
                    combined[best] >= combined[j]
                    or disclosed[f, j] == -p
                )


class TestCheatingAgent:
    def _agents(self):
        true_cheat = np.array([[0, 4, 1]])
        true_honest = np.array([[0, -5, 3]])
        defaults = np.zeros(1, dtype=int)
        honest = NegotiationAgent(
            "honest", StaticPreferenceEvaluator(true_honest, defaults)
        )
        cheater = CheatingAgent(
            "cheater",
            StaticPreferenceEvaluator(true_cheat, defaults),
            opponent=honest,
            range_=PreferenceRange(10),
        )
        return cheater, honest

    def test_disclosed_differs_from_true(self):
        cheater, _ = self._agents()
        assert not np.array_equal(
            cheater.disclosed_preferences(), cheater.true_preferences()
        )

    def test_stop_decisions_use_true_prefs(self):
        cheater, _ = self._agents()
        # True prefs have a positive entry, so no stop.
        assert cheater.gain_flows(np.array([True])) == [0]
        # A cheater with no true gain stops, though its inflated disclosure
        # shows one.
        defaults = np.zeros(1, dtype=int)
        honest = NegotiationAgent(
            "honest", StaticPreferenceEvaluator(np.array([[0, 3, 1]]), defaults)
        )
        cheater = CheatingAgent(
            "cheater",
            StaticPreferenceEvaluator(np.array([[0, 0, -1]]), defaults),
            opponent=honest,
            range_=PreferenceRange(10),
        )
        assert cheater.disclosed_preferences().max() > 0
        assert cheater.gain_flows(np.array([True])) == []

    def test_unbound_opponent_rejected(self):
        cheater = CheatingAgent(
            "c", StaticPreferenceEvaluator(np.zeros((1, 2), int),
                                           np.zeros(1, int)),
        )
        with pytest.raises(NegotiationError):
            cheater.disclosed_preferences()

    def test_two_cheaters_rejected(self):
        a = CheatingAgent(
            "a", StaticPreferenceEvaluator(np.zeros((1, 2), int),
                                           np.zeros(1, int)),
        )
        b = CheatingAgent(
            "b", StaticPreferenceEvaluator(np.zeros((1, 2), int),
                                           np.zeros(1, int)),
        )
        with pytest.raises(NegotiationError):
            a.bind_opponent(b)

    def test_cache_invalidated_on_reassign(self):
        cheater, honest = self._agents()
        first = cheater.disclosed_preferences()
        assert cheater.disclosed_preferences() is first  # cached
        cheater.reassign(np.array([True]))
        second = cheater.disclosed_preferences()
        assert second is not first


class TestCheatingInSession:
    def test_truthful_side_never_loses(self):
        """Paper: "a cheating ISP can never cause the truthful ISP to lose"."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            n_flows, n_alts = 6, 3
            true_a = rng.integers(-5, 6, size=(n_flows, n_alts))
            true_b = rng.integers(-5, 6, size=(n_flows, n_alts))
            defaults = rng.integers(0, n_alts, size=n_flows)
            rows = np.arange(n_flows)
            true_a[rows, defaults] = 0
            true_b[rows, defaults] = 0
            honest = NegotiationAgent(
                "b", StaticPreferenceEvaluator(true_b, defaults)
            )
            cheater = CheatingAgent(
                "a", StaticPreferenceEvaluator(true_a, defaults),
                opponent=honest, range_=PreferenceRange(5),
            )
            out = NegotiationSession(cheater, honest, defaults=defaults).run()
            # The honest agent's ledger is its true metric.
            assert honest.true_cumulative - sum(
                r.true_b for r in out.rounds
                if r.accepted and r.round_index in out.rolled_back
            ) >= -1e-9
            assert out.true_gain_b >= -1e-9
