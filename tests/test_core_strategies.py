"""Tests for repro.core.strategies (protocol-step policies)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategies import (
    AlternatingTurns,
    AlwaysAccept,
    BestLocalProposals,
    CoinTossTurns,
    LowerGainTurns,
    MaxCombinedProposals,
    ReassignEveryFraction,
    ReassignNever,
    VetoIfWorseThanDefault,
)
from repro.errors import ConfigurationError

from reference import negotiation as reference


class TestTurnPolicies:
    def test_alternating(self):
        policy = AlternatingTurns()
        assert [policy.proposer(i, (0, 0)) for i in range(4)] == [0, 1, 0, 1]

    def test_alternating_first_b(self):
        policy = AlternatingTurns(first=1)
        assert policy.proposer(0, (0, 0)) == 1

    def test_alternating_bad_first(self):
        with pytest.raises(ConfigurationError):
            AlternatingTurns(first=2)

    def test_lower_gain(self):
        policy = LowerGainTurns()
        assert policy.proposer(0, (5, 3)) == 1
        assert policy.proposer(0, (2, 3)) == 0
        assert policy.proposer(0, (3, 3)) == 0  # tie -> A

    def test_coin_toss_deterministic_in_seed(self):
        policy_a = CoinTossTurns(9)
        policy_b = CoinTossTurns(9)
        a = [policy_a.proposer(i, (0, 0)) for i in range(20)]
        b = [policy_b.proposer(i, (0, 0)) for i in range(20)]
        assert a == b
        assert set(a) == {0, 1}


def order(policy, own, other, candidates=None, allow_zero=False):
    """The cells ``policy`` offers the proposer holding ``own``, in order.

    ``candidates`` masks the (F, I) cells still on the table (default: all);
    the session's ``remaining`` is all-True and its bans are the rest.
    """
    own, other = np.asarray(own), np.asarray(other)
    if candidates is None:
        candidates = np.ones_like(own, dtype=bool)
    viable = policy.viable_cells(
        own, other, np.ones(own.shape[0], dtype=bool), ~candidates, allow_zero
    )
    return list(zip(*policy.pick_order(own, other, viable)))


class TestMaxCombinedProposals:
    def test_picks_max_sum(self):
        own = np.array([[0, 2], [0, 5]])
        other = np.array([[0, 1], [0, -1]])
        # Combined 4 beats 3; the zero-sum defaults are not worth proposing.
        assert order(MaxCombinedProposals(), own, other) == [(1, 1), (0, 1)]

    def test_tie_break_own_preference(self):
        own = np.array([[0, 1], [0, 3]])
        other = np.array([[0, 3], [0, 1]])
        # Both combined 4; own pref 3 > 1.
        assert order(MaxCombinedProposals(), own, other) == [(1, 1), (0, 1)]

    def test_requires_positive_combined(self):
        own = np.array([[0, -1]])
        other = np.array([[0, 1]])
        assert order(MaxCombinedProposals(), own, other) == []

    def test_allow_zero(self):
        own = np.array([[0, -1]])
        other = np.array([[0, 1]])
        # The zero-sum default commit is allowed; own 0 beats -1.
        assert order(MaxCombinedProposals(), own, other, allow_zero=True) == [
            (0, 0), (0, 1)
        ]

    def test_respects_candidate_mask(self):
        own = np.array([[0, 5]])
        other = np.array([[0, 5]])
        mask = np.array([[True, False]])
        assert order(MaxCombinedProposals(), own, other, mask) == []

    def test_empty_mask(self):
        own = np.zeros((1, 2), dtype=int)
        other = np.zeros((1, 2), dtype=int)
        mask = np.zeros((1, 2), dtype=bool)
        assert order(MaxCombinedProposals(), own, other, mask) == []

    def test_deterministic_final_tie_break(self):
        own = np.array([[1, 1], [1, 1]])
        other = np.array([[1, 1], [1, 1]])
        # Lowest flow, then lowest alternative.
        assert order(MaxCombinedProposals(), own, other) == [
            (0, 0), (0, 1), (1, 0), (1, 1)
        ]


class TestBestLocalProposals:
    def test_picks_own_best(self):
        own = np.array([[0, 2], [0, 5]])
        other = np.array([[0, 9], [0, -9]])
        assert order(BestLocalProposals(), own, other) == [(1, 1), (0, 1)]

    def test_minimal_negative_impact_tiebreak(self):
        own = np.array([[0, 5], [0, 5]])
        other = np.array([[0, -4], [0, -1]])
        # Same own gain; least harm to the peer first.
        assert order(BestLocalProposals(), own, other) == [(1, 1), (0, 1)]

    def test_stops_without_own_gain(self):
        own = np.array([[0, 0]])
        other = np.array([[0, 9]])
        assert order(BestLocalProposals(), own, other) == []


@st.composite
def pick_walks(draw):
    """Random classes, remaining flows, bans and ``allow_zero``, plus the
    fate of each successive pick (accepted: its flow leaves; else banned)."""
    n_flows = draw(st.integers(1, 7))
    n_alts = draw(st.integers(1, 4))
    p = draw(st.integers(1, 3))
    n_cells = n_flows * n_alts

    def flags(n):
        return draw(st.lists(st.booleans(), min_size=n, max_size=n))

    def classes():
        values = draw(st.lists(st.integers(-p, p), min_size=n_cells,
                               max_size=n_cells))
        return np.asarray(values, dtype=np.int64).reshape(n_flows, n_alts)

    return (
        classes(),
        classes(),
        np.asarray(flags(n_flows)),
        np.asarray(flags(n_cells)).reshape(n_flows, n_alts),
        draw(st.booleans()),
        flags(n_cells),
    )


class TestPickOrderMatchesPerRoundRule:
    """Each policy's order, walked as a session walks it, proposes exactly
    what the per-round rule picks from the cells left on the table."""

    @settings(deadline=None)
    @given(walk=pick_walks(), policy=st.sampled_from(
        [MaxCombinedProposals(), BestLocalProposals()]
    ))
    def test_walk(self, walk, policy):
        prefs_a, prefs_b, remaining, banned, allow_zero, accepts = walk
        rule = reference.PROPOSAL_RULES[type(policy)]
        viable = policy.viable_cells(prefs_a, prefs_b, remaining, banned, allow_zero)
        for own, other in ((prefs_a, prefs_b), (prefs_b, prefs_a)):
            left, bans = remaining.copy(), banned.copy()
            flows, alternatives = policy.pick_order(own, other, viable)
            cursor = iter(zip(flows, alternatives))
            for accept in accepts:
                want = rule(own, other, left[:, None] & ~bans, allow_zero)
                got = next(
                    (cell for cell in cursor if left[cell[0]] and not bans[cell]),
                    None,
                )
                assert got == want
                if got is None:
                    break
                if accept:
                    left[got[0]] = False
                else:
                    bans[got] = True


class TestAcceptancePolicies:
    def test_always_accept(self):
        assert AlwaysAccept().accept(-5, 10, -100)

    def test_veto_protects_default(self):
        veto = VetoIfWorseThanDefault()
        assert veto.accept(-3, 9, 5)  # 5 - 3 >= 0
        assert not veto.accept(-6, 9, 5)  # 5 - 6 < 0
        assert veto.accept(0, 0, 0)


class TestReassignmentPolicies:
    def test_never(self):
        policy = ReassignNever()
        assert not policy.should_reassign(100.0, 100.0)
        assert policy.may_change is False

    def test_every_fraction(self):
        policy = ReassignEveryFraction(0.25)
        assert policy.may_change is True
        assert not policy.should_reassign(10.0, 100.0)
        assert policy.should_reassign(25.0, 100.0)
        policy.mark_reassigned(25.0)
        assert not policy.should_reassign(30.0, 100.0)
        assert policy.should_reassign(50.0, 100.0)

    def test_fraction_validation(self):
        with pytest.raises(ConfigurationError):
            ReassignEveryFraction(0.0)
        with pytest.raises(ConfigurationError):
            ReassignEveryFraction(1.5)

    @pytest.mark.parametrize("fraction", [True, "x", float("nan"), None])
    def test_fraction_must_be_a_real_number(self, fraction):
        # Regression: True read as 1.0, and "x" raised a bare TypeError.
        with pytest.raises(ConfigurationError, match="fraction"):
            ReassignEveryFraction(fraction)

    @pytest.mark.parametrize("fraction", [0.05, 1])
    def test_fraction_accepted(self, fraction):
        assert ReassignEveryFraction(fraction).fraction == fraction

    def test_zero_total_never_reassigns(self):
        policy = ReassignEveryFraction(0.05)
        assert not policy.should_reassign(1.0, 0.0)
