"""The presorted session loop vs the rescanning references: exact equivalence.

The production session answers each round from presorted orders (the
:class:`~repro.core.strategies.CombinedScoreboard` proposal cursor and the
agent's stop cursor) and rolls back through per-key heaps. None of that may
change a decision: on randomly generated problems, a whole session must
match — on every field of its outcome and on its message transcript — the
same session run with :class:`RescanningProposals`, :class:`ScanningAgent`
and the min-and-remove rollback from ``tests/reference``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agent import NegotiationAgent
from repro.core.cheating import CheatingAgent
from repro.core.evaluators import StaticPreferenceEvaluator
from repro.core.outcomes import RoundRecord
from repro.core.preferences import PreferenceRange
from repro.core.session import NegotiationSession, SessionConfig, rollback_victims
from repro.core.strategies import (
    AlternatingTurns,
    AlwaysAccept,
    LowerGainTurns,
    MaxCombinedProposals,
    ReassignEveryFraction,
    ReassignNever,
    TerminationMode,
    VetoIfWorseThanDefault,
)

from reference import negotiation as reference

P = PreferenceRange(5)


# -- the rollback alone --------------------------------------------------------


def _records(rows):
    return [
        RoundRecord(
            round_index=2 * k, proposer=k % 2, flow_index=k, alternative=1,
            pref_a=pa, pref_b=pb, accepted=True, true_a=ta, true_b=tb,
        )
        for k, (pa, pb, ta, tb) in enumerate(rows)
    ]


def _totals(records):
    gains = [0, 0, 0.0, 0.0]
    for r in records:
        gains[0] += r.pref_a
        gains[1] += r.pref_b
        gains[2] += r.true_a
        gains[3] += r.true_b
    return tuple(gains)


def _assert_rollbacks_match(records, gains, floors):
    fast_victims, fast_gains = rollback_victims(records, gains, floors)
    slow_victims, slow_gains = reference.rollback_victims(records, gains, floors)
    assert [v.round_index for v in fast_victims] == [
        v.round_index for v in slow_victims
    ]
    assert fast_gains == slow_gains
    return [v.round_index for v in fast_victims], fast_gains


class TestRollbackReference:
    def test_equal_keys_roll_back_earliest_first(self):
        records = _records([(-1, 2, -1.0, 2.0)] * 4)
        order, gains = _assert_rollbacks_match(
            records, _totals(records), (0.0, 0.0)
        )
        assert order == [0, 2, 4, 6]
        assert gains == (0, 0, 0.0, 0.0)

    def test_worst_trade_goes_first(self):
        records = _records(
            [(3, 1, 3.0, 1.0), (-2, 4, -2.0, 4.0), (-1, 1, -1.0, 1.0),
             (-2, 0, -2.0, 0.0)]
        )
        order, gains = _assert_rollbacks_match(
            records, (-2, 6, -2.0, 6.0), (0.0, 0.0)
        )
        assert order == [2]  # the first of the two -2 trades
        assert gains[0] == 0

    def test_credit_floor_tolerates_a_bounded_loss(self):
        records = _records([(-1, 3, -1.0, 3.0), (-2, 2, -2.0, 2.0)])
        # A extends 2 classes of credit: only the -2 trade must go.
        order, gains = _assert_rollbacks_match(
            records, _totals(records), (-2.0, 0.0)
        )
        assert order == [2]
        assert gains[0] == -1
        # Credit is class-denominated: a true-metric loss stays.
        assert gains[2] == -1.0

    def test_true_metric_guard(self):
        # Class gains are fine, but A's private metric loses.
        records = _records([(0, 2, -0.4, 1.0), (1, 1, 0.3, 0.5)])
        order, gains = _assert_rollbacks_match(
            records, _totals(records), (0.0, 0.0)
        )
        assert order == [0]
        assert gains[2] == 0.3

    def test_true_metric_guard_ignores_rounding_noise(self):
        records = _records([(1, 1, -1e-12, 1.0)])
        order, _ = _assert_rollbacks_match(
            records, _totals(records), (0.0, 0.0)
        )
        assert order == []

    def test_exhausts_when_floor_unreachable(self):
        records = _records([(1, 0, 1.0, 0.0), (2, 0, 2.0, 0.0)])
        order, gains = _assert_rollbacks_match(
            records, (-5, 0, 0.0, 0.0), (0.0, 0.0)
        )
        assert order == [0, 2]
        assert gains[0] == -8

    def test_empty(self):
        assert rollback_victims([], (-1, 0, 0.0, 0.0), (0.0, 0.0)) == (
            [], (-1, 0, 0.0, 0.0)
        )

    @settings(deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(-3, 3),
                st.integers(-3, 3),
                st.sampled_from([-1.5, -0.5, -1e-12, 0.0, 0.25, 1.0, 2.0]),
                st.sampled_from([-1.5, -0.5, 0.0, 0.25, 1.0, 2.0]),
            ),
            max_size=25,
        ),
        floors=st.tuples(
            st.sampled_from([0.0, -1.0, -2.5]), st.sampled_from([0.0, -1.0])
        ),
        offset=st.integers(-3, 1),
    )
    def test_matches_reference(self, rows, floors, offset):
        records = _records(rows)
        gains = list(_totals(records))
        gains[0] += offset
        _assert_rollbacks_match(records, tuple(gains), floors)


# -- whole sessions ------------------------------------------------------------


class ScanningCheater(reference.ScanningAgent, CheatingAgent):
    """A cheating agent with the reference masked-rescan stop rule."""


def _matrix(draw, shape, low=P.min, high=P.max):
    n_flows, n_alts = shape
    return np.asarray(
        draw(
            st.lists(
                st.lists(st.integers(low, high), min_size=n_alts, max_size=n_alts),
                min_size=n_flows, max_size=n_flows,
            )
        ),
        dtype=np.int64,
    )


@st.composite
def session_problems(draw):
    """A random session set-up, as plain data both engines build from."""
    n_flows = draw(st.integers(1, 12))
    n_alts = draw(st.integers(1, 4))
    shape = (n_flows, n_alts)
    defaults = np.asarray(
        draw(st.lists(st.integers(0, n_alts - 1), min_size=n_flows,
                      max_size=n_flows)),
        dtype=np.intp,
    )
    tie_heavy = draw(st.booleans())
    n_stages = draw(st.integers(0, 3))
    stages_a, stages_b = [], []
    rows = np.arange(n_flows)
    for _ in range(n_stages + 1):
        prefs_a = _matrix(draw, shape)
        zero_defaults = draw(st.booleans())
        if zero_defaults:
            prefs_a[rows, defaults] = 0
        if tie_heavy:
            # Every cell's combined score is the same constant: only the
            # local tie-break and the lowest-(flow, alternative) rule pick.
            total = draw(st.integers(0, 2))
            prefs_a = np.clip(prefs_a, total - P.max, P.max)
            prefs_b = total - prefs_a
        else:
            prefs_b = _matrix(draw, shape)
            if zero_defaults:
                prefs_b[rows, defaults] = 0
        stages_a.append(prefs_a)
        stages_b.append(prefs_b)
    return {
        "stages_a": stages_a,
        "stages_b": stages_b,
        "defaults": defaults,
        "sizes": np.asarray(
            draw(st.lists(st.integers(1, 20), min_size=n_flows,
                          max_size=n_flows)),
            dtype=float,
        ),
        "fraction": draw(st.sampled_from([0.05, 0.2, 0.5])) if n_stages else None,
        "turns": draw(st.sampled_from(["alt0", "alt1", "lower"])),
        "termination": (
            draw(st.sampled_from(list(TerminationMode))),
            draw(st.sampled_from(list(TerminationMode))),
        ),
        "veto": (draw(st.booleans()), draw(st.booleans())),
        "cheater": draw(st.sampled_from([None, 0, 1])),
        "floors": draw(st.sampled_from([(0.0, 0.0), (-2.0, 0.0), (0.0, -1.0),
                                        (-3.0, -3.0)])),
        "rollback": draw(st.sampled_from([True, True, False])),
        "max_rounds": draw(st.sampled_from([None, None, 3])),
        "record_messages": draw(st.booleans()),
    }


def _run(problem, production: bool):
    """Build the problem's session afresh (evaluators and reassignment
    policies are stateful) and run it on one engine."""
    defaults = problem["defaults"]
    honest_cls = NegotiationAgent if production else reference.ScanningAgent
    cheater_cls = CheatingAgent if production else ScanningCheater
    agents = []
    for side, name in enumerate("ab"):
        stages = problem[f"stages_{name}"]
        evaluator = StaticPreferenceEvaluator(
            stages[0], defaults, P, stages=stages[1:]
        )
        kwargs = dict(
            termination=problem["termination"][side],
            acceptance=(
                VetoIfWorseThanDefault() if problem["veto"][side]
                else AlwaysAccept()
            ),
        )
        if problem["cheater"] == side:
            agents.append(cheater_cls(name, evaluator, range_=P, **kwargs))
        else:
            agents.append(honest_cls(name, evaluator, **kwargs))
    if problem["cheater"] is not None:
        agents[problem["cheater"]].bind_opponent(agents[1 - problem["cheater"]])
    turns = problem["turns"]
    config = SessionConfig(
        turn_policy=(
            LowerGainTurns() if turns == "lower"
            else AlternatingTurns(first=int(turns[-1]))
        ),
        proposal_policy=(
            MaxCombinedProposals() if production
            else reference.RescanningProposals()
        ),
        reassignment_policy=(
            ReassignEveryFraction(problem["fraction"])
            if problem["fraction"] else ReassignNever()
        ),
        rollback=problem["rollback"],
        rollback_floors=problem["floors"],
        max_rounds=problem["max_rounds"],
        record_messages=problem["record_messages"],
    )
    session_cls = (
        NegotiationSession if production else reference.ReferenceRollbackSession
    )
    session = session_cls(
        *agents, sizes=problem["sizes"], defaults=defaults, config=config
    )
    outcome = session.run()
    return reference.outcome_signature(outcome), session.messages


class TestSessionDifferential:
    @settings(deadline=None)
    @given(problem=session_problems())
    def test_matches_rescanning_reference(self, problem):
        assert _run(problem, production=True) == _run(problem, production=False)

    def test_tie_heavy_picks_lowest_cell(self):
        # Every combined score is 2. A's local preference peaks at 2 on
        # (1, 1), (1, 2) and (2, 1): the lowest cell wins. B's then peaks
        # at 2 on (0, 0) and (2, 0), and flow 0 comes first.
        prefs_a = np.array([[0, 1, 1], [0, 2, 2], [0, 2, 1]])
        problem = {
            "stages_a": [prefs_a],
            "stages_b": [2 - prefs_a],
            "defaults": np.zeros(3, dtype=np.intp),
            "sizes": np.ones(3),
            "fraction": None,
            "turns": "alt0",
            "termination": (TerminationMode.FULL, TerminationMode.FULL),
            "veto": (False, False),
            "cheater": None,
            "rollback": True,
            "floors": (0.0, 0.0),
            "max_rounds": None,
            "record_messages": True,
        }
        signature, messages = _run(problem, production=True)
        assert (signature, messages) == _run(problem, production=False)
        rounds = signature[6]
        assert [(r[2], r[3]) for r in rounds][:2] == [(1, 1), (0, 0)]
