"""The epoch-batched session vs the per-round oracle: exact equivalence.

The production session decides an epoch's rounds (the rounds between two
disclosures) from presorted stop and pick cursors, settles each side's
accepted flows in one ``commit_epoch`` call, and rolls back through per-key
heaps. None of that may change a decision or a float: on randomly generated
problems, a whole session must match — on every field of its outcome, on its
message transcript and on each tracker's final loads — the same session run
by :class:`PerRoundSession` from ``tests/reference``, which runs every
protocol step every round with the reference per-round stop, proposal and
commit rules (and the min-and-remove rollback where a suite asks for it).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capacity.loads import link_loads
from repro.capacity.provisioning import ProportionalCapacity
from repro.core.agent import NegotiationAgent
from repro.core.cheating import CheatingAgent
from repro.core.evaluators import (
    FortzCostEvaluator,
    LoadAwareEvaluator,
    StaticCostEvaluator,
    StaticPreferenceEvaluator,
)
from repro.core.mapping import LinearDeltaMapper
from repro.core.messages import ProposalMessage, ReassignMessage
from repro.core.outcomes import RoundRecord, TerminationReason
from repro.core.preferences import PreferenceRange
from repro.core.scenario_aware import ScenarioAwareEvaluator
from repro.core.session import NegotiationSession, SessionConfig, rollback_victims
from repro.core.strategies import (
    AlternatingTurns,
    AlwaysAccept,
    BestLocalProposals,
    CoinTossTurns,
    LowerGainTurns,
    MaxCombinedProposals,
    ReassignEveryFraction,
    ReassignNever,
    TerminationMode,
    VetoIfWorseThanDefault,
)
from repro.errors import NegotiationError
from repro.routing.costs import build_pair_cost_table
from repro.routing.exits import early_exit_choices
from repro.routing.flows import build_full_flowset
from repro.routing.scenarios import FailureModel
from repro.topology.dataset import DatasetConfig, build_default_dataset
from repro.topology.generator import GeneratorConfig

from reference import negotiation as reference

P = PreferenceRange(5)
INF = float("inf")


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
        # (-inf, -inf) rolls nothing back.
        "floors": draw(st.sampled_from([(0.0, 0.0), (-2.0, 0.0), (0.0, -1.0),
                                        (-3.0, -3.0), (-INF, -INF)])),
        "max_rounds": draw(st.sampled_from([None, None, 3])),
        "record_messages": draw(st.booleans()),
        "best_local": draw(st.booleans()),
    }


def _run(problem, production: bool, honest_cls=NegotiationAgent):
    """Build the problem's session afresh (evaluators and reassignment
    policies are stateful) and run it on one engine."""
    defaults = problem["defaults"]
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
            agents.append(CheatingAgent(name, evaluator, range_=P, **kwargs))
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
            BestLocalProposals() if problem["best_local"]
            else MaxCombinedProposals()
        ),
        reassignment_policy=(
            ReassignEveryFraction(problem["fraction"])
            if problem["fraction"] else ReassignNever()
        ),
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


class PickyAgent(NegotiationAgent):
    """Overrides the accept decision with a rule the stock agent does not
    have: it vetoes every proposal on an odd flow. A session that skipped
    the override would decide differently from the oracle."""

    def decide_accept(self, flow_index, alternative, other_pref):
        return flow_index % 2 == 0 and super().decide_accept(
            flow_index, alternative, other_pref
        )


class TestSessionDifferential:
    @settings(deadline=None)
    @given(problem=session_problems())
    def test_matches_rescanning_reference(self, problem):
        assert _run(problem, production=True) == _run(problem, production=False)

    @settings(deadline=None)
    @given(problem=session_problems())
    def test_agent_overrides_are_asked(self, problem):
        problem["cheater"] = None
        assert _run(problem, True, PickyAgent) == _run(problem, False, PickyAgent)

    def test_picky_overrides_change_the_session(self):
        # Under AlwaysAccept and full termination the stock agents take
        # every flow; picky ones veto flows 1 and 3, whose only joint gain
        # is then banned.
        prefs = np.array([[0, 2], [0, 2], [0, 2], [0, 2], [0, 2]])
        problem = {
            "stages_a": [prefs],
            "stages_b": [prefs],
            "defaults": np.zeros(5, dtype=np.intp),
            "sizes": np.ones(5),
            "fraction": None,
            "turns": "alt0",
            "termination": (TerminationMode.FULL, TerminationMode.FULL),
            "veto": (False, False),
            "cheater": None,
            "floors": (0.0, 0.0),
            "max_rounds": None,
            "record_messages": False,
            "best_local": False,
        }
        stock, _ = _run(problem, production=True)
        picky, _ = _run(problem, True, PickyAgent)
        assert picky == _run(problem, False, PickyAgent)[0]
        assert [r[6] for r in stock[6]] == [True] * 5
        assert [(r[2], r[6]) for r in picky[6]] == [
            (0, True), (1, False), (2, True), (3, False), (4, True)
        ]
        assert picky[8] is TerminationReason.NO_JOINT_GAIN

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
            "floors": (0.0, 0.0),
            "max_rounds": None,
            "record_messages": True,
            "best_local": False,
        }
        signature, messages = _run(problem, production=True)
        assert (signature, messages) == _run(problem, production=False)
        rounds = signature[6]
        assert [(r[2], r[3]) for r in rounds][:2] == [(1, 1), (0, 0)]


# -- load-dependent evaluators: deferred commits --------------------------------

_MODEL = FailureModel(link_probability=0.08, cutoff=1e-5, max_failed=2)
_KINDS = ("load-aware", "fortz", "scenario-aware", "static-cost")


@pytest.fixture(scope="module")
def load_tables():
    """Three small cost tables (3-5 alternatives, 25-50 flows of uneven
    sizes), each with its early-exit defaults and per-side capacities."""
    dataset = build_default_dataset(
        DatasetConfig(
            n_isps=20, seed=11, generator=GeneratorConfig(min_pops=5, max_pops=10)
        )
    )
    rng = np.random.default_rng(11)
    tables = []
    for pair in dataset.pairs(min_interconnections=3)[1:4]:
        n_b = pair.isp_b.n_pops()
        weights = rng.uniform(0.5, 4.0, size=pair.isp_a.n_pops() * n_b)
        table = build_pair_cost_table(
            pair,
            build_full_flowset(
                pair, size_fn=lambda s, d, w=weights, n=n_b: float(w[s * n + d])
            ),
        )
        defaults = early_exit_choices(table)
        caps = {
            side: ProportionalCapacity().capacities(link_loads(table, defaults, side))
            for side in "ab"
        }
        tables.append((table, defaults, caps))
    return tables


def _evaluator(kind, sub, side, caps, defaults, base, tail_weight):
    if kind == "load-aware":
        return LoadAwareEvaluator(sub, side, caps, defaults, base, range_=P)
    if kind == "fortz":
        return FortzCostEvaluator(sub, side, caps, defaults, base, range_=P)
    if kind == "scenario-aware":
        return ScenarioAwareEvaluator(
            sub, side, caps, defaults, _MODEL, tail_weight=tail_weight,
            base_loads=base, range_=P,
        )
    km = sub.up_km if side == "a" else sub.down_km
    return StaticCostEvaluator(km, defaults, LinearDeltaMapper(P, unit=40.0))


def _draw_load_problem(data, tables) -> dict:
    """A negotiation scope of a drawn table, its evaluators and policies."""
    index = data.draw(st.integers(0, len(tables) - 1))
    n_flows = tables[index][0].n_flows
    # Zero flows has its own constructed test (test_zero_flows).
    size = data.draw(st.sampled_from(range(1, 17)))
    return {
        "table": index,
        "scope": sorted(data.draw(st.lists(
            st.integers(0, n_flows - 1), min_size=size, max_size=size, unique=True
        ))),
        "kinds": (data.draw(st.sampled_from(_KINDS)), data.draw(st.sampled_from(_KINDS))),
        "tail_weight": data.draw(st.sampled_from([0.0, 0.5, 1.0])),
        "fraction": data.draw(st.sampled_from([None, 0.05, 0.3, 1.0])),
        "turns": data.draw(st.sampled_from(["alt0", "alt1", "lower", "coin"])),
        "termination": (
            data.draw(st.sampled_from(list(TerminationMode))),
            data.draw(st.sampled_from(list(TerminationMode))),
        ),
        "veto": (data.draw(st.booleans()), data.draw(st.booleans())),
        "cheater": data.draw(st.sampled_from([None, 0, 1])),
        # (-inf, -inf) rolls nothing back.
        "floors": data.draw(st.sampled_from(
            [(0.0, 0.0), (-2.0, 0.0), (0.0, -1.0), (-INF, -INF)]
        )),
        "max_rounds": data.draw(st.sampled_from([None, None, None, 1, 4, 9])),
        "record_messages": data.draw(st.booleans()),
    }


def _run_load(tables, problem, oracle: bool):
    """One engine's run of a load problem: signature, transcript and each
    side's final tracker loads (``None`` for the static-cost evaluator)."""
    table, defaults, caps = tables[problem["table"]]
    scope = np.asarray(problem["scope"], dtype=np.intp)
    outside = np.ones(table.n_flows, dtype=bool)
    outside[scope] = False
    sub = table.subset(scope)
    evaluators = [
        _evaluator(
            kind, sub, side, caps[side], defaults[scope],
            link_loads(table, defaults, side, active=outside),
            problem["tail_weight"],
        )
        for kind, side in zip(problem["kinds"], "ab")
    ]
    agents = []
    for side, (name, evaluator) in enumerate(zip("ab", evaluators)):
        kwargs = dict(
            termination=problem["termination"][side],
            acceptance=(
                VetoIfWorseThanDefault() if problem["veto"][side] else AlwaysAccept()
            ),
        )
        if problem["cheater"] == side:
            agents.append(CheatingAgent(name, evaluator, range_=P, **kwargs))
        else:
            agents.append(NegotiationAgent(name, evaluator, **kwargs))
    if problem["cheater"] is not None:
        agents[problem["cheater"]].bind_opponent(agents[1 - problem["cheater"]])
    turns = problem["turns"]
    config = SessionConfig(
        turn_policy=(
            LowerGainTurns() if turns == "lower"
            else CoinTossTurns(seed=5) if turns == "coin"
            else AlternatingTurns(first=int(turns[-1]))
        ),
        reassignment_policy=(
            ReassignEveryFraction(problem["fraction"])
            if problem["fraction"] else ReassignNever()
        ),
        rollback_floors=problem["floors"],
        max_rounds=problem["max_rounds"],
        record_messages=problem["record_messages"],
    )
    session_cls = reference.PerRoundSession if oracle else NegotiationSession
    session = session_cls(
        *agents, sizes=sub.flowset.sizes(), defaults=defaults[scope], config=config
    )
    outcome = session.run()
    loads = [
        ev._tracker.loads.tolist() if hasattr(ev, "_tracker") else None
        for ev in evaluators
    ]
    return reference.outcome_signature(outcome), session.messages, loads


def _epochs(messages) -> list[int]:
    """Proposals per epoch, read off a recorded transcript."""
    counts = [0]
    for message in messages:
        if isinstance(message, ProposalMessage):
            counts[-1] += 1
        elif isinstance(message, ReassignMessage) and message.sender == "b":
            counts.append(0)
    return counts


def _base_problem(**overrides) -> dict:
    """Both sides load-aware, the paper's policies, a recorded transcript."""
    problem = {
        "table": 1,
        "scope": list(range(25)),
        "kinds": ("load-aware", "load-aware"),
        "tail_weight": 0.0,
        "fraction": 0.3,
        "turns": "alt0",
        "termination": (TerminationMode.EARLY, TerminationMode.EARLY),
        "veto": (False, False),
        "cheater": None,
        "floors": (0.0, 0.0),
        "max_rounds": None,
        "record_messages": True,
    }
    problem.update(overrides)
    return problem


def _matching(tables, problem):
    """Run both engines, assert they agree, return the production run."""
    fast = _run_load(tables, problem, oracle=False)
    assert fast == _run_load(tables, problem, oracle=True)
    return fast


class TestDeferredCommits:
    @settings(deadline=None)
    @given(data=st.data())
    def test_matches_per_round_session(self, load_tables, data):
        problem = _draw_load_problem(data, load_tables)
        _matching(load_tables, problem)

    def test_one_round_epochs(self, load_tables):
        # Every flow is at least `fraction` of the traffic, so each accepted
        # round reassigns: every epoch holds exactly one proposal.
        table, *_ = load_tables[1]
        sizes = table.flowset.sizes()[:25]
        fraction = 0.5 * float(sizes.min()) / float(sizes.sum())
        signature, messages, _ = _matching(
            load_tables, _base_problem(fraction=fraction)
        )
        assert signature[9] == len(signature[6]) > 1  # reassignments == rounds
        assert set(_epochs(messages)[:-1]) == {1}

    def test_epoch_ends_on_exhaustion(self, load_tables):
        # Reassignments at 40% and 80% of the traffic; the last fifth of it
        # is a third epoch of several rounds that runs out of flows.
        signature, messages, _ = _matching(load_tables, _base_problem(fraction=0.4))
        assert signature[8] is TerminationReason.EXHAUSTED
        assert signature[9] >= 1 and _epochs(messages)[-1] > 1

    def test_round_limit_cuts_an_epoch(self, load_tables):
        signature, messages, _ = _matching(
            load_tables, _base_problem(fraction=0.5, max_rounds=20)
        )
        assert signature[8] is TerminationReason.ROUND_LIMIT
        epochs = _epochs(messages)
        assert len(epochs) >= 2 and epochs[-1] > 1 and sum(epochs) == 20

    def test_zero_flows(self, load_tables):
        signature, messages, loads = _matching(load_tables, _base_problem(scope=[]))
        assert signature[6] == [] and signature[8] is TerminationReason.EXHAUSTED

    def test_shared_evaluator_rejected(self, load_tables):
        table, defaults, caps = load_tables[0]
        evaluator = LoadAwareEvaluator(table, "a", caps["a"], defaults)
        with pytest.raises(NegotiationError, match="share"):
            NegotiationSession(
                NegotiationAgent("a", evaluator), NegotiationAgent("b", evaluator)
            )


def _staged(stages_a, stages_b, sizes, full=False, veto_b=False):
    """A static-class session, reassigning at half the traffic, on both
    engines: the production signature and transcript, once they agree."""
    defaults = np.zeros(len(sizes), dtype=np.intp)
    termination = TerminationMode.FULL if full else TerminationMode.EARLY
    runs = []
    for session_cls in (NegotiationSession, reference.PerRoundSession):
        agents = [
            NegotiationAgent(
                name,
                StaticPreferenceEvaluator(
                    stages[0], defaults, P, stages=stages[1:]
                ),
                termination=termination,
                acceptance=(
                    VetoIfWorseThanDefault() if veto_b and name == "b"
                    else AlwaysAccept()
                ),
            )
            for name, stages in (("a", stages_a), ("b", stages_b))
        ]
        session = session_cls(
            *agents, sizes=np.asarray(sizes, dtype=float), defaults=defaults,
            config=SessionConfig(
                reassignment_policy=ReassignEveryFraction(0.5), record_messages=True
            ),
        )
        runs.append((reference.outcome_signature(session.run()), session.messages))
    assert runs[0] == runs[1]
    return runs[0]


#: The first flow carries most of the traffic, so accepting it reassigns
#: at once (a one-round first epoch) and the rest fit in the second epoch.
_SIZES = [10, 1, 1, 1]
_OPENING = np.array([[0, 3], [0, 0], [0, 0], [0, 0]])


class TestEpochEndings:
    def test_stop_inside_a_later_epoch(self):
        # After the reassignment A sees nothing but losses on flows 2-3:
        # B takes flow 1, then A stops on its turn.
        stages_a = [_OPENING, np.array([[0, 3], [0, 2], [-1, -1], [-1, -1]])]
        stages_b = [_OPENING, np.array([[0, 3], [0, 1], [0, 2], [0, 2]])]
        signature, messages = _staged(stages_a, stages_b, _SIZES)
        assert signature[8] is TerminationReason.EARLY_STOP_A
        assert signature[9] == 1 and _epochs(messages) == [1, 1]

    def test_no_joint_gain_inside_a_later_epoch(self):
        # Under full termination the second epoch runs out of cells with a
        # non-negative combined class after one trade.
        stages_a = [_OPENING, np.array([[0, 0], [0, 1], [-1, -2], [-1, -2]])]
        stages_b = [_OPENING, np.array([[0, 0], [0, 1], [0, -1], [0, -1]])]
        signature, messages = _staged(stages_a, stages_b, _SIZES, full=True)
        assert signature[8] is TerminationReason.NO_JOINT_GAIN
        assert signature[9] == 1 and _epochs(messages) == [1, 1]

    def test_rejection_inside_an_epoch(self):
        # B vetoes A's (1, 1) in the middle of the second epoch; the epoch
        # goes on around the banned cell.
        prefs_a = np.array([[0, 3], [0, 3], [0, 1], [0, 0]])
        prefs_b = np.array([[0, 1], [0, -3], [0, 1], [0, 0]])
        signature, messages = _staged([prefs_a], [prefs_b], _SIZES, veto_b=True)
        rounds = signature[6]
        assert [r[0] for r in rounds if not r[6]] == [2]
        assert (rounds[2][2], rounds[2][3]) == (1, 1)
        assert signature[8] is TerminationReason.EXHAUSTED
        assert _epochs(messages) == [1, 4]
