"""Sparse path-incidence kernels vs reference loops: exact equivalence.

The vectorized hot path (CSR incidence + batched kernels + incremental
session proposals) and the tracker's scalar list kernels must be a pure
performance change: on randomized topologies across several seeds, every
kernel produces *bit-identical* results to the Python-loop references in
``tests/reference`` — loads, preference matrices, true deltas, and whole
session outcomes. The Hypothesis suites drive random place/remove/peek
sequences and shrinking reassignment masks that cross the evaluators'
live-set re-gather threshold. All assertions here are exact
(``array_equal`` / ``==``), never approximate.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capacity.loads import LoadTracker, RowGather, link_loads, max_ratio_rows
from repro.capacity.provisioning import ProportionalCapacity
from repro.core.agent import NegotiationAgent
from repro.core.evaluators import FortzCostEvaluator, LoadAwareEvaluator
from repro.core.mapping import AutoScaleDeltaMapper, conservative_round
from repro.core.evaluators import StaticCostEvaluator
from repro.core.preferences import PreferenceRange
from repro.core.scenario_aware import ScenarioAwareEvaluator
from repro.core.session import NegotiationSession, SessionConfig
from repro.core.strategies import ReassignEveryFraction
from repro.metrics.fortz import piecewise_link_cost
from repro.routing.costs import build_pair_cost_table
from repro.routing.exits import early_exit_choices
from repro.routing.flows import build_full_flowset
from repro.routing.incidence import PathIncidence
from repro.routing.scenarios import FailureModel
from repro.topology.dataset import DatasetConfig, build_default_dataset
from repro.topology.generator import GeneratorConfig

from reference import evaluators as reference_evaluators
from reference import loads as reference_loads
from reference import scenario as reference_scenario
from reference import tables as reference_tables
from reference.negotiation import PerRoundSession, outcome_signature

SEEDS = [11, 202, 3033]


@pytest.fixture(scope="module", params=SEEDS)
def problem(request):
    """A randomized (table, capacities) problem per seed."""
    seed = request.param
    dataset = build_default_dataset(
        DatasetConfig(
            n_isps=20,
            seed=seed,
            generator=GeneratorConfig(min_pops=5, max_pops=10),
        )
    )
    pairs = dataset.pairs(min_interconnections=3)
    if not pairs:
        pairs = dataset.pairs(min_interconnections=2)
    pair = pairs[0]
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 3.0, size=pair.isp_a.n_pops() * pair.isp_b.n_pops())
    n_b = pair.isp_b.n_pops()
    table = build_pair_cost_table(
        pair,
        build_full_flowset(pair, size_fn=lambda s, d: float(weights[s * n_b + d])),
    )
    defaults = early_exit_choices(table)
    caps_a = ProportionalCapacity().capacities(link_loads(table, defaults, "a"))
    caps_b = ProportionalCapacity().capacities(link_loads(table, defaults, "b"))
    return table, defaults, caps_a, caps_b, rng


class TestIncidenceStructure:
    def test_matches_ragged_tables(self, problem):
        table, *_ = problem
        for side in "ab":
            ragged = reference_tables.rows(table, side)
            inc = table.incidence(side)
            assert inc.n_flows == table.n_flows
            assert inc.n_alternatives == table.n_alternatives
            for f in range(table.n_flows):
                for i in range(table.n_alternatives):
                    assert np.array_equal(
                        inc.row_links(f, i), np.asarray(ragged[f][i], dtype=np.intp)
                    )

    def test_cached_per_table(self, problem):
        table, *_ = problem
        assert table.incidence("a") is table.incidence("a")
        assert table.incidence("a") is not table.incidence("b")

    def test_flow_entries_match_row_pointers(self, problem):
        table, *_ = problem
        inc = table.incidence("a")
        flows = np.arange(table.n_flows)[::-2]  # any order, with gaps
        positions, row_ptr = inc.flow_entries(flows)
        expected, counts = [], [0]
        for f in flows:
            for i in range(inc.n_alternatives):
                row = f * inc.n_alternatives + i
                expected.extend(range(inc.indptr[row], inc.indptr[row + 1]))
                counts.append(inc.indptr[row + 1] - inc.indptr[row])
        assert positions.tolist() == expected
        assert row_ptr.tolist() == np.cumsum(counts).tolist()
        positions, row_ptr = inc.flow_entries(np.empty(0, dtype=np.intp))
        assert positions.size == 0 and row_ptr.tolist() == [0]

    def test_entry_flow_alignment(self, problem):
        table, *_ = problem
        inc = table.incidence("a")
        for f in range(table.n_flows):
            start = inc.indptr[f * inc.n_alternatives]
            end = inc.indptr[(f + 1) * inc.n_alternatives]
            assert (inc.entry_flow[start:end] == f).all()


def _incidence(indptr, n_alternatives, n_links) -> PathIncidence:
    """A hand-built one-link-per-entry incidence over the given rows."""
    indptr = np.asarray(indptr, dtype=np.intp)
    counts = np.diff(indptr).reshape(-1, n_alternatives).sum(axis=1)
    return PathIncidence(
        n_flows=counts.size,
        n_alternatives=n_alternatives,
        n_links=n_links,
        indptr=indptr,
        indices=np.arange(indptr[-1], dtype=np.intp),
        entry_flow=np.repeat(np.arange(counts.size, dtype=np.intp), counts),
    )


class TestSegmentReductions:
    def test_max_ratio_rows_with_empty_rows(self):
        # Unit sizes and capacities: ratios 3, 1 | 5, 2 over PoP rows
        # holding 0, 2, 0, 2 and 0 entries; flows 0..5 sit at PoPs
        # 3, 1, 0, 1, 2, 4 and come in a shuffled order.
        inc = _incidence([0, 0, 2, 2, 4, 4], 1, 4)
        endpoints = np.asarray([3, 1, 0, 1, 2, 4])
        gather = RowGather.build(
            inc, endpoints, np.ones(6), np.asarray([2, 1, 5, 0, 3, 4]), np.ones(4)
        )
        assert gather.rows.tolist() == [1, 1, 3, 3, 4, 4]
        assert np.array_equal(
            max_ratio_rows(np.asarray([2.0, 0.0, 4.0, 1.0]), gather),
            np.asarray([[0.0], [3.0], [0.0], [5.0], [3.0], [0.0]]),
        )

    def test_max_ratio_rows_all_empty(self):
        inc = _incidence([0, 0, 0, 0], 3, 2)
        gather = RowGather.build(
            inc, np.zeros(1, dtype=np.intp), np.ones(1), np.arange(1), np.ones(2)
        )
        assert np.array_equal(max_ratio_rows(np.ones(2), gather), np.zeros((1, 3)))


class _PerPopTable:
    """The part of a :class:`PairCostTable` that a tracker and a Fortz
    evaluator read, over a drawn per-PoP incidence (side "a" only)."""

    def __init__(self, pop: PathIncidence, endpoints, sizes):
        self._pop = pop
        self._endpoints = endpoints
        self.n_flows = endpoints.size
        self.n_alternatives = pop.n_alternatives
        self.flowset = SimpleNamespace(sizes=lambda: sizes)
        self.pair = SimpleNamespace(
            isp_a=SimpleNamespace(n_links=lambda: pop.n_links)
        )

    def pop_incidence(self, side):
        return self._pop

    def endpoints(self, side):
        return self._endpoints


_POSITIVE = st.floats(1e-3, 1e3)


@st.composite
def _per_pop_problems(draw):
    """A drawn per-PoP incidence (one PoP with only empty rows), flows at
    repeated endpoints, sizes, capacities and signed loads, and a query of
    flows in any order."""
    n_pops = draw(st.integers(2, 12))
    n_alt = draw(st.integers(1, 5))
    n_links = draw(st.integers(1, 10))
    empty_pop = draw(st.integers(0, n_pops - 1))
    row = st.lists(
        st.integers(0, n_links - 1), unique=True, max_size=min(6, n_links)
    )
    paths = [
        [np.asarray([] if p == empty_pop else draw(row), dtype=np.intp)
         for p in range(n_pops)]
        for _ in range(n_alt)
    ]
    pop = PathIncidence.from_paths(paths, n_pops, n_links)
    # A flow at the empty PoP, and the first drawn endpoint twice.
    drawn = draw(st.lists(st.integers(0, n_pops - 1), min_size=1, max_size=14))
    endpoints = np.asarray([empty_pop, *drawn, drawn[0]], dtype=np.intp)
    n_flows = endpoints.size
    sizes = np.asarray(draw(st.lists(_POSITIVE, min_size=n_flows, max_size=n_flows)))
    caps = np.asarray(draw(st.lists(_POSITIVE, min_size=n_links, max_size=n_links)))
    loads = np.asarray(draw(st.lists(
        st.just(0.0) | st.floats(-1e3, 1e3), min_size=n_links, max_size=n_links
    )))
    query = np.asarray(
        draw(st.lists(st.integers(0, n_flows - 1), unique=True)), dtype=np.intp
    )
    return _PerPopTable(pop, endpoints, sizes), caps, loads, query


class TestPerPopGather:
    """The disclosure kernels, read through each flow's endpoint row of a
    drawn per-PoP CSR, against the tracker's scalar peeks with ``==``."""

    @settings(deadline=None)
    @given(problem=_per_pop_problems())
    def test_max_ratio_rows_match_scalar_peeks(self, problem):
        table, caps, loads, query = problem
        tracker = LoadTracker(table, "a", base_loads=loads)
        block = max_ratio_rows(tracker.loads, tracker.gather(query, caps))
        assert block.shape == (query.size, table.n_alternatives)
        cap_list = caps.tolist()
        for k, f in enumerate(query.tolist()):
            for i in range(table.n_alternatives):
                assert block[k, i] == tracker.peek_max_ratio(f, i, cap_list)

    @settings(deadline=None)
    @given(problem=_per_pop_problems())
    def test_fortz_scores_match_scalar_cost_increases(self, problem):
        table, caps, loads, query = problem
        defaults = np.zeros(table.n_flows, dtype=np.intp)
        # The Fortz cost refuses negative loads.
        evaluator = FortzCostEvaluator(
            table, "a", caps, defaults, base_loads=np.abs(loads)
        )
        scores = evaluator._scores(query)
        assert scores.shape == (query.size, table.n_alternatives)
        cap_list = caps.tolist()
        for k, f in enumerate(query.tolist()):
            for i in range(table.n_alternatives):
                assert scores[k, i] == evaluator._tracker.peek_cost_increase(
                    f, i, cap_list, piecewise_link_cost
                )


class TestLoadKernelEquivalence:
    def test_link_loads(self, problem):
        table, defaults, _, _, rng = problem
        for side in "ab":
            for _ in range(3):
                choices = rng.integers(0, table.n_alternatives, table.n_flows)
                sparse = link_loads(table, choices, side)
                legacy = reference_loads.link_loads(table, choices, side)
                assert np.array_equal(sparse, legacy)
                active = rng.random(table.n_flows) < 0.6
                assert np.array_equal(
                    link_loads(table, choices, side, active=active),
                    reference_loads.link_loads(
                        table, choices, side, active=active
                    ),
                )

    def test_tracker_place_peek(self, problem):
        table, defaults, caps_a, _, rng = problem
        sparse = LoadTracker(table, "a")
        legacy = reference_loads.LoadTracker(table, "a")
        for _ in range(min(30, table.n_flows)):
            f = int(rng.integers(table.n_flows))
            i = int(rng.integers(table.n_alternatives))
            sparse.place(f, i)
            legacy.place(f, i)
            assert np.array_equal(sparse.loads, legacy.loads)
        every = np.arange(table.n_flows)
        scalar = np.asarray([
            [legacy.peek_max_ratio(f, i, caps_a)
             for i in range(table.n_alternatives)]
            for f in every
        ])
        assert np.array_equal(sparse.peek_max_ratio_block(every, caps_a), scalar)
        assert np.array_equal(legacy.peek_max_ratio_block(every, caps_a), scalar)

    def test_tracker_matrix(self, problem):
        """The block of the remaining flows, row by row the scalar peeks."""
        table, defaults, caps_a, _, rng = problem
        tracker = LoadTracker(table, "a")
        for f in range(0, table.n_flows, 2):
            tracker.place(f, int(defaults[f]))
        flows = np.flatnonzero(rng.random(table.n_flows) < 0.7)
        block = tracker.peek_max_ratio_block(flows, caps_a)
        assert block.shape == (flows.size, table.n_alternatives)
        for k, f in enumerate(flows):
            assert block[k].tolist() == [
                tracker.peek_max_ratio(int(f), i, caps_a.tolist())
                for i in range(table.n_alternatives)
            ]


_REFERENCE_EVALUATORS = {
    LoadAwareEvaluator: reference_evaluators.LoadAwareEvaluator,
    FortzCostEvaluator: reference_evaluators.FortzCostEvaluator,
}


@pytest.mark.parametrize("evaluator_cls", [LoadAwareEvaluator, FortzCostEvaluator])
class TestEvaluatorEquivalence:
    def test_recompute_and_true_delta(self, problem, evaluator_cls):
        table, defaults, caps_a, _, rng = problem
        sparse = evaluator_cls(table, "a", caps_a, defaults)
        legacy = _REFERENCE_EVALUATORS[evaluator_cls](
            table, "a", caps_a, defaults
        )
        assert np.array_equal(sparse.preferences(), legacy.preferences())
        # Commit a third of the flows, reassign, and compare again.
        committed = np.zeros(table.n_flows, dtype=bool)
        for f in range(0, table.n_flows, 3):
            i = int(rng.integers(table.n_alternatives))
            assert sparse.true_delta(f, i) == legacy.true_delta(f, i)
            sparse.commit(f, i)
            legacy.commit(f, i)
            committed[f] = True
        sparse.reassign(~committed)
        legacy.reassign(~committed)
        assert np.array_equal(sparse.preferences(), legacy.preferences())
        for f in range(table.n_flows):
            for i in range(table.n_alternatives):
                assert sparse.true_delta(f, i) == legacy.true_delta(f, i)


class TestSessionEquivalence:
    def test_bandwidth_session(self, problem):
        """Sparse + epoch loop vs reference loops + per-round rescan."""
        table, defaults, caps_a, caps_b, _ = problem

        def run(evaluator_cls, session_cls):
            session = session_cls(
                NegotiationAgent(
                    "a", evaluator_cls(table, "a", caps_a, defaults)
                ),
                NegotiationAgent(
                    "b", evaluator_cls(table, "b", caps_b, defaults)
                ),
                sizes=table.flowset.sizes(),
                defaults=defaults,
                config=SessionConfig(
                    reassignment_policy=ReassignEveryFraction(0.05),
                ),
            )
            return session.run()

        fast = outcome_signature(run(LoadAwareEvaluator, NegotiationSession))
        slow = outcome_signature(run(
            reference_evaluators.LoadAwareEvaluator, PerRoundSession
        ))
        assert fast == slow

    def test_distance_session(self, problem):
        """Static evaluators: the epoch loop vs the per-round session."""
        table, defaults, *_ = problem
        p_range = PreferenceRange(10)

        def run(session_cls):
            mapper = AutoScaleDeltaMapper(p_range, conservative=False,
                                          quantile=100.0)
            session = session_cls(
                NegotiationAgent(
                    "a", StaticCostEvaluator(table.up_km, defaults, mapper)
                ),
                NegotiationAgent(
                    "b", StaticCostEvaluator(table.down_km, defaults, mapper)
                ),
                defaults=defaults,
            )
            return session.run()

        assert outcome_signature(
            run(NegotiationSession)
        ) == outcome_signature(run(PerRoundSession))


# -- Hypothesis: the scalar list kernels and the live gather --------------------


def _empty_cells(table, side) -> list[tuple[int, int]]:
    """(flow, alternative) rows with an empty path on one side."""
    inc = table.incidence(side)
    rows = np.flatnonzero(np.diff(inc.indptr) == 0)
    return [(int(r) // inc.n_alternatives, int(r) % inc.n_alternatives) for r in rows]


_TRACKER_OPS = ("place", "peek", "block", "loads", "epoch")


class TestTrackerSequences:
    @settings(deadline=None)
    @given(data=st.data())
    def test_matches_reference_tracker(self, problem, data):
        """Random place/peek runs with interleaved batch reads.

        Base loads go negative, where a maximum started from 0.0 instead of
        the first ratio would differ from the reference.
        """
        table, _, caps_a, caps_b, _ = problem
        side = data.draw(st.sampled_from("ab"))
        caps = caps_a if side == "a" else caps_b
        n_flows, n_alt = table.n_flows, table.n_alternatives
        base = data.draw(
            st.none()
            | st.lists(
                st.floats(-5.0, 50.0, allow_nan=False),
                min_size=caps.size,
                max_size=caps.size,
            )
        )
        fast = LoadTracker(table, side, base_loads=base)
        slow = reference_loads.LoadTracker(table, side, base_loads=base)
        cells = st.tuples(st.integers(0, n_flows - 1), st.integers(0, n_alt - 1))
        empty = _empty_cells(table, side)
        if empty:
            cells = cells | st.sampled_from(empty)
        cap_list = caps.tolist()
        steps = data.draw(
            st.lists(st.tuples(st.sampled_from(_TRACKER_OPS), cells), max_size=40)
        )
        for op, (f, i) in steps:
            if op == "place":
                fast.place(f, i)
                slow.place(f, i)
            elif op == "peek":
                want = slow.peek_max_ratio(f, i, caps)
                assert fast.peek_max_ratio(f, i, cap_list) == want
                assert fast.peek_max_ratio(f, i, caps) == want
            elif op == "block":
                flows = np.asarray(
                    data.draw(st.lists(st.integers(0, n_flows - 1), max_size=8)),
                    dtype=np.intp,
                )
                assert np.array_equal(
                    fast.peek_max_ratio_block(flows, caps),
                    slow.peek_max_ratio_block(flows, caps),
                )
            elif op == "epoch":
                # A session epoch's settle: peek, peek, place per flow.
                epoch = data.draw(st.lists(cells, max_size=6))
                flows = [f for f, _ in epoch]
                alts = [i for _, i in epoch]
                defaults = data.draw(
                    st.lists(st.integers(0, n_alt - 1), min_size=n_flows,
                             max_size=n_flows)
                )
                assert fast.place_epoch(
                    flows, alts, defaults, cap_list
                ) == slow.place_epoch(flows, alts, defaults, caps)
            else:
                assert np.array_equal(fast.loads, slow.loads)
        for f, i in empty:
            assert fast.peek_max_ratio(f, i, cap_list) == 0.0
        every = np.arange(n_flows)
        assert np.array_equal(
            fast.peek_max_ratio_block(every, caps),
            slow.peek_max_ratio_block(every, caps),
        )


_SCENARIO_MODEL = FailureModel(link_probability=0.08, cutoff=1e-5, max_failed=2)

_EVALUATOR_PAIRS = {
    "load-aware": (
        LoadAwareEvaluator, reference_evaluators.LoadAwareEvaluator, {}
    ),
    "fortz": (
        FortzCostEvaluator, reference_evaluators.FortzCostEvaluator, {}
    ),
    # The scenario stack is unchanged by the live gather and has its own
    # materialized-table reference (tests/test_scenario_aware.py); here
    # only the nominal path is swapped for the loop.
    "scenario-aware": (
        ScenarioAwareEvaluator,
        reference_scenario.LoopNominalEvaluator,
        {"model": _SCENARIO_MODEL, "tail_weight": 0.5},
    ),
}


def _remaining_sizes(n_flows: int) -> list[int]:
    """Mask sizes K that straddle the re-gather threshold (live/2 ± 1)
    twice, then empty the table and bring every flow back."""
    sizes, live = [n_flows], n_flows
    for _ in range(2):
        half = live // 2
        sizes += [k for k in (half + 1, half, half - 1) if 0 < k < sizes[-1]]
        live = sizes[-1]
    return sizes + [0, n_flows]


@pytest.mark.parametrize("name", sorted(_EVALUATOR_PAIRS))
class TestReassignmentEquivalence:
    @settings(deadline=None)
    @given(data=st.data())
    def test_shrinking_masks(self, problem, name, data):
        """Preferences and true deltas over successive reassignments.

        Runs on a drawn negotiation scope (a subset table over background
        loads, as the experiments build them). The remaining flows are
        shrinking prefixes of a drawn permutation, and the flows that
        leave are committed to drawn alternatives first, as a session
        does. The live set must follow the halving rule.
        """
        fast_cls, slow_cls, kwargs = _EVALUATOR_PAIRS[name]
        table, defaults, caps_a, _, _ = problem
        scope = np.asarray(sorted(data.draw(
            st.sets(st.integers(0, table.n_flows - 1), min_size=1, max_size=16)
        )))
        outside = np.ones(table.n_flows, dtype=bool)
        outside[scope] = False
        base = link_loads(table, defaults, "a", active=outside)
        sub = table.subset(scope)
        n_flows, n_alt = sub.n_flows, sub.n_alternatives
        fast, slow = (
            cls(sub, "a", caps_a, defaults[scope], base_loads=base, **kwargs)
            for cls in (fast_cls, slow_cls)
        )
        assert np.array_equal(fast.preferences(), slow.preferences())
        order = data.draw(st.permutations(range(n_flows)))
        cells = st.tuples(st.sampled_from(order), st.integers(0, n_alt - 1))
        live = set(range(n_flows))
        previous = n_flows
        for k in _remaining_sizes(n_flows):
            for f in order[k:previous]:
                i = data.draw(st.integers(0, n_alt - 1))
                assert fast.true_delta(f, i) == slow.true_delta(f, i)
                fast.commit(f, i)
                slow.commit(f, i)
            remaining = np.zeros(n_flows, dtype=bool)
            remaining[list(order[:k])] = True
            fast.reassign(remaining)
            slow.reassign(remaining)
            assert np.array_equal(fast.preferences(), slow.preferences())
            if k and hasattr(fast, "_live"):
                kept = set(order[:k])
                if 2 * k < len(live) or not kept <= live:
                    live = kept
                assert set(fast._live.flows.tolist()) == live
            for f, i in data.draw(st.lists(cells, max_size=3)):
                assert fast.true_delta(f, i) == slow.true_delta(f, i)
            previous = k


# -- conservative rounding ------------------------------------------------------

_ATOL = 1e-9
_UNITS = (
    st.floats(allow_nan=False)
    | st.floats(-_ATOL, _ATOL)
    | st.floats(min_value=2.0**52)
    | st.floats(max_value=-(2.0**52))
    | st.sampled_from(
        [0.0, -0.0, np.inf, -np.inf, _ATOL, -_ATOL, 0.5, -0.5, 2.0**52, -(2.0**52)]
    )
)


class TestConservativeRound:
    @given(values=st.lists(_UNITS, max_size=30))
    def test_matches_three_branch_expression(self, values):
        """One ``floor`` equals floor-gains/ceil-losses, bit for bit."""
        units = np.asarray(values, dtype=float)
        assert (
            conservative_round(units).tobytes()
            == reference_evaluators.conservative_round(units).tobytes()
        )
