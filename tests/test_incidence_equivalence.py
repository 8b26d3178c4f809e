"""Sparse path-incidence kernels vs reference loops: exact equivalence.

The vectorized hot path (CSR incidence + batched kernels + incremental
session proposals) must be a pure performance change: on randomized
topologies across several seeds, every kernel produces *bit-identical*
results to the Python-loop references in ``tests/reference`` — loads,
preference matrices, true deltas, and whole session outcomes. All
assertions here are exact (``array_equal`` / ``==``), never approximate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.capacity.loads import LoadTracker, link_loads
from repro.capacity.provisioning import ProportionalCapacity
from repro.core.agent import NegotiationAgent
from repro.core.evaluators import FortzCostEvaluator, LoadAwareEvaluator
from repro.core.mapping import AutoScaleDeltaMapper
from repro.core.evaluators import StaticCostEvaluator
from repro.core.preferences import PreferenceRange
from repro.core.session import NegotiationSession, SessionConfig
from repro.core.strategies import MaxCombinedProposals, ReassignEveryFraction
from repro.routing.costs import build_pair_cost_table
from repro.routing.exits import early_exit_choices
from repro.routing.flows import build_full_flowset
from repro.routing.incidence import segment_max, segment_sum
from repro.topology.dataset import DatasetConfig, build_default_dataset
from repro.topology.generator import GeneratorConfig

from reference import evaluators as reference_evaluators
from reference import loads as reference_loads
from reference.negotiation import (
    RescanningProposals,
    ScanningAgent,
    outcome_signature,
)

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
        for side, ragged in (("a", table.up_links), ("b", table.down_links)):
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


class TestSegmentReductions:
    def test_segment_max_with_empty_segments(self):
        vals = np.asarray([3.0, 1.0, 5.0, 2.0])
        ptr = np.asarray([0, 0, 2, 2, 4, 4])
        assert np.array_equal(
            segment_max(vals, ptr), np.asarray([0.0, 3.0, 0.0, 5.0, 0.0])
        )

    def test_segment_max_all_empty(self):
        assert np.array_equal(
            segment_max(np.empty(0), np.zeros(4, dtype=np.intp)),
            np.zeros(3),
        )

    def test_segment_sum_with_empty_segments(self):
        vals = np.asarray([3.0, 1.0, 5.0])
        ptr = np.asarray([0, 2, 2, 3])
        assert np.array_equal(segment_sum(vals, ptr), np.asarray([4.0, 0.0, 5.0]))


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

    def test_tracker_place_remove_peek(self, problem):
        table, defaults, caps_a, _, rng = problem
        sparse = LoadTracker(table, "a")
        legacy = reference_loads.LoadTracker(table, "a")
        for _ in range(min(30, table.n_flows)):
            f = int(rng.integers(table.n_flows))
            i = int(rng.integers(table.n_alternatives))
            if rng.random() < 0.7:
                sparse.place(f, i)
                legacy.place(f, i)
            else:
                sparse.remove(f, i)
                legacy.remove(f, i)
            assert np.array_equal(sparse.loads, legacy.loads)
        for f in range(table.n_flows):
            scalar = np.asarray(
                [
                    legacy.peek_max_ratio(f, i, caps_a)
                    for i in range(table.n_alternatives)
                ]
            )
            assert np.array_equal(sparse.peek_max_ratio_all(f, caps_a), scalar)
            assert np.array_equal(legacy.peek_max_ratio_all(f, caps_a), scalar)

    def test_tracker_matrix(self, problem):
        table, defaults, caps_a, _, rng = problem
        tracker = LoadTracker(table, "a")
        for f in range(0, table.n_flows, 2):
            tracker.place(f, int(defaults[f]))
        remaining = rng.random(table.n_flows) < 0.7
        matrix = tracker.peek_max_ratio_matrix(remaining, caps_a)
        assert matrix.shape == (table.n_flows, table.n_alternatives)
        for f in range(table.n_flows):
            if remaining[f]:
                assert np.array_equal(
                    matrix[f], tracker.peek_max_ratio_all(f, caps_a)
                )
            else:
                assert (matrix[f] == 0.0).all()


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
        """Sparse + incremental vs reference loops + rescan: identical."""
        table, defaults, caps_a, caps_b, _ = problem

        def run(evaluator_cls, agent_cls, proposals):
            session = NegotiationSession(
                agent_cls(
                    "a", evaluator_cls(table, "a", caps_a, defaults)
                ),
                agent_cls(
                    "b", evaluator_cls(table, "b", caps_b, defaults)
                ),
                sizes=table.flowset.sizes(),
                defaults=defaults,
                config=SessionConfig(
                    reassignment_policy=ReassignEveryFraction(0.05),
                    proposal_policy=proposals,
                ),
            )
            return session.run()

        fast = outcome_signature(
            run(LoadAwareEvaluator, NegotiationAgent, MaxCombinedProposals())
        )
        slow = outcome_signature(run(
            reference_evaluators.LoadAwareEvaluator, ScanningAgent,
            RescanningProposals(),
        ))
        assert fast == slow

    def test_distance_session(self, problem):
        """Static evaluators: incremental proposals change nothing."""
        table, defaults, *_ = problem
        p_range = PreferenceRange(10)

        def run(proposals):
            mapper = AutoScaleDeltaMapper(p_range, conservative=False,
                                          quantile=100.0)
            session = NegotiationSession(
                NegotiationAgent(
                    "a", StaticCostEvaluator(table.up_km, defaults, mapper)
                ),
                NegotiationAgent(
                    "b", StaticCostEvaluator(table.down_km, defaults, mapper)
                ),
                defaults=defaults,
                config=SessionConfig(proposal_policy=proposals),
            )
            return session.run()

        assert outcome_signature(
            run(MaxCombinedProposals())
        ) == outcome_signature(run(RescanningProposals()))
