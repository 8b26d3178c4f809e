"""One-shot smoke runs of the perf-critical kernels (``bench_smoke`` marker).

The tier-1 test command executes each hot kernel exactly once — no timing,
no statistics — so a refactor that breaks a vectorized kernel (shape drift,
incidence-cache invalidation) fails fast here rather than silently in the
nightly benchmarks. Each kernel is checked against its reference in
``tests/reference``. The timed counterparts, and the committed baseline
numbers in ``BENCH_core.json``, come from ``benchmarks/bench_smoke.py``.

Run just these with ``pytest -m bench_smoke``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.capacity.loads import LoadTracker, link_loads
from repro.capacity.provisioning import ProportionalCapacity
from repro.core.agent import NegotiationAgent
from repro.core.evaluators import FortzCostEvaluator, LoadAwareEvaluator
from repro.core.session import NegotiationSession, SessionConfig
from repro.core.strategies import ReassignEveryFraction
from repro.optimal.bandwidth_lp import (
    _link_constraints,
    fractional_loads,
    solve_min_max_load_lp,
)
from repro.routing.costs import build_pair_cost_table
from repro.routing.exits import early_exit_choices
from repro.routing.flows import build_full_flowset

from reference import evaluators as reference_evaluators
from reference import loads as reference_loads
from reference import tables as reference_tables
from reference.negotiation import wants_to_stop

pytestmark = pytest.mark.bench_smoke


@pytest.fixture(scope="module")
def fixture(tiny_dataset):
    pairs = tiny_dataset.pairs(min_interconnections=2)
    pair = max(pairs, key=lambda p: p.n_interconnections())
    table = build_pair_cost_table(pair, build_full_flowset(pair))
    defaults = early_exit_choices(table)
    caps_a = ProportionalCapacity().capacities(link_loads(table, defaults, "a"))
    caps_b = ProportionalCapacity().capacities(link_loads(table, defaults, "b"))
    return table, defaults, caps_a, caps_b


def test_smoke_link_loads(fixture):
    table, defaults, _, _ = fixture
    for side in "ab":
        assert np.array_equal(
            link_loads(table, defaults, side),
            reference_loads.link_loads(table, defaults, side),
        )


def test_smoke_tracker_batch_kernels(fixture):
    table, defaults, caps_a, _ = fixture
    tracker = LoadTracker(table, "a")
    reference = reference_loads.LoadTracker(table, "a")
    tracker.place(0, int(defaults[0]))
    reference.place(0, int(defaults[0]))
    every = np.arange(table.n_flows)
    block = tracker.peek_max_ratio_block(every, caps_a)
    assert np.array_equal(block, reference.peek_max_ratio_block(every, caps_a))
    assert block.shape == (table.n_flows, table.n_alternatives)


@pytest.mark.parametrize("evaluator_cls", [LoadAwareEvaluator, FortzCostEvaluator])
def test_smoke_evaluator_reassign(fixture, evaluator_cls):
    table, defaults, caps_a, _ = fixture
    sparse = evaluator_cls(table, "a", caps_a, defaults)
    reference = getattr(reference_evaluators, evaluator_cls.__name__)(
        table, "a", caps_a, defaults
    )
    remaining = np.ones(table.n_flows, dtype=bool)
    sparse.reassign(remaining)
    reference.reassign(remaining)
    assert np.array_equal(sparse.preferences(), reference.preferences())


def test_smoke_batched_table_build(fixture, tiny_dataset):
    table, *_ = fixture
    pair = table.pair
    flowset = build_full_flowset(pair)
    batched = build_pair_cost_table(pair, flowset)
    reference = reference_tables.build_pair_cost_table(pair, flowset)
    assert np.array_equal(batched.up_weight, reference.up_weight)
    assert np.array_equal(batched.down_km, reference.down_km)


def test_smoke_derived_failure_table(fixture):
    table, *_ = fixture
    if table.n_alternatives < 2:
        pytest.skip("needs >= 2 interconnections to fail one")
    derived = table.without_alternative(0)
    assert derived.n_alternatives == table.n_alternatives - 1
    # The parent's path arrays, minus the dropped column's.
    assert all(
        got is want for got, want in zip(derived.up_paths, table.up_paths[1:])
    )
    want = reference_tables.incidence(derived, "a")
    assert np.array_equal(derived.incidence("a").indices, want.indices)
    assert np.array_equal(derived.up_weight, table.up_weight[:, 1:])
    assert np.array_equal(
        early_exit_choices(derived),
        np.argmin(table.up_weight[:, 1:], axis=1),
    )


def test_smoke_negotiation_scope_setup(fixture):
    table, defaults, _, _ = fixture
    table.pop_incidence("a")
    table.pop_incidence("b")
    affected = np.flatnonzero(defaults == 0)
    fast = table.subset(affected)
    reference = reference_tables.subset(table, affected)
    assert fast.up_paths is table.up_paths  # shared, with the compiled CSR
    assert fast.pop_incidence("b") is table.pop_incidence("b")
    for side in "ab":
        fast_inc = fast.incidence(side)
        reference_inc = reference_tables.incidence(reference, side)
        assert np.array_equal(fast_inc.indptr, reference_inc.indptr)
        assert np.array_equal(fast_inc.indices, reference_inc.indices)
        assert np.array_equal(fast_inc.entry_flow, reference_inc.entry_flow)
    assert np.array_equal(fast.flowset.sizes(), reference.flowset.sizes())
    assert np.array_equal(fast.up_weight, reference.up_weight)


def test_smoke_base_seeded_link_loads(fixture):
    table, defaults, _, _ = fixture
    mask = np.arange(table.n_flows) % 2 == 0
    base = link_loads(table, defaults, "a", active=~mask)
    assert np.array_equal(
        link_loads(table, defaults, "a", active=mask, base=base),
        reference_loads.link_loads(
            table, defaults, "a", active=mask, base=base
        ),
    )


def test_smoke_lp_assembly_and_fractional_loads(fixture):
    table, defaults, caps_a, caps_b = fixture
    args = (table, ("a", "b"), [caps_a, caps_b], [caps_a * 0.0, caps_b * 0.0])
    (a_ub, b_ub), (want_a_ub, want_b_ub) = (
        _link_constraints(*args),
        reference_loads.link_constraints(*args),
    )
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a_ub, name), getattr(want_a_ub, name))
    assert np.array_equal(b_ub, want_b_ub)
    lp = solve_min_max_load_lp(table, caps_a, caps_b)
    for side in "ab":
        assert np.array_equal(
            fractional_loads(table, lp.fractions, side),
            reference_loads.fractional_loads(table, lp.fractions, side),
        )


def test_smoke_incremental_stop(fixture):
    table, defaults, caps_a, _ = fixture
    agent = NegotiationAgent(
        "a", LoadAwareEvaluator(table, "a", caps_a, defaults)
    )
    remaining = np.ones(table.n_flows, dtype=bool)
    remaining[:: 2] = False
    for reassignable in (False, True):
        assert (not agent.gain_flows(remaining, reassignable)) == wants_to_stop(
            agent, remaining, reassignable
        )


def test_smoke_sweep_runner_path(tmp_path):
    """The unified sweep runner: warm start + checkpoint + plain-loop parity.

    One-shot exercise of the runner machinery under tier-1: the sweep
    path must stay bit-identical to a plain loop over the per-pair unit, a
    warm-started dataset must be a cache hit (not a rebuild), and a
    checkpointed rerun must reproduce the sweep from shards alone.
    """
    from dataclasses import replace

    from repro.experiments.config import ExperimentConfig
    from repro.experiments.distance import (
        DistanceExperimentResult,
        run_distance_experiment,
        run_distance_pair,
    )
    from repro.experiments.parallel import dataset_for, pairs_for, warm_dataset

    config = replace(ExperimentConfig.quick(), max_pairs_distance=1)
    assert dataset_for(config) is warm_dataset(config)

    sweep = run_distance_experiment(config, checkpoint_dir=tmp_path)
    _, pairs = pairs_for(config, 2, config.max_pairs_distance)
    reference = DistanceExperimentResult(
        pairs=[run_distance_pair(pair, config) for pair in pairs]
    )
    resumed = run_distance_experiment(
        config, checkpoint_dir=tmp_path, resume=True
    )
    for a, b in ((sweep, reference), (sweep, resumed)):
        for s, o in zip(a.pairs, b.pairs):
            assert s.pair_name == o.pair_name
            assert s.total_gain_negotiated == o.total_gain_negotiated
            assert np.array_equal(
                s.flow_gains_negotiated, o.flow_gains_negotiated
            )


def test_bench_smoke_check_guards_recorded_speedups(tmp_path):
    """``bench_smoke.py --check`` under tier-1: speedups must stay >= 1.0.

    Runs the real benchmark script (quick preset, no baseline write) in a
    subprocess; a vectorized kernel regressing behind its reference loop
    fails the build here instead of silently rotting the committed
    baseline.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["REPRO_BENCH_PRESET"] = "quick"
    env["PYTHONPATH"] = str(root / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "bench_smoke.py"),
         "--check"],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,  # never touches the committed BENCH_core.json
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "OK: every kernel at or above 1.0x" in proc.stdout


def test_smoke_reassigning_session(fixture):
    table, defaults, caps_a, caps_b = fixture
    session = NegotiationSession(
        NegotiationAgent("a", LoadAwareEvaluator(table, "a", caps_a, defaults)),
        NegotiationAgent("b", LoadAwareEvaluator(table, "b", caps_b, defaults)),
        sizes=table.flowset.sizes(),
        defaults=defaults,
        config=SessionConfig(reassignment_policy=ReassignEveryFraction(0.05)),
    )
    outcome = session.run()
    assert outcome.gain_a >= 0 and outcome.gain_b >= 0
