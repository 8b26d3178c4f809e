"""Fault plans and faulted coordination: atomicity, quarantine, replay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.capacity.loads import link_loads
from repro.core.faults import FaultEvent, FaultPlan
from repro.core.multi_session import MultiSessionCoordinator
from repro.errors import ConfigurationError, FaultInjectionError
from repro.experiments.config import ExperimentConfig
from repro.routing.costs import build_pair_cost_table
from repro.routing.exits import early_exit_choices
from repro.routing.flows import build_full_flowset
from repro.routing.scenarios import FailureModel
from repro.topology.generator import GeneratorConfig
from repro.topology.internetwork import InternetworkConfig, build_internetwork
from repro.traffic.gravity import GravityWorkload
from repro.geo.cities import default_city_database
from repro.geo.population import PopulationModel

GEN = GeneratorConfig(min_pops=6, max_pops=14)


def _net(n_isps, shape="chain", seed=2005, **kwargs):
    return build_internetwork(
        InternetworkConfig(
            n_isps=n_isps, shape=shape, seed=seed, generator=GEN, **kwargs
        )
    )


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig.quick()


@pytest.fixture(scope="module")
def pair_defaults():
    """The 2-ISP net's edge defaults, computed the coordinator's way."""
    net = _net(2)
    pair = net.edges[0]
    workload = GravityWorkload(PopulationModel(default_city_database()))
    table = build_pair_cost_table(
        pair, build_full_flowset(pair, workload.size_fn(pair))
    )
    return table, early_exit_choices(table)


class TestFaultEventValidation:
    def test_bad_kind(self):
        with pytest.raises(ConfigurationError, match="kind"):
            FaultEvent(0, 0, "meteor")

    def test_negative_round(self):
        with pytest.raises(ConfigurationError, match="round_index"):
            FaultEvent(-1, 0, "abort")

    def test_negative_edge(self):
        with pytest.raises(ConfigurationError, match="edge_index"):
            FaultEvent(0, -2, "abort")

    def test_link_failure_needs_columns(self):
        with pytest.raises(ConfigurationError, match="column"):
            FaultEvent(0, 0, "link_failure")

    def test_link_failure_distinct_columns(self):
        with pytest.raises(ConfigurationError, match="distinct"):
            FaultEvent(0, 0, "link_failure", columns=(1, 1))

    def test_link_failure_nonnegative_columns(self):
        with pytest.raises(ConfigurationError, match=">= 0"):
            FaultEvent(0, 0, "link_failure", columns=(-1,))

    def test_abort_carries_no_columns(self):
        with pytest.raises(ConfigurationError, match="no columns"):
            FaultEvent(0, 0, "abort", columns=(1,))

    def test_deadline_needs_rounds(self):
        with pytest.raises(ConfigurationError, match="deadline_rounds"):
            FaultEvent(0, 0, "deadline")

    def test_abort_carries_no_deadline(self):
        with pytest.raises(ConfigurationError, match="deadline_rounds"):
            FaultEvent(0, 0, "abort", deadline_rounds=3)

    @pytest.mark.parametrize("rounds", [2.5, 2.0, True])
    def test_deadline_rounds_must_be_an_integer(self, rounds):
        # A session's max_rounds takes only an int: reject the plan when
        # it is built, not mid-run.
        with pytest.raises(ConfigurationError, match="integer"):
            FaultEvent(0, 0, "deadline", deadline_rounds=rounds)
        with pytest.raises(ConfigurationError, match="integer"):
            FaultPlan.seeded(0, n_edges=2, n_rounds=2, n_alternatives=3,
                             deadline_rate=1.0, deadline_rounds=rounds)


class TestFaultPlan:
    def test_events_for_filters_and_preserves_order(self):
        plan = FaultPlan(
            events=(
                FaultEvent(1, 0, "abort"),
                FaultEvent(0, 0, "deadline", deadline_rounds=2),
                FaultEvent(0, 0, "abort"),
                FaultEvent(0, 1, "abort"),
            )
        )
        hits = plan.events_for(0, 0)
        assert [e.kind for e in hits] == ["deadline", "abort"]
        assert plan.events_for(2, 0) == ()
        assert not plan.is_empty()
        assert FaultPlan().is_empty()

    def test_seeded_is_deterministic(self):
        kwargs = dict(
            n_edges=3, n_rounds=5, n_alternatives=4,
            abort_rate=0.3, deadline_rate=0.2, link_failure_rate=0.3,
        )
        assert FaultPlan.seeded(7, **kwargs) == FaultPlan.seeded(7, **kwargs)
        assert FaultPlan.seeded(7, **kwargs) != FaultPlan.seeded(8, **kwargs)

    def test_seeded_never_severs_last_column(self):
        plan = FaultPlan.seeded(
            3, n_edges=2, n_rounds=50, n_alternatives=2,
            abort_rate=0.0, link_failure_rate=1.0,
        )
        failures = [e for e in plan.events if e.kind == "link_failure"]
        per_edge: dict[int, set[int]] = {}
        for e in failures:
            per_edge.setdefault(e.edge_index, set()).update(e.columns)
        for columns in per_edge.values():
            assert len(columns) <= 1  # one of two columns must survive

    def test_seeded_respects_max_failed_per_edge(self):
        plan = FaultPlan.seeded(
            3, n_edges=1, n_rounds=50, n_alternatives=8,
            link_failure_rate=1.0, max_failed_per_edge=2,
        )
        columns = set()
        for e in plan.events:
            columns.update(e.columns)
        assert len(columns) <= 2

    def test_seeded_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError, match="abort_rate"):
            FaultPlan.seeded(0, n_edges=1, n_rounds=1,
                             n_alternatives=2, abort_rate=1.5)

    def test_seeded_rejects_mismatched_alternatives(self):
        with pytest.raises(ConfigurationError, match="per edge"):
            FaultPlan.seeded(0, n_edges=2, n_rounds=1, n_alternatives=[3])

    @pytest.mark.parametrize("knob, value", [
        ("seed", 0.7), ("seed", True), ("n_edges", 2.5), ("n_rounds", 2.5),
        ("n_rounds", True), ("n_rounds", -1), ("max_failed_per_edge", 1.5),
        ("n_alternatives", 2.5), ("n_alternatives", [2.7, 3]),
        ("n_alternatives", np.array([2.7, 3.0])),
    ])
    def test_seeded_integer_knobs(self, knob, value):
        # range() would reject n_rounds=2.5 with a bare TypeError, and
        # seed=0.7 or n_rounds=True would run.
        kwargs = dict(seed=0, n_edges=2, n_rounds=2, n_alternatives=3)
        kwargs[knob] = value
        with pytest.raises(ConfigurationError, match=knob):
            FaultPlan.seeded(**kwargs)

    @pytest.mark.parametrize("counts", [np.array([3, 2]), range(3, 1, -1)])
    def test_seeded_takes_any_sequence_of_counts(self, counts):
        kwargs = dict(seed=4, n_edges=2, n_rounds=6, link_failure_rate=0.5)
        assert (FaultPlan.seeded(n_alternatives=counts, **kwargs)
                == FaultPlan.seeded(n_alternatives=[3, 2], **kwargs))


class TestPlanTopologyValidation:
    def test_edge_out_of_range(self, config):
        plan = FaultPlan(events=(FaultEvent(0, 9, "abort"),))
        with pytest.raises(FaultInjectionError, match="edge 9"):
            MultiSessionCoordinator(_net(2), config=config, fault_plan=plan)

    def test_column_out_of_range(self, config):
        plan = FaultPlan(
            events=(FaultEvent(0, 0, "link_failure", columns=(99,)),)
        )
        with pytest.raises(FaultInjectionError, match="column 99"):
            MultiSessionCoordinator(_net(2), config=config, fault_plan=plan)

    def test_cumulative_sever_all_rejected(self, config):
        net = _net(2)
        coordinator = MultiSessionCoordinator(net, config=config)
        n_alt = coordinator._states[0].table.n_alternatives
        events = tuple(
            FaultEvent(r, 0, "link_failure", columns=(c,))
            for r, c in enumerate(range(n_alt))
        )
        with pytest.raises(FaultInjectionError, match="every interconnection"):
            MultiSessionCoordinator(
                _net(2), config=config, fault_plan=FaultPlan(events=events)
            )


class TestEmptyPlanBitIdentity:
    def test_empty_plan_matches_no_plan(self, config):
        baseline = MultiSessionCoordinator(
            _net(3), config=config, max_rounds=6, transit_scale=3.0
        ).run()
        gated = MultiSessionCoordinator(
            _net(3), config=config, max_rounds=6, transit_scale=3.0,
            fault_plan=FaultPlan(),
        ).run()
        assert gated.stop_reason == baseline.stop_reason == "converged"
        assert gated.mel_trajectory() == baseline.mel_trajectory()
        assert gated.initial_mel_per_isp == baseline.initial_mel_per_isp
        for mine, theirs in zip(gated.choices, baseline.choices):
            assert np.array_equal(mine, theirs)
        for round_g, round_b in zip(gated.rounds, baseline.rounds):
            assert round_g.records == round_b.records


class TestAbortAtomicity:
    def test_abort_keeps_last_adopted_assignment(self, config, pair_defaults):
        _, defaults = pair_defaults
        plan = FaultPlan(events=(FaultEvent(0, 0, "abort"),))
        coordinator = MultiSessionCoordinator(
            _net(2), config=config, max_rounds=4, fault_plan=plan
        )
        result = coordinator.run()
        aborted = result.rounds[0].records[0]
        assert aborted.fault == "abort"
        assert not aborted.ran_session
        assert not aborted.adopted
        assert aborted.n_changed == 0
        assert aborted.scope_size > 0
        # Atomic rollback: after the aborted round the edge still holds
        # its last adopted assignment (the defaults).
        assert result.rounds[0].global_mel == result.initial_mel

        # The work is merely deferred: the retry converges to exactly the
        # fault-free agreement.
        reference = MultiSessionCoordinator(
            _net(2), config=config, max_rounds=4
        ).run()
        assert result.converged
        assert np.array_equal(result.choices[0], reference.choices[0])
        assert result.final_mel == reference.final_mel
        # Defaults untouched by the faulted trajectory.
        assert np.array_equal(result.defaults[0], defaults)


class TestDeadlineDiscard:
    def test_deadline_expiry_discards_proposal(self, config):
        plan = FaultPlan(
            events=(FaultEvent(0, 0, "deadline", deadline_rounds=1),)
        )
        result = MultiSessionCoordinator(
            _net(2), config=config, max_rounds=4, fault_plan=plan
        ).run()
        expired = result.rounds[0].records[0]
        assert expired.fault == "deadline"
        assert expired.ran_session  # the session ran, then overran
        assert not expired.adopted
        assert result.rounds[0].global_mel == result.initial_mel
        reference = MultiSessionCoordinator(
            _net(2), config=config, max_rounds=4
        ).run()
        assert result.converged
        assert np.array_equal(result.choices[0], reference.choices[0])


class TestLinkFailure:
    def test_severed_column_is_evacuated(self, config, pair_defaults):
        _, defaults = pair_defaults
        # Sever the defaults' modal column: re-routing is then guaranteed.
        column = int(np.bincount(defaults).argmax())
        plan = FaultPlan(
            events=(FaultEvent(0, 0, "link_failure", columns=(column,)),)
        )
        result = MultiSessionCoordinator(
            _net(2), config=config, max_rounds=5, fault_plan=plan
        ).run()
        first = result.rounds[0].records[0]
        assert first.n_rerouted == int(np.count_nonzero(defaults == column))
        assert first.ran_session
        # Permanent severance: the final agreement never uses the column.
        assert not np.any(result.choices[0] == column)
        assert result.converged

    def test_mid_run_failure_forces_full_renegotiation(self, config):
        net = _net(2)
        probe = MultiSessionCoordinator(net, config=config, max_rounds=5)
        clean = probe.run()
        column = int(np.bincount(clean.choices[0]).argmax())
        plan = FaultPlan(
            events=(FaultEvent(1, 0, "link_failure", columns=(column,)),)
        )
        result = MultiSessionCoordinator(
            _net(2), config=config, max_rounds=6, fault_plan=plan
        ).run()
        hit = result.rounds[1].records[0]
        assert hit.n_rerouted > 0
        # The severance forces a full-scope renegotiation even though the
        # edge's observed context had not changed.
        assert hit.ran_session
        assert hit.scope_size == result.choices[0].size
        assert not np.any(result.choices[0] == column)
        assert result.converged


class TestQuarantine:
    def test_backoff_benches_the_edge(self, config):
        plan = FaultPlan(events=(FaultEvent(0, 0, "abort"),))
        result = MultiSessionCoordinator(
            _net(2), config=config, max_rounds=8, fault_plan=plan,
            quarantine_after=1, quarantine_backoff_rounds=2,
        ).run()
        faults = [r.records[0].fault for r in result.rounds]
        # abort, then 2 quarantined rounds, then the retry succeeds.
        assert faults[:3] == ["abort", "quarantined", "quarantined"]
        assert faults[3] is None
        assert result.rounds[3].records[0].ran_session
        assert result.converged
        assert result.stop_reason == "converged"

    def test_stop_reason_quarantined(self, config):
        plan = FaultPlan(events=(FaultEvent(0, 0, "abort"),))
        result = MultiSessionCoordinator(
            _net(2), config=config, max_rounds=2, fault_plan=plan,
            quarantine_after=1, quarantine_backoff_rounds=2,
        ).run()
        assert not result.converged
        assert result.stop_reason == "quarantined"

    def test_stop_reason_max_rounds(self, config):
        result = MultiSessionCoordinator(
            _net(2), config=config, max_rounds=1
        ).run()
        assert not result.converged
        assert result.stop_reason == "max_rounds"


class TestSeededReplay:
    def test_seeded_plan_coordination_is_replayable(self, config):
        def run_once():
            net = _net(3)
            probe = MultiSessionCoordinator(net, config=config)
            plan = FaultPlan.seeded(
                11,
                n_edges=net.n_edges(),
                n_rounds=8,
                n_alternatives=[
                    state.table.n_alternatives for state in probe._states
                ],
                abort_rate=0.3,
                deadline_rate=0.2,
                link_failure_rate=0.3,
            )
            return MultiSessionCoordinator(
                net, config=config, max_rounds=8, transit_scale=3.0,
                fault_plan=plan,
            ).run()

        first, second = run_once(), run_once()
        assert first.stop_reason == second.stop_reason
        assert first.mel_trajectory() == second.mel_trajectory()
        for mine, theirs in zip(first.choices, second.choices):
            assert np.array_equal(mine, theirs)
        for round_a, round_b in zip(first.rounds, second.rounds):
            assert round_a.records == round_b.records


class TestScenarioAwareCoordination:
    MODEL = FailureModel(link_probability=0.05, cutoff=1e-4, max_failed=2)

    def test_cvar_gated_run_converges_and_reports(self, config):
        coordinator = MultiSessionCoordinator(
            _net(2), config=config, max_rounds=5,
            failure_model=self.MODEL, tail_weight=0.5, tail_quantile=0.9,
        )
        result = coordinator.run()
        assert result.converged
        report = coordinator.risk_report()
        assert len(report) == 1
        entry = report[0]
        assert entry["severed"] == ()
        for side in (0, 1):
            assert entry["cvar"][side] >= entry["var"][side]
            assert entry["expected"][side] >= 0.0

    def test_risk_report_requires_model(self, config):
        coordinator = MultiSessionCoordinator(_net(2), config=config)
        with pytest.raises(ConfigurationError, match="failure_model"):
            coordinator.risk_report()
