"""MultiSessionCoordinator: N=2 differential, convergence, short-circuits."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro.core.multi_session as multi_session
from repro.capacity.loads import link_loads
from repro.capacity.provisioning import ProportionalCapacity
from repro.core.agent import NegotiationAgent
from repro.core.evaluators import LoadAwareEvaluator
from repro.core.multi_session import MultiSessionCoordinator, carries_transit
from repro.core.preferences import PreferenceRange
from repro.core.session import NegotiationSession, SessionConfig
from repro.core.strategies import ReassignEveryFraction
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.geo.cities import default_city_database
from repro.geo.population import PopulationModel
from repro.metrics.mel import max_excess_load
from repro.routing.costs import build_pair_cost_table
from repro.routing.exits import early_exit_choices
from repro.routing.flows import build_full_flowset
from repro.topology.generator import GeneratorConfig
from repro.topology.internetwork import (
    Internetwork,
    InternetworkConfig,
    build_internetwork,
)
from repro.traffic.gravity import GravityWorkload

from reference.oscillator import FlipCoordinator
from reference.sssp import NetworkxRouting
from reference.transit import RewalkTransitIndex

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
def chain3_result(config):
    net = _net(3)
    return MultiSessionCoordinator(
        net, config=config, max_rounds=6, transit_scale=3.0
    ).run()


class TestValidation:
    def test_bad_order(self, config):
        with pytest.raises(ConfigurationError, match="order"):
            MultiSessionCoordinator(_net(2), config=config, order="chaos")

    def test_bad_rounds(self, config):
        with pytest.raises(ConfigurationError, match="max_rounds"):
            MultiSessionCoordinator(_net(2), config=config, max_rounds=0)

    @pytest.mark.parametrize("knob", [
        "max_rounds", "quarantine_after", "quarantine_backoff_rounds",
        "quarantine_backoff_cap", "damping_budget",
    ])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
    def test_integer_knobs_reject_non_integers(self, config, knob, value):
        # A bool or float count would run (True = 1 round) or die later
        # with a bare TypeError from range(); reject it at construction.
        with pytest.raises(ConfigurationError, match="integer"):
            MultiSessionCoordinator(
                _net(2), config=config, **{knob: value}
            )

    @pytest.mark.parametrize("seed", [2.5, "7", True, -1])
    def test_seed_override_must_be_an_integer(self, config, seed):
        # Regression: seed=2.5 was accepted and truncated by derive_rng.
        with pytest.raises(ConfigurationError, match="seed"):
            MultiSessionCoordinator(_net(2), config=config, seed=seed)

    def test_backoff_cap_below_backoff_rejected(self, config):
        with pytest.raises(ConfigurationError, match="quarantine_backoff_cap"):
            MultiSessionCoordinator(
                _net(2), config=config, quarantine_backoff_rounds=3,
                quarantine_backoff_cap=2,
            )

    def test_bad_transit_scale(self, config):
        with pytest.raises(ConfigurationError, match="transit_scale"):
            MultiSessionCoordinator(
                _net(2), config=config, transit_scale=-1.0
            )

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_non_finite_transit_scale(self, config, scale):
        # Both pass a `< 0` check; the first session would then die with
        # a CapacityError about base loads, naming the wrong input.
        with pytest.raises(ConfigurationError, match="transit_scale"):
            MultiSessionCoordinator(
                _net(3), config=config, transit_scale=scale
            )

    @pytest.mark.parametrize("edge_index", [-1, 1, 0.0, True])
    def test_optimal_edge_mel_checks_edge_index(self, config, edge_index):
        # -1 would silently solve the last edge's LP and 1 (the edge
        # count) would raise a bare IndexError.
        coordinator = MultiSessionCoordinator(_net(2), config=config)
        with pytest.raises(ConfigurationError, match="edge_index"):
            coordinator.optimal_edge_mel(edge_index)


class TestTwoIspDifferential:
    """The N=2 chain must reduce to the existing pairwise session path."""

    def test_bit_identical_to_single_session(self, config):
        net = _net(2)
        result = MultiSessionCoordinator(
            net, config=config, max_rounds=4
        ).run()

        # Reference: the plain, pre-existing single-session path over the
        # same pair — gravity flowset, early-exit defaults, proportional
        # capacities, load-aware agents, reassignment every 5% of traffic.
        pair = net.edges[0]
        workload = GravityWorkload(
            PopulationModel(default_city_database())
        )
        table = build_pair_cost_table(
            pair, build_full_flowset(pair, workload.size_fn(pair))
        )
        defaults = early_exit_choices(table)
        caps_a = ProportionalCapacity().capacities(
            link_loads(table, defaults, "a")
        )
        caps_b = ProportionalCapacity().capacities(
            link_loads(table, defaults, "b")
        )
        p_range = PreferenceRange(config.preference_p)
        session = NegotiationSession(
            NegotiationAgent(
                "a",
                LoadAwareEvaluator(
                    table, "a", caps_a, defaults,
                    base_loads=np.zeros(pair.isp_a.n_links()),
                    range_=p_range, ratio_unit=config.ratio_unit,
                ),
            ),
            NegotiationAgent(
                "b",
                LoadAwareEvaluator(
                    table, "b", caps_b, defaults,
                    base_loads=np.zeros(pair.isp_b.n_links()),
                    range_=p_range, ratio_unit=config.ratio_unit,
                ),
            ),
            sizes=table.flowset.sizes(),
            defaults=defaults,
            config=SessionConfig(
                reassignment_policy=ReassignEveryFraction(
                    config.reassign_fraction
                )
            ),
        )
        ref_choices = session.run().choices
        ref_mels = (
            max_excess_load(link_loads(table, ref_choices, "a"), caps_a),
            max_excess_load(link_loads(table, ref_choices, "b"), caps_b),
        )

        # Bit-identical placements and MELs (== on floats, not allclose).
        assert np.array_equal(result.choices[0], ref_choices)
        first = result.rounds[0].records[0]
        assert first.mel_per_isp == ref_mels
        assert first.global_mel == max(ref_mels)

    def test_two_isps_have_no_transit(self, config):
        coordinator = MultiSessionCoordinator(_net(2), config=config)
        for loads in coordinator._transit.values():
            assert not loads.any()

    def test_converges_in_two_rounds(self, config):
        # One edge, nothing else moves: round 1 negotiates, round 2 skips.
        result = MultiSessionCoordinator(
            _net(2), config=config, max_rounds=5
        ).run()
        assert result.converged
        assert result.n_rounds() == 2
        second = result.rounds[1].records[0]
        assert not second.ran_session


class TestCoordination:
    def test_transit_relief_trajectory(self, chain3_result):
        result = chain3_result
        assert result.converged
        trajectory = result.mel_trajectory()
        assert trajectory[-1] <= result.initial_mel
        assert result.final_mel == trajectory[-1]

    def test_round_records_cover_every_edge(self, chain3_result):
        for round_ in chain3_result.rounds:
            assert sorted(r.edge_index for r in round_.records) == list(
                range(len(chain3_result.edge_names))
            )
            assert [r.slot for r in round_.records] == list(
                range(len(round_.records))
            )

    def test_deterministic(self, config, chain3_result):
        again = MultiSessionCoordinator(
            _net(3), config=config, max_rounds=6, transit_scale=3.0
        ).run()
        assert again.mel_trajectory() == chain3_result.mel_trajectory()
        for mine, theirs in zip(again.choices, chain3_result.choices):
            assert np.array_equal(mine, theirs)

    def test_randomized_order_converges(self, config):
        result = MultiSessionCoordinator(
            _net(3), config=config, order="random", seed=5, max_rounds=8,
            transit_scale=3.0,
        ).run()
        assert result.converged
        orders = [round_.order for round_ in result.rounds]
        assert all(sorted(order) == [0, 1] for order in orders)

    def test_scope_narrows_after_first_round(self, chain3_result):
        first_round = chain3_result.rounds[0]
        assert all(
            r.scope_size > 0 and r.ran_session for r in first_round.records
        )
        # Convergence ends with a round of skips (empty scopes or
        # unchanged contexts), never a full re-negotiation.
        last_round = chain3_result.rounds[-1]
        assert last_round.n_changed == 0

    def test_no_ragged_recompilation_between_rounds(self, config, monkeypatch):
        """Each edge side compiles its per-PoP CSR at most once, however
        many rounds and scopes derive from the edge's table."""
        from repro.routing.incidence import PathIncidence

        compiled = []
        compile_paths = PathIncidence.from_paths.__func__

        def counting(cls, paths, n_pops, n_links):
            compiled.append(paths)
            return compile_paths(cls, paths, n_pops, n_links)

        monkeypatch.setattr(
            PathIncidence, "from_paths", classmethod(counting)
        )
        net = _net(3)
        coordinator = MultiSessionCoordinator(
            net, config=config, max_rounds=6, transit_scale=3.0
        )
        result = coordinator.run()
        assert result.converged
        assert len(result.rounds) > 1  # scopes were derived again
        # Nothing is severed: every working table is its edge's table.
        assert len({id(paths) for paths in compiled}) == len(compiled)
        assert 0 < len(compiled) <= 2 * len(net.edges)


class TestDegenerateInternetworks:
    def test_zero_edge_internetwork_trivially_converges(self, config):
        members = _net(3).isps
        net = Internetwork([members[0]], [])
        result = MultiSessionCoordinator(net, config=config).run()
        assert result.converged
        assert result.rounds == []
        assert result.initial_mel == 0.0
        assert result.mel_trajectory() == []

    def test_zero_edge_runs_no_lp_or_session(self, config, monkeypatch):
        """A zero-pair internetwork must not drive sessions or LPs."""
        import repro.optimal.bandwidth_lp as bandwidth_lp

        def boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("should not be called")

        monkeypatch.setattr(NegotiationSession, "run", boom)
        monkeypatch.setattr(
            bandwidth_lp, "solve_min_max_load_lp", boom
        )
        members = _net(3).isps
        net = Internetwork(list(members[:2]), [])
        result = MultiSessionCoordinator(net, config=config).run()
        assert result.converged

    @pytest.mark.parametrize(
        "n_isps, transit_scale, expected",
        [(2, 3.0, False), (3, 0.0, False), (3, 3.0, True)],
    )
    def test_transit_built_exactly_when_carries_transit(
        self, config, n_isps, transit_scale, expected
    ):
        # The CLI labels its run from carries_transit, so the label and
        # the coordinator's transit background cannot disagree.
        net = _net(n_isps)
        coordinator = MultiSessionCoordinator(
            net, config=config, transit_scale=transit_scale
        )
        assert carries_transit(
            net.n_isps(), net.n_edges(), transit_scale
        ) is expected
        assert (coordinator._transit_index is not None) is expected
        assert not carries_transit(3, 0, transit_scale)

    def test_empty_scope_skips_without_session(self, config, monkeypatch):
        """An edge whose scope is empty must short-circuit the session."""
        net = _net(3)
        coordinator = MultiSessionCoordinator(
            net, config=config, max_rounds=1, transit_scale=3.0
        )
        monkeypatch.setattr(
            coordinator,
            "_scope",
            lambda edge_index, base_a, base_b: np.empty(0, dtype=np.intp),
        )

        def boom(self):  # pragma: no cover - guard
            raise AssertionError("session must not run on an empty scope")

        monkeypatch.setattr(NegotiationSession, "run", boom)
        result = coordinator.run()
        assert all(not r.ran_session for r in result.records())
        assert all(r.scope_size == 0 for r in result.records())


class TestDisconnectedInternetwork:
    def test_unreachable_transit_is_skipped(self, config):
        # Two disjoint 2-chains: transit between the components is
        # unreachable and must simply contribute nothing (no raise).
        net_a = _net(2)
        net_b = _net(2, name_prefix="bsp")
        net = Internetwork(
            list(net_a.isps) + list(net_b.isps),
            list(net_a.edges) + list(net_b.edges),
        )
        assert not net.is_connected()
        result = MultiSessionCoordinator(
            net, config=config, max_rounds=3
        ).run()
        assert result.converged
        assert result.n_rounds() >= 1


class TestScaleSpineThreading:
    def test_routing_engine_threaded_and_identical(
        self, config, monkeypatch
    ):
        fast = MultiSessionCoordinator(_net(2), config=config, max_rounds=4)
        monkeypatch.setattr(multi_session, "IntradomainRouting", NetworkxRouting)
        slow = MultiSessionCoordinator(_net(2), config=config, max_rounds=4)
        assert not any(
            isinstance(r, NetworkxRouting) for r in fast._routings.values()
        )
        assert all(
            isinstance(r, NetworkxRouting) for r in slow._routings.values()
        )
        result_fast = fast.run()
        result_slow = slow.run()
        # Generated topologies have jittered continuous weights (unique
        # shortest paths), so the heap Dijkstra and networkx routing must
        # coordinate identically.
        assert result_fast.final_mel == result_slow.final_mel
        for a, b in zip(result_fast.choices, result_slow.choices):
            assert np.array_equal(a, b)

    def test_optimal_edge_mel_probe(self, config):
        coordinator = MultiSessionCoordinator(_net(2), config=config, max_rounds=4)
        result = coordinator.run()
        t = coordinator.optimal_edge_mel(0)
        assert np.isfinite(t) and t >= 0.0
        # The fractional LP optimum cannot exceed the coordinated MEL of
        # that edge's two ISPs.
        edge = coordinator.net.edges[0]
        names = result.isp_names
        records = result.records()
        mels = (
            records[-1].mel_per_isp if records else result.initial_mel_per_isp
        )
        coordinated = max(
            mels[names.index(edge.isp_a.name)],
            mels[names.index(edge.isp_b.name)],
        )
        assert t <= coordinated + 1e-9


def _trajectory_signature(result):
    """Everything a run observably produced, for bit-identity diffs."""
    rounds = [
        (
            round_.round_index,
            round_.order,
            round_.color_schedule,
            [
                (
                    r.round_index, r.slot, r.edge_index, r.pair_name,
                    r.scope_size, r.ran_session, r.adopted, r.n_changed,
                    tuple(r.mel_per_isp), r.global_mel, r.fault,
                    r.n_rerouted,
                )
                for r in round_.records
            ],
        )
        for round_ in result.rounds
    ]
    return (
        result.stop_reason, result.converged, result.n_colors, rounds,
        [tuple(c) for c in result.choices],
    )


class TestScaleKnobValidation:
    def test_bad_transit_engine(self, config):
        # One transit backend: the transit_engine option is gone.
        with pytest.raises(TypeError, match="transit_engine"):
            MultiSessionCoordinator(
                _net(2), config=config, transit_engine="incremental"
            )

    def test_bad_coord_workers(self, config):
        for bogus in (True, 1.5):
            with pytest.raises(ConfigurationError, match="workers"):
                MultiSessionCoordinator(
                    _net(2), config=config, coord_workers=bogus
                )

    def test_workers_refuse_fault_plan(self, config):
        from repro.core.faults import FaultEvent, FaultPlan

        plan = FaultPlan(events=(FaultEvent(0, 0, "abort"),))
        with pytest.raises(ConfigurationError, match="coord_workers"):
            MultiSessionCoordinator(
                _net(3), config=config, coord_workers=2, fault_plan=plan
            )

    def test_workers_allow_empty_fault_plan(self, config):
        from repro.core.faults import FaultPlan

        coordinator = MultiSessionCoordinator(
            _net(2), config=config, coord_workers=2,
            fault_plan=FaultPlan(),
        )
        assert coordinator.coord_workers == 2


class TestColoredSchedule:
    def test_schedule_covers_round_order(self, chain3_result):
        for round_ in chain3_result.rounds:
            flat = tuple(
                edge for group in round_.color_schedule for edge in group
            )
            assert flat == round_.order
            for group in round_.color_schedule:
                assert list(group) == sorted(group)

    def test_classes_are_conflict_free(self, config):
        net = _net(5, shape="random")
        coordinator = MultiSessionCoordinator(net, config=config)
        for group in coordinator._coloring.classes:
            touched: set[str] = set()
            for edge_index in group:
                edge = net.edges[edge_index]
                assert edge.isp_a.name not in touched
                assert edge.isp_b.name not in touched
                touched.update((edge.isp_a.name, edge.isp_b.name))

    def test_result_reports_colors(self, chain3_result):
        assert chain3_result.n_colors == 2
        assert chain3_result.n_colors <= len(chain3_result.edge_names)

    def test_instrumentation_populated(self, chain3_result):
        for round_ in chain3_result.rounds:
            assert round_.potential == round_.global_mel + round_.n_changed

    def test_potential_trajectory_tracks_rounds(self, chain3_result):
        trajectory = chain3_result.potential_trajectory()
        assert trajectory == [
            (r.global_mel, r.n_changed) for r in chain3_result.rounds
        ]
        # A converged run's final round moved nothing.
        assert trajectory[-1][1] == 0


class TestWorkerDifferential:
    """Colored-parallel execution must be bit-identical to serial."""

    @pytest.mark.parametrize("shape", ["chain", "ring", "random"])
    def test_workers_match_serial(self, config, shape):
        net = _net(4, shape=shape)
        serial = MultiSessionCoordinator(
            net, config=config, max_rounds=6, transit_scale=3.0,
        ).run()
        for workers in (2, 4):
            parallel = MultiSessionCoordinator(
                net, config=config, max_rounds=6, transit_scale=3.0,
                coord_workers=workers,
            ).run()
            assert _trajectory_signature(parallel) == \
                _trajectory_signature(serial)

    def test_random_order_matches_serial(self, config):
        net = _net(4, shape="ring")
        kwargs = dict(
            config=config, max_rounds=6, transit_scale=3.0,
            order="random", seed=11,
        )
        serial = MultiSessionCoordinator(net, **kwargs).run()
        parallel = MultiSessionCoordinator(
            net, coord_workers=2, **kwargs
        ).run()
        assert _trajectory_signature(parallel) == \
            _trajectory_signature(serial)


class TestTransitEngines:
    """The incremental transit index is pinned to a full re-walk."""

    @staticmethod
    def _incremental_and_rewalk(monkeypatch, net, **kwargs):
        incremental = MultiSessionCoordinator(net, **kwargs).run()
        monkeypatch.setattr(
            multi_session, "TransitLoadIndex", RewalkTransitIndex
        )
        rewalk = MultiSessionCoordinator(net, **kwargs).run()
        return incremental, rewalk

    @pytest.mark.parametrize("shape", ["chain", "random"])
    def test_engines_bit_identical(self, config, shape, monkeypatch):
        incremental, legacy = self._incremental_and_rewalk(
            monkeypatch, _net(4, shape=shape),
            config=config, max_rounds=6, transit_scale=3.0,
        )
        assert _trajectory_signature(incremental) == \
            _trajectory_signature(legacy)

    def test_engines_bit_identical_under_severance(self, config, monkeypatch):
        from repro.core.faults import FaultEvent, FaultPlan

        plan = FaultPlan(events=(
            FaultEvent(1, 1, "link_failure", columns=(0,)),
        ))
        incremental, legacy = self._incremental_and_rewalk(
            monkeypatch, _net(4),
            config=config, max_rounds=6, transit_scale=3.0, fault_plan=plan,
        )
        assert _trajectory_signature(incremental) == \
            _trajectory_signature(legacy)

    def test_severance_refreshes_transit_background(self, config):
        from repro.core.faults import FaultEvent, FaultPlan

        net = _net(4)
        reference = MultiSessionCoordinator(
            net, config=config, transit_scale=3.0
        )
        index = reference._transit_index
        assert index is not None
        crossed = min(
            e for e in range(net.n_edges()) if index.crossing(e)
        )
        coordinator = MultiSessionCoordinator(
            net, config=config, transit_scale=3.0,
            fault_plan=FaultPlan(events=(
                FaultEvent(0, crossed, "link_failure", columns=(0,)),
            )),
        )
        before = {
            name: loads.copy()
            for name, loads in coordinator._transit.items()
        }
        coordinator.run()
        changed = any(
            not np.array_equal(before[name], coordinator._transit[name])
            for name in before
        )
        assert changed, "a crossed severance must re-route some transit"


def _flip_coordinator(config, **kwargs):
    """The shared flip oscillator on a 3-ISP chain, without transit."""
    return FlipCoordinator(
        _net(3), config=config, max_rounds=10, transit_scale=0.0,
        **kwargs,
    )


class TestOscillationDetection:
    def test_oscillating_run_stops_with_warning(self, config):
        from repro.errors import CoordinationOscillationWarning

        # Force a two-cycle: every session flips every flow between
        # alternatives 0 and 1, and the Pareto gate always accepts.
        coordinator = _flip_coordinator(config)
        with pytest.warns(
            CoordinationOscillationWarning, match="oscillating"
        ):
            result = coordinator.run()
        # The forced map is an involution on {0, 1} placements, so the
        # run enters a two-cycle within its first round or two and the
        # fingerprint check catches the first revisit.
        assert result.stop_reason == "oscillating"
        assert not result.converged
        assert 2 <= len(result.rounds) <= 3
        assert len(result.rounds) < coordinator.max_rounds
        assert all(round_.n_changed > 0 for round_ in result.rounds)

    def test_convergent_run_never_warns(self, config):
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            result = MultiSessionCoordinator(
                _net(3), config=config, max_rounds=6, transit_scale=3.0
            ).run()
        assert result.stop_reason == "converged"


class TestDampingLadder:
    def test_warning_carries_cycle_attribution(self, config):
        from repro.errors import CoordinationOscillationWarning

        coordinator = _flip_coordinator(config)
        with pytest.warns(CoordinationOscillationWarning) as caught:
            result = coordinator.run()
        assert result.stop_reason == "oscillating"
        warning = caught[0].message
        assert warning.cycle_length == 2
        assert warning.edges
        assert set(warning.edges) <= set(result.edge_names)

    def test_ladder_redrives_flip_cycle_to_convergence(self, config):
        import warnings as warnings_module

        coordinator = _flip_coordinator(config, damping="ladder")
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            result = coordinator.run()
        # The first revisit arms the hysteresis margin on the flipping
        # edges; under it the zero-gain flips stop qualifying, the next
        # round moves nothing, and the run converges instead of aborting.
        assert result.stop_reason == "converged"
        assert result.converged
        assert result.rounds[-1].n_changed == 0

    def test_spent_budget_falls_back_to_oscillating(self, config):
        from repro.errors import CoordinationOscillationWarning

        coordinator = _flip_coordinator(
            config, damping="ladder", damping_budget=0
        )
        with pytest.warns(CoordinationOscillationWarning):
            result = coordinator.run()
        assert result.stop_reason == "oscillating"

    def test_damping_knobs_default_off(self, config):
        coordinator = MultiSessionCoordinator(
            _net(2), config=config, transit_scale=0.0
        )
        assert coordinator.damping_config.mode == "off"
        assert coordinator.damping_config.hysteresis_margin == 0.05
        override = MultiSessionCoordinator(
            _net(2), config=config, transit_scale=0.0, damping="ladder",
            hysteresis_margin=0.2,
        )
        assert override.damping_config.mode == "ladder"
        assert override.damping_config.hysteresis_margin == 0.2

    def test_random_order_fingerprint_mixes_schedule_state(self, config):
        # Regression: under order="random" a placement revisit does not
        # imply a cycle — the upcoming shuffles differ — so the digest
        # mixes in the order stream's state and the flip involution no
        # longer trips the (now unsound-free) detector; the run spends
        # its round budget instead of falsely diagnosing oscillation.
        import warnings as warnings_module

        coordinator = _flip_coordinator(config, order="random")
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            result = coordinator.run()
        assert result.stop_reason == "max_rounds"
        assert len(result.rounds) == coordinator.max_rounds


class TestStopReasonInvariant:
    def _result(self, stop_reason, converged):
        return multi_session.MultiNegotiationResult(
            isp_names=("a", "b"),
            edge_names=("a--b",),
            rounds=[],
            converged=converged,
            initial_mel_per_isp=(0.0, 0.0),
            choices=[],
            defaults=[],
            stop_reason=stop_reason,
        )

    def test_consistent_pairs_accepted(self):
        for stop_reason in multi_session._STOP_REASONS:
            result = self._result(stop_reason, stop_reason == "converged")
            assert result.converged == (result.stop_reason == "converged")

    def test_contradictory_pairs_rejected(self):
        for stop_reason in multi_session._STOP_REASONS:
            with pytest.raises(ConfigurationError, match="contradicts"):
                self._result(stop_reason, stop_reason != "converged")

    def test_unknown_stop_reason_rejected(self):
        with pytest.raises(ConfigurationError, match="stop_reason"):
            self._result("tired", False)


class TestDampingOffEquivalence:
    """damping="off" must stay bit-identical to the pre-damping loop.

    The controller is observation-only when off (and untriggered when
    on), so explicit off, the default, and an untriggered ladder must
    all produce byte-equal trajectories, serially and on workers.
    """

    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        shape=st.sampled_from(["chain", "ring", "random"]),
        seed=st.integers(min_value=2005, max_value=2007),
    )
    def test_off_default_and_untriggered_ladder_identical(
        self, config, shape, seed
    ):
        from repro.errors import TopologyError

        try:
            net = _net(4, shape=shape, seed=seed, pool_size=12)
        except TopologyError:
            assume(False)
        results = [
            MultiSessionCoordinator(
                net, config=config, max_rounds=6, transit_scale=0.0,
                **kwargs,
            ).run()
            for kwargs in (
                {}, {"damping": "off"}, {"damping": "ladder"},
            )
        ]
        assume(results[0].converged)  # a cycle would rightly diverge
        default, off, ladder = map(_trajectory_signature, results)
        assert default == off == ladder

    def test_ladder_matches_serial_on_workers(self, config):
        net = _net(4, shape="ring")
        serial, pooled = (
            MultiSessionCoordinator(
                net, config=config, max_rounds=6, damping="ladder",
                coord_workers=workers,
            ).run()
            for workers in (None, 2)
        )
        assert _trajectory_signature(serial) == _trajectory_signature(pooled)


class TestSingleIspRegression:
    def test_single_isp_is_immediately_converged(self, config):
        members = _net(3).isps
        net = Internetwork([members[0]], [])
        result = MultiSessionCoordinator(net, config=config).run()
        assert result.converged
        assert result.stop_reason == "converged"
        assert result.rounds == []
        assert result.n_colors == 0
        assert result.potential_trajectory() == []
