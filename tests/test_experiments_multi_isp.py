"""The multi_isp sweep: one-unit layout, checkpoint/resume, CLI."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.experiments.config import ExperimentConfig
from repro.experiments.internetwork import (
    MULTI_ISP_SCENARIO,
    run_multi_isp,
    run_multi_isp_experiment,
)
from repro.experiments.runner import CheckpointStore, sweep_fingerprint

from reference.transit import RewalkTransitIndex


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig.quick()


@pytest.fixture(scope="module")
def serial_result(config):
    return run_multi_isp_experiment(config, n_isps=3, rounds=3)


_PARAMS = dict(MULTI_ISP_SCENARIO.default_params)
_PARAMS.update(n_isps=3, rounds=3)


class TestAggregate:
    def test_grid_shape(self, serial_result):
        result = serial_result
        assert result.n_rounds == 3
        assert len(result.records) == 3 * len(result.edge_names)
        assert len(result.mel_trajectory()) == 3

    def test_trajectory_reports_relief(self, serial_result):
        result = serial_result
        assert result.initial_mel > 0
        assert result.final_mel <= result.initial_mel
        assert result.total_sessions() >= len(result.edge_names)

    def test_convergence_padding(self, serial_result):
        # The coordination converges before the round budget; the padded
        # cells are no-ops that carry the final state.
        result = serial_result
        converged = result.converged_round()
        assert converged is not None
        tail = [r for r in result.records if not r.executed_round]
        for record in tail:
            assert not record.ran_session
            assert record.n_changed == 0
            assert record.global_mel == result.final_mel

    def test_summary_claims(self, serial_result):
        claims = dict(MULTI_ISP_SCENARIO.summarize(serial_result))
        assert "global MEL trajectory" in claims
        assert "->" in claims["global MEL trajectory"]


class TestOneUnit:
    """A sweep is one unit: the whole coordination, never replayed."""

    @pytest.mark.parametrize("overrides", [
        {}, {"n_isps": 3, "rounds": 3},
        {"n_isps": 6, "shape": "random", "rounds": 8},
    ])
    def test_one_unit_for_any_params(self, config, overrides):
        params = {**MULTI_ISP_SCENARIO.default_params, **overrides}
        units = MULTI_ISP_SCENARIO.enumerate_units(config, params)
        assert len(units) == 1

    def test_one_coordination_per_sweep(self, config, monkeypatch):
        from repro.core.multi_session import MultiSessionCoordinator

        runs = []
        original = MultiSessionCoordinator.run

        def counting_run(self):
            runs.append(self.max_rounds)
            return original(self)

        monkeypatch.setattr(MultiSessionCoordinator, "run", counting_run)
        run_multi_isp_experiment(config, n_isps=3, rounds=3, workers=2)
        assert runs == [3]

    def test_grid_matches_the_coordination(self, config, serial_result):
        """Round-major cells, edges ascending: the coordination's records
        plus grid context, then no-op padding after convergence."""
        from dataclasses import asdict

        direct = run_multi_isp(config, n_isps=3, max_rounds=3)
        n_edges = len(direct.edge_names)
        cells = serial_result.records
        assert [(c.round_index, c.edge_index) for c in cells] == [
            (r, e) for r in range(3) for e in range(n_edges)
        ]
        for round_ in direct.rounds:
            for record in round_.records:
                cell = cells[round_.round_index * n_edges + record.edge_index]
                assert cell.executed_round
                assert cell.initial_global_mel == direct.initial_mel
                assert {
                    k: v for k, v in asdict(cell).items()
                    if k not in ("executed_round", "initial_global_mel")
                } == asdict(record)
        final = direct.rounds[-1].records[-1].mel_per_isp
        for cell in cells[len(direct.rounds) * n_edges:]:
            assert not cell.executed_round
            assert cell.slot == cell.edge_index
            assert cell.mel_per_isp == final
            assert cell.fault is None

    def test_rounds_must_be_an_integer(self, config):
        for rounds in (2.5, 2.0, True):
            with pytest.raises(ConfigurationError, match="max_rounds"):
                run_multi_isp_experiment(config, n_isps=2, rounds=rounds)

    def test_unrealizable_internetwork_fails_once(
        self, config, monkeypatch
    ):
        """A TopologyError is raised as is, after one build."""
        import repro.experiments.internetwork as internetwork

        builds = []
        original = internetwork.build_internetwork

        def counting_build(net_config):
            builds.append(net_config)
            return original(net_config)

        monkeypatch.setattr(internetwork, "build_internetwork", counting_build)
        with pytest.raises(TopologyError, match="no ring of 5 ISPs"):
            run_multi_isp_experiment(
                config, n_isps=5, shape="ring", min_interconnections=40,
            )
        assert len(builds) == 1


class TestWorkerInvariance:
    def test_parallel_matches_serial(self, config, serial_result):
        parallel = run_multi_isp_experiment(
            config, n_isps=3, rounds=3, workers=2
        )
        assert parallel == serial_result

    def test_checkpoint_then_resume_bit_identical(
        self, config, serial_result, tmp_path
    ):
        checkpointed = run_multi_isp_experiment(
            config, n_isps=3, rounds=3, checkpoint_dir=tmp_path / "ck"
        )
        assert checkpointed == serial_result
        assert len(list((tmp_path / "ck" / "multi_isp").glob("unit-*"))) == 1
        resumed = run_multi_isp_experiment(
            config, n_isps=3, rounds=3,
            checkpoint_dir=tmp_path / "ck", resume=True,
        )
        assert resumed == serial_result

    def test_interrupt_then_resume_bit_identical(
        self, config, serial_result, tmp_path
    ):
        """Losing the shard must recompute it bit-identically."""
        run_multi_isp_experiment(
            config, n_isps=3, rounds=3, checkpoint_dir=tmp_path / "ck"
        )
        store = CheckpointStore(
            tmp_path / "ck", "multi_isp",
            sweep_fingerprint("multi_isp", config, _PARAMS),
        )
        assert store.completed(1) == {0}
        # Simulate an interrupt before the coordination's shard landed.
        store.shard_path(0).unlink()
        assert store.completed(1) == set()
        resumed = run_multi_isp_experiment(
            config, n_isps=3, rounds=3,
            checkpoint_dir=tmp_path / "ck", resume=True,
        )
        assert resumed == serial_result

    def test_cell_layout_checkpoint_refuses_resume(self, config, tmp_path):
        """A shard from the one-unit-per-(edge, round) layout, written for a
        1-round, 1-edge sweep, matches fingerprint and unit count."""
        params = {**MULTI_ISP_SCENARIO.default_params, "n_isps": 2,
                  "rounds": 1}
        cell = run_multi_isp_experiment(config, n_isps=2, rounds=1).records[0]
        store = CheckpointStore(
            tmp_path / "ck", "multi_isp",
            sweep_fingerprint("multi_isp", config, params),
        )
        store.prepare(1, resume=False)
        store.save(0, cell)
        with pytest.raises(ConfigurationError, match="rerun without --resume"):
            run_multi_isp_experiment(
                config, n_isps=2, rounds=1,
                checkpoint_dir=tmp_path / "ck", resume=True,
            )

    def test_stale_fingerprint_refuses_resume(self, config, tmp_path):
        run_multi_isp_experiment(
            config, n_isps=3, rounds=3, checkpoint_dir=tmp_path / "ck"
        )
        with pytest.raises(ConfigurationError, match="refusing to resume"):
            run_multi_isp_experiment(
                config, n_isps=3, rounds=2,
                checkpoint_dir=tmp_path / "ck", resume=True,
            )


class TestRunMultiIsp:
    @pytest.mark.parametrize("name", ["n_isp", "rounds"])
    def test_unknown_name_rejected_before_build(
        self, config, monkeypatch, name
    ):
        """A misspelt shape param or the sweep's ``rounds`` (the
        coordinator calls it ``max_rounds``) fails at once, typed."""
        import repro.experiments.internetwork as internetwork

        def forbidden(*args, **kwargs):  # pragma: no cover - fails the test
            raise AssertionError("internetwork built before the name check")

        monkeypatch.setattr(internetwork, "build_internetwork", forbidden)
        with pytest.raises(
            ConfigurationError, match=f"unknown run_multi_isp params: {name}$"
        ):
            run_multi_isp(config, **{name: 3})

    def test_random_order_chain_converges(self, config):
        result = run_multi_isp(
            config, n_isps=4, shape="chain", transit_scale=3.0,
            max_rounds=8, order="random",
        )
        assert result.converged

    def test_direct_runner_matches_coordinator_defaults(self, config):
        result = run_multi_isp(config, n_isps=3, max_rounds=3)
        assert result.isp_names
        assert result.n_rounds() >= 1

    def test_direct_and_sweep_defaults_are_the_same_scenario(
        self, config, serial_result
    ):
        # Both entry points must use the registered scenario defaults
        # (notably transit_scale), not the coordinator's bare defaults.
        direct = run_multi_isp(config, n_isps=3, max_rounds=3)
        assert direct.initial_mel == serial_result.initial_mel
        grid_trajectory = serial_result.mel_trajectory()
        for round_index, mel in enumerate(direct.mel_trajectory()):
            assert mel == grid_trajectory[round_index]

    def test_peering_probability_forwarded(self, config):
        """Regression: density knobs must reach the internetwork build."""
        sparse = run_multi_isp(
            config, n_isps=5, shape="random", peering_probability=0.0,
            max_rounds=1, transit_scale=0.0,
        )
        dense = run_multi_isp(
            config, n_isps=5, shape="random", peering_probability=1.0,
            max_rounds=1, transit_scale=0.0,
        )
        assert len(sparse.edge_names) == 4  # exactly the spanning tree
        assert len(dense.edge_names) > len(sparse.edge_names)

    def test_explicit_internetwork_rejects_shape_kwargs(self, config):
        from repro.topology.generator import GeneratorConfig
        from repro.topology.internetwork import (
            InternetworkConfig,
            build_internetwork,
        )

        net = build_internetwork(InternetworkConfig(
            n_isps=2, shape="chain", seed=2005,
            generator=GeneratorConfig(min_pops=6, max_pops=14),
        ))
        with pytest.raises(ConfigurationError, match="fixes the topology"):
            run_multi_isp(config, internetwork=net, n_isps=3)
        result = run_multi_isp(config, internetwork=net, max_rounds=2)
        assert len(result.edge_names) == 1

    def test_n2_sweep_matches_single_session_grid(self, config):
        """The sweep's N=2 chain is one session then a convergence skip."""
        result = run_multi_isp_experiment(config, n_isps=2, rounds=2)
        assert len(result.edge_names) == 1
        first, second = result.round_records(0)[0], result.round_records(1)[0]
        assert first.ran_session and first.adopted
        assert not second.ran_session


@pytest.mark.slow
class TestSlowConvergenceSweeps:
    """Larger internetworks; deselected from tier-1 (run with -m slow)."""

    def test_random_graph_convergence(self, config):
        result = run_multi_isp_experiment(
            config, n_isps=5, shape="random", rounds=8,
        )
        assert result.converged_round() is not None
        assert result.final_mel <= result.initial_mel

    def test_ring_randomized_order(self, config):
        result = run_multi_isp_experiment(
            config, n_isps=4, shape="ring", rounds=8, order="random",
        )
        assert result.converged_round() is not None

    def test_worker_invariance_at_scale(self, config):
        # The sweep is one unit; the parallelism inside it is the colored
        # coordination's fork pool.
        serial = run_multi_isp_experiment(
            config, n_isps=5, shape="random", rounds=6
        )
        parallel = run_multi_isp_experiment(
            config, n_isps=5, shape="random", rounds=6, coord_workers=3
        )
        assert serial == parallel


class TestCli:
    def test_multi_isp_command(self, capsys):
        from repro.cli import main

        assert main([
            "multi-isp", "--preset", "quick", "--isps", "3",
            "--rounds", "2", "--transit-scale", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "peering edges" in out
        assert "global MEL initial -> final" in out
        assert "initial global MEL (with transit)" in out

    def test_multi_isp_command_no_transit_label(self, capsys):
        from repro.cli import main

        assert main([
            "multi-isp", "--preset", "quick", "--isps", "3",
            "--rounds", "2", "--transit-scale", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "initial global MEL (no transit)" in out

    def test_multi_isp_command_two_isps_no_transit_label(self, capsys):
        # Transit needs a third ISP to cross: with two, the coordinator
        # builds no transit background whatever --transit-scale says.
        from repro.cli import main

        assert main([
            "multi-isp", "--preset", "quick", "--isps", "2", "--rounds", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "internetwork: 2 ISPs" in out
        assert "initial global MEL (no transit)" in out

    def test_sweep_multi_isp_command(self, capsys, tmp_path):
        from repro.cli import main

        args = [
            "sweep", "multi_isp", "--preset", "quick",
            "--checkpoint-dir", str(tmp_path / "ck"),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "sweep: multi_isp" in first
        assert "global MEL trajectory" in first
        # Resumes from the shards it just wrote, bit-identically.
        assert main(args + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert second == first


def _rewalk_transit(monkeypatch):
    """Route the sweep's transit through the full re-walk reference."""
    import repro.core.multi_session as multi_session

    monkeypatch.setattr(multi_session, "TransitLoadIndex", RewalkTransitIndex)


class TestScaleKnobThreading:
    def test_transit_engines_sweep_bit_identical(
        self, config, serial_result, monkeypatch
    ):
        _rewalk_transit(monkeypatch)
        legacy = run_multi_isp_experiment(config, n_isps=3, rounds=3)
        assert legacy.records == serial_result.records
        assert legacy.final_mel == serial_result.final_mel

    def test_legacy_engine_checkpoint_resume(
        self, config, serial_result, tmp_path, monkeypatch
    ):
        _rewalk_transit(monkeypatch)
        checkpointed = run_multi_isp_experiment(
            config, n_isps=3, rounds=3, checkpoint_dir=tmp_path / "ck",
        )
        resumed = run_multi_isp_experiment(
            config, n_isps=3, rounds=3,
            checkpoint_dir=tmp_path / "ck", resume=True,
        )
        assert resumed == checkpointed == serial_result

    def test_coord_workers_sweep_bit_identical(self, config, serial_result):
        parallel = run_multi_isp_experiment(
            config, n_isps=3, rounds=3, coord_workers=2
        )
        assert parallel.records == serial_result.records

    def test_bad_transit_engine_rejected(self, config):
        # One transit backend: the option is gone from the sweep driver,
        # its params and the CLI.
        from repro.cli import build_parser

        with pytest.raises(ConfigurationError, match="transit_engine"):
            run_multi_isp_experiment(
                config, n_isps=2, rounds=2, transit_engine="incremental",
            )
        assert "transit_engine" not in MULTI_ISP_SCENARIO.default_params
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["multi-isp", "--transit-engine", "legacy"]
            )


@pytest.mark.slow
class TestHundredIspScale:
    """N=100 random-peering coordination; nightly scale coverage.

    The colored schedule is what makes these runs tractable: ~180 peering
    edges collapse into single-digit color classes per round, and the
    convergence instrumentation classifies every stop (including a
    genuine two-cycle the detector catches in the wild at this scale —
    and that the damping ladder re-drives to an actual fixed point).
    """

    def _hundred(self, seed):
        from repro.topology.generator import GeneratorConfig
        from repro.topology.internetwork import (
            InternetworkConfig,
            build_internetwork,
        )

        return build_internetwork(InternetworkConfig(
            n_isps=100, shape="random", seed=seed, pool_size=120,
            peering_probability=0.1,
            generator=GeneratorConfig(min_pops=6, max_pops=10),
        ))

    def test_hundred_isps_converge_with_narrow_schedule(self, config):
        net = self._hundred(seed=11)
        result = run_multi_isp(
            config, internetwork=net, transit_scale=0.0, max_rounds=12,
        )
        assert result.stop_reason == "converged"
        assert result.converged
        # The whole point of coloring: rounds cost O(colors), not
        # O(edges) — greedy stays in the single digits here.
        assert net.n_edges() > 100
        assert result.n_colors <= 10
        for round_ in result.rounds:
            assert len(round_.color_schedule) == result.n_colors

    def test_hundred_isps_oscillation_detected_early(self, config):
        import warnings

        from repro.errors import CoordinationOscillationWarning

        net = self._hundred(seed=2005)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_multi_isp(
                config, internetwork=net, transit_scale=0.0,
                max_rounds=12,
            )
        assert result.stop_reason == "oscillating"
        assert len(result.rounds) < 12, "detection must save the budget"
        oscillations = [
            w.message for w in caught
            if issubclass(w.category, CoordinationOscillationWarning)
        ]
        assert oscillations
        # The wild N=100 cycle is a canonical two-cycle over a handful
        # of contested edges — the attribution must name them.
        assert oscillations[0].cycle_length == 2
        assert oscillations[0].edges

    def test_hundred_isps_redriven_to_convergence_under_damping(
        self, config
    ):
        """The seed-2005 two-cycle, damped: pinned acceptance regression.

        One hysteresis escalation on the contested edges must carry the
        run to a genuine fixed point, at a final global MEL no worse
        than where the undamped run aborted.
        """
        import warnings

        net = self._hundred(seed=2005)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            undamped = run_multi_isp(
                config, internetwork=net, transit_scale=0.0,
                max_rounds=24,
            )
        assert undamped.stop_reason == "oscillating"
        # The damped run absorbs every revisit: no warning escapes.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            damped = run_multi_isp(
                config, internetwork=net, transit_scale=0.0,
                max_rounds=24, damping="ladder",
            )
        assert damped.stop_reason == "converged"
        assert damped.converged
        assert damped.final_mel <= undamped.final_mel + 1e-9
        assert len(caught) >= 1
