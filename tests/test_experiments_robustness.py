"""The robust-negotiation sweep: pairing, determinism, CLI plumbing."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.experiments.config import ExperimentConfig
from repro.experiments.robustness import (
    RobustnessExperimentResult,
    RobustUnitRecord,
    run_robustness_experiment,
)

_TINY = dict(fault_seeds=(0,), rounds=3, n_isps=2)


@pytest.fixture(scope="module")
def tiny_result():
    return run_robustness_experiment(ExperimentConfig.quick(), **_TINY)


class TestRobustnessSweep:
    def test_one_record_per_seed_and_mode(self, tiny_result):
        assert len(tiny_result.records) == 2
        pairs = tiny_result.paired()
        assert len(pairs) == 1
        nominal, cvar = pairs[0]
        assert nominal.mode == "nominal" and cvar.mode == "cvar"
        assert nominal.fault_seed == cvar.fault_seed == 0
        for record in (nominal, cvar):
            assert record.stop_reason in (
                "converged", "max_rounds", "quarantined"
            )
            assert record.converged == (record.stop_reason == "converged")
            assert record.cvar >= record.var
        counts = tiny_result.converged_counts()
        assert set(counts) == {"nominal", "cvar"}

    def test_mean_delta_metrics(self, tiny_result):
        for metric in ("expected", "var", "cvar", "final_mel"):
            delta = tiny_result.mean_delta(metric)
            assert delta == delta  # not NaN
        with pytest.raises(ConfigurationError, match="metric"):
            tiny_result.mean_delta("nope")

    def test_rerun_is_bit_identical(self, tiny_result):
        again = run_robustness_experiment(ExperimentConfig.quick(), **_TINY)
        assert again.records == tiny_result.records

    def test_faults_actually_fire_under_pressure(self):
        result = run_robustness_experiment(
            ExperimentConfig.quick(),
            fault_seeds=(1,), rounds=4, n_isps=2,
            abort_rate=0.9, deadline_rate=0.0, link_failure_rate=0.0,
        )
        assert all(r.n_faulted_slots > 0 for r in result.records)

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            run_robustness_experiment(
                ExperimentConfig.quick(), typo_rate=0.1
            )

    @pytest.mark.parametrize("override", [
        {"rounds": 2.5}, {"rounds": True}, {"deadline_rounds": 2.5},
        {"fault_seeds": (0.7,)}, {"max_failed": 2.5}, {"n_isps": 3.5},
    ])
    def test_integer_params_reject_non_integers(self, override):
        # Truncating with int() would run 2.5 rounds as 2, True as 1 and
        # fault seed 0.7 as seed 0.
        with pytest.raises(ConfigurationError, match="integer"):
            run_robustness_experiment(
                ExperimentConfig.quick(), **{**_TINY, **override}
            )

    def test_unrealizable_internetwork_fails_once(self, monkeypatch):
        """Every (seed, mode) unit shares the internetwork, so a shape
        that cannot be built raises its TopologyError once, unretried."""
        import repro.experiments.internetwork as internetwork
        from repro.experiments import runner

        builds = []
        original = internetwork.build_internetwork

        def counting_build(net_config):
            builds.append(net_config)
            return original(net_config)

        sleeps: list[float] = []
        monkeypatch.setattr(internetwork, "build_internetwork", counting_build)
        monkeypatch.setattr(runner.time, "sleep", sleeps.append)
        with pytest.raises(TopologyError, match="no ring of 5 ISPs"):
            run_robustness_experiment(
                ExperimentConfig.quick(), n_isps=5, shape="ring",
                min_interconnections=40,
            )
        assert len(builds) == 1
        assert sleeps == []

    def test_paired_requires_both_modes_per_seed(self):
        lonely = RobustUnitRecord(
            fault_seed=0, mode="nominal", stop_reason="converged",
            converged=True, n_rounds=1, n_faulted_slots=0, n_rerouted=0,
            initial_mel=1.0, final_mel=1.0,
            expected=1.0, var=1.0, cvar=1.0,
        )
        result = RobustnessExperimentResult(
            tail_quantile=0.9, records=[lonely]
        )
        with pytest.raises(ConfigurationError, match="missing a mode"):
            result.paired()
        with pytest.raises(ConfigurationError, match="mode"):
            result.by_mode("nope")


class TestRobustnessCli:
    def test_cli_command_runs_and_reports(self):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(
            ["robust", "--preset", "quick", "--isps", "2", "--rounds", "3",
             "--fault-seeds", "0"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "robust negotiation under failure" in text
        assert "CVaR@0.9" in text
        assert "regret" in text

    def test_cli_lists_robustness_sweep(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["sweep", "robust_negotiation"])
        assert args.scenario == "robust_negotiation"
        assert args.max_retries is None
        assert args.retry_backoff is None

    def test_retry_knobs_parse_on_sweep_capable_commands(self):
        from repro.cli import build_parser

        parser = build_parser()
        for command in ("sweep", "distance", "bandwidth", "availability",
                        "multi-isp", "robust"):
            argv = [command, "--max-retries", "5", "--retry-backoff", "0.2"]
            if command == "sweep":
                argv.insert(1, "distance")
            args = parser.parse_args(argv)
            assert args.max_retries == 5
            assert args.retry_backoff == pytest.approx(0.2)
