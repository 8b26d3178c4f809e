"""The unified sweep runner: specs, checkpoints, resume, equivalence."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.bandwidth import run_bandwidth_experiment, run_pair_cases
from repro.experiments.config import ExperimentConfig
from repro.experiments.distance import (
    build_distance_problem,
    run_distance_experiment,
    run_distance_pair,
    run_grouped_ablation,
)
from repro.experiments.parallel import pairs_for
from repro.experiments.runner import (
    CheckpointStore,
    ScenarioSpec,
    SweepRunner,
    get_scenario,
    register_scenario,
    scenario_names,
    sweep_fingerprint,
)


@pytest.fixture(scope="module")
def tiny_config():
    return replace(
        ExperimentConfig.quick(), max_pairs_distance=2, max_pairs_bandwidth=2
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_stock_scenarios_registered(self):
        names = scenario_names()
        for name in ("distance", "bandwidth", "grouped", "oscillation",
                     "destination"):
            assert name in names

    def test_unknown_scenario(self):
        with pytest.raises(ConfigurationError, match="unknown sweep scenario"):
            get_scenario("no-such-sweep")

    def test_run_scenario_by_name(self, tiny_config):
        result = SweepRunner().run("distance", tiny_config)
        assert len(result.pairs) == 2

    @pytest.mark.parametrize("name", [
        "availability", "bandwidth", "destination", "distance", "grouped",
        "multi_isp", "oscillation", "robust_negotiation",
    ])
    def test_undeclared_param_rejected_before_units(self, tiny_config, name):
        # A misspelt name ("max_step" for "max_steps") used to be ignored.
        def no_units(config, params):
            raise AssertionError("units enumerated despite a bad param")

        spec = replace(get_scenario(name), enumerate_units=no_units)
        with pytest.raises(
            ConfigurationError, match=f"unknown {name} params: max_step"
        ):
            SweepRunner().run(spec, tiny_config, {"max_step": 3})


# ---------------------------------------------------------------------------
# Plain-loop equivalence: runner output bit-identical to a loop over the
# per-unit functions (what the pre-runner drivers were)
# ---------------------------------------------------------------------------


class TestLegacyEquivalence:
    def test_distance(self, tiny_config):
        sweep = run_distance_experiment(tiny_config, include_cheating=True)
        _, pairs = pairs_for(tiny_config, 2, tiny_config.max_pairs_distance)
        legacy = [
            run_distance_pair(pair, tiny_config, include_cheating=True)
            for pair in pairs
        ]
        assert len(sweep.pairs) == len(legacy) > 0
        for s, l in zip(sweep.pairs, legacy):
            assert s.pair_name == l.pair_name
            assert s.total_gain_optimal == l.total_gain_optimal
            assert s.total_gain_negotiated == l.total_gain_negotiated
            assert s.total_gain_cheating == l.total_gain_cheating
            assert np.array_equal(s.flow_gains_optimal, l.flow_gains_optimal)
            assert np.array_equal(
                s.flow_gains_negotiated, l.flow_gains_negotiated
            )

    def test_bandwidth(self, tiny_config):
        from repro.geo.population import PopulationModel
        from repro.traffic.gravity import GravityWorkload

        sweep = run_bandwidth_experiment(tiny_config, include_unilateral=True)
        dataset, pairs = pairs_for(
            tiny_config, 3, tiny_config.max_pairs_bandwidth
        )
        workload = GravityWorkload(PopulationModel(dataset.city_db))
        legacy = [
            case
            for pair in pairs
            for case in run_pair_cases(
                pair, tiny_config, {"include_unilateral": True}, workload
            )
        ]
        assert len(sweep.cases) == len(legacy) > 0
        assert sweep.cases == legacy  # whole dataclasses, bit-exact

    def test_grouped(self, tiny_config):
        from repro.baselines.grouped import grouped_negotiation_choices
        from repro.core.mapping import AutoScaleDeltaMapper
        from repro.core.preferences import PreferenceRange
        from repro.metrics.distance import percent_gain
        from repro.util.rng import derive_rng

        _, pairs = pairs_for(tiny_config, 2, tiny_config.max_pairs_distance)
        sweep = run_grouped_ablation(pairs[0], [1, 3], tiny_config)
        problem = build_distance_problem(pairs[0])
        p_range = PreferenceRange(tiny_config.preference_p)
        total_default, _, _ = problem.totals(problem.defaults)
        legacy = {}
        for n_groups in (1, 3):
            choices = grouped_negotiation_choices(
                problem.cost_a, problem.cost_b, problem.defaults,
                AutoScaleDeltaMapper(p_range), AutoScaleDeltaMapper(p_range),
                n_groups=n_groups,
                seed=derive_rng(
                    tiny_config.seed, "grouped", pairs[0].name, n_groups
                ),
            )
            total, _, _ = problem.totals(choices)
            legacy[n_groups] = percent_gain(total_default, total)
        assert sweep == legacy

    def test_unknown_runner_rejected(self, tiny_config):
        # One driver path: the runner option is gone.
        with pytest.raises(ConfigurationError, match="runner"):
            run_distance_experiment(tiny_config, runner="sweep")
        with pytest.raises(ConfigurationError, match="runner"):
            run_bandwidth_experiment(tiny_config, runner="sweep")


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


class TestSweepFingerprint:
    def test_stable_across_calls(self, tiny_config):
        a = sweep_fingerprint("distance", tiny_config, {"x": 1})
        b = sweep_fingerprint("distance", tiny_config, {"x": 1})
        assert a == b

    def test_sensitive_to_everything(self, tiny_config):
        base = sweep_fingerprint("distance", tiny_config, {"x": 1})
        assert sweep_fingerprint("bandwidth", tiny_config, {"x": 1}) != base
        assert sweep_fingerprint("distance", tiny_config, {"x": 2}) != base
        assert (
            sweep_fingerprint("distance", tiny_config.with_seed(8), {"x": 1})
            != base
        )


# ---------------------------------------------------------------------------
# Checkpoint store
# ---------------------------------------------------------------------------


class TestCheckpointStore:
    def test_shard_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path, "demo", "f" * 16)
        store.prepare(3, resume=False)
        payload = {"arr": np.arange(5.0), "n": 3}
        store.save(1, payload)
        assert store.completed(3) == {1}
        loaded = store.load(1)
        assert loaded["n"] == 3
        assert np.array_equal(loaded["arr"], payload["arr"])
        # No torn .tmp files left behind.
        assert not list(store.dir.glob("*.tmp"))

    def test_fresh_prepare_clears_stale_shards(self, tmp_path):
        old = CheckpointStore(tmp_path, "demo", "a" * 16)
        old.prepare(2, resume=False)
        old.save(0, "stale")
        new = CheckpointStore(tmp_path, "demo", "b" * 16)
        assert new.prepare(2, resume=False) == set()
        assert new.completed(2) == set()

    def test_resume_requires_matching_fingerprint(self, tmp_path):
        old = CheckpointStore(tmp_path, "demo", "a" * 16)
        old.prepare(2, resume=False)
        new = CheckpointStore(tmp_path, "demo", "b" * 16)
        with pytest.raises(ConfigurationError, match="refusing to resume"):
            new.prepare(2, resume=True)

    def test_resume_requires_matching_unit_count(self, tmp_path):
        store = CheckpointStore(tmp_path, "demo", "a" * 16)
        store.prepare(2, resume=False)
        with pytest.raises(ConfigurationError, match="refusing to resume"):
            store.prepare(3, resume=True)


# ---------------------------------------------------------------------------
# Checkpointed sweeps end to end
# ---------------------------------------------------------------------------


class TestCheckpointedSweeps:
    def test_resume_after_partial_completion_is_bit_identical(
        self, tiny_config, tmp_path
    ):
        """Drop shards from a finished sweep; resume must rebuild exactly."""
        full = run_distance_experiment(
            tiny_config, checkpoint_dir=tmp_path / "ck"
        )
        # Simulate an interrupt: one unit's shard never landed.
        store = CheckpointStore(
            tmp_path / "ck", "distance",
            sweep_fingerprint(
                "distance", tiny_config, {"include_cheating": False}
            ),
        )
        assert store.completed(len(full.pairs)) == set(range(len(full.pairs)))
        store.shard_path(0).unlink()
        resumed = run_distance_experiment(
            tiny_config, checkpoint_dir=tmp_path / "ck", resume=True
        )
        assert len(resumed.pairs) == len(full.pairs)
        for f, r in zip(full.pairs, resumed.pairs):
            assert f.pair_name == r.pair_name
            assert f.total_gain_negotiated == r.total_gain_negotiated
            assert np.array_equal(
                f.flow_gains_negotiated, r.flow_gains_negotiated
            )

    def test_interrupt_mid_sweep_then_resume(self, tiny_config, tmp_path):
        """A sweep killed mid-run resumes from its completed shards only."""
        tripwire = tmp_path / "explode"
        executions = tmp_path / "executions.log"

        def units(config, params):
            return [0, 1, 2, 3]

        def run_unit(config, params, unit):
            with open(params["log"], "a", encoding="utf-8") as fh:
                fh.write(f"{unit}\n")
            if unit >= 2 and tripwire.exists():
                raise KeyboardInterrupt
            return unit * unit

        def reduce(config, params, results):
            return list(results)

        spec = register_scenario(ScenarioSpec(
            name="_test_interruptible",
            enumerate_units=units,
            run_unit=run_unit,
            reduce=reduce,
            default_params={"log": None},
        ))
        params = {"log": str(executions)}
        runner = SweepRunner(checkpoint_dir=tmp_path / "ck")

        tripwire.touch()
        with pytest.raises(KeyboardInterrupt):
            runner.run(spec, tiny_config, params)

        tripwire.unlink()
        resumed = SweepRunner(
            checkpoint_dir=tmp_path / "ck", resume=True
        ).run(spec, tiny_config, params)
        uninterrupted = SweepRunner().run(spec, tiny_config, params)
        assert resumed == uninterrupted == [0, 1, 4, 9]
        # Units 0 and 1 ran once before the interrupt and were NOT re-run.
        executed = executions.read_text("utf-8").split()
        assert executed.count("0") == 2  # interrupted run + uninterrupted run
        assert executed.count("1") == 2
        assert executed.count("2") == 3  # failed attempt + resume + plain run

    def test_stale_config_refuses_resume(self, tiny_config, tmp_path):
        run_distance_experiment(tiny_config, checkpoint_dir=tmp_path / "ck")
        with pytest.raises(ConfigurationError, match="refusing to resume"):
            run_distance_experiment(
                tiny_config.with_seed(123),
                checkpoint_dir=tmp_path / "ck",
                resume=True,
            )

    def test_stale_workload_refuses_resume(self, tiny_config, tmp_path):
        """Workload state is part of the fingerprint, not just its class."""
        from repro.geo.cities import default_city_database
        from repro.geo.population import PopulationModel
        from repro.traffic.gravity import GravityWorkload

        population = PopulationModel(default_city_database())
        run_bandwidth_experiment(
            tiny_config,
            workload=GravityWorkload(population, mean_size=1.0),
            checkpoint_dir=tmp_path / "ck",
        )
        with pytest.raises(ConfigurationError, match="refusing to resume"):
            run_bandwidth_experiment(
                tiny_config,
                workload=GravityWorkload(population, mean_size=5.0),
                checkpoint_dir=tmp_path / "ck",
                resume=True,
            )

    def test_resume_without_checkpoint_dir_rejected(self, tiny_config):
        with pytest.raises(ConfigurationError, match="requires a checkpoint"):
            run_distance_experiment(tiny_config, resume=True)

    def test_parallel_checkpointed_sweep(self, tiny_config, tmp_path):
        direct = run_bandwidth_experiment(tiny_config)
        checkpointed = run_bandwidth_experiment(
            tiny_config, workers=2, checkpoint_dir=tmp_path / "ck"
        )
        resumed = run_bandwidth_experiment(
            tiny_config, workers=2, checkpoint_dir=tmp_path / "ck",
            resume=True,
        )
        assert direct.cases == checkpointed.cases == resumed.cases


# ---------------------------------------------------------------------------
# Edge cases the original runner suite missed
# ---------------------------------------------------------------------------


class TestRunnerEdgeCases:
    def test_resume_with_unregistered_scenario_name(
        self, tiny_config, tmp_path
    ):
        """An unknown scenario must fail typed, even on the resume path."""
        with pytest.raises(ConfigurationError, match="unknown sweep scenario"):
            SweepRunner(checkpoint_dir=tmp_path / "ck", resume=True).run(
                "never-registered", tiny_config
            )

    def test_parallel_run_of_unregistered_spec_refuses_up_front(
        self, tiny_config, tmp_path
    ):
        """Workers resolve specs by name; a shadowed spec must not run."""
        spec = ScenarioSpec(
            name="_test_never_registered",
            enumerate_units=lambda config, params: [0, 1],
            run_unit=lambda config, params, unit: unit,
            reduce=lambda config, params, results: results,
        )
        with pytest.raises(ConfigurationError, match="not the registered"):
            SweepRunner(workers=2).run(spec, tiny_config)
        # The serial path calls the spec functions in-process and is fine.
        assert SweepRunner().run(spec, tiny_config) == [0, 1]

    def test_worker_crash_leaves_only_complete_shards(
        self, tiny_config, tmp_path
    ):
        """A failing worker must not kill the sweep or leave torn shards.

        The failing unit is surfaced as a
        :class:`~repro.errors.SweepUnitError` with its payload attached —
        after every other unit completed and checkpointed.
        """
        from repro.errors import SweepUnitError

        tripwire = tmp_path / "explode"

        def units(config, params):
            return [0, 1, 2, 3, 4, 5]

        def run_unit(config, params, unit):
            import os.path
            import time

            if unit == 3 and os.path.exists(params["tripwire"]):
                raise ValueError("synthetic worker failure")
            if unit < 3:
                # Let the early units land before the crash propagates.
                time.sleep(0.05)
            return unit * 10

        spec = register_scenario(ScenarioSpec(
            name="_test_crashing",
            enumerate_units=units,
            run_unit=run_unit,
            reduce=lambda config, params, results: list(results),
            default_params={"tripwire": None},
        ))
        params = {"tripwire": str(tripwire)}
        fingerprint = sweep_fingerprint("_test_crashing", tiny_config, params)

        tripwire.touch()
        with pytest.raises(SweepUnitError, match="synthetic worker failure"):
            SweepRunner(workers=2, checkpoint_dir=tmp_path / "ck").run(
                spec, tiny_config, params
            )

        store = CheckpointStore(tmp_path / "ck", "_test_crashing", fingerprint)
        # Every unit except the failing one completed and was persisted:
        # each surviving shard loads to the exact unit result, and no torn
        # temp files were left behind.
        completed = store.completed(6)
        assert completed == {0, 1, 2, 4, 5}
        for index in completed:
            assert store.load(index) == index * 10
        assert not list(store.dir.glob("*.tmp"))

        # Re-resume computes only the missing units and is bit-identical
        # to an uninterrupted serial run.
        tripwire.unlink()
        resumed = SweepRunner(
            workers=2, checkpoint_dir=tmp_path / "ck", resume=True
        ).run(spec, tiny_config, params)
        uninterrupted = SweepRunner().run(spec, tiny_config, params)
        assert resumed == uninterrupted == [0, 10, 20, 30, 40, 50]
