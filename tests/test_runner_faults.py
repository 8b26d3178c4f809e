"""Sweep-runner fault tolerance: failure surfacing, worker exits,
corrupt shards."""

from __future__ import annotations

import pickle
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    RoutingError,
    SweepUnitError,
    TopologyError,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    CORRUPT_SHARD,
    CheckpointStore,
    ScenarioSpec,
    SweepRunner,
    get_scenario,
    register_scenario,
    sweep_fingerprint,
)


@pytest.fixture(scope="module")
def tiny_config():
    return replace(
        ExperimentConfig.quick(), max_pairs_distance=2, max_pairs_bandwidth=2
    )


def _failing_spec(name: str):
    """A spec whose unit fails while its ``fail-<unit>`` file exists.

    The files live in ``params["fail_dir"]``, so they reach forked
    workers. Every attempt is appended to ``params["log"]``.
    """
    import os

    def run_unit(config, params, unit):
        with open(params["log"], "a", encoding="utf-8") as fh:
            fh.write(f"{unit}\n")
        if os.path.exists(os.path.join(params["fail_dir"], f"fail-{unit}")):
            raise ValueError(f"failure of unit {unit}")
        return unit * 10

    return register_scenario(ScenarioSpec(
        name=name,
        enumerate_units=lambda config, params: [0, 1, 2, 3],
        run_unit=run_unit,
        reduce=lambda config, params, results: list(results),
        default_params={"log": None, "fail_dir": None},
    ))


def _attempts(log_path) -> list[str]:
    return log_path.read_text("utf-8").split()


class TestRetries:
    """No unit is retried: a unit is a pure function of its arguments, so
    a second attempt would fail the same way."""

    @pytest.mark.parametrize("workers", [None, 2])
    def test_raising_unit_is_attempted_once(
        self, tiny_config, tmp_path, workers
    ):
        spec = _failing_spec(f"_test_attempted_once_{workers}")
        (tmp_path / "fail-1").touch()
        params = {"log": str(tmp_path / "log"), "fail_dir": str(tmp_path)}
        with pytest.raises(SweepUnitError) as excinfo:
            SweepRunner(workers=workers, checkpoint_dir=tmp_path / "ck").run(
                spec, tiny_config, params
            )
        ((index, _, inner),) = excinfo.value.failures
        assert index == 1 and isinstance(inner, ValueError)
        # Every unit ran exactly once, the failed one included.
        assert sorted(_attempts(tmp_path / "log")) == ["0", "1", "2", "3"]
        # Completed shards were preserved for resume.
        store = CheckpointStore(
            tmp_path / "ck", spec.name,
            sweep_fingerprint(spec.name, tiny_config, params),
        )
        assert store.completed(4) == {0, 2, 3}

    def test_exhausted_retries_surface_payload_and_spare_the_rest(
        self, tiny_config, tmp_path
    ):
        """A unit's one attempt is its whole budget: its error surfaces
        with its payload, and the later units still run and checkpoint
        their exact results."""
        spec = _failing_spec("_test_retry_exhausted")
        (tmp_path / "fail-1").touch()
        params = {"log": str(tmp_path / "log"), "fail_dir": str(tmp_path)}
        with pytest.raises(SweepUnitError) as excinfo:
            SweepRunner(checkpoint_dir=tmp_path / "ck").run(
                spec, tiny_config, params
            )
        err = excinfo.value
        assert err.scenario == "_test_retry_exhausted"
        ((index, payload, inner),) = err.failures
        assert index == 1 and payload == 1
        assert isinstance(inner, ValueError)
        assert str(err) == (
            "1 unit(s) of sweep '_test_retry_exhausted' failed: "
            "unit 1 (1): ValueError: failure of unit 1"
        )
        # The later units still ran, in order, after the failure.
        assert _attempts(tmp_path / "log") == ["0", "1", "2", "3"]
        store = CheckpointStore(
            tmp_path / "ck", spec.name,
            sweep_fingerprint(spec.name, tiny_config, params),
        )
        assert {i: store.load(i) for i in store.completed(4)} == {
            0: 0, 2: 20, 3: 30,
        }

    def test_max_retries_zero_fails_fast(self, tiny_config, tmp_path):
        """Failing fast is the only mode: the runner takes no retry knob,
        and a failing first unit is attempted once, then reported."""
        with pytest.raises(TypeError, match="max_retries"):
            SweepRunner(max_retries=0)
        spec = _failing_spec("_test_retry_zero")
        (tmp_path / "fail-0").touch()
        params = {"log": str(tmp_path / "log"), "fail_dir": str(tmp_path)}
        with pytest.raises(SweepUnitError) as excinfo:
            SweepRunner().run(spec, tiny_config, params)
        assert [index for index, _, _ in excinfo.value.failures] == [0]
        assert _attempts(tmp_path / "log").count("0") == 1

    def test_worker_exit_fails_its_unit(self, tiny_config, tmp_path):
        """A unit that kills its pool worker is listed in the
        SweepUnitError, with the units the broken pool took down."""
        tripwire = tmp_path / "exit"

        def run_unit(config, params, unit):
            import os
            import time

            if unit == 3 and os.path.exists(params["tripwire"]):
                os._exit(1)
            if unit < 3:
                # Let the early units land before the exit breaks the pool.
                time.sleep(0.05)
            return unit * 10

        spec = register_scenario(ScenarioSpec(
            name="_test_worker_exit",
            enumerate_units=lambda config, params: [0, 1, 2, 3, 4, 5],
            run_unit=run_unit,
            reduce=lambda config, params, results: list(results),
            default_params={"tripwire": None},
        ))
        params = {"tripwire": str(tripwire)}

        tripwire.touch()
        with pytest.raises(SweepUnitError) as excinfo:
            SweepRunner(workers=2, checkpoint_dir=tmp_path / "ck").run(
                spec, tiny_config, params
            )
        failed = {index: exc for index, _, exc in excinfo.value.failures}
        assert 3 in failed
        assert all(isinstance(exc, BrokenProcessPool)
                   for exc in failed.values())

        store = CheckpointStore(
            tmp_path / "ck", spec.name,
            sweep_fingerprint(spec.name, tiny_config, params),
        )
        # Every unit either failed or left a shard holding its exact
        # result, and no torn temp file was left behind.
        completed = store.completed(6)
        assert completed == set(range(6)) - set(failed)
        for index in completed:
            assert store.load(index) == index * 10
        assert not list(store.dir.glob("*.tmp"))

        tripwire.unlink()
        resumed = SweepRunner(
            workers=2, checkpoint_dir=tmp_path / "ck", resume=True
        ).run(spec, tiny_config, params)
        assert resumed == SweepRunner().run(spec, tiny_config, params)

    @pytest.mark.parametrize("workers", [None, 2])
    @pytest.mark.parametrize(
        "error", [ConfigurationError, TopologyError, RoutingError]
    )
    def test_deterministic_error_fails_once(
        self, tiny_config, tmp_path, workers, error
    ):
        """Bad parameters, unrealizable or unroutable topologies would fail
        every unit alike: the sweep stops at the first one."""
        log = tmp_path / "log"

        def run_unit(config, params, unit):
            with open(params["log"], "a", encoding="utf-8") as fh:
                fh.write(f"{unit}\n")
            if unit == 1:
                raise error(f"deterministic failure of unit {unit}")
            return unit

        spec = register_scenario(ScenarioSpec(
            name=f"_test_deterministic_{error.__name__}_{workers}",
            enumerate_units=lambda config, params: [0, 1, 2, 3],
            run_unit=run_unit,
            reduce=lambda config, params, results: list(results),
            default_params={"log": None},
        ))
        with pytest.raises(error, match="deterministic failure of unit 1"):
            SweepRunner(workers=workers).run(
                spec, tiny_config, {"log": str(log)}
            )
        attempts = _attempts(log)
        assert attempts.count("1") == 1
        if workers is None:
            assert attempts == ["0", "1"]  # later units never started


class TestBadParamsFailOnce:
    """A bad sweep param raises one typed error before any unit runs.

    Each probe used to run with its value truncated or read as truthy,
    or to fail every unit with a bare ``TypeError``.
    """

    @pytest.mark.parametrize("scenario, params, knob", [
        ("multi_isp", {"n_isps": 3.7}, "n_isps"),
        ("multi_isp", {"include_transit": "no"}, "include_transit"),
        ("multi_isp", {"min_interconnections": 2.5}, "min_interconnections"),
        ("multi_isp", {"max_interconnections": 2.5}, "max_interconnections"),
        ("multi_isp", {"pool_size": 9.5}, "pool_size"),
        ("multi_isp", {"transit_scale": "3"}, "transit_scale"),
        ("multi_isp", {"n_isp": 3}, "unknown multi_isp params: n_isp"),
        ("robust_negotiation", {"abort_rate": "0.1"}, "abort_rate"),
        ("robust_negotiation", {"include_transit": "no"}, "include_transit"),
        ("oscillation", {"max_steps": 2.5}, "max_steps"),
    ])
    def test_probe(self, tiny_config, scenario, params, knob):
        from repro.experiments.internetwork import run_multi_isp_experiment
        from repro.experiments.oscillation import run_oscillation_experiment
        from repro.experiments.robustness import run_robustness_experiment

        wrapper = {
            "multi_isp": run_multi_isp_experiment,
            "oscillation": run_oscillation_experiment,
            "robust_negotiation": run_robustness_experiment,
        }[scenario]
        with pytest.raises(ConfigurationError, match=knob):
            wrapper(tiny_config, **params)

    @pytest.mark.parametrize("scenario, params, message", [
        ("availability", {"quantiles": 0.95},
         "quantiles must be a sequence, got 0.95"),
        ("availability", {"quantiles": True}, "quantiles must be a sequence"),
        ("availability", {"quantiles": None}, "quantiles must be a sequence"),
        ("availability", {"quantiles": "0.95"},
         "quantiles must be a sequence"),
        ("availability", {"shared_risk_groups": 1},
         "shared_risk_groups must be a sequence"),
        ("availability", {"shared_risk_groups": True},
         "shared_risk_groups must be a sequence"),
        ("availability", {"shared_risk_groups": None},
         "shared_risk_groups must be a sequence"),
        ("availability", {"shared_risk_groups": ((0, 1), 2)},
         "shared-risk group 1 must be a sequence, got 2"),
        ("availability", {"group_probabilities": 0.1},
         "group_probabilities must be a sequence"),
        ("availability", {"group_probabilities": True},
         "group_probabilities must be a sequence"),
        ("robust_negotiation", {"fault_seeds": 3},
         "fault_seeds must be a sequence, got 3"),
        ("robust_negotiation", {"fault_seeds": True},
         "fault_seeds must be a sequence"),
        ("robust_negotiation", {"fault_seeds": None},
         "fault_seeds must be a sequence"),
        ("grouped", {"group_counts": 2}, "group_counts must be a sequence"),
    ])
    def test_sequence_param_must_be_a_sequence(
        self, tiny_config, scenario, params, message
    ):
        def no_unit(config, params, unit):
            raise AssertionError("a unit ran")

        spec = replace(get_scenario(scenario), run_unit=no_unit)
        with pytest.raises(ConfigurationError, match=message):
            SweepRunner().run(spec, tiny_config, params)


class TestCorruptShards:
    def _spec(self, name: str, log):
        return register_scenario(ScenarioSpec(
            name=name,
            enumerate_units=lambda config, params: [0, 1, 2],
            run_unit=lambda config, params, unit: (
                log.append(unit) or {"unit": unit, "data": np.arange(unit + 3)}
            ),
            reduce=lambda config, params, results: results,
        ))

    @staticmethod
    def _assert_identical(got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g["unit"] == w["unit"]
            assert np.array_equal(g["data"], w["data"])

    def test_truncated_shard_is_rerun_bit_identically(
        self, tiny_config, tmp_path
    ):
        log: list[int] = []
        spec = self._spec("_test_truncated_shard", log)
        baseline = SweepRunner(checkpoint_dir=tmp_path / "ck").run(
            spec, tiny_config
        )
        store = CheckpointStore(
            tmp_path / "ck", spec.name,
            sweep_fingerprint(spec.name, tiny_config, {}),
        )
        shard = store.shard_path(1)
        raw = shard.read_bytes()
        shard.write_bytes(raw[: len(raw) // 2])  # truncate mid-bytes
        log.clear()
        resumed = SweepRunner(
            checkpoint_dir=tmp_path / "ck", resume=True
        ).run(spec, tiny_config)
        self._assert_identical(resumed, baseline)
        assert log == [1]  # only the corrupt unit re-ran
        # The re-written shard is complete again.
        with store.shard_path(1).open("rb") as fh:
            reloaded = pickle.load(fh)
        assert np.array_equal(reloaded["data"], baseline[1]["data"])

    def test_zero_size_shard_is_rerun(self, tiny_config, tmp_path):
        log: list[int] = []
        spec = self._spec("_test_empty_shard", log)
        baseline = SweepRunner(checkpoint_dir=tmp_path / "ck").run(
            spec, tiny_config
        )
        store = CheckpointStore(
            tmp_path / "ck", spec.name,
            sweep_fingerprint(spec.name, tiny_config, {}),
        )
        store.shard_path(2).write_bytes(b"")
        log.clear()
        resumed = SweepRunner(
            checkpoint_dir=tmp_path / "ck", resume=True
        ).run(spec, tiny_config)
        self._assert_identical(resumed, baseline)
        assert log == [2]

    def test_corruption_is_logged(self, tiny_config, tmp_path, caplog):
        import logging

        log: list[int] = []
        spec = self._spec("_test_logged_shard", log)
        SweepRunner(checkpoint_dir=tmp_path / "ck").run(spec, tiny_config)
        store = CheckpointStore(
            tmp_path / "ck", spec.name,
            sweep_fingerprint(spec.name, tiny_config, {}),
        )
        store.shard_path(0).write_bytes(b"\x80\x04garbage")
        with caplog.at_level(logging.WARNING, "repro.experiments.runner"):
            SweepRunner(checkpoint_dir=tmp_path / "ck", resume=True).run(
                spec, tiny_config
            )
        assert any("corrupt checkpoint shard" in r.getMessage()
                   for r in caplog.records)

    def test_try_load_reports_corrupt_and_unlinks(self, tmp_path):
        store = CheckpointStore(tmp_path, "s", "fp")
        store.dir.mkdir(parents=True)
        store.save(0, {"ok": True})
        assert store.try_load(0) == {"ok": True}
        store.shard_path(0).write_bytes(b"not a pickle")
        assert store.try_load(0) is CORRUPT_SHARD
        assert not store.shard_path(0).exists()
