"""Sweep-runner fault tolerance: retries, failure surfacing, corrupt shards."""

from __future__ import annotations

import pickle
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
    register_scenario,
    sweep_fingerprint,
)


@pytest.fixture(scope="module")
def tiny_config():
    return replace(
        ExperimentConfig.quick(), max_pairs_distance=2, max_pairs_bandwidth=2
    )


def _counting_spec(name: str):
    """A spec whose unit failures are driven by files (works across forks).

    ``params["fail_dir"]`` holds one ``fail-<unit>`` file per unit that
    should fail; each attempt consumes one ``budget-<unit>-<n>`` token
    first, so "fail twice then succeed" is expressible across processes.
    Every attempt is appended to ``params["log"]``.
    """
    import os

    def units(config, params):
        return [0, 1, 2, 3]

    def run_unit(config, params, unit):
        with open(params["log"], "a", encoding="utf-8") as fh:
            fh.write(f"{unit}\n")
        budget = os.path.join(params["fail_dir"], f"budget-{unit}")
        remaining = 0
        if os.path.exists(budget):
            with open(budget, "r", encoding="utf-8") as fh:
                remaining = int(fh.read())
        if remaining > 0:
            with open(budget, "w", encoding="utf-8") as fh:
                fh.write(str(remaining - 1))
            raise ValueError(f"transient failure of unit {unit}")
        if os.path.exists(os.path.join(params["fail_dir"], f"fail-{unit}")):
            raise ValueError(f"persistent failure of unit {unit}")
        return unit * 10

    return register_scenario(ScenarioSpec(
        name=name,
        enumerate_units=units,
        run_unit=run_unit,
        reduce=lambda config, params, results: list(results),
        default_params={"log": None, "fail_dir": None},
    ))


def _attempts(log_path) -> list[str]:
    return log_path.read_text("utf-8").split()


class TestRetries:
    def test_transient_failure_is_retried_serial(self, tiny_config, tmp_path):
        spec = _counting_spec("_test_retry_serial")
        (tmp_path / "budget-1").write_text("2")  # unit 1 fails twice
        params = {"log": str(tmp_path / "log"), "fail_dir": str(tmp_path)}
        result = SweepRunner(max_retries=2, retry_backoff_s=0.0).run(
            spec, tiny_config, params
        )
        assert result == [0, 10, 20, 30]
        attempts = _attempts(tmp_path / "log")
        assert attempts.count("1") == 3  # two failures + the success
        assert attempts.count("0") == attempts.count("2") == 1

    def test_transient_failure_is_retried_parallel(
        self, tiny_config, tmp_path
    ):
        spec = _counting_spec("_test_retry_parallel")
        (tmp_path / "budget-2").write_text("1")
        params = {"log": str(tmp_path / "log"), "fail_dir": str(tmp_path)}
        result = SweepRunner(
            workers=2, max_retries=2, retry_backoff_s=0.0
        ).run(spec, tiny_config, params)
        assert result == [0, 10, 20, 30]
        assert _attempts(tmp_path / "log").count("2") == 2

    def test_exhausted_retries_surface_payload_and_spare_the_rest(
        self, tiny_config, tmp_path
    ):
        spec = _counting_spec("_test_retry_exhausted")
        (tmp_path / "fail-1").touch()
        params = {"log": str(tmp_path / "log"), "fail_dir": str(tmp_path)}
        with pytest.raises(SweepUnitError) as excinfo:
            SweepRunner(
                max_retries=1, retry_backoff_s=0.0,
                checkpoint_dir=tmp_path / "ck",
            ).run(spec, tiny_config, params)
        err = excinfo.value
        assert err.scenario == "_test_retry_exhausted"
        ((index, payload, inner),) = err.failures
        assert index == 1 and payload == 1
        assert isinstance(inner, ValueError)
        assert "persistent failure of unit 1" in str(err)
        # 1 original attempt + 1 retry, and the later units still ran.
        attempts = _attempts(tmp_path / "log")
        assert attempts.count("1") == 2
        assert attempts.count("2") == attempts.count("3") == 1
        # Completed shards were preserved for resume.
        store = CheckpointStore(
            tmp_path / "ck", spec.name,
            sweep_fingerprint(spec.name, tiny_config, params),
        )
        assert store.completed(4) == {0, 2, 3}

    def test_max_retries_zero_fails_fast(self, tiny_config, tmp_path):
        spec = _counting_spec("_test_retry_zero")
        (tmp_path / "fail-0").touch()
        params = {"log": str(tmp_path / "log"), "fail_dir": str(tmp_path)}
        with pytest.raises(SweepUnitError):
            SweepRunner(max_retries=0).run(spec, tiny_config, params)
        assert _attempts(tmp_path / "log").count("0") == 1

    @pytest.mark.parametrize("workers", [None, 2])
    @pytest.mark.parametrize(
        "error", [ConfigurationError, TopologyError, RoutingError]
    )
    def test_deterministic_error_fails_once(
        self, tiny_config, tmp_path, workers, error
    ):
        """Bad parameters, unrealizable or unroutable topologies fail the
        same way on every attempt: no retries, and the sweep stops at the
        first one."""
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
            SweepRunner(
                workers=workers, max_retries=3, retry_backoff_s=0.0,
            ).run(spec, tiny_config, {"log": str(log)})
        attempts = _attempts(log)
        assert attempts.count("1") == 1
        if workers is None:
            assert attempts == ["0", "1"]  # later units never started

    def test_backoff_is_bounded_and_deterministic(self, monkeypatch):
        sleeps: list[float] = []
        monkeypatch.setattr(
            "repro.experiments.runner.time.sleep", sleeps.append
        )
        runner = SweepRunner(max_retries=8, retry_backoff_s=0.05)
        for attempt in range(1, 9):
            runner._backoff(attempt)
        assert sleeps == [
            min(0.05 * 2 ** (k - 1), 1.0) for k in range(1, 9)
        ]
        assert max(sleeps) == 1.0  # capped

    def test_negative_retry_config_rejected(self):
        with pytest.raises(ConfigurationError, match="max_retries"):
            SweepRunner(max_retries=-1)
        with pytest.raises(ConfigurationError, match="retry_backoff_s"):
            SweepRunner(retry_backoff_s=-0.1)

    @pytest.mark.parametrize("knob, value", [
        ("max_retries", 1.5), ("max_retries", True),
        ("retry_backoff_s", float("nan")), ("retry_backoff_s", "0.1"),
    ])
    def test_retry_knobs_must_be_typed(self, knob, value):
        # max_retries=1.5 died in range() at the first retry, and a NaN
        # backoff switched the sleep off (nan > 0 is false).
        with pytest.raises(ConfigurationError, match=knob):
            SweepRunner(**{knob: value})


class TestBadParamsFailOnce:
    """A bad sweep param raises one typed error, with no retry sleeps.

    Each probe used to run with its value truncated or read as truthy,
    or to fail every unit with a bare ``TypeError`` after its retries.
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
    def test_probe(self, tiny_config, monkeypatch, scenario, params, knob):
        from repro.experiments import runner
        from repro.experiments.internetwork import run_multi_isp_experiment
        from repro.experiments.oscillation import run_oscillation_experiment
        from repro.experiments.robustness import run_robustness_experiment

        wrapper = {
            "multi_isp": run_multi_isp_experiment,
            "oscillation": run_oscillation_experiment,
            "robust_negotiation": run_robustness_experiment,
        }[scenario]
        sleeps: list[float] = []
        monkeypatch.setattr(runner.time, "sleep", sleeps.append)
        with pytest.raises(ConfigurationError, match=knob):
            wrapper(tiny_config, **params)
        assert sleeps == []


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
