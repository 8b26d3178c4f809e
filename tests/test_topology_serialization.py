"""Tests for repro.topology.serialization."""

import json

import numpy as np
import pytest

from repro.errors import SerializationError, TopologyError
from repro.topology.builders import build_line_isp
from repro.topology.serialization import (
    FINGERPRINT_LEN,
    config_fingerprint,
    dataset_fingerprint,
    isp_from_dict,
    isp_to_dict,
    load_dataset_json,
    save_dataset_json,
    stable_fingerprint,
)


class TestRoundTrip:
    def test_single_isp(self):
        isp = build_line_isp("rt", ["A", "B", "C"])
        assert isp_from_dict(isp_to_dict(isp)) == isp

    def test_dataset_file(self, tmp_path, tiny_dataset):
        path = tmp_path / "ds.json"
        save_dataset_json(tiny_dataset.isps, path)
        loaded = load_dataset_json(path)
        assert loaded == tiny_dataset.isps

    def test_file_is_valid_json(self, tmp_path):
        isp = build_line_isp("j", ["A", "B"])
        path = tmp_path / "one.json"
        save_dataset_json([isp], path)
        payload = json.loads(path.read_text())
        assert payload["schema"] == 1
        assert len(payload["isps"]) == 1


class TestErrors:
    def test_malformed_record(self):
        with pytest.raises(SerializationError):
            isp_from_dict({"name": "x"})

    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_dataset_json(tmp_path / "absent.json")

    def test_not_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all")
        with pytest.raises(SerializationError):
            load_dataset_json(path)

    def test_missing_isps_key(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"schema": 1}))
        with pytest.raises(SerializationError):
            load_dataset_json(path)

    def test_wrong_schema(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({"schema": 99, "isps": []}))
        with pytest.raises(SerializationError):
            load_dataset_json(path)

    @pytest.mark.parametrize(
        "field, value",
        [("weight", float("nan")), ("weight", float("inf")),
         ("length_km", float("nan")), ("length_km", float("inf"))],
    )
    def test_non_finite_link_rejected(self, tmp_path, field, value):
        # json reads NaN and Infinity as floats; the Link check refuses
        # them while the file loads, not at the first routing query.
        path = tmp_path / "non_finite.json"
        save_dataset_json([build_line_isp("nf", ["A", "B", "C"])], path)
        payload = json.loads(path.read_text())
        payload["isps"][0]["links"][1][field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(TopologyError, match="must be finite"):
            load_dataset_json(path)


class TestFingerprints:
    def test_stable_and_bounded(self):
        a = stable_fingerprint({"x": 1, "y": [1, 2]})
        b = stable_fingerprint({"y": [1, 2], "x": 1})
        assert a == b  # key order canonicalized
        assert len(a) == FINGERPRINT_LEN
        assert int(a, 16) >= 0  # hex

    def test_value_sensitivity(self):
        assert stable_fingerprint({"x": 1}) != stable_fingerprint({"x": 2})
        assert stable_fingerprint([1, 2]) != stable_fingerprint([2, 1])

    def test_numpy_integers_fingerprint_by_value(self):
        # Sweep params reach the internetwork cache key unconverted; two
        # numpy counts must not share a key.
        three = stable_fingerprint({"n_isps": np.int64(3)})
        assert three == stable_fingerprint({"n_isps": 3})
        assert three != stable_fingerprint({"n_isps": np.int64(4)})
        low = stable_fingerprint({"p": np.float32(0.3)})
        assert low != stable_fingerprint({"p": np.float32(0.7)})
        on = stable_fingerprint({"flag": np.bool_(True)})
        assert on == stable_fingerprint({"flag": True})
        assert on != stable_fingerprint({"flag": np.bool_(False)})

    def test_arrays_fingerprint_by_dtype_shape_and_values(self):
        base = stable_fingerprint(np.array([0.1, 0.2]))
        assert base == stable_fingerprint(np.array([0.1, 0.2]))
        assert base != stable_fingerprint(np.array([0.3, 0.4]))
        assert base != stable_fingerprint(np.array([0.1, 0.2], np.float32))
        ints = np.array([1, 2, 3, 4])
        fingerprint = stable_fingerprint({"w": ints})
        assert fingerprint != stable_fingerprint({"w": ints.reshape(2, 2)})
        assert fingerprint != stable_fingerprint({"w": ints.astype(np.int32)})
        assert fingerprint != stable_fingerprint({"w": [1, 2, 3, 4]})

    def test_config_fingerprint_covers_nested_dataclasses(self, quick_config):
        base = config_fingerprint(quick_config)
        assert config_fingerprint(quick_config) == base
        assert config_fingerprint(quick_config.with_seed(99)) != base
        # Nested dataset config changes surface too.
        from dataclasses import replace

        bumped = replace(
            quick_config, dataset=replace(quick_config.dataset, seed=1)
        )
        assert config_fingerprint(bumped) != base

    def test_distinct_dataclass_types_do_not_collide(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class A:
            x: int = 1

        @dataclass(frozen=True)
        class B:
            x: int = 1

        assert stable_fingerprint(A()) != stable_fingerprint(B())

    def test_opaque_objects_reduce_to_class_identity(self):
        class Thing:
            pass

        assert stable_fingerprint(Thing()) == stable_fingerprint(Thing())

    def test_dataset_fingerprint(self, tiny_dataset):
        base = dataset_fingerprint(tiny_dataset.isps)
        assert dataset_fingerprint(tiny_dataset.isps) == base
        assert dataset_fingerprint(tiny_dataset.isps[:-1]) != base
