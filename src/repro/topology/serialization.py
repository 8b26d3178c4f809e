"""JSON (de)serialization and fingerprints for topologies and datasets.

Lets users persist a generated dataset (or load a hand-curated one in the
same schema, e.g. converted Rocketfuel data) and re-run experiments on it.

The fingerprint helpers hash the same canonical representations: a
fingerprint identifies "the experiment that would be produced by this
config / this dataset" and is the key under which the sweep runner's
checkpoint store shards results (see :mod:`repro.experiments.runner`).
The in-process dataset caches key on the frozen config itself
(:mod:`repro.experiments.parallel`).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from numbers import Integral, Real
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import SerializationError
from repro.geo.coords import GeoPoint
from repro.topology.elements import Link, PoP
from repro.topology.isp import ISPTopology

__all__ = [
    "isp_to_dict",
    "isp_from_dict",
    "save_dataset_json",
    "load_dataset_json",
    "stable_fingerprint",
    "config_fingerprint",
    "dataset_fingerprint",
]

SCHEMA_VERSION = 1

#: Hex digits kept from the SHA-256 digest; 16 (64 bits) is plenty for the
#: handful of configs a checkpoint directory ever sees.
FINGERPRINT_LEN = 16


def isp_to_dict(isp: ISPTopology) -> dict[str, Any]:
    """Plain-dict representation of one ISP topology."""
    return {
        "name": isp.name,
        "pops": [
            {
                "index": pop.index,
                "city": pop.city,
                "lat": pop.location.lat,
                "lon": pop.location.lon,
            }
            for pop in isp.pops
        ],
        "links": [
            {
                "index": link.index,
                "u": link.u,
                "v": link.v,
                "weight": link.weight,
                "length_km": link.length_km,
            }
            for link in isp.links
        ],
    }


def isp_from_dict(data: dict[str, Any]) -> ISPTopology:
    """Rebuild an :class:`ISPTopology` from :func:`isp_to_dict` output."""
    try:
        pops = [
            PoP(
                index=int(p["index"]),
                city=str(p["city"]),
                location=GeoPoint(lat=float(p["lat"]), lon=float(p["lon"])),
            )
            for p in data["pops"]
        ]
        links = [
            Link(
                index=int(l["index"]),
                u=int(l["u"]),
                v=int(l["v"]),
                weight=float(l["weight"]),
                length_km=float(l["length_km"]),
            )
            for l in data["links"]
        ]
        return ISPTopology(name=str(data["name"]), pops=pops, links=links)
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed ISP record: {exc}") from exc


def save_dataset_json(isps: list[ISPTopology], path: str | Path) -> None:
    """Write a list of ISPs to a JSON file."""
    payload = {
        "schema": SCHEMA_VERSION,
        "isps": [isp_to_dict(isp) for isp in isps],
    }
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")


def load_dataset_json(path: str | Path) -> list[ISPTopology]:
    """Load a list of ISPs from a JSON file written by ``save_dataset_json``."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read dataset file {path}: {exc}") from exc
    if not isinstance(payload, dict) or "isps" not in payload:
        raise SerializationError(f"dataset file {path} missing 'isps' key")
    if payload.get("schema") != SCHEMA_VERSION:
        raise SerializationError(
            f"unsupported dataset schema {payload.get('schema')!r}"
        )
    return [isp_from_dict(record) for record in payload["isps"]]


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def _canonicalize(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-serializable canonical form.

    Dataclasses flatten to ``{class_name, field: value, ...}`` so two
    different config types with identical fields cannot collide, and
    enums flatten to their member identity, and a numpy array to its
    dtype, shape and values. A non-dataclass object can
    opt into fingerprinting by exposing a ``fingerprint_payload()``
    method returning its identifying state (the stock
    :class:`~repro.traffic.gravity.GravityWorkload` does); anything else
    reduces to its class name plus a ``name`` attribute when present —
    enough to distinguish stock strategies, but stateful objects that
    need finer identity should implement the protocol.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: _canonicalize(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__class__": type(obj).__qualname__, **fields}
    if isinstance(obj, enum.Enum):
        return f"<{type(obj).__qualname__}.{obj.name}>"
    if isinstance(obj, dict):
        return {str(k): _canonicalize(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonicalize(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if isinstance(obj, np.ndarray):
        return {
            "__ndarray__": str(obj.dtype),
            "shape": list(obj.shape),
            "values": _canonicalize(obj.tolist()),
        }
    # A numpy scalar fingerprints as its value, not its type name: cache
    # keys and checkpoints must tell n_isps=3 from 4 and a float32 0.3
    # from 0.7.
    if isinstance(obj, Integral):
        return int(obj)
    if isinstance(obj, Real):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, Path):
        return str(obj)
    payload_fn = getattr(obj, "fingerprint_payload", None)
    if callable(payload_fn):
        return {
            "__class__": type(obj).__qualname__,
            "payload": _canonicalize(payload_fn()),
        }
    name = getattr(obj, "name", None)
    suffix = f":{name}" if isinstance(name, str) else ""
    return f"<{type(obj).__qualname__}{suffix}>"


def stable_fingerprint(payload: Any) -> str:
    """A short stable hash of any canonicalizable payload.

    Stable across processes and sessions (unlike ``hash()``, which is
    salted): the payload is canonicalized, dumped as sorted-key JSON and
    SHA-256 hashed, truncated to :data:`FINGERPRINT_LEN` hex digits.
    """
    canon = json.dumps(
        _canonicalize(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:FINGERPRINT_LEN]


def config_fingerprint(config: Any) -> str:
    """Fingerprint of an experiment/dataset config (any dataclass)."""
    return stable_fingerprint(config)


def dataset_fingerprint(isps: list[ISPTopology]) -> str:
    """Fingerprint of a built dataset's full topology content."""
    return stable_fingerprint([isp_to_dict(isp) for isp in isps])
