"""Canonical SHA-256 of a whole experiment result.

The walk is type-tagged so that structurally different results never feed
the hash the same bytes: dataclasses hash their class name and every field
in declaration order, arrays hash dtype, shape and raw bytes, floats hash by
``repr`` (the shortest string that round-trips, so two digests agree only
when every float is bit-identical), and sequences and mappings hash their
length before their items.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib

import numpy as np


def result_digest(obj) -> str:
    """Hex SHA-256 over ``obj`` walked canonically (see module docstring)."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _tag(h, tag: bytes, text: str) -> None:
    data = text.encode()
    h.update(tag + str(len(data)).encode() + b":" + data)


def _feed(h, obj) -> None:
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, (int, np.integer)):
        _tag(h, b"i", str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        _tag(h, b"f", repr(float(obj)))
    elif isinstance(obj, str):
        _tag(h, b"s", obj)
    elif isinstance(obj, enum.Enum):
        _tag(h, b"e", f"{type(obj).__name__}.{obj.name}")
    elif isinstance(obj, np.ndarray):
        if obj.dtype == object:
            _tag(h, b"o", repr(obj.shape))
            for item in obj.ravel().tolist():
                _feed(h, item)
        else:
            _tag(h, b"a", f"{obj.dtype.str}{obj.shape}")
            h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = dataclasses.fields(obj)
        _tag(h, b"d", f"{type(obj).__name__}/{len(fields)}")
        for field in fields:
            _tag(h, b"k", field.name)
            _feed(h, getattr(obj, field.name))
    elif isinstance(obj, (list, tuple)):
        _tag(h, b"l", str(len(obj)))
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, dict):
        _tag(h, b"m", str(len(obj)))
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
    else:
        raise TypeError(f"cannot digest a {type(obj).__name__}")
