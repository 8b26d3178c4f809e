"""Small argument-validation helpers shared across the library."""

from __future__ import annotations

import math
from collections.abc import Sequence
from numbers import Integral, Real

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "check_bool",
    "check_finite",
    "check_int",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_probability",
    "check_quantile",
    "check_sequence",
    "validate_choice",
]


def validate_choice(value, choices, name: str):
    """The one choice-validation convention of the library.

    Every API that exposes a named choice (``solver=``, ``order=``,
    ``damping=``, ...) validates it here: an unknown value raises
    :class:`ConfigurationError` naming the parameter and the allowed
    values. Returns ``value`` unchanged so call sites can validate inline.
    """
    if value not in choices:
        raise ConfigurationError(
            f"{name} must be one of {tuple(choices)}, got {value!r}"
        )
    return value


def check_bool(value, name: str) -> bool:
    """Raise unless ``value`` is a bool; return it as bool.

    Numpy bools pass. A flag is never read by truthiness, so ``"no"`` or
    ``0.5`` cannot silently switch a feature on.
    """
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigurationError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def check_finite(value: float, name: str) -> float:
    """Raise unless ``value`` is a finite real number; return it as float.

    Numpy scalars pass; bools, strings and ``None`` do not, so ``"3"``
    never passes as 3.0 and ``True`` never as 1.0.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigurationError(
            f"{name} must be a real number, got {value!r}"
        )
    value = float(value)
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value}")
    return value


def check_int(value, name: str, minimum: int) -> int:
    """Raise unless ``value`` is an integer >= ``minimum``; return it as int.

    Numpy integers pass; bools and integral floats (``2.0``) do not, so a
    count knob never silently truncates or reads ``True`` as 1.
    """
    if (isinstance(value, bool) or not isinstance(value, Integral)
            or value < minimum):
        raise ConfigurationError(
            f"{name} must be an integer >= {minimum}, got {value!r}"
        )
    return int(value)


def check_positive(value: float, name: str) -> float:
    value = check_finite(value, name)
    if value <= 0:
        raise ConfigurationError(f"{name} must be > 0, got {value}")
    return value


def check_non_negative(value: float, name: str) -> float:
    value = check_finite(value, name)
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")
    return value


def check_in_range(value: float, low: float, high: float, name: str) -> float:
    value = check_finite(value, name)
    if not low <= value <= high:
        raise ConfigurationError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def check_probability(value: float, name: str) -> float:
    return check_in_range(value, 0.0, 1.0, name)


def check_quantile(value: float, name: str) -> float:
    """Raise unless ``value`` lies in the open interval (0, 1)."""
    value = check_finite(value, name)
    if not 0.0 < value < 1.0:
        raise ConfigurationError(f"{name} must be in (0, 1), got {value}")
    return value


def check_sequence(value, name: str):
    """Raise unless ``value`` is a sequence; return it unchanged.

    Lists, tuples, ranges and numpy arrays of rank >= 1 pass; scalars,
    bools, strings and ``None`` do not, so a sequence-valued param fails
    here instead of with a bare ``TypeError`` where it is iterated.
    """
    if isinstance(value, np.ndarray):
        is_sequence = value.ndim > 0
    else:
        is_sequence = isinstance(value, Sequence) and not isinstance(
            value, (str, bytes)
        )
    if not is_sequence:
        raise ConfigurationError(f"{name} must be a sequence, got {value!r}")
    return value
