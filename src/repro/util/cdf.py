"""Empirical CDF helpers used to report paper-style figure series.

Every figure in the paper's evaluation is a cumulative distribution plotted
over ISP pairs, flows, or failed links. :class:`Cdf` captures one such series
and gives the exact rows a figure encodes (value at each cumulative
percentage), which the CLI prints through
:func:`repro.experiments.report.format_series_table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "Cdf",
    "empirical_cdf",
    "percentile",
    "fraction_at_least",
    "fraction_at_most",
]


@dataclass(frozen=True)
class Cdf:
    """An empirical cumulative distribution over a sample of values.

    Attributes:
        values: the sorted sample.
        label: display name used when rendering.
    """

    values: tuple[float, ...]
    label: str = ""
    _array: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigurationError("cannot build a CDF over an empty sample")
        arr = np.sort(np.asarray(self.values, dtype=float))
        if not np.all(np.isfinite(arr)):
            raise ConfigurationError("CDF sample contains non-finite values")
        object.__setattr__(self, "values", tuple(float(v) for v in arr))
        object.__setattr__(self, "_array", arr)

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.values)

    def percentile(self, q: float) -> float:
        """Value at cumulative percentage ``q`` in [0, 100]."""
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
        return float(np.percentile(self._array, q))

    def median(self) -> float:
        return self.percentile(50.0)

    def mean(self) -> float:
        return float(self._array.mean())

    def min(self) -> float:
        return float(self._array[0])

    def max(self) -> float:
        return float(self._array[-1])

    def fraction_at_least(self, threshold: float) -> float:
        """Fraction of the sample with value >= ``threshold``."""
        return float(np.count_nonzero(self._array >= threshold)) / len(self._array)

    def fraction_at_most(self, threshold: float) -> float:
        """Fraction of the sample with value <= ``threshold``."""
        return float(np.count_nonzero(self._array <= threshold)) / len(self._array)

    def fraction_below(self, threshold: float) -> float:
        return float(np.count_nonzero(self._array < threshold)) / len(self._array)

    # -- rendering -------------------------------------------------------

    def series(self, points: int = 11) -> list[tuple[float, float]]:
        """Return ``(cumulative %, value)`` rows like a figure's curve.

        ``points`` evenly spaced cumulative percentages in [0, 100].
        """
        if points < 2:
            raise ConfigurationError(f"need at least 2 points, got {points}")
        qs = np.linspace(0.0, 100.0, points)
        return [(float(q), self.percentile(float(q))) for q in qs]


def empirical_cdf(sample: Iterable[float], label: str = "") -> Cdf:
    """Build a :class:`Cdf` from any iterable of numbers."""
    return Cdf(values=tuple(float(v) for v in sample), label=label)


def percentile(sample: Sequence[float], q: float) -> float:
    """Percentile of a raw sample without building a :class:`Cdf`."""
    return empirical_cdf(sample).percentile(q)


def fraction_at_least(sample: Sequence[float], threshold: float) -> float:
    return empirical_cdf(sample).fraction_at_least(threshold)


def fraction_at_most(sample: Sequence[float], threshold: float) -> float:
    return empirical_cdf(sample).fraction_at_most(threshold)
