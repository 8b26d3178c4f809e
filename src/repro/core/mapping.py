"""Mapping internal ISP metrics to opaque preference classes.

"Each ISP maps flow alternatives to opaque preference classes based on its
internal optimization criterion ... The mapping to preferences is done based
on the default alternative for the flow ... The ISPs map the default to
preference class 0 and non-default alternatives to preferences that reflect
their relative goodness." (Section 4.)

Mappers consume a *cost* matrix (lower is better — kilometres of path, max
load ratio, dollars; the protocol never sees the unit) plus the default
alternative per flow, and emit integer classes where positive = better than
default. Three mappers cover the paper's design space:

* :class:`LinearDeltaMapper` — fixed cost-units-per-class;
* :class:`AutoScaleDeltaMapper` — scales so the largest improvement or
  degradation in the matrix hits the edge of [-P, P];
* :class:`OrdinalMapper` — discloses only the rank order of alternatives,
  the minimum-information option the paper mentions ("Individual ISPs can
  control the extent of information disclosed by using either ordinal
  preferences or fewer than P classes").
"""

from __future__ import annotations

import math
from typing import Protocol

import numpy as np

from repro.core.preferences import PreferenceRange
from repro.errors import PreferenceError

__all__ = [
    "PreferenceMapper",
    "LinearDeltaMapper",
    "AutoScaleDeltaMapper",
    "OrdinalMapper",
    "map_cost_matrix",
    "delta_matrix",
]


class PreferenceMapper(Protocol):
    """Maps a (F, I) cost matrix + defaults to integer preference classes."""

    range: PreferenceRange

    def map(self, costs: np.ndarray, defaults: np.ndarray) -> np.ndarray:
        """Return an int (F, I) matrix of classes; defaults map to 0."""
        ...


def conservative_round(units: np.ndarray, atol: float = 1e-9) -> np.ndarray:
    """Round class units conservatively: floor gains, ceil losses.

    A strictly worse-than-default alternative always maps to class <= -1
    (a loss is never silently disclosed as "as good as default"), while a
    gain is never overstated. This makes the win-win guarantee carry from
    preference classes to the underlying metric: since
    ``class <= delta/unit`` entry-wise, a non-negative cumulative class
    gain implies a non-negative true metric gain.

    Ceiling a loss's magnitude is flooring the signed value
    (``-ceil(-x) == floor(x)`` for every float, ±0 included), so both
    directions are one ``floor`` of the units after snapping values within
    ``atol`` of zero to 0.
    """
    units = np.asarray(units, dtype=float)
    return np.floor(np.where(np.abs(units) <= atol, 0.0, units))


def check_unit(value: float, name: str) -> float:
    """Raise unless ``value`` is a finite scale > 0; return it as float.

    A NaN unit casts every class to -2**63, outside [-P, P], and an
    infinite one maps every alternative to class 0, so both are refused
    with :class:`PreferenceError` like a unit <= 0.
    """
    if not (value > 0 and math.isfinite(value)):
        raise PreferenceError(f"{name} must be finite and > 0, got {value}")
    return float(value)


def delta_matrix(costs: np.ndarray, defaults: np.ndarray) -> np.ndarray:
    """Improvement of each alternative over the default: positive = better.

    ``delta[f, i] = costs[f, default_f] - costs[f, i]``.
    """
    costs = np.asarray(costs, dtype=float)
    defaults = np.asarray(defaults, dtype=np.intp)
    if costs.ndim != 2:
        raise PreferenceError(f"cost matrix must be 2-D, got shape {costs.shape}")
    if defaults.shape != (costs.shape[0],):
        raise PreferenceError(
            f"defaults shape {defaults.shape} does not match flows {costs.shape[0]}"
        )
    if costs.shape[0] and (
        defaults.min() < 0 or defaults.max() >= costs.shape[1]
    ):
        raise PreferenceError("default alternative index out of range")
    default_costs = costs[np.arange(costs.shape[0]), defaults]
    return default_costs[:, np.newaxis] - costs


class LinearDeltaMapper:
    """Linear bucketing: one class per ``unit`` of cost improvement.

    A flow alternative that improves the ISP's internal cost by ``k * unit``
    maps to class ``round(k)``, clamped to [-P, P]. With
    ``conservative=True`` rounding floors gains and ceils losses (see
    :func:`conservative_round`), which preserves the win-win guarantee in
    the true metric.
    """

    def __init__(self, range_: PreferenceRange | None = None, unit: float = 1.0,
                 conservative: bool = False):
        self.range = range_ or PreferenceRange()
        self.unit = check_unit(unit, "unit")
        self.conservative = conservative

    def map(self, costs: np.ndarray, defaults: np.ndarray) -> np.ndarray:
        deltas = delta_matrix(costs, defaults)
        units = deltas / self.unit
        if self.conservative:
            units = conservative_round(units)
        return self.range.clamp_array(units)


class AutoScaleDeltaMapper:
    """Scales deltas so the matrix's largest |delta| maps to the edge class.

    This is how an ISP would pick P "large enough to differentiate
    alternatives with substantially different quality" without leaking its
    metric's absolute scale: the unit adapts to the instance. Rounding is
    conservative by default (see :func:`conservative_round`) so the win-win
    guarantee holds on the underlying metric, not just the classes.

    ``quantile`` sets the scale anchor: the unit is chosen so that the
    given percentile of the nonzero |delta| distribution maps to the edge
    of [-P, P]. With heavy-tailed deltas the default (90) keeps typical
    alternatives finely differentiated instead of letting one outlier
    compress everything into class 0. Losses beyond the anchor clamp to
    -P, which stays safe for the win-win guarantee: an alternative
    disclosed at -P can never appear in an accepted positive-sum proposal
    (it would need a partner gain of P + 1 > P), so understated losses are
    never traded away. Gains clamp to +P, which only ever understates.
    """

    def __init__(self, range_: PreferenceRange | None = None,
                 min_unit: float = 1e-9, conservative: bool = True,
                 quantile: float = 90.0):
        if not 0 < quantile <= 100:
            raise PreferenceError(f"quantile must be in (0, 100], got {quantile}")
        self.range = range_ or PreferenceRange()
        self.min_unit = check_unit(min_unit, "min_unit")
        self.conservative = conservative
        self.quantile = float(quantile)

    def map(self, costs: np.ndarray, defaults: np.ndarray) -> np.ndarray:
        deltas = delta_matrix(costs, defaults)
        magnitudes = np.abs(deltas)
        nonzero = magnitudes[magnitudes > 0]
        if nonzero.size == 0:
            return np.zeros_like(deltas, dtype=np.int64)
        if self.quantile == 100.0:
            # numpy's linear method lands on index n-1 with weight 0, so
            # for finite magnitudes the 100th percentile is the max: the
            # same float at a twentieth of the cost. (An infinite magnitude
            # makes numpy interpolate inf - inf = NaN where max gives inf;
            # both are rejected below.)
            anchor = float(nonzero.max())
        else:
            anchor = float(np.percentile(nonzero, self.quantile))
        if not math.isfinite(anchor):
            # A NaN or infinite unit would cast every class (or the
            # infinite ones) to -2**63, outside [-P, P].
            raise PreferenceError(
                f"cannot scale classes: the {self.quantile:g}th percentile "
                f"of |delta| is {anchor} (infinite costs)"
            )
        unit = max(anchor / self.range.p, self.min_unit)
        units = deltas / unit
        if self.conservative:
            units = conservative_round(units)
        return self.range.clamp_array(units)


class OrdinalMapper:
    """Discloses only rank order: best alternative -> +1 steps downward.

    Classes are assigned by dense-ranking each flow's alternatives relative
    to the default: alternatives strictly better than the default get
    positive consecutive classes (better rank = higher class), strictly
    worse get negative ones, and ties with the default get 0. Magnitude
    information is deliberately destroyed.
    """

    def __init__(self, range_: PreferenceRange | None = None):
        self.range = range_ or PreferenceRange()

    def map(self, costs: np.ndarray, defaults: np.ndarray) -> np.ndarray:
        deltas = delta_matrix(costs, defaults)
        out = np.zeros(deltas.shape, dtype=np.int64)
        for f in range(deltas.shape[0]):
            row = deltas[f]
            better = np.unique(row[row > 0])  # ascending distinct gains
            worse = np.unique(-row[row < 0])  # ascending distinct losses
            for i, value in enumerate(row):
                if value > 0:
                    # Rank 1..len(better) with the largest gain highest.
                    rank = int(np.searchsorted(better, value)) + 1
                    out[f, i] = self.range.clamp(rank)
                elif value < 0:
                    rank = int(np.searchsorted(worse, -value)) + 1
                    out[f, i] = self.range.clamp(-rank)
        return out


def map_cost_matrix(
    costs: np.ndarray,
    defaults: np.ndarray,
    mapper: PreferenceMapper,
) -> np.ndarray:
    """Apply ``mapper`` and verify the Nexit contract on the result.

    Ensures classes are integral, inside [-P, P], and that every default
    alternative maps to exactly 0.
    """
    prefs = mapper.map(costs, defaults)
    prefs = mapper.range.validate_array(prefs)
    defaults = np.asarray(defaults, dtype=np.intp)
    rows = np.arange(prefs.shape[0])
    if prefs.size and np.any(prefs[rows, defaults] != 0):
        raise PreferenceError("default alternatives must map to class 0")
    return prefs
