"""The auto-scale mapper with its anchor read by ``np.percentile`` alone.

Production :class:`repro.core.mapping.AutoScaleDeltaMapper` reads the
100th percentile of the nonzero |delta| as their max. This subclass keeps
the one ``np.percentile`` call for every quantile and inherits the rest,
so a difference can only come from the anchor.
"""

from __future__ import annotations

import numpy as np

from repro.core import mapping


class AutoScaleDeltaMapper(mapping.AutoScaleDeltaMapper):
    def map(self, costs: np.ndarray, defaults: np.ndarray) -> np.ndarray:
        deltas = mapping.delta_matrix(costs, defaults)
        magnitudes = np.abs(deltas)
        nonzero = magnitudes[magnitudes > 0]
        if nonzero.size == 0:
            return np.zeros_like(deltas, dtype=np.int64)
        anchor = float(np.percentile(nonzero, self.quantile))
        unit = max(anchor / self.range.p, self.min_unit)
        units = deltas / unit
        if self.conservative:
            units = mapping.conservative_round(units)
        return self.range.clamp_array(units)
