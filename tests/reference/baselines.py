"""The Figure 5 flow-level baselines, one ``rng.choice`` per flow."""

from __future__ import annotations

import numpy as np

from repro.core.mapping import delta_matrix
from repro.errors import ConfigurationError
from repro.util.rng import make_rng


def _filtered_random_choices(cost_a, cost_b, defaults, keep_mask_fn, rng):
    cost_a = np.asarray(cost_a, dtype=float)
    cost_b = np.asarray(cost_b, dtype=float)
    if cost_a.shape != cost_b.shape:
        raise ConfigurationError("cost matrices must have the same shape")
    delta_a = delta_matrix(cost_a, defaults)  # positive = better for A
    delta_b = delta_matrix(cost_b, defaults)
    choices = np.asarray(defaults, dtype=np.intp).copy()
    for f in range(cost_a.shape[0]):
        keep = keep_mask_fn(delta_a[f], delta_b[f])
        keep[defaults[f]] = True  # the default always survives its own test
        surviving = np.flatnonzero(keep)
        choices[f] = int(rng.choice(surviving))
    return choices


def flow_pareto_choices(cost_a, cost_b, defaults, seed=None):
    """Reject alternatives worse than the default for *both* ISPs."""

    def keep(da, db):
        return ~((da < 0) & (db < 0))

    return _filtered_random_choices(
        cost_a, cost_b, defaults, keep, make_rng(seed)
    )


def flow_both_better_choices(cost_a, cost_b, defaults, seed=None):
    """Reject alternatives worse than the default for *any* ISP."""

    def keep(da, db):
        return (da >= 0) & (db >= 0)

    return _filtered_random_choices(
        cost_a, cost_b, defaults, keep, make_rng(seed)
    )
