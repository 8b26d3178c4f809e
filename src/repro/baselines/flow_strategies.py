"""Per-flow filtering strategies (the Figure 5 baselines).

"A simpler alternative strategy would be to restrict [negotiation] to pairs
of flows going in the opposite direction and discard bad routing paths. We
experimented with two strategies — flow-Pareto and flow-both-better. The
former rejects paths that are worse than the default for both ISPs, while
the latter rejects those that are worse for any one ISP ... If multiple
paths satisfy the required criterion, one is picked at random."

Both operate per flow, without cross-flow compensation — which is exactly
why they fail: "for mutual gain to be realized, negotiation must be done
across flows".
"""

from __future__ import annotations

import numpy as np

from repro.core.mapping import delta_matrix
from repro.errors import ConfigurationError
from repro.util.rng import RngSource, make_rng

__all__ = ["flow_pareto_choices", "flow_both_better_choices"]


def _filtered_random_choices(
    cost_a: np.ndarray,
    cost_b: np.ndarray,
    defaults: np.ndarray,
    keep_mask_fn,
    rng: np.random.Generator,
) -> np.ndarray:
    """Each flow's uniform pick among its surviving alternatives.

    ``keep_mask_fn(delta_a, delta_b)`` is applied to the whole (F, I) delta
    matrices at once, and each row's default is forced to survive. Then one
    ``rng.integers(0, counts)`` call draws every flow's rank ``k`` among its
    ``counts[f]`` survivors, and the pick is the column where the row's
    running survivor count first exceeds ``k``.

    This consumes the generator exactly as a per-row
    ``rng.choice(np.flatnonzero(keep[f]))`` loop does. Two properties of
    numpy's ``Generator`` make that hold. ``choice`` over a 1-D array with
    no ``p`` draws its index with ``integers(0, n)``. And ``integers`` with
    an array bound draws each element independently, in order, with the
    same bounded-integer routine as a scalar call, and makes no draw at all
    when the bound is 1. So rows where only the default survives consume
    nothing, and the picks, the generator state afterwards and every later
    draw are the same as the loop's.
    """
    cost_a = np.asarray(cost_a, dtype=float)
    cost_b = np.asarray(cost_b, dtype=float)
    if cost_a.shape != cost_b.shape:
        raise ConfigurationError("cost matrices must have the same shape")
    delta_a = delta_matrix(cost_a, defaults)  # positive = better for A
    delta_b = delta_matrix(cost_b, defaults)
    choices = np.asarray(defaults, dtype=np.intp).copy()
    if choices.size == 0:
        return choices
    keep = keep_mask_fn(delta_a, delta_b)
    keep[np.arange(choices.size), choices] = True  # the default always survives
    ranks = np.cumsum(keep, axis=1)
    k = rng.integers(0, ranks[:, -1])
    return np.argmax(ranks > k[:, np.newaxis], axis=1)


def flow_pareto_choices(
    cost_a: np.ndarray,
    cost_b: np.ndarray,
    defaults: np.ndarray,
    seed: RngSource = None,
) -> np.ndarray:
    """Reject alternatives worse than the default for *both* ISPs;
    pick uniformly at random among the survivors."""
    rng = make_rng(seed)

    def keep(da: np.ndarray, db: np.ndarray) -> np.ndarray:
        return ~((da < 0) & (db < 0))

    return _filtered_random_choices(cost_a, cost_b, defaults, keep, rng)


def flow_both_better_choices(
    cost_a: np.ndarray,
    cost_b: np.ndarray,
    defaults: np.ndarray,
    seed: RngSource = None,
) -> np.ndarray:
    """Reject alternatives worse than the default for *any* ISP;
    pick uniformly at random among the survivors."""
    rng = make_rng(seed)

    def keep(da: np.ndarray, db: np.ndarray) -> np.ndarray:
        return (da >= 0) & (db >= 0)

    return _filtered_random_choices(cost_a, cost_b, defaults, keep, rng)
