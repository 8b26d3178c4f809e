"""Grouped negotiation (the Section 5.1 in-text ablation).

"We also experimented with breaking down the set of flows into several
groups and negotiating within each group separately. We find that this does
not provide as much benefit as negotiating over the entire set."

Flows are partitioned into ``n_groups`` (deterministically shuffled), a
separate Nexit session runs within each group, and the resulting choices are
merged. Smaller tables mean fewer compensation opportunities, so gains
shrink toward the per-flow baselines as ``n_groups`` grows.
"""

from __future__ import annotations

import numpy as np

from repro.core.agent import NegotiationAgent
from repro.core.evaluators import StaticCostEvaluator
from repro.core.mapping import PreferenceMapper
from repro.core.session import NegotiationSession, SessionConfig
from repro.util.rng import RngSource, make_rng
from repro.util.validation import check_int

__all__ = ["grouped_negotiation_choices"]


def grouped_negotiation_choices(
    cost_a: np.ndarray,
    cost_b: np.ndarray,
    defaults: np.ndarray,
    mapper_a: PreferenceMapper,
    mapper_b: PreferenceMapper,
    n_groups: int,
    seed: RngSource = None,
    config: SessionConfig | None = None,
) -> np.ndarray:
    """Negotiate within ``n_groups`` random groups; return merged choices."""
    n_groups = check_int(n_groups, "n_groups", 1)
    cost_a = np.asarray(cost_a, dtype=float)
    cost_b = np.asarray(cost_b, dtype=float)
    defaults = np.asarray(defaults, dtype=np.intp)
    n_flows = cost_a.shape[0]
    if n_groups > n_flows:
        n_groups = max(1, n_flows)

    rng = make_rng(seed)
    order = rng.permutation(n_flows)
    groups = np.array_split(order, n_groups)

    choices = defaults.copy()
    for group in groups:
        if group.size == 0:
            continue
        idx = np.sort(group)
        sub_a = StaticCostEvaluator(cost_a[idx], defaults[idx], mapper_a)
        sub_b = StaticCostEvaluator(cost_b[idx], defaults[idx], mapper_b)
        session = NegotiationSession(
            NegotiationAgent("a", sub_a),
            NegotiationAgent("b", sub_b),
            config=config or SessionConfig(),
        )
        outcome = session.run()
        choices[idx] = outcome.choices
    return choices
