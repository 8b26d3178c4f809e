"""Upstream-unilateral routing optimization (the Figure 8 comparator).

"A natural question is what happens if, instead of negotiating with the
downstream, the upstream unilaterally load balances outgoing traffic ...
We evaluate this hypothesis by simulating the upstream ISP optimizing the
routing for its own network." — the same fractional LP as the global
optimum, but with only the upstream ISP's links in the objective. The
downstream's resulting MEL is whatever falls out, which the paper shows is
unpredictable and sometimes much worse than default routing.
"""

from __future__ import annotations

import numpy as np

from repro.optimal.bandwidth_lp import LpRoutingResult, solve_min_max_load_lp
from repro.optimal.solver import LpSolver
from repro.routing.costs import PairCostTable

__all__ = ["solve_upstream_unilateral_lp"]


def solve_upstream_unilateral_lp(
    table: PairCostTable,
    caps_a: np.ndarray,
    caps_b: np.ndarray,
    base_a: np.ndarray | None = None,
    base_b: np.ndarray | None = None,
    solver: str | LpSolver | None = None,
) -> LpRoutingResult:
    """Minimize the maximum load ratio over *upstream* links only.

    Shares :func:`solve_min_max_load_lp`'s incidence-backed constraint
    assembler, so the Figure 8 sweep benefits from the same
    vectorized setup as the joint LP — including the flow-level incidence
    the joint LP already gathered on the same negotiation sub-table, and
    the zero-flow degenerate return, which reduces to the upstream base
    state's maximum load ratio.
    """
    return solve_min_max_load_lp(
        table,
        caps_a=caps_a,
        caps_b=caps_b,
        base_a=base_a,
        base_b=base_b,
        sides=("a",),
        solver=solver,
    )
