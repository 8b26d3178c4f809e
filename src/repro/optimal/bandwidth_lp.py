"""The globally optimal bandwidth router: a fractional min-max-load LP.

Section 5.2: "The globally optimal is computed by solving an optimization
problem that minimizes the maximum increase in link load. For computational
tractability, we allow flows to be fractionally divided among
interconnections; thus, the quality of this routing is an upper bound on the
global optimal without fractional routing."

Formulation (variables x[f, i] >= 0, t >= 0):

    minimize t
    s.t.  sum_i x[f, i] = 1                          for every flow f
          base_l + sum_{f,i: l in path(f,i)} s_f x[f,i] <= t * cap_l
                                                     for every link l
                                                     (in both ISPs)

where s_f is the flow size, base_l the background load (traffic outside the
negotiated set) and cap_l the provisioned capacity. The optimum t* is the
best achievable joint MEL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix

from repro.errors import OptimizationError
from repro.optimal.solver import LpProblem, LpSolver, resolve_lp_solver
from repro.routing.costs import PairCostTable
from repro.routing.incidence import multirange_gather

__all__ = ["LpRoutingResult", "solve_min_max_load_lp", "fractional_loads"]


@dataclass(frozen=True)
class LpRoutingResult:
    """Solution of a fractional routing LP.

    Attributes:
        t: the optimal objective (the minimized maximum load ratio).
        fractions: (F, I) array; ``fractions[f, i]`` is the share of flow
            ``f`` routed via interconnection ``i`` (rows sum to 1).
    """

    t: float
    fractions: np.ndarray

    def __post_init__(self) -> None:
        if self.t < 0:
            raise OptimizationError(f"LP objective must be >= 0, got {self.t}")


def _link_constraint_rows(
    table: PairCostTable,
    side: str,
    caps: np.ndarray,
    base: np.ndarray,
    row_offset: int,
    t_col: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """COO triplets and RHS for one ISP side's link constraints.

    The x-variable triplets *are* the table's compiled CSR incidence: row
    ids come from ``indices``, column ids from the CSR row of each entry,
    values from ``sizes[entry_flow]`` — in (flow, alternative, path-order)
    sequence, the order a loop over the table's per-flow rows emits them.

    ``table.incidence(side)`` is gathered once per table from the per-PoP
    CSR its parent shares with it, and cached, so the joint and unilateral
    LPs of one negotiation scope share it.
    """
    n_links = caps.shape[0]
    inc = table.incidence(side)
    sizes = table.flowset.sizes()
    n_matrix_rows = inc.n_flows * inc.n_alternatives
    entry_counts = np.diff(inc.indptr)
    link_ids = np.arange(n_links, dtype=np.intp)
    rows_arr = np.concatenate([row_offset + inc.indices, row_offset + link_ids])
    cols_arr = np.concatenate(
        [
            np.repeat(np.arange(n_matrix_rows, dtype=np.intp), entry_counts),
            np.full(n_links, t_col, dtype=np.intp),
        ]
    )
    vals_arr = np.concatenate(
        [sizes[inc.entry_flow], -np.asarray(caps, dtype=float)]
    )
    rhs = -np.asarray(base, dtype=float)
    return rows_arr, cols_arr, vals_arr, rhs


def solve_min_max_load_lp(
    table: PairCostTable,
    caps_a: np.ndarray,
    caps_b: np.ndarray,
    base_a: np.ndarray | None = None,
    base_b: np.ndarray | None = None,
    sides: tuple[str, ...] = ("a", "b"),
    solver: str | LpSolver | None = None,
) -> LpRoutingResult:
    """Solve the fractional min-max-load LP over the given sides.

    ``sides=("a",)`` restricts the objective to upstream links only — the
    upstream-unilateral optimization of Figure 8. Both capacity arrays must
    always be supplied (shapes are validated against the pair).

    ``solver`` selects the LP backend by registry name (or an injected
    :class:`~repro.optimal.solver.LpSolver` instance); ``None`` means the
    default scipy-HiGHS backend, which is bit-identical to the historical
    hardwired ``linprog`` call. See :mod:`repro.optimal.solver`.
    """
    backend = resolve_lp_solver(solver)
    n_f, n_i = table.n_flows, table.n_alternatives
    caps_a = np.asarray(caps_a, dtype=float)
    caps_b = np.asarray(caps_b, dtype=float)
    n_links_a = table.pair.isp_a.n_links()
    n_links_b = table.pair.isp_b.n_links()
    if caps_a.shape != (n_links_a,):
        raise OptimizationError(f"caps_a must have shape ({n_links_a},)")
    if caps_b.shape != (n_links_b,):
        raise OptimizationError(f"caps_b must have shape ({n_links_b},)")
    if np.any(caps_a <= 0) or np.any(caps_b <= 0):
        raise OptimizationError("capacities must be positive")
    base_a = np.zeros(n_links_a) if base_a is None else np.asarray(base_a, float)
    base_b = np.zeros(n_links_b) if base_b is None else np.asarray(base_b, float)
    for name, side_sel in (("a", base_a), ("b", base_b)):
        if np.any(side_sel < 0):
            raise OptimizationError(f"base loads ({name}) must be non-negative")
    if n_f == 0:
        # No flow variables: the LP degenerates to ``t >= base_l / cap_l``
        # for every link in the objective sides, so the optimum is the base
        # state itself — not 0.0, which would understate loaded networks.
        t = 0.0
        for side in sides:
            caps = caps_a if side == "a" else caps_b
            base = base_a if side == "a" else base_b
            if caps.size:
                t = max(t, float((base / caps).max()))
        return LpRoutingResult(t=t, fractions=np.zeros((0, n_i)))

    n_x = n_f * n_i
    t_col = n_x
    row_parts: list[np.ndarray] = []
    col_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []
    rhs_parts: list[np.ndarray] = []
    offset = 0
    for side in sides:
        caps = caps_a if side == "a" else caps_b
        base = base_a if side == "a" else base_b
        r, c, v, rhs = _link_constraint_rows(
            table, side, caps, base, offset, t_col
        )
        row_parts.append(r)
        col_parts.append(c)
        val_parts.append(v)
        rhs_parts.append(rhs)
        offset += caps.shape[0]
    a_ub = coo_matrix(
        (
            np.concatenate(val_parts) if val_parts else np.zeros(0),
            (
                np.concatenate(row_parts) if row_parts else np.zeros(0, np.intp),
                np.concatenate(col_parts) if col_parts else np.zeros(0, np.intp),
            ),
        ),
        shape=(offset, n_x + 1),
    ).tocsr()
    b_ub = np.concatenate(rhs_parts) if rhs_parts else np.zeros(0)

    # sum_i x[f, i] = 1 for every flow.
    eq_rows = np.repeat(np.arange(n_f), n_i)
    eq_cols = np.arange(n_x)
    a_eq = coo_matrix(
        (np.ones(n_x), (eq_rows, eq_cols)), shape=(n_f, n_x + 1)
    ).tocsr()
    b_eq = np.ones(n_f)

    c = np.zeros(n_x + 1)
    c[t_col] = 1.0
    bounds = [(0.0, 1.0)] * n_x + [(0.0, None)]

    if not backend.capabilities.sparse_constraints:
        a_ub = a_ub.toarray()
        a_eq = a_eq.toarray()
    result = backend.solve(
        LpProblem(
            c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
            bounds=tuple(bounds),
        )
    )
    if not result.success or result.x is None:
        raise OptimizationError(
            f"min-max-load LP failed ({backend.name}): {result.message}"
        )
    fractions = np.asarray(result.x[:n_x]).reshape(n_f, n_i)
    # Clean tiny numerical negatives and renormalize rows.
    fractions = np.clip(fractions, 0.0, None)
    row_sums = fractions.sum(axis=1, keepdims=True)
    fractions = np.where(row_sums > 0, fractions / row_sums, 1.0 / n_i)
    return LpRoutingResult(t=float(result.x[t_col]), fractions=fractions)


def fractional_loads(
    table: PairCostTable,
    fractions: np.ndarray,
    side: str,
    base: np.ndarray | None = None,
) -> np.ndarray:
    """Per-link loads in one ISP under a fractional placement.

    The whole placement is one ``bincount`` scatter-add over the table's
    CSR incidence. The base loads are fed through the same bincount as
    leading per-link entries, so each link accumulates ``base, entry,
    entry, ...`` sequentially — the float order of a per-(flow,
    alternative) loop started from ``base.copy()``.
    """
    fractions = np.asarray(fractions, dtype=float)
    if fractions.shape != (table.n_flows, table.n_alternatives):
        raise OptimizationError(
            f"fractions must have shape ({table.n_flows}, {table.n_alternatives})"
        )
    if side == "a":
        n_links = table.pair.isp_a.n_links()
    elif side == "b":
        n_links = table.pair.isp_b.n_links()
    else:
        raise OptimizationError(f"side must be 'a' or 'b', got {side!r}")
    sizes = table.flowset.sizes()
    inc = table.incidence(side)
    flat = fractions.ravel()  # row id = f * I + i, matching the CSR rows
    placed_rows = np.flatnonzero(flat > 0)
    positions, counts = multirange_gather(
        inc.indptr[placed_rows], inc.indptr[placed_rows + 1]
    )
    seed = np.zeros(n_links) if base is None else np.asarray(base, dtype=float)
    bins = np.arange(n_links, dtype=np.intp)
    weights = seed
    if positions.size:
        row_weight = (
            sizes[placed_rows // table.n_alternatives] * flat[placed_rows]
        )
        bins = np.concatenate([bins, inc.indices[positions]])
        weights = np.concatenate([seed, np.repeat(row_weight, counts)])
    return np.bincount(bins, weights=weights, minlength=n_links)
