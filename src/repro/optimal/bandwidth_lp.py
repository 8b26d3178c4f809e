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

The constraint matrices are assembled in numpy as
:class:`~repro.optimal.solver.CscMatrix` arrays, so this module imports no
scipy package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import OptimizationError
from repro.optimal.solver import (
    CscMatrix,
    LpProblem,
    LpSolver,
    resolve_lp_solver,
)
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


def _link_constraints(
    table: PairCostTable,
    sides: tuple[str, ...],
    caps: list[np.ndarray],
    bases: list[np.ndarray],
) -> tuple[CscMatrix, np.ndarray]:
    """``a_ub`` in CSC and ``b_ub`` of the link constraints over ``sides``.

    Each side's rows are its links, after the earlier sides' links. Its
    flow-level incidence, read as columns, fills them: x-column
    ``f * I + i`` holds row ``f * I + i``'s path links valued at the
    flow's size, and the ``t`` column holds ``-cap`` on every link. One
    stable argsort of ``column * rows + row`` puts the entries in sorted
    CSC order, array for array the ``scipy.sparse`` stack of the side
    blocks after ``sort_indices`` (paths are simple, so no entry repeats).

    ``table.incidence(side)`` is gathered once per table from the per-PoP
    CSR its parent shares with it, and cached, so the joint and unilateral
    LPs of one negotiation scope share it.
    """
    sizes = table.flowset.sizes()
    n_x = table.n_flows * table.n_alternatives
    x_columns = np.arange(n_x, dtype=np.intp)
    counts = np.zeros(n_x + 1, dtype=np.intp)
    rows, columns, values = [], [], []
    n_rows = 0
    for side, cap in zip(sides, caps):
        inc = table.incidence(side)
        per_x = np.diff(inc.indptr)
        links = np.arange(n_rows, n_rows + cap.shape[0], dtype=np.intp)
        rows += [inc.indices + n_rows, links]
        columns += [np.repeat(x_columns, per_x), np.full(links.size, n_x)]
        values += [sizes[inc.entry_flow], -cap]
        counts[:n_x] += per_x
        n_rows += cap.shape[0]
    counts[n_x] = n_rows
    rows = np.concatenate(rows)
    order = np.argsort(np.concatenate(columns) * n_rows + rows, kind="stable")
    a_ub = CscMatrix(
        shape=(n_rows, n_x + 1),
        indptr=np.concatenate([[0], np.cumsum(counts)]),
        indices=rows[order],
        data=np.concatenate(values)[order],
    )
    return a_ub, -np.concatenate(bases)


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

    Capacities must be finite and positive and base loads finite and
    non-negative, else :class:`OptimizationError`.

    ``solver`` selects the LP backend by registry name (or an injected
    :class:`~repro.optimal.solver.LpSolver` instance); ``None`` means the
    default scipy-HiGHS backend, which is bit-identical to the historical
    hardwired ``linprog`` call. See :mod:`repro.optimal.solver`.
    """
    backend = resolve_lp_solver(solver)
    if sorted(sides) not in (["a"], ["b"], ["a", "b"]):
        raise OptimizationError(
            f"sides must be 'a', 'b' or both, got {sides!r}"
        )
    n_f, n_i = table.n_flows, table.n_alternatives
    caps = {"a": caps_a, "b": caps_b}
    bases = {"a": base_a, "b": base_b}
    for side in "ab":
        n_links = table.pair.isp(side).n_links()
        cap = caps[side] = np.asarray(caps[side], dtype=float)
        if cap.shape != (n_links,):
            raise OptimizationError(f"caps_{side} must have shape ({n_links},)")
        if not (np.isfinite(cap).all() and (cap > 0).all()):
            raise OptimizationError(f"caps_{side} must be finite and positive")
        if bases[side] is None:
            bases[side] = np.zeros(n_links)
        base = bases[side] = np.asarray(bases[side], dtype=float)
        if base.shape != (n_links,):
            raise OptimizationError(f"base_{side} must have shape ({n_links},)")
        if not (np.isfinite(base).all() and (base >= 0).all()):
            raise OptimizationError(
                f"base loads ({side}) must be finite and non-negative"
            )
    if n_f == 0:
        # No flow variables: the LP degenerates to ``t >= base_l / cap_l``
        # for every link in the objective sides, so the optimum is the base
        # state itself — not 0.0, which would understate loaded networks.
        t = 0.0
        for side in sides:
            if caps[side].size:
                t = max(t, float((bases[side] / caps[side]).max()))
        return LpRoutingResult(t=t, fractions=np.zeros((0, n_i)))

    n_x = n_f * n_i
    a_ub, b_ub = _link_constraints(
        table,
        sides,
        [caps[side] for side in sides],
        [bases[side] for side in sides],
    )
    # sum_i x[f, i] = 1 for every flow: one 1.0 per x-column, none for t.
    a_eq = CscMatrix(
        shape=(n_f, n_x + 1),
        indptr=np.append(np.arange(n_x + 1), n_x),
        indices=np.repeat(np.arange(n_f), n_i),
        data=np.ones(n_x),
    )
    c = np.zeros(n_x + 1)
    c[n_x] = 1.0
    bounds = np.tile((0.0, 1.0), (n_x + 1, 1))
    bounds[n_x, 1] = np.inf  # t >= 0, unbounded above

    result = backend.solve(
        LpProblem(
            c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=np.ones(n_f),
            bounds=bounds,
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
    return LpRoutingResult(t=float(result.x[n_x]), fractions=fractions)


def fractional_loads(
    table: PairCostTable,
    fractions: np.ndarray,
    side: str,
    base: np.ndarray | None = None,
) -> np.ndarray:
    """Per-link loads in one ISP under a fractional placement.

    ``fractions`` must be an (F, I) array of finite, non-negative shares
    (an LP's fractions always are), else :class:`OptimizationError`. The
    whole placement is one ``bincount`` scatter-add over the table's
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
    if not (np.isfinite(fractions).all() and (fractions >= 0).all()):
        raise OptimizationError("fractions must be finite and >= 0")
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
