"""Load kernels as loops over the per-flow link rows."""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix

from reference import tables


def _side(table, side: str):
    return tables.rows(table, side), tables.n_links(table, side)


def link_loads(table, choices, side, active=None, base=None):
    """Per-link loads: flows ascending, links in path order, from ``base``."""
    link_table, n_links = _side(table, side)
    sizes = table.flowset.sizes()
    loads = np.zeros(n_links) if base is None else np.asarray(base, float).copy()
    for f in range(table.n_flows):
        if active is not None and not active[f]:
            continue
        for li in link_table[f][choices[f]]:
            loads[li] += sizes[f]
    return loads


def fractional_loads(table, fractions, side, base=None):
    """Per-link loads of a fractional placement, cell by cell."""
    link_table, n_links = _side(table, side)
    sizes = table.flowset.sizes()
    loads = np.zeros(n_links) if base is None else np.asarray(base, float).copy()
    for f in range(table.n_flows):
        for i in range(table.n_alternatives):
            share = fractions[f, i]
            if share <= 0:
                continue
            for li in link_table[f][i]:
                loads[li] += sizes[f] * share
    return loads


def link_constraint_rows(table, side, caps, base, row_offset, t_col):
    """COO triplets and RHS of one side's LP link constraints."""
    link_table, _ = _side(table, side)
    sizes = table.flowset.sizes()
    n_i = table.n_alternatives
    rows, cols, vals = [], [], []
    for f in range(table.n_flows):
        for i in range(n_i):
            for li in link_table[f][i]:
                rows.append(row_offset + int(li))
                cols.append(f * n_i + i)
                vals.append(float(sizes[f]))
    for li in range(caps.shape[0]):  # -t * cap_l on the left-hand side
        rows.append(row_offset + li)
        cols.append(t_col)
        vals.append(-float(caps[li]))
    return (
        np.asarray(rows, dtype=np.intp),
        np.asarray(cols, dtype=np.intp),
        np.asarray(vals, dtype=float),
        -np.asarray(base, dtype=float),
    )


def link_constraints(table, sides, caps, bases):
    """``a_ub`` and ``b_ub`` over ``sides``: every side's triplets, each
    side's rows after the sides before it, then COO -> CSR -> CSC."""
    t_col = table.n_flows * table.n_alternatives
    parts, offset = [], 0
    for side, cap, base in zip(sides, caps, bases):
        parts.append(
            link_constraint_rows(table, side, cap, base, offset, t_col)
        )
        offset += cap.shape[0]
    rows, cols, vals, rhs = (np.concatenate(column) for column in zip(*parts))
    a_ub = coo_matrix((vals, (rows, cols)), shape=(offset, t_col + 1))
    return a_ub.tocsr().tocsc(), rhs


class LoadTracker:
    """Per-link loads of one side, updated one link at a time."""

    def __init__(self, table, side, base_loads=None):
        self._link_table, n_links = _side(table, side)
        self._table = table
        self._sizes = table.flowset.sizes()
        self._loads = (
            np.zeros(n_links)
            if base_loads is None
            else np.asarray(base_loads, float).copy()
        )

    @property
    def loads(self) -> np.ndarray:
        return self._loads.copy()

    def place(self, flow_index, alternative) -> None:
        for li in self._link_table[flow_index][alternative]:
            self._loads[li] += self._sizes[flow_index]

    def peek_max_ratio(self, flow_index, alternative, capacities) -> float:
        links = self._link_table[flow_index][alternative]
        if len(links) == 0:
            return 0.0
        capacities = np.asarray(capacities, dtype=float)
        ratios = (self._loads[links] + self._sizes[flow_index]) / capacities[links]
        return float(ratios.max())

    def place_epoch(self, flows, alternatives, defaults, capacities) -> list:
        """Default-minus-alternative peeks, then a placement, flow by flow."""
        gains = []
        for flow_index, alternative in zip(flows, alternatives):
            gains.append(
                self.peek_max_ratio(flow_index, defaults[flow_index], capacities)
                - self.peek_max_ratio(flow_index, alternative, capacities)
            )
            self.place(flow_index, alternative)
        return gains

    def peek_cost_increase(self, flow_index, alternative, capacities,
                           link_cost) -> float:
        size = self._sizes[flow_index]
        increase = 0.0
        for li in self._link_table[flow_index][alternative]:
            li = int(li)
            increase += (
                link_cost(self._loads[li] + size, capacities[li])
                - link_cost(self._loads[li], capacities[li])
            )
        return increase

    def peek_max_ratio_block(self, flows, capacities) -> np.ndarray:
        n_alt = self._table.n_alternatives
        return np.asarray([
            [self.peek_max_ratio(int(f), i, capacities) for i in range(n_alt)]
            for f in flows
        ]).reshape(len(flows), n_alt)
