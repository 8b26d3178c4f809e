"""Cost tables built one cell, or one flow, at a time.

A table stores its link data once per (interconnection, PoP):
``up_paths[i][p]`` and ``down_paths[i][p]``. :func:`rows` spells out the
per-flow rows those paths stand for, and :func:`compile_rows` compiles such
rows one at a time into the flow-level CSR incidence, the oracle for
:meth:`PairCostTable.incidence`'s gather.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RoutingError
from repro.routing.costs import PairCostTable
from repro.routing.flows import Flow, FlowSet
from repro.routing.incidence import PathIncidence
from repro.routing.paths import IntradomainRouting


def _paths(routing, exit_pops, n_pops):
    """``paths[i][p]``: one routing query per (interconnection, PoP)."""
    paths = []
    for exit_pop in exit_pops:
        column = []
        for pop in range(n_pops):
            try:
                column.append(routing.path_links(exit_pop, pop))
            except RoutingError:
                column.append(None)
        paths.append(tuple(column))
    return tuple(paths)


def build_pair_cost_table(pair, flowset, routing_a=None, routing_b=None):
    """One routing query per (flow, interconnection) cell for the dense
    arrays, and one per (interconnection, PoP) for the paths."""
    routing_a = routing_a or IntradomainRouting(pair.isp_a)
    routing_b = routing_b or IntradomainRouting(pair.isp_b)
    ics = pair.interconnections
    n_f, n_i = len(flowset), len(ics)
    up_weight = np.zeros((n_f, n_i))
    down_weight = np.zeros((n_f, n_i))
    up_km = np.zeros((n_f, n_i))
    down_km = np.zeros((n_f, n_i))
    for flow in flowset:
        for i, ic in enumerate(ics):
            up_weight[flow.index, i] = routing_a.weight_distance(
                ic.pop_a, flow.src
            )
            up_km[flow.index, i] = routing_a.geo_distance_km(ic.pop_a, flow.src)
            down_weight[flow.index, i] = routing_b.weight_distance(
                ic.pop_b, flow.dst
            )
            down_km[flow.index, i] = routing_b.geo_distance_km(
                ic.pop_b, flow.dst
            )
    table = PairCostTable(
        pair=pair,
        flowset=flowset,
        up_weight=up_weight,
        down_weight=down_weight,
        up_km=up_km,
        down_km=down_km,
        ic_km=np.asarray([ic.length_km for ic in ics], dtype=float),
        up_paths=_paths(
            routing_a, [ic.pop_a for ic in ics], pair.isp_a.n_pops()
        ),
        down_paths=_paths(
            routing_b, [ic.pop_b for ic in ics], pair.isp_b.n_pops()
        ),
    )
    table.validate()
    return table


def rows(table, side):
    """Per-flow link rows of one side: ``rows[f][i]`` is flow ``f``'s path
    under interconnection ``i``, read flow by flow from the paths."""
    paths = table.up_paths if side == "a" else table.down_paths
    return tuple(
        tuple(
            paths[i][flow.src if side == "a" else flow.dst]
            for i in range(table.n_alternatives)
        )
        for flow in table.flowset
    )


def n_links(table, side) -> int:
    isp = table.pair.isp_a if side == "a" else table.pair.isp_b
    return isp.n_links()


def compile_rows(link_table, n_links, n_alternatives) -> PathIncidence:
    """Compile ragged ``links[f][i]`` rows into CSR form, row by row."""
    n_flows = len(link_table)
    n_rows = n_flows * n_alternatives
    counts = np.fromiter(
        (len(links) for row in link_table for links in row),
        dtype=np.intp,
        count=n_rows,
    )
    indptr = np.zeros(n_rows + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    if indptr[-1]:
        indices = np.concatenate(
            [
                np.asarray(links, dtype=np.intp)
                for row in link_table
                for links in row
            ]
        )
    else:
        indices = np.empty(0, dtype=np.intp)
    per_flow = (
        counts.reshape(n_flows, n_alternatives).sum(axis=1)
        if n_flows
        else np.empty(0, dtype=np.intp)
    )
    entry_flow = np.repeat(np.arange(n_flows, dtype=np.intp), per_flow)
    inc = PathIncidence(
        n_flows=n_flows,
        n_alternatives=n_alternatives,
        n_links=n_links,
        indptr=indptr,
        indices=indices,
        entry_flow=entry_flow,
    )
    inc.validate()
    return inc


def incidence(table, side) -> PathIncidence:
    """The flow-level incidence compiled from :func:`rows`, row by row."""
    return compile_rows(
        rows(table, side), n_links(table, side), table.n_alternatives
    )


def subset(table, indices):
    """The flow-row subset rebuilt flow by flow.

    A fresh :class:`FlowSet` of :class:`Flow` objects and row-gathered
    arrays; the paths are the parent's, and the incidences compile lazily.
    """
    idx = np.asarray(indices, dtype=np.intp)
    flows = [
        Flow(index=new, src=old.src, dst=old.dst, size=old.size)
        for new, old in enumerate(table.flowset[int(i)] for i in idx)
    ]
    return PairCostTable(
        pair=table.pair,
        flowset=FlowSet(table.pair, flows),
        up_weight=table.up_weight[idx],
        down_weight=table.down_weight[idx],
        up_km=table.up_km[idx],
        down_km=table.down_km[idx],
        ic_km=table.ic_km.copy(),
        up_paths=table.up_paths,
        down_paths=table.down_paths,
    )
