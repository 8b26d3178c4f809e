"""Cost tables built one cell, or one flow, at a time."""

from __future__ import annotations

import numpy as np

from repro.routing.costs import PairCostTable
from repro.routing.flows import Flow, FlowSet
from repro.routing.paths import IntradomainRouting


def build_pair_cost_table(pair, flowset, routing_a=None, routing_b=None):
    """One routing query per (flow, interconnection) cell."""
    routing_a = routing_a or IntradomainRouting(pair.isp_a)
    routing_b = routing_b or IntradomainRouting(pair.isp_b)
    ics = pair.interconnections
    n_f, n_i = len(flowset), len(ics)
    up_weight = np.zeros((n_f, n_i))
    down_weight = np.zeros((n_f, n_i))
    up_km = np.zeros((n_f, n_i))
    down_km = np.zeros((n_f, n_i))
    up_links, down_links = [], []
    for flow in flowset:
        f_up, f_down = [], []
        for i, ic in enumerate(ics):
            up_weight[flow.index, i] = routing_a.weight_distance(
                ic.pop_a, flow.src
            )
            up_km[flow.index, i] = routing_a.geo_distance_km(ic.pop_a, flow.src)
            f_up.append(routing_a.path_links(ic.pop_a, flow.src))
            down_weight[flow.index, i] = routing_b.weight_distance(
                ic.pop_b, flow.dst
            )
            down_km[flow.index, i] = routing_b.geo_distance_km(
                ic.pop_b, flow.dst
            )
            f_down.append(routing_b.path_links(ic.pop_b, flow.dst))
        up_links.append(tuple(f_up))
        down_links.append(tuple(f_down))
    table = PairCostTable(
        pair=pair,
        flowset=flowset,
        up_weight=up_weight,
        down_weight=down_weight,
        up_km=up_km,
        down_km=down_km,
        ic_km=np.asarray([ic.length_km for ic in ics], dtype=float),
        up_links=tuple(up_links),
        down_links=tuple(down_links),
    )
    table.validate()
    return table


def subset(table, indices):
    """The flow-row subset rebuilt flow by flow.

    A fresh :class:`FlowSet` of :class:`Flow` objects and row-gathered
    arrays; the CSR incidence is left to compile lazily from the ragged
    rows.
    """
    idx = np.asarray(indices, dtype=np.intp)
    flows = [
        Flow(index=new, src=old.src, dst=old.dst, size=old.size)
        for new, old in enumerate(table.flowset[int(i)] for i in idx)
    ]
    rows = idx.tolist()
    return PairCostTable(
        pair=table.pair,
        flowset=FlowSet(table.pair, flows),
        up_weight=table.up_weight[idx],
        down_weight=table.down_weight[idx],
        up_km=table.up_km[idx],
        down_km=table.down_km[idx],
        ic_km=table.ic_km.copy(),
        up_links=tuple(table.up_links[i] for i in rows),
        down_links=tuple(table.down_links[i] for i in rows),
    )
