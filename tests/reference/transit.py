"""Transit background by walking every demand's hop chain."""

from __future__ import annotations

import numpy as np

from repro.routing.interdomain import transit_demand_hops


def demand_loads(net, routes, routings, demands, blocked=None):
    """Per-ISP loads: ``loads[hop.links] += volume`` over every demand."""
    loads = {isp.name: np.zeros(isp.n_links()) for isp in net.isps}
    for demand in demands:
        hops = transit_demand_hops(
            net, routes, demand.src_isp, demand.src_pop, demand.dst_isp,
            routings, blocked=blocked or None,
        )
        for hop in hops:
            if hop.links.size:
                loads[hop.isp][hop.links] += demand.volume
    return loads


class RewalkTransitIndex:
    """The :class:`~repro.routing.interdomain.TransitLoadIndex` surface
    the coordinator uses, answered by re-walking every demand."""

    def __init__(self, net, routes, routings, demands):
        self._args = (net, routes, routings, demands)
        self.blocked: dict[int, set[int]] = {}

    def sever(self, edge_index, columns) -> None:
        self.blocked.setdefault(edge_index, set()).update(columns)

    def loads(self):
        return demand_loads(*self._args, self.blocked)
