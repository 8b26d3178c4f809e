"""Routing substrate: intradomain paths, flows, alternatives, exit policies."""

from repro.routing.bgp import (
    BgpSpeaker,
    RouteAdvertisement,
    decide_best_route,
    export_advertisement,
    originate_advertisement,
)
from repro.routing.costs import PairCostTable, build_pair_cost_table
from repro.routing.exits import (
    early_exit_choices,
    early_exit_for_pop,
    late_exit_choices,
    optimal_exit_choices,
)
from repro.routing.flows import Flow, FlowSet, build_full_flowset
from repro.routing.interdomain import (
    InterdomainRoutes,
    TransitHop,
    propagate_interdomain_routes,
    transit_demand_hops,
)
from repro.routing.paths import IntradomainRouting
from repro.routing.scenarios import (
    FailureModel,
    FailureScenario,
    FailureScenarioSet,
    derive_scenario_tables,
    enumerate_failure_scenarios,
)

__all__ = [
    "IntradomainRouting",
    "Flow",
    "FlowSet",
    "build_full_flowset",
    "PairCostTable",
    "build_pair_cost_table",
    "early_exit_choices",
    "early_exit_for_pop",
    "late_exit_choices",
    "optimal_exit_choices",
    "BgpSpeaker",
    "RouteAdvertisement",
    "decide_best_route",
    "originate_advertisement",
    "export_advertisement",
    "InterdomainRoutes",
    "TransitHop",
    "propagate_interdomain_routes",
    "transit_demand_hops",
    "FailureModel",
    "FailureScenario",
    "FailureScenarioSet",
    "enumerate_failure_scenarios",
    "derive_scenario_tables",
]
