"""Chained pairwise negotiation across a multi-ISP internetwork.

The protocol of Section 4 is strictly two-party; the paper's discussion
frames an Internet where *every adjacent ISP pair* runs it and the global
behaviour emerges from the composition. :class:`MultiSessionCoordinator`
plays that out: each internetwork edge holds a full PoP-to-PoP flowset and
cost table (direction ``isp_a -> isp_b``, gravity-model sizes, exactly the
bandwidth experiment's per-pair setup), transit demands between
non-adjacent ISPs are routed along BGP AS paths
(:mod:`repro.routing.interdomain`) and loaded onto the intermediate ISPs as
negotiation-exogenous background, and the coordinator then runs the
existing two-party :class:`~repro.core.session.NegotiationSession` on every
edge in rounds.

Sessions interact through link loads: an ISP that peers on several edges
sees the other edges' current placements (plus transit) as its base load,
so one edge's agreement shifts the preferences of the next — the
"interaction between overlapping sessions" the paper's discussion asks
about. Rounds iterate until a full pass changes nothing (convergence) or a
round limit hits; re-agreements are Pareto-gated on each ISP's own-network
MEL, exactly like the bandwidth experiment's continuous renegotiation. The
gate bounds each edge's own trajectory: an adopted re-agreement never
worsens either endpoint's MEL against the base load it was negotiated
under. It does not bound the composition. An adoption moves the
neighbouring edges' base loads, so coupled edges can still cycle (the
N=100 seed-2005 internetwork runs a two-cycle), and the assignment
fingerprint check described below catches the revisit.

Performance contract: per-edge tables are built once; every renegotiation
scope is *derived* from the full table through the structural fast paths
(:meth:`~repro.routing.costs.PairCostTable.subset` — row gather, flowset
view, shared per-PoP paths), so each working table compiles its per-PoP
CSR at most once per side and a scope's flow-level incidence is one
gather from it.
An edge whose observed context (its two base-load vectors and current
choices) has not changed since its last session is skipped outright, and an
empty renegotiation scope short-circuits without building a session — the
flow-axis analogue of the bandwidth experiment's empty-affected-set
short-circuit. With a 2-ISP chain the coordinator degenerates to exactly
one plain pairwise session, bit-identical to calling
:class:`NegotiationSession` directly (the differential tests pin this).

Robustness (PR 7): a deterministic :class:`~repro.core.faults.FaultPlan`
injects session aborts, per-edge deadlines, and permanent mid-round link
failures into the coordination loop. Agreement adoption is atomic — a
slot either adopts a complete proposal or leaves the last adopted
assignment untouched, so an aborted or deadline-expired session never
half-applies. Severed columns shrink the edge to a derived working table
(the PR 6 ``without_alternatives`` fast path); stranded flows re-route to
their early-exit column among the survivors and the edge renegotiates.
Edges that keep failing are quarantined for a bounded exponential backoff
of rounds. With a ``failure_model``, agents negotiate with
:class:`~repro.core.scenario_aware.ScenarioAwareEvaluator` preferences
(the ``tail_weight`` CVaR blend) and re-agreements are Pareto-gated on
the (nominal, CVaR_q) MEL pair per endpoint, so availability cannot
silently regress. An empty plan with no model is bit-identical to the
fault-free path (pinned by the fault tests).

Concurrency (PR 9): a round is no longer a flat edge walk but a *colored
schedule* — the peering line-graph is greedy-colored with a seeded,
platform-stable order (:mod:`repro.core.coloring`; two edges conflict iff
they share a member ISP) and the round executes the color classes in
sequence, edges ascending within a class. Edges in one class share no
ISP, so every one of them observes the same frozen base-load snapshot
whether its classmates have negotiated yet or not; ``coord_workers`` runs
a class's sessions on a fork-inherited :class:`ProcessPoolExecutor`
(mutable per-edge state travels in the payload, warm tables by fork) and
adoptions drain in deterministic edge order afterwards, so parallel
execution is bit-identical to the canonical serial schedule — a round
scales with the number of colors, not edges. Transit background lives in
a :class:`~repro.routing.interdomain.TransitLoadIndex`, so a severance
re-routes only the transit demands crossing the failed edge (pinned
bit-identical to re-deriving every demand).
``run()`` also instruments convergence: per-round potential (global MEL,
flows moved) and oscillation detection — a round that moves flows yet
lands on a previously seen global assignment fingerprint warns
:class:`CoordinationOscillationWarning` and stops with
``stop_reason="oscillating"``. Under ``order="random"`` the
fingerprint additionally mixes in the order stream's generator state:
a revisited assignment alone does not imply a cycle while the per-round
class order still draws from the RNG, so only a revisit of the full
(assignment, stream) state counts.

Damping (PR 10): with ``damping="ladder"`` a fingerprint revisit
escalates through :mod:`repro.core.damping` instead of aborting —
hysteresis on the Pareto gate of the cycle-implicated edges (adoption
requires each endpoint to improve by ``hysteresis_margin``, decaying
over clean rounds), then seeded tie-break perturbation of those edges'
scopes — re-driving the run to a fixed point within a bounded
escalation budget before falling back to ``stop_reason="oscillating"``.
``damping="off"`` (the default) is bit-identical to the PR 9 loop.
"""

from __future__ import annotations

import hashlib
import logging
import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.capacity.loads import link_loads
from repro.capacity.provisioning import ProportionalCapacity
from repro.core.agent import NegotiationAgent
from repro.core.coloring import EdgeColoring, color_peering_edges
from repro.core.damping import DampingConfig, DampingController
from repro.core.evaluators import LoadAwareEvaluator
from repro.core.faults import FaultPlan
from repro.core.outcomes import TerminationReason
from repro.core.preferences import PreferenceRange
from repro.core.scenario_aware import (
    ScenarioAwareEvaluator,
    scenario_placement_mels,
)
from repro.core.session import NegotiationSession, SessionConfig
from repro.core.strategies import ReassignEveryFraction
from repro.errors import (
    ConfigurationError,
    CoordinationOscillationWarning,
    FaultInjectionError,
)
from repro.metrics.tail import (
    conditional_value_at_risk,
    expected_mel,
    value_at_risk,
)
from repro.routing.scenarios import FailureModel, enumerate_failure_scenarios
from repro.geo.cities import default_city_database
from repro.geo.population import PopulationModel
from repro.metrics.mel import max_excess_load
from repro.routing.costs import PairCostTable, build_pair_cost_table
from repro.routing.exits import early_exit_choices
from repro.routing.flows import build_full_flowset
from repro.routing.interdomain import (
    TransitDemand,
    TransitLoadIndex,
    propagate_interdomain_routes,
)
from repro.routing.paths import IntradomainRouting
from repro.topology.internetwork import Internetwork
from repro.traffic.gravity import GravityWorkload, pop_gravity_weights
from repro.util.rng import derive_rng
from repro.util.validation import (
    check_int,
    check_non_negative,
    check_probability,
    check_quantile,
    validate_choice,
)

__all__ = [
    "EdgeSessionRecord",
    "CoordinationRound",
    "MultiNegotiationResult",
    "MultiSessionCoordinator",
    "carries_transit",
]

_ORDERS = ("round_robin", "random")
_EPS = 1e-12
_STOP_REASONS = ("converged", "max_rounds", "quarantined", "oscillating")

_log = logging.getLogger(__name__)

#: The coordinator a fork-pool worker inherits. Set while a coordinator's
#: pool is alive. Workers read tables, working tables, capacities and
#: config from their forked snapshot and everything else from the session
#: payload, so a worker forked in any round computes the same result. A
#: working table changes only on a severance, and pools refuse fault plans.
_POOL_COORDINATOR: "MultiSessionCoordinator | None" = None


def carries_transit(n_isps: int, n_edges: int, transit_scale: float) -> bool:
    """Whether a coordination builds a transit background.

    Transit crosses an intermediate ISP, so it needs a third ISP and a
    peering edge, and a non-zero ``transit_scale``.
    """
    return transit_scale != 0 and n_isps >= 3 and n_edges > 0


def _pool_session_worker(payload):
    """Run one edge's scoped session inside a fork-pool worker."""
    edge_index, scope, base_a, base_b, deadline, choices = payload
    return _POOL_COORDINATOR._run_session(
        edge_index, scope, base_a, base_b,
        max_session_rounds=deadline, choices=choices,
    )


@dataclass(frozen=True)
class EdgeSessionRecord:
    """What happened at one (round, edge) slot of the coordination.

    ``mel_per_isp`` snapshots every ISP's own-network MEL *after* the slot
    (internetwork member order); ``global_mel`` is their maximum. A skipped
    slot (unchanged context or empty scope) has ``ran_session=False`` and
    carries the state unchanged.

    ``fault`` records an injected failure consuming the slot — ``"abort"``
    (session crashed; last adopted assignment kept), ``"deadline"``
    (session overran its round budget; proposal discarded) or
    ``"quarantined"`` (edge benched by backoff) — and ``n_rerouted``
    counts flows force-moved off columns severed this slot.
    """

    round_index: int
    slot: int
    edge_index: int
    pair_name: str
    scope_size: int
    ran_session: bool
    adopted: bool
    n_changed: int
    mel_per_isp: tuple[float, ...]
    global_mel: float
    fault: str | None = None
    n_rerouted: int = 0


@dataclass
class CoordinationRound:
    """One full pass over the internetwork's edges.

    ``order`` is the flat edge visit order (the concatenated colored
    schedule); ``color_schedule`` is the same order grouped by color
    class, in executed class order.
    """

    round_index: int
    order: tuple[int, ...]
    records: list[EdgeSessionRecord] = field(default_factory=list)
    color_schedule: tuple[tuple[int, ...], ...] = ()

    @property
    def n_sessions(self) -> int:
        return sum(r.ran_session for r in self.records)

    @property
    def n_changed(self) -> int:
        return sum(r.n_changed for r in self.records)

    @property
    def global_mel(self) -> float:
        if not self.records:
            return 0.0
        return self.records[-1].global_mel

    @property
    def potential(self) -> float:
        """The round's convergence potential: global MEL + flows moved.

        A fixed point has potential == global MEL (nothing moved); a
        converging run's trajectory descends toward it. Purely
        instrumentation — adoption is still gated per edge.
        """
        return self.global_mel + float(self.n_changed)


@dataclass
class MultiNegotiationResult:
    """Trajectory and final placements of a multi-ISP coordination run.

    ``stop_reason`` states why the loop ended: ``"converged"`` (a full
    fault-free pass changed nothing), ``"max_rounds"`` (round budget
    exhausted), ``"quarantined"`` (budget exhausted with at least one
    edge still benched by failure backoff) or ``"oscillating"`` (a round
    moved flows yet reproduced an earlier global assignment — the
    deterministic loop would cycle forever and damping was off or its
    escalation budget spent). ``n_colors`` is the colored schedule's
    class count — the round's concurrency width.

    ``converged`` and ``stop_reason`` are two views of one fact and
    construction enforces their agreement:
    ``converged == (stop_reason == "converged")``.
    """

    isp_names: tuple[str, ...]
    edge_names: tuple[str, ...]
    rounds: list[CoordinationRound]
    converged: bool
    initial_mel_per_isp: tuple[float, ...]
    choices: list[np.ndarray]
    defaults: list[np.ndarray]
    stop_reason: str = "converged"
    n_colors: int = 0

    def __post_init__(self) -> None:
        validate_choice(self.stop_reason, _STOP_REASONS, "stop_reason")
        if self.converged != (self.stop_reason == "converged"):
            raise ConfigurationError(
                f"converged={self.converged} contradicts "
                f"stop_reason={self.stop_reason!r}"
            )

    @property
    def initial_mel(self) -> float:
        if not self.initial_mel_per_isp:
            return 0.0
        return max(self.initial_mel_per_isp)

    def mel_trajectory(self) -> list[float]:
        """Global MEL after each round (index 0 = after round 0)."""
        return [round_.global_mel for round_ in self.rounds]

    @property
    def final_mel(self) -> float:
        if not self.rounds:
            return self.initial_mel
        return self.rounds[-1].global_mel

    def n_rounds(self) -> int:
        return len(self.rounds)

    def records(self) -> list[EdgeSessionRecord]:
        return [r for round_ in self.rounds for r in round_.records]

    def potential_trajectory(self) -> list[tuple[float, int]]:
        """Per round: (global MEL after the round, flows moved in it)."""
        return [(r.global_mel, r.n_changed) for r in self.rounds]


@dataclass
class _SlotDecision:
    """What one slot resolved to *before* its session (if any) runs.

    ``_slot_begin`` applies the slot's severances, then reads state and
    decides; ``_slot_finish`` applies the session's mutations and emits
    the record. Splitting the slot this way lets a color class begin
    every edge against the same frozen snapshot, run the pending sessions
    concurrently, and drain the finishes in deterministic edge order —
    while the serial path runs begin/session/finish per edge and stays
    the canonical semantics. Only the serial path runs fault plans, so a
    severance in one edge's begin never lands between a classmate's
    begin and finish.
    """

    edge_index: int
    kind: str  # "skip" | "session"
    base_a: np.ndarray
    base_b: np.ndarray
    n_rerouted: int = 0
    fault: str | None = None
    scope: np.ndarray | None = None
    scope_size: int = 0
    deadline: int | None = None
    set_context: bool = False
    register_failure: bool = False


class _Working:
    """An edge's table after its severances, and what derives from it.

    ``keep`` maps working-table columns to full-table columns and
    ``inverse`` maps back (-1 for a severed column). With nothing severed
    the full table is the working table and both maps are identities, so
    the fault-free path derives nothing. A severance replaces the whole
    object. The failure model restricted to the survivors and its
    scenario set are built on first use: only the scenario-aware path
    reads them.
    """

    def __init__(
        self, table: PairCostTable, severed: set[int],
        failure_model: FailureModel | None,
    ):
        n_alternatives = table.n_alternatives
        self.keep = np.array(
            [c for c in range(n_alternatives) if c not in severed],
            dtype=np.intp,
        )
        self.inverse = np.full(n_alternatives, -1, dtype=np.intp)
        self.inverse[self.keep] = np.arange(self.keep.size, dtype=np.intp)
        self.table = (
            table.without_alternatives(tuple(sorted(severed)))
            if severed else table
        )
        self._restricted = bool(severed) and failure_model is not None
        self._failure_model = failure_model

    @cached_property
    def model(self) -> FailureModel | None:
        """The failure model induced on the surviving columns."""
        if not self._restricted:
            return self._failure_model
        return self._failure_model.restrict([int(c) for c in self.keep])

    @cached_property
    def scenarios(self):
        return enumerate_failure_scenarios(
            self.table.n_alternatives, self.model
        )


@dataclass(eq=False)
class _EdgeState:
    """Everything the coordinator tracks for one peering edge.

    ``context`` is the ``(base_a, base_b)`` pair the edge's last session
    ran against, or None before its first; it drives the skip and scope
    decisions. ``force_scope`` bypasses the context skip and widens the
    scope to every flow after a severance. The edge may run again from
    round ``quarantined_until`` on; rounds below it are quarantined skips.
    """

    table: PairCostTable
    defaults: np.ndarray
    choices: np.ndarray
    working: _Working
    #: Per side: ``link_loads`` of the current choices, dropped on
    #: adoption. Only one edge's placement changes per slot, so the
    #: per-slot MEL records sum cached vectors instead of re-running
    #: full scatter-adds.
    loads: dict[str, np.ndarray] = field(default_factory=dict)
    context: tuple[np.ndarray, np.ndarray] | None = None
    severed: set[int] = field(default_factory=set)
    force_scope: bool = False
    fail_streak: int = 0
    n_quarantines: int = 0
    quarantined_until: int = 0

    def side_loads(self, side: str) -> np.ndarray:
        """The current choices' per-link loads on one side, cached."""
        cached = self.loads.get(side)
        if cached is None:
            cached = self.loads[side] = link_loads(
                self.table, self.choices, side
            )
        return cached

    def adopt(self, choices: np.ndarray) -> None:
        self.choices = choices
        self.loads = {}


class MultiSessionCoordinator:
    """Runs pairwise sessions over every internetwork edge, in rounds.

    Attributes mirror the bandwidth experiment's knobs: ``config`` supplies
    the preference range, ratio unit and reassignment fraction; ``workload``
    the gravity flow sizes; ``provisioner`` the capacity model. ``order``
    selects the per-round edge order — ``"round_robin"`` (edge-index order
    every round) or ``"random"`` (a seeded shuffle per round).
    ``transit_scale`` sets the mean per-PoP transit demand; ``0`` builds
    no transit background, to study pure session interaction.

    Robustness knobs: ``fault_plan`` schedules injected failures (see
    :mod:`repro.core.faults`); ``quarantine_after`` consecutive failed
    slots bench an edge for ``quarantine_backoff_rounds`` rounds, doubling
    per quarantine up to ``quarantine_backoff_cap``. A ``failure_model``
    switches the edge agents to CVaR-blended scenario-aware preferences
    (``tail_weight``/``tail_quantile``) and adds the
    per-endpoint CVaR_q MEL to the re-agreement Pareto gate. All default
    to off; the defaults leave every pre-existing code path untouched.

    Damping knobs: ``damping`` selects the fingerprint-revisit response
    (``"off"`` aborts with ``stop_reason="oscillating"``; ``"ladder"``
    escalates through hysteresis and seeded scope perturbation — see
    :mod:`repro.core.damping`); ``hysteresis_margin`` is rung 1's
    required per-endpoint improvement and ``damping_budget`` bounds the
    escalations before falling back to the abort.

    Scale knobs: ``coord_workers`` (the ``resolve_workers`` contract of
    :mod:`repro.experiments.parallel`: ``None``/0/1 serial, ``-1`` one
    per CPU, N >= 2 exactly N) runs each color class's sessions on a
    fork pool, bit-identical to serial by the frozen-snapshot argument;
    it cannot be combined with a non-empty ``fault_plan`` (fault events
    mutate shared edge state mid-round).
    """

    def __init__(
        self,
        internetwork: Internetwork,
        config: "ExperimentConfig | None" = None,
        workload: GravityWorkload | None = None,
        provisioner: ProportionalCapacity | None = None,
        order: str = "round_robin",
        seed: int | None = None,
        max_rounds: int = 8,
        transit_scale: float = 1.0,
        coord_workers: int | None = None,
        fault_plan: FaultPlan | None = None,
        failure_model: FailureModel | None = None,
        tail_weight: float = 0.5,
        tail_quantile: float = 0.95,
        quarantine_after: int = 2,
        quarantine_backoff_rounds: int = 1,
        quarantine_backoff_cap: int = 8,
        damping: str = "off",
        hysteresis_margin: float = 0.05,
        damping_budget: int = 4,
    ):
        # Imported lazily: core must not depend on the experiments
        # package at module load (the experiment drivers import core).
        from repro.experiments.parallel import resolve_workers

        validate_choice(order, _ORDERS, "order")
        max_rounds = check_int(max_rounds, "max_rounds", 1)
        transit_scale = check_non_negative(transit_scale, "transit_scale")
        quarantine_after = check_int(quarantine_after, "quarantine_after", 1)
        quarantine_backoff_rounds = check_int(
            quarantine_backoff_rounds, "quarantine_backoff_rounds", 1
        )
        # The cap bounds the doubled backoff, so it starts at the backoff.
        quarantine_backoff_cap = check_int(
            quarantine_backoff_cap, "quarantine_backoff_cap",
            quarantine_backoff_rounds,
        )
        tail_weight = check_probability(tail_weight, "tail_weight")
        tail_quantile = check_quantile(tail_quantile, "tail_quantile")
        self.net = internetwork
        if config is None:
            # Imported lazily: core must not depend on the experiments
            # package at module load (the experiment drivers import core).
            from repro.experiments.config import ExperimentConfig

            config = ExperimentConfig()
        self.config = config
        self.workload = workload or GravityWorkload(
            PopulationModel(default_city_database())
        )
        self.provisioner = provisioner or ProportionalCapacity()
        self.order = order
        self.seed = self.config.seed if seed is None else check_int(
            seed, "seed", 0
        )
        self.max_rounds = max_rounds
        self.transit_scale = transit_scale
        self.coord_workers = resolve_workers(coord_workers)
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        if self.coord_workers > 1 and not self.fault_plan.is_empty():
            raise ConfigurationError(
                "coord_workers > 1 cannot run a non-empty fault_plan: "
                "injected faults mutate shared edge state mid-round; "
                "run fault plans with coord_workers=None"
            )
        self.failure_model = failure_model
        self.tail_weight = tail_weight
        self.tail_quantile = tail_quantile
        self.quarantine_after = quarantine_after
        self.quarantine_backoff_rounds = quarantine_backoff_rounds
        self.quarantine_backoff_cap = quarantine_backoff_cap
        self.damping_config = DampingConfig(
            mode=damping,
            hysteresis_margin=hysteresis_margin,
            budget=damping_budget,
        )
        #: The run-scoped damping state machine; live only inside run().
        self._damping: DampingController | None = None

        self._routings = {
            isp.name: IntradomainRouting(isp) for isp in self.net.isps
        }
        self._states: list[_EdgeState] = []
        for edge in self.net.edges:
            flowset = build_full_flowset(edge, self.workload.size_fn(edge))
            table = build_pair_cost_table(
                edge,
                flowset,
                self._routings[edge.isp_a.name],
                self._routings[edge.isp_b.name],
            )
            defaults = early_exit_choices(table)
            self._states.append(_EdgeState(
                table=table,
                defaults=defaults,
                choices=defaults.copy(),
                working=_Working(table, set(), failure_model),
            ))

        # Capacities are provisioned for the *planned* traffic — each
        # edge's default (early-exit) placement — before transit enters.
        # Transit then stresses the intermediate ISPs as unplanned
        # background, the multi-ISP analogue of the bandwidth experiment's
        # failure stress, and the sessions negotiate relief. With two ISPs
        # (no transit) this reduces to capacities proportional to the
        # pair's default loads, the bandwidth experiment's exact setup.
        self._caps = {}
        for isp in self.net.isps:
            planned = np.zeros(isp.n_links())
            for index in self.net.edges_of(isp.name):
                side = self.net.edge_side(index, isp.name)
                # choices == defaults here, so this also warms the
                # per-edge load cache with the default placements.
                planned = planned + self._states[index].side_loads(side)
            self._caps[isp.name] = self.provisioner.capacities(planned)
        self._transit_index: TransitLoadIndex | None = None
        if carries_transit(
            self.net.n_isps(), self.net.n_edges(), transit_scale
        ):
            routes = propagate_interdomain_routes(self.net)
            self._transit_index = TransitLoadIndex(
                self.net, routes, self._routings,
                self._transit_demands(routes),
            )
            self._transit = self._transit_index.loads()
        else:
            self._transit = {
                isp.name: np.zeros(isp.n_links()) for isp in self.net.isps
            }
        #: The colored schedule: the round's canonical semantics. Seeded
        #: by the coordinator's seed, stable across platforms and edge
        #: enumeration orders.
        self._coloring: EdgeColoring = color_peering_edges(
            [(e.isp_a.name, e.isp_b.name) for e in self.net.edges],
            seed=self.seed,
        )
        self._pool: ProcessPoolExecutor | None = None
        self._validate_fault_plan()

    def _validate_fault_plan(self) -> None:
        """Reject plans that cannot be injected into this internetwork."""
        if self.fault_plan.is_empty():
            return
        n_edges = self.net.n_edges()
        cumulative: list[set[int]] = [set() for _ in range(n_edges)]
        for event in self.fault_plan.events:
            if event.edge_index >= n_edges:
                raise FaultInjectionError(
                    f"fault event at round {event.round_index} targets "
                    f"edge {event.edge_index} but the internetwork has "
                    f"{n_edges} edges"
                )
            if event.kind != "link_failure":
                continue
            table = self._states[event.edge_index].table
            edge = self.net.edges[event.edge_index]
            for column in event.columns:
                if column >= table.n_alternatives:
                    raise FaultInjectionError(
                        f"fault event at round {event.round_index} severs "
                        f"column {column} of edge {edge.name!r}, which has "
                        f"only {table.n_alternatives} interconnections"
                    )
            cumulative[event.edge_index].update(event.columns)
        for edge_index, columns in enumerate(cumulative):
            table = self._states[edge_index].table
            if len(columns) >= table.n_alternatives:
                raise FaultInjectionError(
                    f"fault plan severs every interconnection of edge "
                    f"{self.net.edges[edge_index].name!r}; at least one "
                    f"column must survive"
                )

    # -- load accounting -----------------------------------------------------

    def _transit_demands(self, routes) -> list[TransitDemand]:
        """The canonical transit demand list.

        One demand per (source PoP, destination ISP) over every ordered
        *non-adjacent* reachable ISP pair (adjacent traffic is modelled by
        the edge flowsets); volumes are gravity-normalized so the mean
        per-source-PoP demand equals ``transit_scale``. Deterministic:
        ISP pairs in member order, source PoPs ascending — the enumeration
        order in which the transit index accumulates its loads.
        """
        demands: list[TransitDemand] = []
        adjacent = {
            frozenset((e.isp_a.name, e.isp_b.name)) for e in self.net.edges
        }
        for src_isp in self.net.isps:
            weights = pop_gravity_weights(
                src_isp, self.workload.population
            )
            volumes = self.transit_scale * weights / weights.mean()
            for dst_isp in self.net.isps:
                if dst_isp.name == src_isp.name:
                    continue
                if frozenset((src_isp.name, dst_isp.name)) in adjacent:
                    continue
                if not routes.reachable(src_isp.name, dst_isp.name):
                    continue
                for pop in range(src_isp.n_pops()):
                    demands.append(
                        TransitDemand(
                            src_isp=src_isp.name,
                            src_pop=pop,
                            dst_isp=dst_isp.name,
                            volume=float(volumes[pop]),
                        )
                    )
        return demands

    def _isp_loads(
        self, name: str, exclude_edge: int | None = None
    ) -> np.ndarray:
        """Current link loads of one ISP: transit + every edge's placement.

        ``exclude_edge`` omits one edge's contribution — the session for
        that edge sees the rest as its base load. Accumulation order is
        transit first, then edges ascending, so the computation is
        deterministic.
        """
        total = self._transit[name].copy()
        for index in self.net.edges_of(name):
            if index == exclude_edge:
                continue
            side = self.net.edge_side(index, name)
            total = total + self._states[index].side_loads(side)
        return total

    def _mels(self) -> tuple[float, ...]:
        return tuple(
            max_excess_load(self._isp_loads(name), self._caps[name])
            for name in self.net.names()
        )

    def _bases(self, edge_index: int) -> tuple[np.ndarray, np.ndarray]:
        """Both endpoints' base loads: everything but this edge."""
        edge = self.net.edges[edge_index]
        return (
            self._isp_loads(edge.isp_a.name, exclude_edge=edge_index),
            self._isp_loads(edge.isp_b.name, exclude_edge=edge_index),
        )

    # -- per-edge sessions ----------------------------------------------------

    def _scope(
        self, edge_index: int, base_a: np.ndarray, base_b: np.ndarray
    ) -> np.ndarray:
        """Flow indices to (re)negotiate on one edge this round.

        First session: every flow. Renegotiation: only the flows whose
        candidate paths touch a link whose base load changed since the last
        session — other flows' load-aware preference rows are unchanged, so
        re-running them could only reproduce the prior outcome. Computed on
        the table's flow-level incidence (one mask + gather per side).
        """
        state = self._states[edge_index]
        table = state.table
        if state.context is None:
            return np.arange(table.n_flows, dtype=np.intp)
        last_a, last_b = state.context
        affected = np.zeros(table.n_flows, dtype=bool)
        for side, now, before in (("a", base_a, last_a), ("b", base_b, last_b)):
            changed = now != before
            if not changed.any():
                continue
            incidence = table.incidence(side)
            touched = changed[incidence.indices]
            affected[incidence.entry_flow[touched]] = True
        return np.flatnonzero(affected)

    def _make_evaluator(
        self, sub_table, side: str, caps: np.ndarray,
        defaults_sub: np.ndarray, base_loads: np.ndarray,
        p_range: PreferenceRange, model: FailureModel | None,
    ):
        """One side's evaluator: plain load-aware, or CVaR-blended when
        the coordinator carries a failure model."""
        if model is None:
            return LoadAwareEvaluator(
                sub_table,
                side,
                caps,
                defaults_sub,
                base_loads=base_loads,
                range_=p_range,
                ratio_unit=self.config.ratio_unit,
            )
        return ScenarioAwareEvaluator(
            sub_table,
            side,
            caps,
            defaults_sub,
            model,
            tail_weight=self.tail_weight,
            tail_quantile=self.tail_quantile,
            base_loads=base_loads,
            range_=p_range,
            ratio_unit=self.config.ratio_unit,
        )

    def _run_session(
        self, edge_index: int, scope: np.ndarray,
        base_a: np.ndarray, base_b: np.ndarray,
        max_session_rounds: int | None = None,
        choices: np.ndarray | None = None,
    ) -> tuple[np.ndarray, TerminationReason]:
        """One pairwise session over the scoped sub-table.

        Mirrors the bandwidth experiment's session construction exactly:
        (scenario-aware) load-aware evaluators on both sides, preferences
        reassigned every ``config.reassign_fraction`` of traffic,
        defaults = the flows' current placements. The sub-table is
        derived from the working table and the returned choices are
        mapped back to full-table columns (identities while nothing is
        severed). ``max_session_rounds`` imposes an injected deadline on
        the inner protocol. Returns ``(choices, termination reason)``.

        Pure given its arguments plus the edge's table and working state.
        ``choices`` (default: the edge's current placements) exists so
        fork-pool workers receive the round-current assignment in the
        payload rather than trusting their forked snapshot. The working
        state does come from the snapshot: it changes only on a
        severance, and pools refuse fault plans.
        """
        state = self._states[edge_index]
        table = state.table
        if choices is None:
            choices = state.choices
        out_of_scope = np.ones(table.n_flows, dtype=bool)
        out_of_scope[scope] = False
        eval_base_a = link_loads(
            table, choices, "a", active=out_of_scope, base=base_a
        )
        eval_base_b = link_loads(
            table, choices, "b", active=out_of_scope, base=base_b
        )
        working = state.working
        sub_table = working.table.subset(scope)
        defaults_sub = working.inverse[choices[scope]]
        p_range = PreferenceRange(self.config.preference_p)
        edge = self.net.edges[edge_index]
        agent_a = NegotiationAgent(
            "a",
            self._make_evaluator(
                sub_table, "a", self._caps[edge.isp_a.name],
                defaults_sub, eval_base_a, p_range, working.model,
            ),
        )
        agent_b = NegotiationAgent(
            "b",
            self._make_evaluator(
                sub_table, "b", self._caps[edge.isp_b.name],
                defaults_sub, eval_base_b, p_range, working.model,
            ),
        )
        session = NegotiationSession(
            agent_a,
            agent_b,
            sizes=sub_table.flowset.sizes(),
            defaults=defaults_sub,
            config=SessionConfig(
                reassignment_policy=ReassignEveryFraction(
                    self.config.reassign_fraction
                ),
                max_rounds=max_session_rounds,
            ),
        )
        outcome = session.run()
        return working.keep[outcome.choices], outcome.reason

    def _edge_mels(
        self, edge_index: int, choices: np.ndarray,
        base_a: np.ndarray, base_b: np.ndarray,
    ) -> tuple[float, float]:
        """Both endpoint ISPs' own-network MELs under a candidate placement."""
        table = self._states[edge_index].table
        edge = self.net.edges[edge_index]
        loads_a = link_loads(table, choices, "a", base=base_a)
        loads_b = link_loads(table, choices, "b", base=base_b)
        return (
            max_excess_load(loads_a, self._caps[edge.isp_a.name]),
            max_excess_load(loads_b, self._caps[edge.isp_b.name]),
        )

    def optimal_edge_mel(self, edge_index: int) -> float:
        """The fractional-LP lower bound on one edge's joint MEL.

        Solves the Section 5.2 min-max-load LP over the edge's working
        table (severances applied), with the rest of the internetwork's
        current placements and transit as base load — the per-edge
        analogue of the bandwidth experiment's globally optimal
        comparator. The LP backend is ``config.lp_solver``.
        """
        from repro.optimal.bandwidth_lp import solve_min_max_load_lp

        edge_index = check_int(edge_index, "edge_index", 0)
        if edge_index >= self.net.n_edges():
            raise ConfigurationError(
                f"edge_index must be < {self.net.n_edges()} (the "
                f"internetwork's edge count), got {edge_index}"
            )
        edge = self.net.edges[edge_index]
        base_a, base_b = self._bases(edge_index)
        lp = solve_min_max_load_lp(
            self._states[edge_index].working.table,
            self._caps[edge.isp_a.name],
            self._caps[edge.isp_b.name],
            base_a,
            base_b,
            solver=self.config.lp_solver,
        )
        return float(lp.t)

    # -- fault machinery -------------------------------------------------------

    def _sever_columns(
        self, edge_index: int, columns: tuple[int, ...]
    ) -> int:
        """Permanently fail interconnection columns on one edge.

        Flows stranded on the severed columns re-route to their
        early-exit column among the survivors (the default rule applied
        to the working table); the edge's working state is rebuilt and
        its next slot renegotiates over every flow. Transit background
        crossing the edge re-routes too, incrementally through the
        transit index. Returns the number of re-routed flows.
        """
        state = self._states[edge_index]
        fresh = [c for c in columns if c not in state.severed]
        if not fresh:
            return 0
        state.severed.update(fresh)
        if self._transit_index is not None:
            self._transit_index.sever(edge_index, fresh)
            self._transit = self._transit_index.loads()
        state.working = _Working(
            state.table, state.severed, self.failure_model
        )
        state.force_scope = True
        stranded = np.isin(state.choices, np.asarray(sorted(state.severed)))
        n_stranded = int(np.count_nonzero(stranded))
        if n_stranded:
            working = state.working
            refuge = working.keep[early_exit_choices(working.table)]
            rerouted = state.choices.copy()
            rerouted[stranded] = refuge[stranded]
            state.adopt(rerouted)
        return n_stranded

    def _register_failure(self, edge_index: int, round_index: int) -> None:
        """Count a failed slot; quarantine the edge past the threshold.

        The backoff doubles per quarantine episode, bounded by
        ``quarantine_backoff_cap``.
        """
        state = self._states[edge_index]
        state.fail_streak += 1
        if state.fail_streak < self.quarantine_after:
            return
        backoff = min(
            self.quarantine_backoff_rounds * 2 ** state.n_quarantines,
            self.quarantine_backoff_cap,
        )
        state.n_quarantines += 1
        state.fail_streak = 0
        state.quarantined_until = round_index + 1 + backoff
        _log.warning(
            "edge %s quarantined for %d round(s) after repeated failures",
            self.net.edges[edge_index].name,
            backoff,
        )

    def _tails(
        self, edge_index: int, choices: np.ndarray,
        base_a: np.ndarray, base_b: np.ndarray,
    ) -> tuple[list[tuple[np.ndarray, np.ndarray]], float]:
        """Each endpoint's scenario MEL distribution under a placement.

        Returns one ``(probs, mels)`` pair per side (``a`` then ``b``)
        over the edge's severance-restricted scenario set, and the set's
        probability coverage.
        """
        working = self._states[edge_index].working
        sub_choices = working.inverse[choices]
        scenarios = working.scenarios
        edge = self.net.edges[edge_index]
        tails = [
            scenario_placement_mels(
                working.table, sub_choices, side, self._caps[isp],
                scenarios, base=base,
            )
            for side, base, isp in (
                ("a", base_a, edge.isp_a.name),
                ("b", base_b, edge.isp_b.name),
            )
        ]
        return tails, scenarios.coverage

    def _edge_cvars(
        self, edge_index: int, choices: np.ndarray,
        base_a: np.ndarray, base_b: np.ndarray,
    ) -> tuple[float, float]:
        """Both endpoints' CVaR_q own-network MELs for a placement."""
        tails, coverage = self._tails(edge_index, choices, base_a, base_b)
        return tuple(
            conditional_value_at_risk(p, m, coverage, self.tail_quantile)
            for p, m in tails
        )

    def risk_report(self) -> list[dict]:
        """Per-edge tail-risk assessment of the current placements.

        For every edge and endpoint: nominal MEL plus expected/VaR_q/
        CVaR_q MEL over the edge's (severance-restricted) failure
        scenario distribution, under the operational re-route model of
        :func:`~repro.core.scenario_aware.scenario_placement_mels`.
        Requires a ``failure_model``.
        """
        if self.failure_model is None:
            raise ConfigurationError(
                "risk_report requires the coordinator's failure_model"
            )
        report = []
        q = self.tail_quantile
        for edge_index, edge in enumerate(self.net.edges):
            state = self._states[edge_index]
            base_a, base_b = self._bases(edge_index)
            tails, coverage = self._tails(
                edge_index, state.choices, base_a, base_b
            )
            report.append({
                "edge": edge.name,
                "severed": tuple(sorted(state.severed)),
                "nominal": self._edge_mels(
                    edge_index, state.choices, base_a, base_b
                ),
                "expected": tuple(expected_mel(p, m) for p, m in tails),
                "var": tuple(
                    value_at_risk(p, m, coverage, q) for p, m in tails
                ),
                "cvar": tuple(
                    conditional_value_at_risk(p, m, coverage, q)
                    for p, m in tails
                ),
            })
        return report

    # -- the coordination loop -------------------------------------------------

    def run(self) -> MultiNegotiationResult:
        """Execute colored rounds until convergence or the round limit.

        A round walks the color classes (``order="round_robin"``:
        ascending color; ``"random"``: a seeded shuffle of the *class*
        order — within a class edges always run ascending, which keeps
        visit order equal to drain order). A round converges only if it
        is fault-free *and* changes nothing: an aborted, deadline-expired
        or quarantined slot defers work to a later round, so such a round
        cannot witness a fixed point. A round that moves flows yet lands
        on a previously seen global assignment fingerprint is handed to
        the damping controller: with ``damping="ladder"`` and budget
        left, the run escalates (hysteresis, then seeded perturbation)
        and keeps driving toward a fixed point; otherwise the loop stops
        with ``stop_reason="oscillating"`` and a cycle-attributed
        :class:`CoordinationOscillationWarning`.
        """
        rng = derive_rng(self.seed, "multi-isp-order")
        rounds: list[CoordinationRound] = []
        initial_mels = self._mels()
        stop_reason: str | None = None
        if self.net.n_edges() == 0:
            stop_reason = "converged"
        classes = self._coloring.classes
        damping = DampingController(self.damping_config, self.seed)
        self._damping = damping
        damping.observe(
            -1, self._assignment_fingerprint(rng), self._all_choices()
        )
        try:
            for round_index in range(self.max_rounds):
                if stop_reason is not None:
                    break
                class_order = list(range(len(classes)))
                if self.order == "random":
                    rng.shuffle(class_order)
                schedule = tuple(classes[c] for c in class_order)
                round_ = CoordinationRound(
                    round_index=round_index,
                    order=tuple(
                        edge for group in schedule for edge in group
                    ),
                    color_schedule=schedule,
                )
                for group in schedule:
                    round_.records.extend(self._run_color_class(
                        round_index, len(round_.records), group
                    ))
                rounds.append(round_)
                if round_.n_changed == 0 and all(
                    r.fault is None for r in round_.records
                ):
                    stop_reason = "converged"
                    continue
                if round_.n_changed > 0:
                    report = damping.observe(
                        round_index,
                        self._assignment_fingerprint(rng),
                        self._all_choices(),
                    )
                    if report is not None:
                        if damping.escalate(report):
                            _log.warning(
                                "round %d revisited the assignment of "
                                "round %d (cycle over %d edge(s)); "
                                "damping escalated to level %d",
                                round_index,
                                report.first_seen_round,
                                len(report.edge_indices),
                                damping.level,
                            )
                            continue
                        warnings.warn(
                            CoordinationOscillationWarning(
                                f"round {round_index} moved "
                                f"{round_.n_changed} flow(s) yet "
                                "reproduced the global assignment of "
                                f"round {report.first_seen_round}; "
                                "coordination is oscillating and will "
                                "not converge",
                                cycle_length=report.cycle_length,
                                edges=tuple(
                                    self.net.edges[i].name
                                    for i in report.edge_indices
                                ),
                            ),
                            stacklevel=2,
                        )
                        stop_reason = "oscillating"
                        break
                damping.note_clean_round()
        finally:
            self._close_pool()
            self._damping = None
        if stop_reason is None:
            if any(s.quarantined_until > len(rounds) for s in self._states):
                stop_reason = "quarantined"
            else:
                stop_reason = "max_rounds"
        converged = stop_reason == "converged"
        if not converged:
            _log.warning(
                "multi-ISP coordination stopped without convergence "
                "after %d round(s) (%s)",
                len(rounds),
                stop_reason,
            )
        return MultiNegotiationResult(
            isp_names=self.net.names(),
            edge_names=tuple(e.name for e in self.net.edges),
            rounds=rounds,
            converged=converged,
            initial_mel_per_isp=initial_mels,
            choices=[c.copy() for c in self._all_choices()],
            defaults=[s.defaults.copy() for s in self._states],
            stop_reason=stop_reason,
            n_colors=self._coloring.n_colors,
        )

    def _all_choices(self) -> list[np.ndarray]:
        return [state.choices for state in self._states]

    def _assignment_fingerprint(self, rng=None) -> str:
        """A stable digest of the full per-edge placement state.

        Under ``order="random"`` the schedule itself is part of the
        dynamical state: revisiting a placement under a *different*
        upcoming shuffle is not a cycle, so the order stream's generator
        state is mixed into the digest. PCG64 state never recurs within
        a run, which makes the detector sound (a revisit implies the
        exact same future) rather than falsely flagging placements that
        coincide under divergent schedules.
        """
        digest = hashlib.sha256()
        for choices in self._all_choices():
            digest.update(np.ascontiguousarray(choices).tobytes())
        if rng is not None and self.order == "random":
            digest.update(repr(rng.bit_generator.state).encode())
        return digest.hexdigest()

    # -- color-class execution -------------------------------------------------

    def _run_color_class(
        self, round_index: int, slot_offset: int, group: tuple[int, ...],
    ) -> list[EdgeSessionRecord]:
        """Execute one color class in batches; return its records.

        A batch begins every edge, runs the pending sessions, then
        finishes every edge in ascending order. With ``coord_workers > 1``
        the class is one batch: every edge begins against the same frozen
        snapshot and the sessions share the pool. Otherwise each edge is
        its own batch — begin / session / finish per edge, the canonical
        semantics. The two are bit-identical because same-color edges
        share no ISP: finishing edge ``i`` mutates only its own two ISPs'
        state, which a classmate's begin/session never reads.
        """
        if self.coord_workers > 1:
            batches = [group]
        else:
            batches = [(edge_index,) for edge_index in group]
        records: list[EdgeSessionRecord] = []
        for batch in batches:
            decisions = [
                self._slot_begin(round_index, edge_index)
                for edge_index in batch
            ]
            outputs = self._run_sessions(
                [d for d in decisions if d.kind == "session"]
            )
            for decision in decisions:
                records.append(self._slot_finish(
                    round_index,
                    slot_offset + len(records),
                    decision,
                    outputs.get(decision.edge_index),
                ))
        return records

    def _run_sessions(
        self, decisions: list[_SlotDecision]
    ) -> dict[int, tuple[np.ndarray, TerminationReason]]:
        """Run a batch's pending sessions, pooled when possible.

        Each payload carries the edge's round-current mutable state
        (scope, bases, choices); workers combine it with fork-inherited
        state (tables, working tables, capacities, config). Runs in
        process when forking is unavailable (non-fork platforms, daemonic
        parents) or at most one session is pending.
        """
        pool = self._ensure_pool() if len(decisions) > 1 else None
        if pool is None:
            return {
                d.edge_index: self._run_session(
                    d.edge_index, d.scope, d.base_a, d.base_b,
                    max_session_rounds=d.deadline,
                )
                for d in decisions
            }
        futures = [
            pool.submit(_pool_session_worker, (
                d.edge_index, d.scope, d.base_a, d.base_b, d.deadline,
                self._states[d.edge_index].choices,
            ))
            for d in decisions
        ]
        return {
            d.edge_index: future.result()
            for d, future in zip(decisions, futures)
        }

    def _ensure_pool(self) -> ProcessPoolExecutor | None:
        """The coordinator's fork pool, created lazily; None if unusable."""
        global _POOL_COORDINATOR
        if self._pool is not None:
            _POOL_COORDINATOR = self
            return self._pool
        # Imported lazily: core must not depend on the experiments
        # package at module load.
        from repro.experiments.parallel import fork_context

        context = fork_context()
        if context is None or multiprocessing.current_process().daemon:
            return None
        _POOL_COORDINATOR = self
        self._pool = ProcessPoolExecutor(
            max_workers=self.coord_workers, mp_context=context
        )
        return self._pool

    def _close_pool(self) -> None:
        global _POOL_COORDINATOR
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if _POOL_COORDINATOR is self:
            _POOL_COORDINATOR = None

    def _slot_begin(
        self, round_index: int, edge_index: int
    ) -> _SlotDecision:
        """Resolve one slot up to (but excluding) its session.

        Applies environmental fault events (severances strike whether or
        not the edge negotiates, and mutate the edge's state and the
        transit background), snapshots the edge's base loads, and decides
        skip vs. session. Apart from those severances it only reads, and
        it reads nothing a same-color classmate's finish could have
        written, which is what lets a pooled class begin every edge
        before any finishes.
        """
        state = self._states[edge_index]

        # Injected link failures land first — they are environmental and
        # strike whether or not the edge gets to negotiate this round.
        events = self.fault_plan.events_for(round_index, edge_index)
        n_rerouted = 0
        for event in events:
            if event.kind == "link_failure":
                n_rerouted += self._sever_columns(edge_index, event.columns)

        base_a, base_b = self._bases(edge_index)

        def skip(**kwargs) -> _SlotDecision:
            return _SlotDecision(
                edge_index=edge_index, kind="skip",
                base_a=base_a, base_b=base_b, n_rerouted=n_rerouted,
                **kwargs,
            )

        if round_index < state.quarantined_until:
            # Benched by backoff; the forced-scope flag (if any) survives
            # until the edge is allowed to run again.
            return skip(fault="quarantined")

        last = state.context
        if (
            not state.force_scope
            and last is not None
            and np.array_equal(base_a, last[0])
            and np.array_equal(base_b, last[1])
        ):
            # Nothing this edge observes has moved since its last session:
            # the session would reproduce itself. Skip without touching it.
            return skip()

        if state.force_scope:
            # A severance changed the edge's own table: every flow's
            # preference row is stale, regardless of base-load deltas.
            scope = np.arange(state.table.n_flows, dtype=np.intp)
        else:
            scope = self._scope(edge_index, base_a, base_b)
        if self._damping is not None:
            # Damping rung 2: thin a cycle-implicated edge's scope to a
            # seeded subset, desynchronizing lockstep flow swaps. A
            # parent-side decision (like all of begin), so serial and
            # pooled schedules see identical scopes.
            scope = self._damping.perturb_scope(edge_index, round_index, scope)
        if scope.size == 0:
            return skip(set_context=True)

        if any(event.kind == "abort" for event in events):
            # The session crashes before an agreement: adoption is atomic,
            # so the last adopted assignment stands untouched. The context
            # is deliberately not updated (and a forced scope survives),
            # so the edge retries on its next non-quarantined slot.
            return skip(
                scope_size=int(scope.size), fault="abort",
                register_failure=True,
            )

        deadlines = [
            event.deadline_rounds for event in events
            if event.kind == "deadline"
        ]
        return _SlotDecision(
            edge_index=edge_index,
            kind="session",
            base_a=base_a,
            base_b=base_b,
            n_rerouted=n_rerouted,
            scope=scope,
            scope_size=int(scope.size),
            deadline=min(deadlines) if deadlines else None,
        )

    def _slot_finish(
        self,
        round_index: int,
        slot: int,
        decision: _SlotDecision,
        output: tuple[np.ndarray, TerminationReason] | None,
    ) -> EdgeSessionRecord:
        """Apply one slot's mutations and emit its record.

        Runs in deterministic (ascending-edge) drain order within a
        class; ``_mels()`` therefore reflects exactly the adoptions of
        earlier slots, identically in serial and parallel execution.
        """
        edge_index = decision.edge_index
        state = self._states[edge_index]

        def record(
            scope_size: int = 0,
            fault: str | None = None,
            ran_session: bool = False,
            adopted: bool = False,
            n_changed: int = 0,
        ) -> EdgeSessionRecord:
            mels = self._mels()
            return EdgeSessionRecord(
                round_index=round_index,
                slot=slot,
                edge_index=edge_index,
                pair_name=self.net.edges[edge_index].name,
                scope_size=scope_size,
                ran_session=ran_session,
                adopted=adopted,
                n_changed=n_changed,
                mel_per_isp=mels,
                global_mel=max(mels) if mels else 0.0,
                fault=fault,
                n_rerouted=decision.n_rerouted,
            )

        if decision.kind == "skip":
            if decision.register_failure:
                self._register_failure(edge_index, round_index)
            if decision.set_context:
                state.context = (decision.base_a, decision.base_b)
            return record(
                scope_size=decision.scope_size, fault=decision.fault
            )

        scope = decision.scope
        base_a, base_b = decision.base_a, decision.base_b
        proposal_sub, reason = output
        if (
            decision.deadline is not None
            and reason is TerminationReason.ROUND_LIMIT
        ):
            # The session outran its injected deadline: its partial
            # agreement is discarded whole (atomic adoption), exactly as
            # for an abort.
            self._register_failure(edge_index, round_index)
            return record(
                scope_size=int(scope.size), fault="deadline",
                ran_session=True,
            )

        proposal = state.choices.copy()
        proposal[scope] = proposal_sub

        if state.context is None:
            # The edge's first agreement replaces the early-exit defaults
            # outright.
            adopted = True
        else:
            # Pareto gate, as in continuous renegotiation: adopt only if
            # neither endpoint's own-network MEL worsens — and, with a
            # failure model, only if neither endpoint's CVaR_q MEL
            # worsens either (availability cannot silently regress).
            old_a, old_b = self._edge_mels(
                edge_index, state.choices, base_a, base_b
            )
            new_a, new_b = self._edge_mels(
                edge_index, proposal, base_a, base_b
            )
            margin = (
                self._damping.margin_for(edge_index)
                if self._damping is not None
                else 0.0
            )
            if margin > 0.0:
                # Damping rung 1 (hysteresis): while this edge is
                # implicated in a detected cycle, a re-agreement must
                # strictly improve both endpoints by the margin — the
                # marginal seesaw that fuels a two-cycle no longer
                # qualifies, so the contested placement freezes.
                adopted = new_a <= old_a - margin and new_b <= old_b - margin
            else:
                adopted = new_a <= old_a + _EPS and new_b <= old_b + _EPS
            if adopted and self.failure_model is not None:
                old_ra, old_rb = self._edge_cvars(
                    edge_index, state.choices, base_a, base_b
                )
                new_ra, new_rb = self._edge_cvars(
                    edge_index, proposal, base_a, base_b
                )
                adopted = (
                    new_ra <= old_ra + _EPS and new_rb <= old_rb + _EPS
                )
        n_changed = 0
        if adopted:
            n_changed = int(np.count_nonzero(proposal != state.choices))
            state.adopt(proposal)
        state.context = (base_a, base_b)
        state.force_scope = False
        state.fail_streak = 0
        return record(
            scope_size=int(scope.size), ran_session=True, adopted=adopted,
            n_changed=n_changed,
        )
