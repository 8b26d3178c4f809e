"""The bandwidth experiment (Section 5.2: Figures 7, 8, 9 and 11).

Per (pair, failed interconnection) case:

1. Build the gravity-model flow set A->B and route it early-exit over the
   intact pair; provision capacities proportional to those pre-failure
   loads (median fill-in for unused links, upgrade-to-median).
2. Fail one interconnection. Flows whose pre-failure exit was the failed
   one are *affected*; everything else is background traffic.
3. Re-route the affected flows three ways — default (early-exit over the
   surviving interconnections), negotiated (Nexit with load-aware
   preferences, reassigned each 5% of traffic), and optimal (the
   fractional min-max-load LP over both ISPs) — plus, optionally, the
   upstream-unilateral LP (Figure 8), a heterogeneous-objective variant
   (Figure 9: upstream bandwidth / downstream distance), and a cheating
   upstream (Figure 11).
4. Score everything by MEL (max load/capacity over a network's links).

Steps 2 and 4 are one object, :class:`_FailureCase`, which the
availability and oscillation experiments build for their failures too.
From the pair's context, a post-failure table and the failed columns it
derives the post-failure early-exit defaults, the affected flows, their
background loads and the affected flows' sub-table (the negotiation
*scope*), and it scores the default, a negotiated and a fractional
placement by both sides' MELs.

Failure-case fast path: step 2 does no routing work at all — the
post-failure cost table is *derived* from the pair's pre-failure table by
dropping the failed column
(:meth:`~repro.routing.costs.PairCostTable.without_alternative`): dense
arrays sliced, flowset re-bound, and each side's per-PoP paths tuple
shortened by one entry. That is bit-identical to rebuilding the flowset
and table over the failed pair (the equivalence tests compare the two).
Every whole-table placement load (capacities, background, default and
negotiated MELs) is one gather from the table's per-PoP CSR through the
flows' endpoint PoPs (:func:`~repro.capacity.loads.link_loads`), so the
full and post-failure tables never build per-flow link rows.

Negotiation-scope fast path: step 3 negotiates over the affected flows
only, and the scope it hands to the session, the joint/unilateral LPs
and the load kernels is *derived* too — ``table.subset`` row-gathers
the dense arrays and the flowset (an array-backed view) and shares the
post-failure table's paths and compiled per-PoP CSR, which the
sessions' load trackers read through each flow's endpoint. The scope's
flow-level incidence, which the LPs read, is the only one a case builds:
one gather of the scope's rows. Default-routing loads are
likewise derived from the background loads
(``link_loads(..., base=...)``) instead of a second full pass, and a
failure that affects no flow short-circuits to the default MELs without
building the scope, spinning up the LP or a zero-flow session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.capacity.loads import link_loads
from repro.capacity.provisioning import ProportionalCapacity
from repro.core.agent import NegotiationAgent
from repro.core.cheating import CheatingAgent
from repro.core.evaluators import LoadAwareEvaluator, StaticCostEvaluator
from repro.core.mapping import AutoScaleDeltaMapper
from repro.core.preferences import PreferenceRange
from repro.core.session import NegotiationSession, SessionConfig
from repro.core.strategies import ReassignEveryFraction
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import pairs_for
from repro.experiments.runner import (
    ScenarioSpec,
    SweepRunner,
    register_scenario,
)
from repro.geo.cities import default_city_database
from repro.geo.population import PopulationModel
from repro.metrics.mel import max_excess_load
from repro.optimal.bandwidth_lp import fractional_loads, solve_min_max_load_lp
from repro.routing.costs import PairCostTable, build_pair_cost_table
from repro.routing.exits import early_exit_choices
from repro.routing.flows import build_full_flowset
from repro.topology.interconnect import IspPair
from repro.traffic.gravity import GravityWorkload
from repro.util.cdf import Cdf
from repro.util.validation import check_bool, check_int

__all__ = [
    "BandwidthCaseResult",
    "BandwidthExperimentResult",
    "run_bandwidth_case",
    "run_bandwidth_experiment",
    "run_pair_cases",
]

_EPS = 1e-9


@dataclass
class BandwidthCaseResult:
    """MELs for one hypothesized interconnection failure.

    Per-side MELs for each method; ``None`` for variants not requested.
    The ``mel_opt_*`` values come from the joint fractional LP.
    """

    pair_name: str
    failed_city: str
    n_affected: int
    mel_default_a: float
    mel_default_b: float
    mel_negotiated_a: float
    mel_negotiated_b: float
    mel_opt_a: float
    mel_opt_b: float
    mel_opt_joint: float
    mel_unilateral_a: float | None = None
    mel_unilateral_b: float | None = None
    mel_cheat_a: float | None = None
    mel_cheat_b: float | None = None
    # Figure 9 (diverse objectives): upstream MEL + downstream distance gain.
    mel_diverse_a: float | None = None
    diverse_downstream_gain_pct: float | None = None

    @staticmethod
    def _ratio(value: float, reference: float) -> float:
        if reference <= _EPS:
            return 1.0 if value <= _EPS else float("inf")
        return value / reference

    def ratio_default_a(self) -> float:
        return self._ratio(self.mel_default_a, self.mel_opt_a)

    def ratio_default_b(self) -> float:
        return self._ratio(self.mel_default_b, self.mel_opt_b)

    def ratio_negotiated_a(self) -> float:
        return self._ratio(self.mel_negotiated_a, self.mel_opt_a)

    def ratio_negotiated_b(self) -> float:
        return self._ratio(self.mel_negotiated_b, self.mel_opt_b)

    def ratio_unilateral_downstream_vs_default(self) -> float | None:
        """Figure 8's x-axis: downstream MEL, unilateral / default."""
        if self.mel_unilateral_b is None:
            return None
        return self._ratio(self.mel_unilateral_b, self.mel_default_b)


@dataclass(frozen=True)
class _CaseContext:
    """Shared precomputation for all failures of one pair."""

    pair: IspPair
    table_pre: object
    default_pre: np.ndarray
    caps_a: np.ndarray
    caps_b: np.ndarray


def _build_context(
    pair: IspPair,
    workload,
    provisioner: ProportionalCapacity | None = None,
) -> _CaseContext:
    flowset = build_full_flowset(pair, workload.size_fn(pair))
    table_pre = build_pair_cost_table(pair, flowset)
    default_pre = early_exit_choices(table_pre)
    provisioner = provisioner or ProportionalCapacity()
    caps_a = provisioner.capacities(link_loads(table_pre, default_pre, "a"))
    caps_b = provisioner.capacities(link_loads(table_pre, default_pre, "b"))
    return _CaseContext(
        pair=pair,
        table_pre=table_pre,
        default_pre=default_pre,
        caps_a=caps_a,
        caps_b=caps_b,
    )


class _FailureCase:
    """One hypothesized failure of a pair, scored the Section 5.2 way.

    Built from the pair's context, the post-failure ``table`` the caller
    derived and the ``failed`` columns. The flows whose pre-failure exit
    failed are ``affected`` (ascending indices) and get re-routed; every
    other flow keeps its post-failure early-exit default (``defaults``)
    and is background load (``base_a`` / ``base_b``). ``scope``, the
    affected flows' sub-table, is derived on first use, so a failure
    that affects no flow never builds it. The MEL methods score both
    sides and return ``(mel_a, mel_b)``.
    """

    def __init__(
        self, context: _CaseContext, table: PairCostTable,
        failed: tuple[int, ...],
    ):
        self.context = context
        self.table = table
        self.defaults = early_exit_choices(table)
        self._mask = np.isin(context.default_pre, failed)
        self.affected = np.flatnonzero(self._mask)
        self.base_a = link_loads(table, self.defaults, "a", active=~self._mask)
        self.base_b = link_loads(table, self.defaults, "b", active=~self._mask)

    @classmethod
    def of_column(cls, context: _CaseContext, failed_ic_index):
        """The failure of interconnection ``failed_ic_index`` alone.

        The index is checked before the post-failure table is derived.
        """
        k = check_int(failed_ic_index, "failed_ic_index", 0)
        n = context.pair.n_interconnections()
        if k >= n:
            raise ConfigurationError(
                f"failed_ic_index must be in 0..{n - 1} for the pair's {n} "
                f"interconnections, got {k}"
            )
        return cls(context, context.table_pre.without_alternative(k), (k,))

    @cached_property
    def scope(self) -> PairCostTable:
        return self.table.subset(self.affected)

    def score(self, loads) -> tuple[float, float]:
        """Both sides' MELs of the per-link loads ``loads(side, base)``."""
        return (
            max_excess_load(loads("a", self.base_a), self.context.caps_a),
            max_excess_load(loads("b", self.base_b), self.context.caps_b),
        )

    def default_mels(self) -> tuple[float, float]:
        """The early-exit re-route: the affected flows over the background.

        Per link the floats accumulate base-first, then the affected
        flows in order, not in the interleaved order of a full pass.
        """
        return self.score(lambda side, base: link_loads(
            self.table, self.defaults, side, active=self._mask, base=base
        ))

    def mels(self, sub_choices: np.ndarray) -> tuple[float, float]:
        """The full placement that re-routes the scope to ``sub_choices``."""
        full = self.defaults.copy()
        full[self.affected] = sub_choices
        return self.score(lambda side, _: link_loads(self.table, full, side))

    def fractional_mels(self, fractions: np.ndarray) -> tuple[float, float]:
        """An LP's fractional placement of the scope over the background."""
        return self.score(lambda side, base: fractional_loads(
            self.scope, fractions, side, base
        ))


def _negotiate_bandwidth(
    case: _FailureCase,
    defaults_sub: np.ndarray,
    config: ExperimentConfig,
    upstream_cheats: bool = False,
    downstream_distance: bool = False,
) -> np.ndarray:
    """Run a Nexit session over the case's scope; return sub-choices."""
    scope = case.scope
    p_range = PreferenceRange(config.preference_p)
    ev_a = LoadAwareEvaluator(
        scope,
        "a",
        case.context.caps_a,
        defaults_sub,
        base_loads=case.base_a,
        range_=p_range,
        ratio_unit=config.ratio_unit,
    )
    if downstream_distance:
        ev_b = StaticCostEvaluator(
            scope.down_km, defaults_sub, AutoScaleDeltaMapper(p_range)
        )
    else:
        ev_b = LoadAwareEvaluator(
            scope,
            "b",
            case.context.caps_b,
            defaults_sub,
            base_loads=case.base_b,
            range_=p_range,
            ratio_unit=config.ratio_unit,
        )
    agent_b = NegotiationAgent("b", ev_b)
    if upstream_cheats:
        agent_a: NegotiationAgent = CheatingAgent(
            "a", ev_a, opponent=agent_b, range_=p_range
        )
    else:
        agent_a = NegotiationAgent("a", ev_a)
    session = NegotiationSession(
        agent_a,
        agent_b,
        sizes=scope.flowset.sizes(),
        defaults=defaults_sub,
        config=SessionConfig(
            reassignment_policy=ReassignEveryFraction(config.reassign_fraction)
        ),
    )
    return session.run().choices


def _negotiate_bandwidth_iterated(
    case: _FailureCase,
    config: ExperimentConfig,
    max_passes: int = 3,
) -> tuple[float, float]:
    """Continuous renegotiation with Pareto acceptance; the MELs it ends at.

    Section 6: negotiation "will be a continuous process ... used to
    continually find routing patterns that benefit both ISPs". Each pass
    re-runs the protocol with the previous agreement as the default; the
    new agreement is adopted only if it leaves neither ISP worse off (by
    its own network MEL), otherwise renegotiation stops. The gate scores
    the scope over the background loads; the returned MELs score the
    full placement the renegotiation ends at (:meth:`_FailureCase.mels`).
    """

    def scope_mels(choices: np.ndarray) -> tuple[float, float]:
        return case.score(
            lambda side, base: link_loads(case.scope, choices, side) + base
        )

    current = case.defaults[case.affected]
    mel_a, mel_b = scope_mels(current)
    for _ in range(max_passes):
        proposal = _negotiate_bandwidth(case, current, config)
        if np.array_equal(proposal, current):
            break
        new_a, new_b = scope_mels(proposal)
        if new_a > mel_a + 1e-12 or new_b > mel_b + 1e-12:
            break  # one side would veto the re-routed configuration
        current, mel_a, mel_b = proposal, new_a, new_b
    return case.mels(current)


def run_pair_cases(
    pair: IspPair,
    config: ExperimentConfig,
    flags: dict,
    workload,
    provisioner: ProportionalCapacity | None = None,
) -> list["BandwidthCaseResult"]:
    """All failure cases of one pair, sharing the pair's precomputation.

    The single per-pair unit of the experiment sweep — both the serial
    loop and the parallel workers call exactly this, so the two paths
    cannot drift apart. ``flags`` carries the per-case keyword arguments
    of :func:`run_bandwidth_case` (the ``include_*`` variants).
    """
    context = _build_context(pair, workload, provisioner)
    n_fail = pair.n_interconnections()
    if config.max_failures_per_pair is not None:
        n_fail = min(n_fail, config.max_failures_per_pair)
    return [run_bandwidth_case(context, k, config, **flags) for k in range(n_fail)]


def run_bandwidth_case(
    context_or_pair,
    failed_ic_index: int,
    config: ExperimentConfig | None = None,
    workload: GravityWorkload | None = None,
    include_unilateral: bool = False,
    include_cheating: bool = False,
    include_diverse: bool = False,
) -> BandwidthCaseResult:
    """Evaluate one interconnection failure (see module docstring)."""
    for name, flag in (
        ("include_unilateral", include_unilateral),
        ("include_cheating", include_cheating),
        ("include_diverse", include_diverse),
    ):
        check_bool(flag, name)
    config = config or ExperimentConfig()
    if isinstance(context_or_pair, IspPair):
        workload = workload or GravityWorkload(
            PopulationModel(default_city_database())
        )
        context = _build_context(context_or_pair, workload)
    else:
        context = context_or_pair
    pair = context.pair
    if pair.n_interconnections() < 3:
        raise ConfigurationError(
            "bandwidth cases need >= 3 interconnections (2 must survive)"
        )

    case = _FailureCase.of_column(context, failed_ic_index)
    failed_city = pair.interconnections[failed_ic_index].city
    mel_def_a, mel_def_b = case.default_mels()

    if case.affected.size == 0:
        # Degenerate failure: no flow defaulted to the failed
        # interconnection, so there is nothing to re-route — every method
        # keeps the default placement, and the best achievable joint MEL is
        # the base state itself (the LP with no flow variables reduces to
        # ``t >= base_l / cap_l`` over both ISPs' links).
        result = BandwidthCaseResult(
            pair_name=pair.name,
            failed_city=failed_city,
            n_affected=0,
            mel_default_a=mel_def_a,
            mel_default_b=mel_def_b,
            mel_negotiated_a=mel_def_a,
            mel_negotiated_b=mel_def_b,
            mel_opt_a=mel_def_a,
            mel_opt_b=mel_def_b,
            mel_opt_joint=max(mel_def_a, mel_def_b),
        )
        if include_unilateral:
            result.mel_unilateral_a = mel_def_a
            result.mel_unilateral_b = mel_def_b
        if include_cheating:
            result.mel_cheat_a = mel_def_a
            result.mel_cheat_b = mel_def_b
        if include_diverse:
            result.mel_diverse_a = mel_def_a
            result.diverse_downstream_gain_pct = 0.0
        return result

    # Globally optimal (fractional LP over both ISPs).
    lp_args = (
        case.scope, context.caps_a, context.caps_b, case.base_a, case.base_b
    )
    lp = solve_min_max_load_lp(*lp_args, solver=config.lp_solver)
    mel_opt_a, mel_opt_b = case.fractional_mels(lp.fractions)

    # Negotiated routing (continuous renegotiation, Pareto-gated).
    mel_neg_a, mel_neg_b = _negotiate_bandwidth_iterated(case, config)

    result = BandwidthCaseResult(
        pair_name=pair.name,
        failed_city=failed_city,
        n_affected=case.affected.size,
        mel_default_a=mel_def_a,
        mel_default_b=mel_def_b,
        mel_negotiated_a=mel_neg_a,
        mel_negotiated_b=mel_neg_b,
        mel_opt_a=mel_opt_a,
        mel_opt_b=mel_opt_b,
        mel_opt_joint=lp.t,
    )

    if include_unilateral:
        # Figure 8: the upstream load-balances its own links alone.
        uni = solve_min_max_load_lp(
            *lp_args, sides=("a",), solver=config.lp_solver
        )
        result.mel_unilateral_a, result.mel_unilateral_b = (
            case.fractional_mels(uni.fractions)
        )

    defaults_sub = case.defaults[case.affected]
    if include_cheating:
        cheat_sub = _negotiate_bandwidth(
            case, defaults_sub, config, upstream_cheats=True
        )
        result.mel_cheat_a, result.mel_cheat_b = case.mels(cheat_sub)

    if include_diverse:
        div_sub = _negotiate_bandwidth(
            case, defaults_sub, config, downstream_distance=True
        )
        result.mel_diverse_a, _ = case.mels(div_sub)
        # Downstream distance gain over the affected flows.
        rows = np.arange(case.scope.n_flows)
        km_def = float(case.scope.down_km[rows, defaults_sub].sum())
        km_div = float(case.scope.down_km[rows, div_sub].sum())
        result.diverse_downstream_gain_pct = (
            0.0 if km_def <= 0 else 100.0 * (km_def - km_div) / km_def
        )

    return result


@dataclass
class BandwidthExperimentResult:
    """Aggregated failure cases (Figures 7, 8, 9, 11 series)."""

    cases: list[BandwidthCaseResult] = field(default_factory=list)

    def _cdf(self, values: list[float], label: str) -> Cdf:
        finite = [v for v in values if v is not None and np.isfinite(v)]
        return Cdf(values=tuple(finite), label=label)

    # Figure 7 panels.
    def cdf_ratio(self, method: str, side: str) -> Cdf:
        getter = {
            ("default", "a"): lambda c: c.ratio_default_a(),
            ("default", "b"): lambda c: c.ratio_default_b(),
            ("negotiated", "a"): lambda c: c.ratio_negotiated_a(),
            ("negotiated", "b"): lambda c: c.ratio_negotiated_b(),
            ("cheating", "a"): lambda c: (
                None if c.mel_cheat_a is None
                else c._ratio(c.mel_cheat_a, c.mel_opt_a)
            ),
            ("cheating", "b"): lambda c: (
                None if c.mel_cheat_b is None
                else c._ratio(c.mel_cheat_b, c.mel_opt_b)
            ),
            ("diverse", "a"): lambda c: (
                None if c.mel_diverse_a is None
                else c._ratio(c.mel_diverse_a, c.mel_opt_a)
            ),
        }[(method, side)]
        return self._cdf(
            [getter(c) for c in self.cases],
            label=f"MEL ratio {method}/{side.upper()}",
        )

    # Figure 8.
    def cdf_unilateral_downstream(self) -> Cdf:
        return self._cdf(
            [c.ratio_unilateral_downstream_vs_default() for c in self.cases],
            label="downstream MEL: unilateral/default",
        )

    # Figure 9 right panel.
    def cdf_diverse_downstream_gain(self) -> Cdf:
        return self._cdf(
            [c.diverse_downstream_gain_pct for c in self.cases],
            label="downstream distance gain %",
        )


# ---------------------------------------------------------------------------
# Sweep scenario: "bandwidth" (one unit per pair; all its failure cases)
# ---------------------------------------------------------------------------

_FLAG_KEYS = ("include_unilateral", "include_cheating", "include_diverse")


def _bandwidth_units(config, params):
    _, pairs = pairs_for(config, 3, config.max_pairs_bandwidth)
    return list(range(len(pairs)))


def _bandwidth_unit(config, params, pair_index):
    dataset, pairs = pairs_for(config, 3, config.max_pairs_bandwidth)
    pair = pairs[pair_index]
    workload = params["workload"] or GravityWorkload(
        PopulationModel(dataset.city_db)
    )
    flags = {key: params[key] for key in _FLAG_KEYS}
    return run_pair_cases(pair, config, flags, workload, params["provisioner"])


def _bandwidth_reduce(config, params, results):
    result = BandwidthExperimentResult()
    for cases in results:
        result.cases.extend(cases)
    return result


def _bandwidth_summary(result: BandwidthExperimentResult) -> list:
    """The paper's Section 5.2-5.4 claims against this result's figures.

    Figure 7 always; Figures 8, 9 and 11 when the sweep ran the
    unilateral, diverse or cheating variant.
    """
    def_a = result.cdf_ratio("default", "a")
    neg_a = result.cdf_ratio("negotiated", "a")
    def_b = result.cdf_ratio("default", "b")
    claims = [
        ("Figure 7: the default MEL is often significantly larger than "
         "optimal (ratio > 2 for half the upstream cases in the paper)",
         f"upstream default/optimal: median {def_a.median():.2f}, ratio >= 2 "
         f"in {100 * def_a.fraction_at_least(2.0):.0f}% of cases, >= 5 in "
         f"{100 * def_a.fraction_at_least(5.0):.0f}%"),
        ("Figure 7: negotiated routing is very close to optimal (most MEL "
         "ratios are one)",
         f"upstream negotiated/optimal: median {neg_a.median():.2f}, within "
         f"1.1x in {100 * neg_a.fraction_at_most(1.1):.0f}% of cases"),
        ("Figure 7: the overload tendency is more pronounced for the "
         "upstream",
         f"median default ratio: upstream {def_a.median():.2f} vs downstream "
         f"{def_b.median():.2f}"),
    ]
    if any(c.mel_unilateral_b is not None for c in result.cases):
        unilateral = result.cdf_unilateral_downstream()
        claims += [
            ("Figure 8: the result is unpredictable: sometimes helps the "
             "downstream (left end), sometimes hurts it (right end)",
             f"helps in {100 * unilateral.fraction_below(1.0):.0f}% of "
             "cases, hurts in "
             f"{100 * (1 - unilateral.fraction_at_most(1.0)):.0f}%, max "
             f"ratio {unilateral.max():.2f}"),
            ("Figure 8: in 10% of the paper's cases the MEL more than "
             "doubles",
             f"ratio >= 2 in {100 * unilateral.fraction_at_least(2.0):.1f}% "
             "of our cases"),
        ]
    if any(c.mel_diverse_a is not None for c in result.cases):
        gain_b = result.cdf_diverse_downstream_gain()
        claims += [
            ("Figure 9: the upstream can effectively control overload",
             "upstream MEL ratio with diverse negotiation: median "
             f"{result.cdf_ratio('diverse', 'a').median():.2f} (default "
             f"{def_a.median():.2f})"),
            ("Figure 9: the downstream can significantly reduce the "
             "distance traffic traverses in its network",
             f"downstream distance gain: median {gain_b.median():.1f}%, p90 "
             f"{gain_b.percentile(90):.1f}%"),
        ]
    if any(c.mel_cheat_a is not None for c in result.cases):
        claims += [
            ("Figure 11: cheating reduces the benefit for the truthful "
             "downstream",
             "downstream median MEL ratio: truthful negotiation "
             f"{result.cdf_ratio('negotiated', 'b').median():.2f} vs under "
             f"cheating {result.cdf_ratio('cheating', 'b').median():.2f} "
             f"(default {def_b.median():.2f})"),
            ("Figure 11: cheating also reduces the benefit for the cheating "
             "upstream (it does not beat honest negotiation)",
             f"upstream median MEL ratio: truthful {neg_a.median():.2f} vs "
             f"cheating {result.cdf_ratio('cheating', 'a').median():.2f}"),
        ]
    return claims


BANDWIDTH_SCENARIO = register_scenario(ScenarioSpec(
    name="bandwidth",
    enumerate_units=_bandwidth_units,
    run_unit=_bandwidth_unit,
    reduce=_bandwidth_reduce,
    default_params={
        "include_unilateral": False,
        "include_cheating": False,
        "include_diverse": False,
        "workload": None,
        "provisioner": None,
    },
    summarize=_bandwidth_summary,
))


def run_bandwidth_experiment(
    config: ExperimentConfig | None = None,
    workers: int | None = None,
    checkpoint_dir=None,
    resume: bool = False,
    **params,
) -> BandwidthExperimentResult:
    """Run the Section 5.2 experiment over the configured dataset.

    Keyword ``params`` override the ``bandwidth`` scenario's
    ``default_params``: the three ``include_*`` variants, ``workload`` and
    ``provisioner``. The last two default to the paper's primary models
    (gravity traffic, capacity proportional to pre-failure load with
    median fill-in); pass alternates for the robustness sweeps.

    Executes through the unified :class:`~repro.experiments.runner.SweepRunner`:
    ``workers`` parallelizes at pair
    granularity (each worker handles all failure cases of its pair,
    sharing the pair's precomputed context) with a shared-dataset warm
    start, and ``checkpoint_dir`` / ``resume`` persist per-pair shards for
    restartable sweeps. Results are collected in (pair, failure) order, so
    any worker count produces identical results; custom ``workload`` /
    ``provisioner`` objects must be picklable when ``workers > 1``.
    """
    return SweepRunner(
        workers=workers, checkpoint_dir=checkpoint_dir, resume=resume
    ).run(BANDWIDTH_SCENARIO, config, params)
