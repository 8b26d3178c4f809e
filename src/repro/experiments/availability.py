"""The availability experiment: probability-weighted MELs under
correlated failures.

The bandwidth experiment (Section 5.2) hypothesizes one interconnection
failure at a time. This experiment asks the TeaVAR question instead: given
per-link failure probabilities (optionally correlated through shared-risk
groups), what MEL does an agreement deliver *in expectation*, at a target
*availability quantile* (VaR/CVaR), and with what probability does it
survive below a load threshold at all?

Per pair:

1. Build the pre-failure context exactly as the bandwidth experiment does
   (gravity flows, early-exit defaults, proportional capacities).
2. Enumerate every failure scenario clearing the model's probability
   cutoff (:func:`~repro.routing.scenarios.enumerate_failure_scenarios`)
   and *batch-derive* all post-failure cost tables from the one
   pre-failure table
   (:func:`~repro.routing.scenarios.derive_scenario_tables`) — thousands
   of scenarios cost thousands of structural column drops, zero routing.
3. For each scenario, score the default re-route and the Nexit-negotiated
   agreement by per-side MEL, negotiating only over the scenario's
   affected-flow scope through the ``subset`` fast path. A scenario that
   severs *every* interconnection leaves every flow unroutable: it is
   reported as such with its demand attributed (``unroutable_demand``) and
   the negotiation session is skipped for that scope — never a crash.
4. Fold the per-scenario MELs into availability metrics: probability-
   weighted expected MEL (conditional on routability), VaR/CVaR at the
   configured quantiles, and a survivability mass (probability of staying
   at or below a load threshold).

**Metric conventions** (see ROADMAP "Failure scenarios & availability"):
enumeration stops at the cutoff, so metrics only see ``coverage`` of the
probability mass. VaR/CVaR assign the uncovered remainder the *worst
enumerated* MEL — a documented lower bound (the true tail can only be
worse) — and ``coverage`` is always reported alongside. Unroutable
scenarios carry ``inf`` MEL, so they dominate tails exactly when their
mass reaches the quantile. ``expected_mel`` conditions on the routable
enumerated mass; ``p_unroutable`` reports the disconnection mass
separately rather than poisoning the mean with infinities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.capacity.loads import link_loads
from repro.capacity.provisioning import ProportionalCapacity
from repro.errors import ConfigurationError
from repro.experiments.bandwidth import (
    _build_context,
    _negotiate_bandwidth_iterated,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import pairs_for
from repro.experiments.runner import (
    ScenarioSpec,
    SweepRunner,
    register_scenario,
)
from repro.geo.population import PopulationModel
from repro.metrics.mel import max_excess_load
from repro.metrics.tail import (
    _tail_distribution,  # noqa: F401  (re-export for the metric tests)
    conditional_value_at_risk,
    expected_mel,
    value_at_risk,
)
from repro.routing.exits import early_exit_choices
from repro.routing.scenarios import (
    FailureModel,
    FailureScenarioSet,
    affected_flow_indices,
    derive_scenario_tables,
    enumerate_failure_scenarios,
)
from repro.topology.interconnect import IspPair
from repro.traffic.gravity import GravityWorkload
from repro.util.cdf import Cdf
from repro.util.validation import (
    check_finite,
    check_quantile,
    check_sequence,
)

__all__ = [
    "ScenarioOutcome",
    "AvailabilityMetrics",
    "PairAvailabilityResult",
    "AvailabilityExperimentResult",
    "expected_mel",
    "value_at_risk",
    "conditional_value_at_risk",
    "run_pair_availability",
    "run_availability_experiment",
]

_METHODS = ("default", "negotiated")
_SIDES = ("a", "b")


@dataclass(frozen=True)
class ScenarioOutcome:
    """MELs of one failure scenario for one pair.

    ``routable=False`` marks a scenario that severed every
    interconnection: all flows are unroutable, their total demand is
    attributed in ``unroutable_demand``, the MELs are ``inf`` and no
    negotiation session ran.
    """

    failed: tuple[int, ...]
    probability: float
    n_affected: int
    routable: bool
    unroutable_demand: float
    mel_default_a: float
    mel_default_b: float
    mel_negotiated_a: float
    mel_negotiated_b: float

    def mel(self, method: str, side: str) -> float:
        if method not in _METHODS or side not in _SIDES:
            raise ConfigurationError(
                f"unknown MEL selector ({method!r}, {side!r}); methods are "
                f"{_METHODS}, sides are {_SIDES}"
            )
        return getattr(self, f"mel_{method}_{side}")


# ---------------------------------------------------------------------------
# Availability metrics — pure functions over (probabilities, MELs,
# coverage), re-exported from repro.metrics.tail where the scenario-aware
# evaluator (core layer) shares them.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AvailabilityMetrics:
    """Availability-aware summary of one (pair, method, side) MEL series."""

    expected: float
    var: tuple[tuple[float, float], ...]  # (quantile, VaR) pairs
    cvar: tuple[tuple[float, float], ...]
    survivability: float  # enumerated mass with MEL <= threshold
    threshold: float
    p_unroutable: float
    coverage: float


@dataclass
class PairAvailabilityResult:
    """All scenario outcomes of one pair, plus the enumeration envelope."""

    pair_name: str
    n_alternatives: int
    n_flows: int
    total_demand: float
    coverage: float
    outcomes: list[ScenarioOutcome] = field(default_factory=list)

    @property
    def n_scenarios(self) -> int:
        return len(self.outcomes)

    @property
    def p_unroutable(self) -> float:
        return float(
            sum(o.probability for o in self.outcomes if not o.routable)
        )

    def _series(self, method: str, side: str) -> tuple[np.ndarray, np.ndarray]:
        probs = np.array([o.probability for o in self.outcomes], dtype=float)
        mels = np.array(
            [o.mel(method, side) for o in self.outcomes], dtype=float
        )
        return probs, mels

    def metrics(
        self,
        method: str = "negotiated",
        side: str = "a",
        quantiles: tuple[float, ...] = (0.95, 0.99),
        threshold: float = 1.0,
    ) -> AvailabilityMetrics:
        probs, mels = self._series(method, side)
        survivable = float(probs[mels <= threshold].sum())
        return AvailabilityMetrics(
            expected=expected_mel(probs, mels),
            var=tuple(
                (q, value_at_risk(probs, mels, self.coverage, q))
                for q in quantiles
            ),
            cvar=tuple(
                (q, conditional_value_at_risk(probs, mels, self.coverage, q))
                for q in quantiles
            ),
            survivability=survivable,
            threshold=threshold,
            p_unroutable=self.p_unroutable,
            coverage=self.coverage,
        )


# ---------------------------------------------------------------------------
# Per-pair evaluation
# ---------------------------------------------------------------------------


def _failure_model(params) -> FailureModel:
    groups = check_sequence(params["shared_risk_groups"], "shared_risk_groups")
    if params["group_probabilities"] is not None:
        check_sequence(params["group_probabilities"], "group_probabilities")
    return FailureModel(
        link_probability=params["link_probability"],
        shared_risk_groups=tuple(
            tuple(check_sequence(group, f"shared-risk group {g}"))
            for g, group in enumerate(groups)
        ),
        group_probabilities=params["group_probabilities"],
        cutoff=params["cutoff"],
        max_failed=params["max_failed"],
    )


def run_pair_availability(
    pair: IspPair,
    config: ExperimentConfig,
    model: FailureModel,
    workload,
    provisioner: ProportionalCapacity | None = None,
) -> PairAvailabilityResult:
    """Score every enumerated failure scenario of one pair.

    Every scenario's post-failure table is derived from the pre-failure
    table in one structural batch (no routing work).
    """
    context = _build_context(pair, workload, provisioner)
    table_pre = context.table_pre
    scenario_set: FailureScenarioSet = enumerate_failure_scenarios(
        pair.n_interconnections(), model
    )
    tables = derive_scenario_tables(table_pre, scenario_set)

    total_demand = float(table_pre.flowset.sizes().sum())
    result = PairAvailabilityResult(
        pair_name=pair.name,
        n_alternatives=table_pre.n_alternatives,
        n_flows=table_pre.n_flows,
        total_demand=total_demand,
        coverage=scenario_set.coverage,
    )

    mel_pre_a = max_excess_load(
        link_loads(table_pre, context.default_pre, "a"), context.caps_a
    )
    mel_pre_b = max_excess_load(
        link_loads(table_pre, context.default_pre, "b"), context.caps_b
    )

    for scenario, table_post in zip(scenario_set.scenarios, tables):
        if table_post is None:
            # Every interconnection severed: no flow has a surviving
            # alternative. Report the disconnection with its demand
            # attributed and skip the session for this scope.
            result.outcomes.append(ScenarioOutcome(
                failed=scenario.failed,
                probability=scenario.probability,
                n_affected=table_pre.n_flows,
                routable=False,
                unroutable_demand=total_demand,
                mel_default_a=math.inf,
                mel_default_b=math.inf,
                mel_negotiated_a=math.inf,
                mel_negotiated_b=math.inf,
            ))
            continue
        if not scenario.failed:
            # The all-up scenario is the pre-failure state itself.
            result.outcomes.append(ScenarioOutcome(
                failed=(),
                probability=scenario.probability,
                n_affected=0,
                routable=True,
                unroutable_demand=0.0,
                mel_default_a=mel_pre_a,
                mel_default_b=mel_pre_b,
                mel_negotiated_a=mel_pre_a,
                mel_negotiated_b=mel_pre_b,
            ))
            continue

        default_post = early_exit_choices(table_post)
        affected_idx = affected_flow_indices(scenario, context.default_pre)
        affected = np.zeros(table_post.n_flows, dtype=bool)
        affected[affected_idx] = True
        base_a = link_loads(table_post, default_post, "a", active=~affected)
        base_b = link_loads(table_post, default_post, "b", active=~affected)
        loads_def_a = link_loads(
            table_post, default_post, "a", active=affected, base=base_a
        )
        loads_def_b = link_loads(
            table_post, default_post, "b", active=affected, base=base_b
        )
        mel_def_a = max_excess_load(loads_def_a, context.caps_a)
        mel_def_b = max_excess_load(loads_def_b, context.caps_b)

        if affected_idx.size == 0:
            # No flow defaulted to a failed column — nothing to re-route.
            mel_neg_a, mel_neg_b = mel_def_a, mel_def_b
        else:
            sub_table = table_post.subset(affected_idx)
            defaults_sub = default_post[affected_idx]
            sub_choices = _negotiate_bandwidth_iterated(
                sub_table, defaults_sub, context.caps_a, context.caps_b,
                base_a, base_b, config,
            )
            full_neg = default_post.copy()
            full_neg[affected_idx] = sub_choices
            mel_neg_a = max_excess_load(
                link_loads(table_post, full_neg, "a"), context.caps_a
            )
            mel_neg_b = max_excess_load(
                link_loads(table_post, full_neg, "b"), context.caps_b
            )

        result.outcomes.append(ScenarioOutcome(
            failed=scenario.failed,
            probability=scenario.probability,
            n_affected=int(affected_idx.size),
            routable=True,
            unroutable_demand=0.0,
            mel_default_a=mel_def_a,
            mel_default_b=mel_def_b,
            mel_negotiated_a=mel_neg_a,
            mel_negotiated_b=mel_neg_b,
        ))
    return result


# ---------------------------------------------------------------------------
# Aggregate result
# ---------------------------------------------------------------------------


@dataclass
class AvailabilityExperimentResult:
    """Per-pair availability results plus dataset-level aggregates."""

    pairs: list[PairAvailabilityResult] = field(default_factory=list)
    quantiles: tuple[float, ...] = (0.95, 0.99)
    threshold: float = 1.0

    def cdf_expected(self, method: str = "negotiated", side: str = "a") -> Cdf:
        values = [
            m.expected
            for m in (
                p.metrics(method, side, self.quantiles, self.threshold)
                for p in self.pairs
            )
            if np.isfinite(m.expected)
        ]
        return Cdf(
            values=tuple(values), label=f"expected MEL {method}/{side.upper()}"
        )

    def cdf_cvar(
        self, quantile: float, method: str = "negotiated", side: str = "a"
    ) -> Cdf:
        values = []
        for p in self.pairs:
            metrics = p.metrics(method, side, (quantile,), self.threshold)
            value = metrics.cvar[0][1]
            if np.isfinite(value):
                values.append(value)
        return Cdf(
            values=tuple(values),
            label=f"CVaR@{quantile} {method}/{side.upper()}",
        )

    def mean_coverage(self) -> float:
        if not self.pairs:
            return 0.0
        return float(np.mean([p.coverage for p in self.pairs]))

    def total_scenarios(self) -> int:
        return sum(p.n_scenarios for p in self.pairs)

    def pairs_at_risk(self) -> int:
        """Pairs with any enumerated total-disconnection scenario."""
        return sum(1 for p in self.pairs if p.p_unroutable > 0.0)


def _availability_summary(result: AvailabilityExperimentResult) -> list:
    lines = [
        ("pairs", str(len(result.pairs))),
        ("scenarios scored", str(result.total_scenarios())),
        ("mean probability coverage", f"{result.mean_coverage():.6f}"),
        ("pairs with disconnection risk", str(result.pairs_at_risk())),
    ]
    cdf = result.cdf_expected("negotiated", "a")
    if cdf.values:
        lines.append(
            ("median expected upstream MEL (negotiated)",
             f"{cdf.median():.3f}")
        )
    for q in result.quantiles:
        cvar_cdf = result.cdf_cvar(q, "negotiated", "a")
        if cvar_cdf.values:
            lines.append(
                (f"median upstream CVaR@{q} (negotiated)",
                 f"{cvar_cdf.median():.3f}")
            )
    return lines


# ---------------------------------------------------------------------------
# Sweep scenario: "availability" (one unit per pair; all its scenarios)
# ---------------------------------------------------------------------------


def _availability_units(config, params):
    # Check the failure model, quantiles and threshold before the dataset
    # is built: the reducer reads the last two only after every unit ran.
    _failure_model(params)
    for q in check_sequence(params["quantiles"], "quantiles"):
        check_quantile(q, "quantile")
    check_finite(params["survivability_threshold"], "survivability_threshold")
    _, pairs = pairs_for(config, 3, config.max_pairs_bandwidth)
    return list(range(len(pairs)))


def _availability_unit(config, params, pair_index):
    dataset, pairs = pairs_for(config, 3, config.max_pairs_bandwidth)
    pair = pairs[pair_index]
    workload = params["workload"] or GravityWorkload(
        PopulationModel(dataset.city_db)
    )
    return run_pair_availability(
        pair,
        config,
        _failure_model(params),
        workload,
        params["provisioner"],
    )


def _availability_reduce(config, params, results):
    return AvailabilityExperimentResult(
        pairs=list(results),
        quantiles=tuple(params["quantiles"]),
        threshold=params["survivability_threshold"],
    )


AVAILABILITY_SCENARIO = register_scenario(ScenarioSpec(
    name="availability",
    enumerate_units=_availability_units,
    run_unit=_availability_unit,
    reduce=_availability_reduce,
    default_params={
        "link_probability": 0.01,
        "shared_risk_groups": (),
        "group_probabilities": None,
        "cutoff": 1e-6,
        "max_failed": None,
        "quantiles": (0.95, 0.99),
        "survivability_threshold": 1.0,
        "workload": None,
        "provisioner": None,
    },
    summarize=_availability_summary,
))


def run_availability_experiment(
    config: ExperimentConfig | None = None,
    workers: int | None = None,
    checkpoint_dir=None,
    resume: bool = False,
    **params,
) -> AvailabilityExperimentResult:
    """Run the availability experiment over the configured dataset.

    Keyword ``params`` override the ``availability`` scenario's
    ``default_params``: the failure model (``link_probability``,
    ``shared_risk_groups``, ``group_probabilities``, ``cutoff``,
    ``max_failed``), the reported ``quantiles`` and
    ``survivability_threshold``, and the ``workload`` / ``provisioner``
    models. Executes through :class:`~repro.experiments.runner.SweepRunner`
    with the same determinism contract as every sweep: serial, any worker
    count, and any interrupt→resume split produce bit-identical results.
    """
    return SweepRunner(
        workers=workers, checkpoint_dir=checkpoint_dir, resume=resume
    ).run(AVAILABILITY_SCENARIO, config, params)
