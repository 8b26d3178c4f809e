"""The distance experiment (Section 5.1: Figures 4, 5, 6 and 10).

For each ISP pair with >= 2 interconnections, flows run between every PoP
pair in both directions, and three routings are compared on the sum of
geographic path lengths:

* default — early-exit by each upstream;
* optimal — per-flow minimum total distance;
* negotiated — Nexit over the union of both directions' flows, preferences
  auto-scaled into [-P, P], no reassignment, early termination.

The runner also evaluates the Figure 5 per-flow baselines, the grouped
ablation, and (for Figure 10) a variant where one ISP cheats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.baselines.flow_strategies import (
    flow_both_better_choices,
    flow_pareto_choices,
)
from repro.baselines.grouped import grouped_negotiation_choices
from repro.core.agent import NegotiationAgent
from repro.core.cheating import CheatingAgent
from repro.core.evaluators import StaticCostEvaluator
from repro.core.mapping import AutoScaleDeltaMapper
from repro.core.preferences import PreferenceRange
from repro.core.session import NegotiationSession, SessionConfig
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import pairs_for
from repro.experiments.runner import (
    ScenarioSpec,
    SweepRunner,
    register_scenario,
)
from repro.metrics.distance import percent_gain
from repro.routing.costs import PairCostTable, build_pair_cost_table
from repro.routing.exits import early_exit_choices, optimal_exit_choices
from repro.routing.flows import build_full_flowset
from repro.routing.paths import IntradomainRouting
from repro.topology.interconnect import IspPair
from repro.util.cdf import Cdf
from repro.util.rng import derive_rng
from repro.util.validation import check_bool, check_int, check_sequence

__all__ = [
    "DistanceProblem",
    "DistancePairResult",
    "DistanceExperimentResult",
    "build_distance_problem",
    "run_distance_pair",
    "run_distance_experiment",
    "run_grouped_ablation",
]


@dataclass(frozen=True)
class DistanceProblem:
    """Both directions of a pair stacked into one negotiation problem.

    The first ``n_ab`` rows are A->B flows, the rest B->A. ``cost_a[f, i]``
    is the distance flow ``f`` travels inside ISP A when using
    interconnection ``i`` (A is upstream for A->B flows and downstream for
    B->A flows), and symmetrically for ``cost_b``.
    """

    pair: IspPair
    table_ab: PairCostTable
    table_ba: PairCostTable
    cost_a: np.ndarray
    cost_b: np.ndarray
    defaults: np.ndarray
    n_ab: int

    @property
    def n_flows(self) -> int:
        return self.cost_a.shape[0]

    def split(self, choices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split stacked choices back into (A->B, B->A) arrays."""
        return choices[: self.n_ab], choices[self.n_ab :]

    def totals(self, choices: np.ndarray) -> tuple[float, float, float]:
        """(total_km, km_inside_a, km_inside_b) for stacked ``choices``.

        The total includes the peering-link lengths; the per-ISP values are
        what each ISP's own optimization criterion sees.
        """
        rows = np.arange(self.n_flows)
        km_a = float(self.cost_a[rows, choices].sum())
        km_b = float(self.cost_b[rows, choices].sum())
        ab, ba = self.split(choices)
        ic_km = float(
            self.table_ab.ic_km[ab].sum() + self.table_ba.ic_km[ba].sum()
        )
        return km_a + km_b + ic_km, km_a, km_b

    def per_flow_km(self, choices: np.ndarray) -> np.ndarray:
        """End-to-end path length per stacked flow."""
        rows = np.arange(self.n_flows)
        ab, ba = self.split(choices)
        ic = np.concatenate(
            [self.table_ab.ic_km[ab], self.table_ba.ic_km[ba]]
        )
        return self.cost_a[rows, choices] + self.cost_b[rows, choices] + ic


def build_distance_problem(
    pair: IspPair,
    routing_a: IntradomainRouting | None = None,
    routing_b: IntradomainRouting | None = None,
) -> DistanceProblem:
    """Build cost tables for both directions and stack them."""
    routing_a = routing_a or IntradomainRouting(pair.isp_a)
    routing_b = routing_b or IntradomainRouting(pair.isp_b)
    flows_ab = build_full_flowset(pair)
    table_ab = build_pair_cost_table(pair, flows_ab, routing_a, routing_b)
    rev = pair.reversed()
    flows_ba = build_full_flowset(rev)
    table_ba = build_pair_cost_table(rev, flows_ba, routing_b, routing_a)

    cost_a = np.vstack([table_ab.up_km, table_ba.down_km])
    cost_b = np.vstack([table_ab.down_km, table_ba.up_km])
    defaults = np.concatenate(
        [early_exit_choices(table_ab), early_exit_choices(table_ba)]
    )
    return DistanceProblem(
        pair=pair,
        table_ab=table_ab,
        table_ba=table_ba,
        cost_a=cost_a,
        cost_b=cost_b,
        defaults=defaults,
        n_ab=len(flows_ab),
    )


@dataclass
class DistancePairResult:
    """Everything Figures 4, 5, 6 and 10 need from one ISP pair."""

    pair_name: str
    n_flows: int
    n_interconnections: int
    # Figure 4a: total % gain over the pair.
    total_gain_optimal: float
    total_gain_negotiated: float
    # Figure 4b: individual % gains.
    gain_a_optimal: float
    gain_b_optimal: float
    gain_a_negotiated: float
    gain_b_negotiated: float
    # Figure 5 baselines.
    total_gain_flow_pareto: float
    total_gain_flow_both_better: float
    # Figure 6: per-flow % gains (pooled across pairs by the aggregator).
    flow_gains_optimal: np.ndarray
    flow_gains_negotiated: np.ndarray
    # In-text claim: fraction of flows moved off the default.
    fraction_non_default: float
    # Figure 10 (filled when cheating is evaluated; cheater = ISP A).
    total_gain_cheating: float | None = None
    gain_cheater: float | None = None
    gain_truthful: float | None = None


def _negotiate(
    problem: DistanceProblem,
    p_range: PreferenceRange,
    cheater: bool = False,
    passes: int = 4,
) -> np.ndarray:
    """Multi-pass Nexit over the stacked problem.

    Section 6 describes negotiation as "a continuous process": ISPs keep
    exchanging updated preferences and "continually find routing patterns
    that benefit both ISPs". We model that as successive passes — each
    pass negotiates the flows still at their default, with preference
    classes re-scaled to the residual deltas, so fine-grained trades that
    rounded to class 0 in an earlier pass become visible later.
    """
    choices = problem.defaults.copy()
    active = np.ones(problem.n_flows, dtype=bool)
    for _ in range(passes):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        defaults_sub = problem.defaults[idx]
        mapper_a = AutoScaleDeltaMapper(p_range, conservative=False, quantile=100.0)
        mapper_b = AutoScaleDeltaMapper(p_range, conservative=False, quantile=100.0)
        ev_a = StaticCostEvaluator(problem.cost_a[idx], defaults_sub, mapper_a)
        ev_b = StaticCostEvaluator(problem.cost_b[idx], defaults_sub, mapper_b)
        agent_b = NegotiationAgent("b", ev_b)
        if cheater:
            agent_a: NegotiationAgent = CheatingAgent(
                "a", ev_a, opponent=agent_b, range_=p_range
            )
        else:
            agent_a = NegotiationAgent("a", ev_a)
        session = NegotiationSession(
            agent_a, agent_b, defaults=defaults_sub, config=SessionConfig()
        )
        outcome = session.run()
        moved = outcome.negotiated
        if not moved.any():
            break
        choices[idx[moved]] = outcome.choices[moved]
        active[idx[moved]] = False
    return choices


def run_distance_pair(
    pair: IspPair,
    config: ExperimentConfig | None = None,
    include_cheating: bool = False,
) -> DistancePairResult:
    """Run default/optimal/negotiated (+ baselines) for one pair."""
    check_bool(include_cheating, "include_cheating")
    config = config or ExperimentConfig()
    p_range = PreferenceRange(config.preference_p)
    problem = build_distance_problem(pair)

    default = problem.defaults
    optimal = np.concatenate(
        [optimal_exit_choices(problem.table_ab), optimal_exit_choices(problem.table_ba)]
    )
    negotiated = _negotiate(problem, p_range)

    rng_seed = derive_rng(config.seed, "distance-baselines", pair.name)
    pareto = flow_pareto_choices(
        problem.cost_a, problem.cost_b, default, seed=rng_seed
    )
    both_better = flow_both_better_choices(
        problem.cost_a, problem.cost_b, default,
        seed=derive_rng(config.seed, "distance-bb", pair.name),
    )

    tot_def, a_def, b_def = problem.totals(default)
    tot_opt, a_opt, b_opt = problem.totals(optimal)
    tot_neg, a_neg, b_neg = problem.totals(negotiated)
    tot_par, _, _ = problem.totals(pareto)
    tot_bb, _, _ = problem.totals(both_better)

    flow_def = problem.per_flow_km(default)
    flow_opt = problem.per_flow_km(optimal)
    flow_neg = problem.per_flow_km(negotiated)
    with np.errstate(divide="ignore", invalid="ignore"):
        gains_opt = np.where(
            flow_def > 0, 100.0 * (flow_def - flow_opt) / flow_def, 0.0
        )
        gains_neg = np.where(
            flow_def > 0, 100.0 * (flow_def - flow_neg) / flow_def, 0.0
        )

    result = DistancePairResult(
        pair_name=pair.name,
        n_flows=problem.n_flows,
        n_interconnections=pair.n_interconnections(),
        total_gain_optimal=percent_gain(tot_def, tot_opt),
        total_gain_negotiated=percent_gain(tot_def, tot_neg),
        gain_a_optimal=percent_gain(a_def, a_opt),
        gain_b_optimal=percent_gain(b_def, b_opt),
        gain_a_negotiated=percent_gain(a_def, a_neg),
        gain_b_negotiated=percent_gain(b_def, b_neg),
        total_gain_flow_pareto=percent_gain(tot_def, tot_par),
        total_gain_flow_both_better=percent_gain(tot_def, tot_bb),
        flow_gains_optimal=gains_opt,
        flow_gains_negotiated=gains_neg,
        fraction_non_default=float((negotiated != default).mean()),
    )

    if include_cheating:
        cheating = _negotiate(problem, p_range, cheater=True)
        tot_cheat, a_cheat, b_cheat = problem.totals(cheating)
        result.total_gain_cheating = percent_gain(tot_def, tot_cheat)
        result.gain_cheater = percent_gain(a_def, a_cheat)
        result.gain_truthful = percent_gain(b_def, b_cheat)
    return result


@dataclass
class DistanceExperimentResult:
    """Aggregated distance-experiment output across all pairs."""

    pairs: list[DistancePairResult] = field(default_factory=list)

    # -- Figure 4a ------------------------------------------------------------

    def cdf_total_gain(self, method: str) -> Cdf:
        attr = {
            "optimal": "total_gain_optimal",
            "negotiated": "total_gain_negotiated",
            "flow_pareto": "total_gain_flow_pareto",
            "flow_both_better": "total_gain_flow_both_better",
            "cheating": "total_gain_cheating",
        }[method]
        values = [getattr(p, attr) for p in self.pairs]
        values = [v for v in values if v is not None]
        return Cdf(values=tuple(values), label=f"total gain ({method})")

    # -- Figure 4b -----------------------------------------------------------

    def cdf_individual_gain(self, method: str) -> Cdf:
        values: list[float] = []
        for p in self.pairs:
            if method == "optimal":
                values.extend([p.gain_a_optimal, p.gain_b_optimal])
            elif method == "negotiated":
                values.extend([p.gain_a_negotiated, p.gain_b_negotiated])
            elif method == "cheater":
                if p.gain_cheater is not None:
                    values.append(p.gain_cheater)
            elif method == "truthful":
                if p.gain_truthful is not None:
                    values.append(p.gain_truthful)
            else:
                raise KeyError(method)
        return Cdf(values=tuple(values), label=f"individual gain ({method})")

    # -- Figure 6 ------------------------------------------------------------

    def cdf_flow_gain(self, method: str) -> Cdf:
        chunks = [
            p.flow_gains_optimal if method == "optimal" else p.flow_gains_negotiated
            for p in self.pairs
        ]
        pooled = np.concatenate(chunks) if chunks else np.zeros(0)
        return Cdf(values=tuple(pooled.tolist()), label=f"flow gain ({method})")

    # -- headline numbers -------------------------------------------------------

    def median_total_gain(self, method: str) -> float:
        return self.cdf_total_gain(method).median()

    def fraction_isps_losing(self, method: str) -> float:
        return self.cdf_individual_gain(method).fraction_below(0.0)

    def fraction_flows_gaining_at_least(self, method: str, threshold: float) -> float:
        return self.cdf_flow_gain(method).fraction_at_least(threshold)


# ---------------------------------------------------------------------------
# Sweep scenario: "distance" (one unit per qualifying ISP pair)
# ---------------------------------------------------------------------------


def _distance_units(config, params):
    _, pairs = pairs_for(config, 2, config.max_pairs_distance)
    return list(range(len(pairs)))


def _distance_unit(config, params, pair_index):
    _, pairs = pairs_for(config, 2, config.max_pairs_distance)
    return run_distance_pair(
        pairs[pair_index], config,
        include_cheating=params["include_cheating"],
    )


def _distance_reduce(config, params, results):
    return DistanceExperimentResult(pairs=list(results))


def _distance_summary(result: DistanceExperimentResult) -> list:
    """The paper's Section 5.1 claims against this result's figures.

    Figures 4, 5 and 6 always; Figure 10 when the sweep ran the cheating
    variant.
    """
    optimal = result.median_total_gain("optimal")
    negotiated = result.median_total_gain("negotiated")
    non_default = (
        sum(p.fraction_non_default for p in result.pairs) / len(result.pairs)
    )
    opt_20 = 100 * result.fraction_flows_gaining_at_least("optimal", 20)
    opt_50 = 100 * result.fraction_flows_gaining_at_least("optimal", 50)
    neg_20 = 100 * result.fraction_flows_gaining_at_least("negotiated", 20)
    claims = [
        ("Figure 4: negotiated routing is very close to the globally "
         "optimal",
         f"median total gain: optimal {optimal:.2f}% vs negotiated "
         f"{negotiated:.2f}%"),
        ("Figure 4: the aggregate gain is small (~4% for half the pairs): "
         "the price of anarchy is low",
         f"median negotiated total gain {negotiated:.2f}%"),
        ("Figure 4: with global optimal roughly a third of ISPs lose, some "
         "by more than 30%",
         f"{100 * result.fraction_isps_losing('optimal'):.0f}% of ISPs "
         f"lose; worst {result.cdf_individual_gain('optimal').min():.1f}%"),
        ("Figure 4: individual ISPs do not lose with negotiated routing",
         f"{100 * result.fraction_isps_losing('negotiated'):.2f}% lose; "
         f"worst {result.cdf_individual_gain('negotiated').min():.3f}%"),
        ("Figure 4: only ~20% of flows need non-default routing for most of "
         "the gain",
         f"mean non-default fraction {non_default:.2f}"),
        ("Figure 5: seemingly reasonable per-flow strategies are not "
         "effective; their cost is close to the default itself",
         "median gains: flow-Pareto "
         f"{result.median_total_gain('flow_pareto'):.2f}%, flow-both-better "
         f"{result.median_total_gain('flow_both_better'):.2f}%, negotiated "
         f"{negotiated:.2f}%"),
        ("Figure 6: 7% of flows gain over 20%, 1% gain over 50% (optimal)",
         f"{opt_20:.1f}% of flows gain >= 20%, {opt_50:.1f}% >= 50%"),
        ("Figure 6: negotiation catches almost all of the flows that need "
         "optimization",
         f"negotiated: {neg_20:.1f}% of flows gain >= 20% (vs optimal "
         f"{opt_20:.1f}%)"),
    ]
    if any(p.total_gain_cheating is not None for p in result.pairs):
        truthful = result.cdf_individual_gain("truthful")
        cheater = result.cdf_individual_gain("cheater")
        cheater_worse = sum(
            1 for p in result.pairs
            if p.gain_cheater is not None
            and p.gain_cheater < p.gain_a_negotiated - 1e-9
        )
        claims += [
            ("Figure 10: cheating significantly reduces the gain of the "
             "truthful ISP",
             f"truthful median gain {truthful.median():.2f}% under cheating "
             f"vs {result.cdf_individual_gain('negotiated').median():.2f}% "
             "when both are truthful"),
            ("Figure 10: cheating also reduces the total gain",
             f"median total: both truthful {negotiated:.2f}% vs one cheater "
             f"{result.median_total_gain('cheating'):.2f}%"),
            ("Figure 10: the cheater may lose compared to being truthful "
             "(premature termination); partially reproduced: the "
             "fine-grained mapping preserves the proposal order, so the "
             "cheater is roughly neutral rather than strictly losing",
             f"cheater median {cheater.median():.2f}%; cheating hurt the "
             f"cheater in {cheater_worse}/{len(result.pairs)} pairs"),
            ("Figure 10: a cheating ISP can never cause the truthful ISP to "
             "lose",
             f"worst truthful gain under cheating: {truthful.min():.3f}%"),
        ]
    return claims


DISTANCE_SCENARIO = register_scenario(ScenarioSpec(
    name="distance",
    enumerate_units=_distance_units,
    run_unit=_distance_unit,
    reduce=_distance_reduce,
    default_params={"include_cheating": False},
    summarize=_distance_summary,
))


def run_distance_experiment(
    config: ExperimentConfig | None = None,
    workers: int | None = None,
    checkpoint_dir=None,
    resume: bool = False,
    **params,
) -> DistanceExperimentResult:
    """Run the Section 5.1 experiment over the configured dataset.

    Keyword ``params`` override the ``distance`` scenario's
    ``default_params`` (``include_cheating``). Executes through the
    unified :class:`~repro.experiments.runner.SweepRunner`: ``workers``
    parallelizes at pair granularity with a shared-dataset warm start, and
    ``checkpoint_dir`` / ``resume`` persist per-pair results for
    restartable sweeps. Each pair is an independent, config-seeded
    computation and results are collected in pair order, so any worker
    count produces identical results.
    """
    return SweepRunner(
        workers=workers, checkpoint_dir=checkpoint_dir, resume=resume
    ).run(DISTANCE_SCENARIO, config, params)


# ---------------------------------------------------------------------------
# Sweep scenario: "grouped" (one unit per group count, shared problem)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=2)
def _memo_distance_problem(pair: IspPair) -> DistanceProblem:
    """Per-process problem memo (identity-keyed; pairs hash by identity).

    The serial grouped sweep passes the same pair object for every group
    count, so the problem is built once. A parallel worker unpickles its own pair copy per payload and rebuilds,
    which is the same determinism story as the dataset sweeps.
    """
    return build_distance_problem(pair)


def _grouped_units(config, params):
    return [
        check_int(n, "n_groups", 1)
        for n in check_sequence(params["group_counts"], "group_counts")
    ]


def _grouped_unit(config, params, n_groups):
    pair = params["pair"]
    p_range = PreferenceRange(config.preference_p)
    problem = _memo_distance_problem(pair)
    tot_def, _, _ = problem.totals(problem.defaults)
    choices = grouped_negotiation_choices(
        problem.cost_a,
        problem.cost_b,
        problem.defaults,
        AutoScaleDeltaMapper(p_range),
        AutoScaleDeltaMapper(p_range),
        n_groups=n_groups,
        seed=derive_rng(config.seed, "grouped", pair.name, n_groups),
    )
    tot, _, _ = problem.totals(choices)
    return n_groups, percent_gain(tot_def, tot)


def _grouped_reduce(config, params, results):
    return dict(results)


def _grouped_summary(gains: dict) -> list:
    return [
        (f"total gain with {n} groups", f"{gain:.2f}%")
        for n, gain in sorted(gains.items())
    ]


GROUPED_SCENARIO = register_scenario(ScenarioSpec(
    name="grouped",
    enumerate_units=_grouped_units,
    run_unit=_grouped_unit,
    reduce=_grouped_reduce,
    default_params={"pair": None, "group_counts": ()},
    summarize=_grouped_summary,
    uses_dataset=False,  # the pair travels in params; no dataset reads
))


def run_grouped_ablation(
    pair: IspPair,
    group_counts: list[int],
    config: ExperimentConfig | None = None,
    workers: int | None = None,
) -> dict[int, float]:
    """Total % gain when negotiating in separate groups (in-text ablation).

    Executes through the sweep runner (one unit per group count; the
    distance problem is built once per process and shared across units).
    """
    config = config or ExperimentConfig()
    return SweepRunner(workers=workers).run(
        GROUPED_SCENARIO, config,
        {"pair": pair, "group_counts": group_counts},
    )
