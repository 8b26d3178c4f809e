#!/usr/bin/env python3
"""The in-text ablations of Sections 3-5, on the quick preset.

Each block varies one design choice and prints what it does to the gain:

* the preference class range P ("increasing the range does not lead to
  noticeable increase in performance" beyond P = 10);
* ordinal (rank-only) against magnitude preference classes;
* the proposal and turn policies of the protocol;
* credits across negotiation epochs (Section 3's future work);
* negotiating in separate groups, and how few flows carry the gain;
* the alternate workload and capacity models of Section 5.2.

The figures themselves come from ``python -m repro distance`` and
``python -m repro bandwidth`` (see FIGURES.md).

Run:  python examples/ablations.py
"""

from dataclasses import replace

import numpy as np

from repro.capacity.provisioning import ProportionalCapacity, UnusedLinkPolicy
from repro.core.agent import NegotiationAgent
from repro.core.credits import CreditLedger, CreditSessionRunner
from repro.core.evaluators import (
    StaticCostEvaluator,
    StaticPreferenceEvaluator,
)
from repro.core.mapping import AutoScaleDeltaMapper, OrdinalMapper
from repro.core.preferences import PreferenceRange
from repro.core.session import NegotiationSession, SessionConfig
from repro.core.strategies import (
    AlternatingTurns,
    BestLocalProposals,
    CoinTossTurns,
    LowerGainTurns,
)
from repro.experiments import ExperimentConfig
from repro.experiments.analysis import gain_concentration_curve
from repro.experiments.bandwidth import run_bandwidth_experiment
from repro.experiments.distance import (
    build_distance_problem,
    run_grouped_ablation,
)
from repro.metrics.distance import percent_gain
from repro.routing.exits import optimal_exit_choices
from repro.topology.dataset import build_default_dataset
from repro.traffic.workloads import IdenticalWorkload, UniformRandomWorkload


def magnitude(p: int = 10):
    return AutoScaleDeltaMapper(PreferenceRange(p), conservative=False,
                                quantile=100.0)


def ordinal():
    return OrdinalMapper(PreferenceRange(10))


def negotiate(problem, mapper_factory, config=None):
    agents = [
        NegotiationAgent(name, StaticCostEvaluator(
            cost, problem.defaults, mapper_factory()
        ))
        for name, cost in (("a", problem.cost_a), ("b", problem.cost_b))
    ]
    session = NegotiationSession(*agents, defaults=problem.defaults,
                                 config=config or SessionConfig())
    return session.run().choices


def total_gain(problem, choices) -> float:
    return percent_gain(problem.totals(problem.defaults)[0],
                        problem.totals(choices)[0])


def credits_across_epochs() -> None:
    """Two mirrored one-sided epochs: without credit the per-session
    win-win rule forfeits both; a small credit line repays the concession."""
    def agent(name, prefs):
        prefs = np.asarray(prefs)
        return NegotiationAgent(name, StaticPreferenceEvaluator(
            prefs, np.zeros(prefs.shape[0], int)
        ))

    epochs = [([[0, -2]], [[0, 5]]), ([[0, 5]], [[0, -2]])]
    print("\n== Credits across epochs (Section 3 future work) ==")
    for limit in (0.0, 2.0):
        runner = CreditSessionRunner(CreditLedger(credit_limit=limit))
        for prefs_a, prefs_b in epochs:
            runner.run_epoch(agent("a", prefs_a), agent("b", prefs_b))
        gain_a, gain_b = runner.total_gains()
        print(f"  credit limit {limit:.0f}: cumulative gains "
              f"({gain_a:.0f}, {gain_b:.0f})")


def alternate_models(config) -> None:
    small = replace(config, max_pairs_bandwidth=8, max_failures_per_pair=1)
    models = {
        "gravity + median (paper)": {},
        "identical weights": {"workload": IdenticalWorkload()},
        "uniform-random weights": {
            "workload": UniformRandomWorkload(seed=small.seed)
        },
        "capacity: unused=max": {"provisioner": ProportionalCapacity(
            unused_policy=UnusedLinkPolicy.MAX)},
        "capacity: unused=mean": {"provisioner": ProportionalCapacity(
            unused_policy=UnusedLinkPolicy.MEAN)},
        "capacity: power-of-two": {"provisioner": ProportionalCapacity(
            round_power_of_two=True)},
    }
    print("\n== Alternate workload and capacity models "
          "(upstream MEL ratio medians) ==")
    for name, kwargs in models.items():
        result = run_bandwidth_experiment(small, **kwargs)
        print(f"  {name:28s}: default/opt "
              f"{result.cdf_ratio('default', 'a').median():5.2f}  "
              f"negotiated/opt "
              f"{result.cdf_ratio('negotiated', 'a').median():5.2f}")


def main() -> None:
    config = ExperimentConfig.quick()
    dataset = build_default_dataset(config.dataset)
    pairs = dataset.pairs(min_interconnections=3, max_pairs=None)
    pairs.sort(key=lambda p: p.isp_a.n_pops() * p.isp_b.n_pops())
    pair = pairs[len(pairs) // 2]  # the mid-size pair
    problem = build_distance_problem(pair)
    optimal = np.concatenate([optimal_exit_choices(problem.table_ab),
                              optimal_exit_choices(problem.table_ba)])

    print(f"== Preference class range P (pair {pair.name}, optimal gain "
          f"{total_gain(problem, optimal):.2f}%) ==")
    for p in (1, 2, 5, 10, 20, 50):
        choices = negotiate(problem, lambda p=p: magnitude(p))
        print(f"  P = {p:3d}: negotiated total gain "
              f"{total_gain(problem, choices):6.2f}%")

    print("\n== Ordinal (rank-only) against magnitude classes ==")
    for name, mapper in (("magnitude", magnitude), ("ordinal", ordinal)):
        print(f"  {name:9s} classes: total gain "
              f"{total_gain(problem, negotiate(problem, mapper)):6.2f}%")

    policies = {
        "alternate + max-combined (paper)": SessionConfig(),
        "alternate + best-local": SessionConfig(
            proposal_policy=BestLocalProposals()
        ),
        "lower-gain turns": SessionConfig(turn_policy=LowerGainTurns()),
        "coin-toss turns": SessionConfig(turn_policy=CoinTossTurns(1)),
        "alternating, B first": SessionConfig(
            turn_policy=AlternatingTurns(first=1)
        ),
    }
    print("\n== Proposal and turn policies ==")
    for name, session_config in policies.items():
        choices = negotiate(problem, magnitude, session_config)
        print(f"  {name:34s}: total gain "
              f"{total_gain(problem, choices):6.2f}%")

    credits_across_epochs()

    print("\n== Negotiating in separate groups ==")
    for n_groups, gain in sorted(
        run_grouped_ablation(pair, [1, 2, 4, 8, 16], config).items()
    ):
        print(f"  {n_groups:3d} group(s): total gain {gain:6.2f}%")

    print("\n== Gain concentration (optimal routing) ==")
    for flows, gain in gain_concentration_curve(problem, optimal, points=6):
        print(f"  moving the best {100 * flows:5.1f}% of flows captures "
              f"{100 * gain:5.1f}% of the gain")

    alternate_models(config)


if __name__ == "__main__":
    main()
