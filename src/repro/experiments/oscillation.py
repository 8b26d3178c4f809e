"""The cycle of influence: routing oscillation without coordination.

Section 2.2 (adapted from a real incident that "lasted for two days"):
after a failure, ISP-A re-routes by early-exit and congests ISP-B; ISP-B
shifts traffic with MEDs and congests ISP-A; ISP-A shifts it back; repeat.
"The joint agreement [of negotiation] precludes the possibility of a cycle
of influence by design."

:func:`simulate_best_response` plays this out mechanically: the two ISPs
alternate unilateral best-response moves (each re-routes one flow to reduce
its own MEL, using the control BGP gives it), and the simulator reports
whether the system reaches a fixed point or revisits a state — an
oscillation. On the Figure 2 scenario it oscillates exactly as the paper
describes; a Nexit agreement is a fixed point by construction.

:func:`run_oscillation_experiment` sweeps the simulator over the dataset
(one best-response trajectory per qualifying pair's first-interconnection
failure) through the unified sweep runner, quantifying how often
uncoordinated reactions cycle versus stabilize. Each failure is the
bandwidth experiment's failure case
(:class:`~repro.experiments.bandwidth._FailureCase`): the affected flows
move inside its scope, everything else is background traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.capacity.loads import link_loads
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import pairs_for
from repro.experiments.runner import (
    ScenarioSpec,
    SweepRunner,
    register_scenario,
)
from repro.metrics.mel import max_excess_load
from repro.routing.costs import PairCostTable
from repro.util.validation import check_int

__all__ = [
    "BestResponseStep",
    "OscillationResult",
    "simulate_best_response",
    "OscillationPairResult",
    "OscillationExperimentResult",
    "run_oscillation_pair",
    "run_oscillation_experiment",
]


@dataclass(frozen=True)
class BestResponseStep:
    """One unilateral reaction.

    Attributes:
        actor: 0 = ISP A (upstream, controls its exit), 1 = ISP B
            (downstream, controls entry via MEDs).
        flow_index: the flow the actor moved.
        alternative: where it moved the flow.
        mel_a / mel_b: the resulting per-ISP MELs.
    """

    actor: int
    flow_index: int
    alternative: int
    mel_a: float
    mel_b: float


@dataclass
class OscillationResult:
    """Outcome of a best-response simulation."""

    steps: list[BestResponseStep] = field(default_factory=list)
    cycled: bool = False
    stable: bool = False
    final_choices: np.ndarray | None = None

    @property
    def n_steps(self) -> int:
        return len(self.steps)


def _side_mel(table, choices, side, base, caps) -> float:
    return max_excess_load(link_loads(table, choices, side) + base, caps)


def _best_unilateral_move(
    table: PairCostTable,
    choices: np.ndarray,
    side: str,
    base: np.ndarray,
    caps: np.ndarray,
) -> tuple[int, int] | None:
    """The move that most reduces this side's MEL, or None if none helps."""
    current = _side_mel(table, choices, side, base, caps)
    best: tuple[int, int] | None = None
    best_mel = current - 1e-12
    for f in range(table.n_flows):
        for i in range(table.n_alternatives):
            if i == choices[f]:
                continue
            trial = choices.copy()
            trial[f] = i
            mel = _side_mel(table, trial, side, base, caps)
            if mel < best_mel:
                best_mel = mel
                best = (f, i)
    return best


def simulate_best_response(
    table: PairCostTable,
    defaults: np.ndarray,
    caps_a: np.ndarray,
    caps_b: np.ndarray,
    base_a: np.ndarray | None = None,
    base_b: np.ndarray | None = None,
    max_steps: int = 50,
) -> OscillationResult:
    """Alternate unilateral best responses until stable, cycling, or bored.

    Each turn, the acting ISP moves the single flow that most reduces its
    own MEL (ignoring the other ISP entirely — the selfish, local-view
    behaviour of Section 2). A revisited (actor, placement) state is an
    oscillation; a double pass with no profitable move is stability.
    """
    check_int(max_steps, "max_steps", 1)
    n_links_a = table.pair.isp_a.n_links()
    n_links_b = table.pair.isp_b.n_links()
    base_a = np.zeros(n_links_a) if base_a is None else np.asarray(base_a, float)
    base_b = np.zeros(n_links_b) if base_b is None else np.asarray(base_b, float)

    choices = np.asarray(defaults, dtype=np.intp).copy()
    result = OscillationResult()
    seen: set[tuple[int, tuple[int, ...]]] = set()
    actor = 0
    passes_without_move = 0

    for _ in range(max_steps):
        state = (actor, tuple(int(c) for c in choices))
        if state in seen:
            result.cycled = True
            break
        seen.add(state)

        side = "a" if actor == 0 else "b"
        base = base_a if actor == 0 else base_b
        caps = caps_a if actor == 0 else caps_b
        move = _best_unilateral_move(table, choices, side, base, caps)
        if move is None:
            passes_without_move += 1
            if passes_without_move >= 2:
                result.stable = True
                break
        else:
            passes_without_move = 0
            flow_index, alternative = move
            choices[flow_index] = alternative
            result.steps.append(
                BestResponseStep(
                    actor=actor,
                    flow_index=flow_index,
                    alternative=alternative,
                    mel_a=_side_mel(table, choices, "a", base_a, caps_a),
                    mel_b=_side_mel(table, choices, "b", base_b, caps_b),
                )
            )
        actor = 1 - actor

    result.final_choices = choices
    return result


# ---------------------------------------------------------------------------
# Sweep scenario: "oscillation" (one trajectory per qualifying pair)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OscillationPairResult:
    """One pair's post-failure best-response trajectory, summarized."""

    pair_name: str
    failed_city: str
    n_affected: int
    n_steps: int
    cycled: bool
    stable: bool


@dataclass
class OscillationExperimentResult:
    """Aggregated best-response trajectories across the dataset."""

    pairs: list[OscillationPairResult] = field(default_factory=list)

    def fraction_cycled(self) -> float:
        if not self.pairs:
            return 0.0
        return sum(p.cycled for p in self.pairs) / len(self.pairs)

    def fraction_stable(self) -> float:
        if not self.pairs:
            return 0.0
        return sum(p.stable for p in self.pairs) / len(self.pairs)

    def median_steps(self) -> float:
        if not self.pairs:
            return 0.0
        return float(np.median([p.n_steps for p in self.pairs]))


def run_oscillation_pair(
    pair,
    config: ExperimentConfig | None = None,
    workload=None,
    failed_ic_index: int = 0,
    max_steps: int = 12,
) -> OscillationPairResult:
    """Simulate uncoordinated reactions to one pair's failure.

    The failure is the bandwidth experiment's failure case
    (:class:`~repro.experiments.bandwidth._FailureCase`, over the same
    gravity workload and proportional capacities): the flows whose
    pre-failure exit was the failed interconnection re-route by
    best-response moves inside the case's scope while everything else
    stays put as background load. A failure that affects no flow is
    trivially stable in 0 steps.
    """
    from repro.experiments.bandwidth import _build_context, _FailureCase
    from repro.geo.population import PopulationModel
    from repro.traffic.gravity import GravityWorkload

    check_int(max_steps, "max_steps", 1)
    config = config or ExperimentConfig()
    if workload is None:
        from repro.geo.cities import default_city_database

        workload = GravityWorkload(PopulationModel(default_city_database()))
    context = _build_context(pair, workload)
    case = _FailureCase.of_column(context, failed_ic_index)
    failed_city = pair.interconnections[failed_ic_index].city
    if case.affected.size == 0:
        return OscillationPairResult(
            pair_name=pair.name, failed_city=failed_city, n_affected=0,
            n_steps=0, cycled=False, stable=True,
        )
    sim = simulate_best_response(
        case.scope,
        case.defaults[case.affected],
        context.caps_a,
        context.caps_b,
        case.base_a,
        case.base_b,
        max_steps=max_steps,
    )
    return OscillationPairResult(
        pair_name=pair.name,
        failed_city=failed_city,
        n_affected=case.affected.size,
        n_steps=sim.n_steps,
        cycled=sim.cycled,
        stable=sim.stable,
    )


def _oscillation_units(config, params):
    _, pairs = pairs_for(config, 3, config.max_pairs_bandwidth)
    return list(range(len(pairs)))


def _oscillation_unit(config, params, pair_index):
    from repro.geo.population import PopulationModel
    from repro.traffic.gravity import GravityWorkload

    dataset, pairs = pairs_for(config, 3, config.max_pairs_bandwidth)
    workload = params["workload"] or GravityWorkload(
        PopulationModel(dataset.city_db)
    )
    return run_oscillation_pair(
        pairs[pair_index], config, workload, max_steps=params["max_steps"]
    )


def _oscillation_reduce(config, params, results):
    return OscillationExperimentResult(pairs=list(results))


def _oscillation_summary(result: OscillationExperimentResult) -> list:
    return [
        ("pairs", str(len(result.pairs))),
        ("fraction cycled", f"{result.fraction_cycled():.2f}"),
        ("fraction stable", f"{result.fraction_stable():.2f}"),
        ("median best-response steps", f"{result.median_steps():.1f}"),
    ]


OSCILLATION_SCENARIO = register_scenario(ScenarioSpec(
    name="oscillation",
    enumerate_units=_oscillation_units,
    run_unit=_oscillation_unit,
    reduce=_oscillation_reduce,
    default_params={"workload": None, "max_steps": 12},
    summarize=_oscillation_summary,
))


def run_oscillation_experiment(
    config: ExperimentConfig | None = None,
    workers: int | None = None,
    checkpoint_dir=None,
    resume: bool = False,
    **params,
) -> OscillationExperimentResult:
    """Sweep :func:`run_oscillation_pair` over the dataset's pairs.

    Keyword ``params`` override the ``oscillation`` scenario's
    ``default_params`` (``max_steps``, ``workload``). Runs through the
    unified sweep runner: pair-granular parallelism with a shared-dataset
    warm start, optional checkpoint/resume, and worker-count invariance
    (each trajectory is a pure function of the config).
    """
    return SweepRunner(
        workers=workers, checkpoint_dir=checkpoint_dir, resume=resume
    ).run(OSCILLATION_SCENARIO, config, params)
