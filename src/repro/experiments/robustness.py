"""The robust-negotiation sweep (``robust_negotiation`` scenario).

Answers the PR 7 question end to end: *does negotiating on CVaR-blended
preferences actually buy tail-risk protection once sessions crash, stall
and lose links?* Each unit runs one full faulted multi-ISP coordination —
a seeded :class:`~repro.core.faults.FaultPlan` injected into
:class:`~repro.core.multi_session.MultiSessionCoordinator` — in one of
two agent modes over the *same* failure model and fault plan:

* ``"nominal"`` — ``tail_weight=0``: the agents score candidates exactly
  like :class:`~repro.core.evaluators.LoadAwareEvaluator` (the strict
  short-circuit), blind to the failure distribution.
* ``"cvar"`` — ``tail_weight=λ``: the agents negotiate on the blended
  ``(1-λ)·nominal + λ·CVaR_q`` objective of
  :class:`~repro.core.scenario_aware.ScenarioAwareEvaluator`.

Everything else — topology, fault plan, quarantine knobs, the (nominal,
CVaR) adoption gate — is held identical, so the per-seed mode pairing is
a controlled comparison of the preference objective alone. The reducer
pairs modes per fault seed and reports the expected/VaR_q/CVaR_q MEL
deltas (CVaR-aware minus nominal; negative = tail improvement) alongside
the nominal-MEL regret, all assessed with the coordinator's
:meth:`~repro.core.multi_session.MultiSessionCoordinator.risk_report`
under the operational re-route model.

Units are pure functions of ``(config, params, unit)`` — the coordination
is deterministic and replayable by construction (seeded plans, seeded
topology) — so the scenario runs unchanged under any worker count,
checkpointing and resume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.internetwork import _SHAPE_DEFAULTS, _internetwork_for
from repro.experiments.runner import (
    ScenarioSpec,
    SweepRunner,
    register_scenario,
)
from repro.util.validation import check_int, check_sequence

__all__ = [
    "RobustUnitRecord",
    "RobustnessExperimentResult",
    "run_robustness_experiment",
    "ROBUSTNESS_SCENARIO",
]

_MODES = ("nominal", "cvar")

_ROBUSTNESS_DEFAULTS: dict[str, Any] = {
    # Internetwork shape (shared with the multi_isp scenario's builder).
    **_SHAPE_DEFAULTS,
    "n_isps": 3,
    # Coordination.
    "rounds": 6,
    "order": "round_robin",
    "transit_scale": 0.0,
    # Failure distribution the agents plan against (and are assessed on).
    "link_probability": 0.05,
    "cutoff": 1e-4,
    "max_failed": 2,
    "tail_weight": 0.5,
    "tail_quantile": 0.9,
    # Injected fault plans: one coordination per (seed, mode).
    "fault_seeds": (0, 1, 2),
    "abort_rate": 0.15,
    "deadline_rate": 0.1,
    "link_failure_rate": 0.1,
    "deadline_rounds": 2,
}


@dataclass(frozen=True)
class RobustUnitRecord:
    """One faulted coordination run: one (fault seed, agent mode) cell."""

    fault_seed: int
    mode: str
    stop_reason: str
    converged: bool
    n_rounds: int
    n_faulted_slots: int
    n_rerouted: int
    initial_mel: float
    final_mel: float
    #: Worst (max over edges and endpoints) tail metrics of the final
    #: placements under the failure distribution.
    expected: float
    var: float
    cvar: float


@dataclass
class RobustnessExperimentResult:
    """Per-seed nominal-vs-CVaR pairing of faulted coordinations."""

    tail_quantile: float
    records: list[RobustUnitRecord] = field(default_factory=list)

    def by_mode(self, mode: str) -> list[RobustUnitRecord]:
        if mode not in _MODES:
            raise ConfigurationError(
                f"mode must be one of {_MODES}, got {mode!r}"
            )
        chosen = [r for r in self.records if r.mode == mode]
        chosen.sort(key=lambda r: r.fault_seed)
        return chosen

    def paired(self) -> list[tuple[RobustUnitRecord, RobustUnitRecord]]:
        """(nominal, cvar) record pairs, one per fault seed."""
        nominal = {r.fault_seed: r for r in self.by_mode("nominal")}
        cvar = {r.fault_seed: r for r in self.by_mode("cvar")}
        if sorted(nominal) != sorted(cvar):
            raise ConfigurationError(
                "robustness sweep is missing a mode for some fault seed: "
                f"nominal has {sorted(nominal)}, cvar has {sorted(cvar)}"
            )
        return [(nominal[seed], cvar[seed]) for seed in sorted(nominal)]

    def mean_delta(self, metric: str) -> float:
        """Mean (cvar-mode − nominal-mode) of a tail metric over seeds.

        Negative = the CVaR-aware agents ended with a better (lower)
        worst-edge tail metric than the nominal agents under the same
        faults.
        """
        if metric not in ("expected", "var", "cvar", "final_mel"):
            raise ConfigurationError(
                f"unknown robustness metric {metric!r}"
            )
        pairs = self.paired()
        deltas = [
            getattr(c, metric) - getattr(n, metric) for n, c in pairs
        ]
        return sum(deltas) / len(deltas)

    def converged_counts(self) -> dict[str, int]:
        return {
            mode: sum(r.converged for r in self.by_mode(mode))
            for mode in _MODES
        }


def _robustness_units(config, params):
    seeds = tuple(
        check_int(seed, "fault seed", 0)
        for seed in check_sequence(params["fault_seeds"], "fault_seeds")
    )
    if not seeds:
        raise ConfigurationError(
            "robust_negotiation needs at least one fault seed"
        )
    return [(seed, mode) for seed in seeds for mode in _MODES]


def _robustness_unit(config, params, unit):
    from repro.core.faults import FaultPlan
    from repro.core.multi_session import MultiSessionCoordinator
    from repro.routing.scenarios import FailureModel

    fault_seed, mode = unit
    net = _internetwork_for(config, params)
    plan = FaultPlan.seeded(
        fault_seed,
        n_edges=net.n_edges(),
        n_rounds=params["rounds"],
        n_alternatives=[e.n_interconnections() for e in net.edges],
        abort_rate=params["abort_rate"],
        deadline_rate=params["deadline_rate"],
        link_failure_rate=params["link_failure_rate"],
        deadline_rounds=params["deadline_rounds"],
    )
    model = FailureModel(
        link_probability=params["link_probability"],
        cutoff=params["cutoff"],
        max_failed=params["max_failed"],
    )
    coordinator = MultiSessionCoordinator(
        net,
        config=config,
        order=params["order"],
        max_rounds=params["rounds"],
        transit_scale=params["transit_scale"],
        fault_plan=plan,
        failure_model=model,
        tail_weight=0.0 if mode == "nominal" else params["tail_weight"],
        tail_quantile=params["tail_quantile"],
    )
    result = coordinator.run()
    report = coordinator.risk_report()
    worst = {
        metric: max(max(entry[metric]) for entry in report)
        for metric in ("expected", "var", "cvar")
    }
    records = result.records()
    return RobustUnitRecord(
        fault_seed=fault_seed,
        mode=mode,
        stop_reason=result.stop_reason,
        converged=result.converged,
        n_rounds=result.n_rounds(),
        n_faulted_slots=sum(r.fault is not None for r in records),
        n_rerouted=sum(r.n_rerouted for r in records),
        initial_mel=result.initial_mel,
        final_mel=result.final_mel,
        expected=worst["expected"],
        var=worst["var"],
        cvar=worst["cvar"],
    )


def _robustness_reduce(config, params, results):
    return RobustnessExperimentResult(
        tail_quantile=params["tail_quantile"],
        records=list(results),
    )


def _robustness_summary(result: RobustnessExperimentResult) -> list:
    q = result.tail_quantile
    converged = result.converged_counts()
    n_seeds = len(result.paired())
    nominal = result.by_mode("nominal")
    cvar = result.by_mode("cvar")
    mean = lambda values: sum(values) / len(values)  # noqa: E731
    return [
        ("fault seeds x modes", f"{n_seeds} x {len(_MODES)}"),
        ("converged (nominal / cvar)",
         f"{converged['nominal']}/{n_seeds} / {converged['cvar']}/{n_seeds}"),
        ("faulted slots per run (nominal / cvar)",
         f"{mean([r.n_faulted_slots for r in nominal]):.1f} / "
         f"{mean([r.n_faulted_slots for r in cvar]):.1f}"),
        (f"worst-edge CVaR@{q} MEL (nominal -> cvar)",
         f"{mean([r.cvar for r in nominal]):.4f} -> "
         f"{mean([r.cvar for r in cvar]):.4f}"),
        ("mean delta expected MEL (cvar - nominal)",
         f"{result.mean_delta('expected'):+.4f}"),
        (f"mean delta VaR@{q} MEL", f"{result.mean_delta('var'):+.4f}"),
        (f"mean delta CVaR@{q} MEL", f"{result.mean_delta('cvar'):+.4f}"),
        ("mean nominal-MEL regret (cvar - nominal)",
         f"{result.mean_delta('final_mel'):+.4f}"),
    ]


ROBUSTNESS_SCENARIO = register_scenario(ScenarioSpec(
    name="robust_negotiation",
    enumerate_units=_robustness_units,
    run_unit=_robustness_unit,
    reduce=_robustness_reduce,
    default_params=_ROBUSTNESS_DEFAULTS,
    summarize=_robustness_summary,
    uses_dataset=False,
))


def run_robustness_experiment(
    config: ExperimentConfig | None = None,
    workers: int | None = None,
    checkpoint_dir=None,
    resume: bool = False,
    **params,
) -> RobustnessExperimentResult:
    """Run the robust-negotiation sweep through the unified runner.

    Keyword ``params`` override :data:`_ROBUSTNESS_DEFAULTS` (fault rates,
    tail blend, internetwork shape, ...). Units are (fault seed, agent
    mode) cells; any worker count, interrupt/resume split, or serial run
    produces bit-identical results.
    """
    return SweepRunner(
        workers=workers, checkpoint_dir=checkpoint_dir, resume=resume
    ).run(ROBUSTNESS_SCENARIO, config, params)
