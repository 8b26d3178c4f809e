"""Experiment harness: one runner per figure of the paper's evaluation."""

from repro.experiments.availability import (
    AvailabilityExperimentResult,
    AvailabilityMetrics,
    PairAvailabilityResult,
    ScenarioOutcome,
    run_availability_experiment,
    run_pair_availability,
)
from repro.experiments.bandwidth import (
    BandwidthCaseResult,
    BandwidthExperimentResult,
    run_bandwidth_case,
    run_bandwidth_experiment,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.distance import (
    DistanceExperimentResult,
    DistancePairResult,
    run_distance_experiment,
    run_distance_pair,
    run_grouped_ablation,
)
from repro.experiments.internetwork import (
    MultiIspExperimentResult,
    MultiIspUnitRecord,
    run_multi_isp,
    run_multi_isp_experiment,
)
from repro.experiments.extensions import (
    DestinationExperimentResult,
    DestinationPairResult,
    build_destination_problem,
    run_destination_based_pair,
    run_destination_experiment,
)
from repro.experiments.oscillation import (
    OscillationExperimentResult,
    OscillationPairResult,
    OscillationResult,
    run_oscillation_experiment,
    run_oscillation_pair,
    simulate_best_response,
)
from repro.experiments.report import format_claims
from repro.experiments.runner import (
    CheckpointStore,
    ScenarioSpec,
    SweepRunner,
    scenario_names,
)

__all__ = [
    "ExperimentConfig",
    "DistancePairResult",
    "DistanceExperimentResult",
    "run_distance_pair",
    "run_distance_experiment",
    "BandwidthCaseResult",
    "BandwidthExperimentResult",
    "run_bandwidth_case",
    "run_bandwidth_experiment",
    "ScenarioOutcome",
    "AvailabilityMetrics",
    "PairAvailabilityResult",
    "AvailabilityExperimentResult",
    "run_pair_availability",
    "run_availability_experiment",
    "format_claims",
    "run_grouped_ablation",
    "DestinationPairResult",
    "DestinationExperimentResult",
    "build_destination_problem",
    "run_destination_based_pair",
    "run_destination_experiment",
    "OscillationResult",
    "OscillationPairResult",
    "OscillationExperimentResult",
    "run_oscillation_pair",
    "run_oscillation_experiment",
    "simulate_best_response",
    "MultiIspUnitRecord",
    "MultiIspExperimentResult",
    "run_multi_isp",
    "run_multi_isp_experiment",
    "ScenarioSpec",
    "SweepRunner",
    "CheckpointStore",
    "scenario_names",
]
