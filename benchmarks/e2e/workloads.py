"""The benchmark's four workloads.

Each workload makes its inputs from a seed, then runs *passes*: one pass is
one call into the public experiment API, the closed loop's unit of work.
``check`` returns the invariants a pass violated; they hold at any seed.

Seeds. ``--seed S`` becomes ``ExperimentConfig.with_seed(S)`` everywhere.
The 65-ISP dataset (seed 2005), the scale pair (seed 11) and the
internetwork (the dataset seed, 2005) stay fixed: redrawing the topology
changed a pass's cost 3.8x across seeds on ``multi-isp`` (12 random
ISPs) and 1.8x on ``scale-spine``, far past any usable regression bound.
The experiment seed drives the flow-level baselines on ``distance`` and
the colouring and visit order on ``multi-isp``. ``bandwidth`` and
``scale-spine`` draw nothing from it, so their results are the same at
every seed (``seeded=False``) and their golden digest applies to all.

Sizes are trimmed from the full-scale runs so that one pass takes
2-4 s and a timed run holds several passes; each keeps its layer profile
(see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.experiments import bandwidth, distance, internetwork, parallel
from repro.experiments.config import ExperimentConfig
from repro.geo.cities import default_city_database
from repro.geo.population import PopulationModel
from repro.topology import builders
from repro.traffic.gravity import GravityWorkload

SCALE_PAIR_SEED = 11
#: Relative slack for the LP-below-negotiated check (HiGHS feasibility
#: tolerance is 1e-7).
_LP_SLACK = 1e-6


@dataclass(frozen=True)
class Workload:
    """One workload: ``setup(seed, smoke) -> state``, ``run(state) -> result``."""

    name: str
    seeded: bool
    setup: Callable[[int, bool], Any]
    run: Callable[[Any], Any]
    ops: Callable[[Any], int]
    units: Callable[[Any], int]
    check: Callable[[Any], list[str]]


def _config(seed: int, smoke: bool, **caps) -> ExperimentConfig:
    base = ExperimentConfig.quick() if smoke else replace(
        ExperimentConfig.bench(), **caps
    )
    return base.with_seed(seed)


# -- distance ---------------------------------------------------------------


def _distance_setup(seed: int, smoke: bool) -> ExperimentConfig:
    config = _config(seed, smoke, max_pairs_distance=40)
    parallel.pairs_for(config, 2, config.max_pairs_distance)
    return config


def _distance_check(result) -> list[str]:
    losing = result.fraction_isps_losing("negotiated")
    if losing != 0:
        return [f"{losing:.3f} of ISPs lose under negotiation"]
    return []


# -- bandwidth and scale-spine ----------------------------------------------


def _bandwidth_setup(seed: int, smoke: bool) -> ExperimentConfig:
    config = _config(seed, smoke, max_pairs_bandwidth=32)
    parallel.pairs_for(config, 3, config.max_pairs_bandwidth)
    return config


def _lp_below_negotiated(cases) -> list[str]:
    bad = []
    for case in cases:
        negotiated = max(case.mel_negotiated_a, case.mel_negotiated_b)
        if case.mel_opt_joint > negotiated * (1 + _LP_SLACK):
            bad.append(
                f"{case.pair_name}/{case.failed_city}: LP optimum "
                f"{case.mel_opt_joint!r} > negotiated MEL {negotiated!r}"
            )
    return bad


def _scale_setup(seed: int, smoke: bool):
    pair = builders.build_scale_pair(
        32 if smoke else 128, n_interconnections=6, seed=SCALE_PAIR_SEED
    )
    config = replace(_config(seed, smoke), max_failures_per_pair=2)
    workload = GravityWorkload(PopulationModel(default_city_database()))
    return pair, config, workload


def _scale_run(state):
    pair, config, workload = state
    return bandwidth.run_pair_cases(pair, config, {}, workload)


# -- multi-isp --------------------------------------------------------------


def _multi_isp_run(state):
    config, n_isps, rounds = state
    # The sweep memoizes built internetworks and trajectories per process;
    # without clearing them every pass after the first would replay nothing.
    for name in ("_trajectory_cache", "_internetwork_cache"):
        cache = getattr(internetwork, name, None)
        if cache is not None:
            cache.clear()
    return internetwork.run_multi_isp_experiment(
        config, n_isps=n_isps, shape="random", rounds=rounds
    )


def _multi_isp_check(result) -> list[str]:
    if result.final_mel > result.initial_mel:
        return [
            f"final MEL {result.final_mel!r} above initial "
            f"{result.initial_mel!r}"
        ]
    return []


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="distance",
            seeded=True,
            setup=_distance_setup,
            run=distance.run_distance_experiment,
            ops=lambda result: len(result.pairs),
            units=lambda result: len(result.pairs),
            check=_distance_check,
        ),
        Workload(
            name="bandwidth",
            seeded=False,
            setup=_bandwidth_setup,
            run=bandwidth.run_bandwidth_experiment,
            ops=lambda result: len(result.cases),
            units=lambda result: len({c.pair_name for c in result.cases}),
            check=lambda result: _lp_below_negotiated(result.cases),
        ),
        Workload(
            name="scale-spine",
            seeded=False,
            setup=_scale_setup,
            run=_scale_run,
            ops=len,
            units=lambda result: 0,
            check=_lp_below_negotiated,
        ),
        Workload(
            name="multi-isp",
            seeded=True,
            setup=lambda seed, smoke: (
                _config(seed, smoke), 4 if smoke else 12, 2 if smoke else 3
            ),
            run=_multi_isp_run,
            ops=lambda result: result.total_sessions(),
            units=lambda result: len(result.records),
            check=_multi_isp_check,
        ),
    )
}
