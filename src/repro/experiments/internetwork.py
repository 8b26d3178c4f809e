"""The multi-ISP convergence sweep (``multi_isp`` scenario).

Sweeps :class:`~repro.core.multi_session.MultiSessionCoordinator` over an
internetwork through the unified runner: one unit per **(ISP-pair edge,
round)** cell of the coordination grid, a reducer that reassembles the
per-round global-MEL/convergence trajectory, and full
``--workers/--checkpoint-dir/--resume`` support.

Unit purity: the coordination itself is sequential (round ``r`` depends on
``r-1``), so each unit is defined as a *pure replay* — a worker
deterministically re-derives the whole trajectory from ``(config, params)``
and reports its own (edge, round) record. A bounded per-process memo makes
that a one-time cost per process (the serial path computes the trajectory
exactly once), while keeping every unit independent for checkpointing: any
subset of shards can be lost and recomputed bit-identically. Rounds after
early convergence are materialized as no-op records so the unit grid is a
pure function of the params.

The internetwork is built from the experiment config's generator/seed
(quick preset → small ISPs) with the shape/size taken from the sweep
params; ``uses_dataset=False`` because the two-ISP evaluation dataset is
never touched.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import _cache_put
from repro.experiments.runner import (
    ScenarioSpec,
    SweepRunner,
    register_scenario,
    retry_kwargs,
)
from repro.topology.internetwork import (
    Internetwork,
    InternetworkConfig,
    build_internetwork,
)
from repro.topology.serialization import stable_fingerprint

__all__ = [
    "MultiIspUnitRecord",
    "MultiIspExperimentResult",
    "run_multi_isp",
    "run_multi_isp_experiment",
    "MULTI_ISP_SCENARIO",
]

_MULTI_ISP_DEFAULTS: dict[str, Any] = {
    "n_isps": 4,
    "shape": "chain",
    "rounds": 4,
    "order": "round_robin",
    "min_interconnections": 2,
    "max_interconnections": 8,
    "pool_size": None,
    "peering_probability": 0.5,
    "include_transit": True,
    "transit_scale": 3.0,
    "coord_workers": None,
    # None = inherit config.damping / config.hysteresis_margin, so one
    # ExperimentConfig threads the damping ladder through whole sweeps.
    "damping": None,
    "hysteresis_margin": None,
}

#: Params that shape the internetwork itself (vs. the coordination).
_SHAPE_PARAM_KEYS = (
    "n_isps", "shape", "min_interconnections", "max_interconnections",
    "pool_size", "peering_probability",
)

#: Coordination trajectories memoized per process (replay happens once per
#: worker, not once per unit). Bounded LRU, keyed on the sweep identity.
_TRAJECTORY_CACHE_SIZE = 2
_trajectory_cache: "OrderedDict[str, Any]" = OrderedDict()

#: Built internetworks, memoized alongside (unit enumeration and the
#: reducer both need one; only the unit workers need the trajectory).
_INTERNETWORK_CACHE_SIZE = 2
_internetwork_cache: "OrderedDict[str, Internetwork]" = OrderedDict()


def _internetwork_config(
    config: ExperimentConfig, params: Mapping[str, Any]
) -> InternetworkConfig:
    return InternetworkConfig(
        n_isps=int(params["n_isps"]),
        shape=str(params["shape"]),
        seed=config.dataset.seed,
        pool_size=params["pool_size"],
        min_interconnections=int(params["min_interconnections"]),
        max_interconnections=params["max_interconnections"],
        peering_probability=float(params["peering_probability"]),
        generator=config.dataset.generator,
    )


def _internetwork_for(
    config: ExperimentConfig, params: Mapping[str, Any]
) -> Internetwork:
    net_config = _internetwork_config(config, params)
    key = stable_fingerprint(net_config)
    cached = _internetwork_cache.get(key)
    if cached is not None:
        _internetwork_cache.move_to_end(key)
        return cached
    net = build_internetwork(net_config)
    _cache_put(_internetwork_cache, key, net, _INTERNETWORK_CACHE_SIZE)
    return net


def _coordinator_result(config: ExperimentConfig, params: Mapping[str, Any]):
    """The (memoized) full coordination trajectory for one sweep identity."""
    from repro.core.multi_session import MultiSessionCoordinator

    key = stable_fingerprint(
        {"config": config, "params": dict(params), "kind": "multi_isp"}
    )
    cached = _trajectory_cache.get(key)
    if cached is not None:
        _trajectory_cache.move_to_end(key)
        return cached
    net = _internetwork_for(config, params)
    result = MultiSessionCoordinator(
        net,
        config=config,
        order=str(params["order"]),
        max_rounds=int(params["rounds"]),
        include_transit=bool(params["include_transit"]),
        transit_scale=float(params["transit_scale"]),
        coord_workers=params["coord_workers"],
        damping=params["damping"],
        hysteresis_margin=params["hysteresis_margin"],
    ).run()
    _cache_put(_trajectory_cache, key, result, _TRAJECTORY_CACHE_SIZE)
    return result


@dataclass(frozen=True)
class MultiIspUnitRecord:
    """One (edge, round) cell of the coordination grid, picklable.

    Rounds the coordinator never executed (early convergence) appear as
    synthesized no-op records carrying the final state, so the grid shape
    is a pure function of the sweep params.
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
    executed_round: bool
    #: The pre-coordination global MEL (identical on every record of a
    #: sweep; carried here so the reducer never needs to replay).
    initial_global_mel: float
    #: Injected-fault outcome of this slot ("abort" / "deadline" /
    #: "quarantined"), None on a clean slot. Trails the record fields so
    #: pickled sweeps from before fault injection stay loadable.
    fault: str | None = None
    #: Flows force-re-routed by link failures severed at this slot.
    n_rerouted: int = 0


def _unit_record(result, round_index: int, edge_index: int) -> MultiIspUnitRecord:
    if round_index < len(result.rounds):
        round_ = result.rounds[round_index]
        for record in round_.records:
            if record.edge_index == edge_index:
                # The unit record is the session record plus grid context;
                # the field lists stay in lockstep by construction.
                return MultiIspUnitRecord(
                    **asdict(record),
                    executed_round=True,
                    initial_global_mel=result.initial_mel,
                )
        raise ConfigurationError(
            f"coordination round {round_index} has no record for edge "
            f"{edge_index}"
        )
    # Converged before this round: a deterministic no-op cell.
    if result.rounds:
        mels = result.rounds[-1].records[-1].mel_per_isp
    else:
        mels = result.initial_mel_per_isp
    return MultiIspUnitRecord(
        round_index=round_index,
        slot=edge_index,
        edge_index=edge_index,
        pair_name=result.edge_names[edge_index],
        scope_size=0,
        ran_session=False,
        adopted=False,
        n_changed=0,
        mel_per_isp=mels,
        global_mel=max(mels) if mels else 0.0,
        executed_round=False,
        initial_global_mel=result.initial_mel,
    )


@dataclass
class MultiIspExperimentResult:
    """The reassembled coordination grid plus its convergence trajectory."""

    isp_names: tuple[str, ...]
    edge_names: tuple[str, ...]
    n_rounds: int
    initial_mel: float
    records: list[MultiIspUnitRecord] = field(default_factory=list)

    def round_records(self, round_index: int) -> list[MultiIspUnitRecord]:
        chosen = [r for r in self.records if r.round_index == round_index]
        chosen.sort(key=lambda r: r.slot)
        return chosen

    def mel_trajectory(self) -> list[float]:
        """Global MEL after each round of the grid."""
        trajectory = []
        for round_index in range(self.n_rounds):
            records = self.round_records(round_index)
            trajectory.append(
                records[-1].global_mel if records else self.initial_mel
            )
        return trajectory

    def executed_rounds(self) -> int:
        return len(
            {r.round_index for r in self.records if r.executed_round}
        )

    def converged_round(self) -> int | None:
        """First executed round that changed nothing (None if it never did)."""
        for round_index in range(self.n_rounds):
            records = self.round_records(round_index)
            if not records or not records[0].executed_round:
                continue
            if sum(r.n_changed for r in records) == 0:
                return round_index
        return None

    @property
    def final_mel(self) -> float:
        trajectory = self.mel_trajectory()
        return trajectory[-1] if trajectory else self.initial_mel

    def total_sessions(self) -> int:
        return sum(r.ran_session for r in self.records)


# ---------------------------------------------------------------------------
# Sweep scenario: "multi_isp" (one unit per (edge, round) cell)
# ---------------------------------------------------------------------------


def _multi_isp_units(config, params):
    net = _internetwork_for(config, params)
    rounds = int(params["rounds"])
    return [
        (round_index, edge_index)
        for round_index in range(rounds)
        for edge_index in range(net.n_edges())
    ]


def _multi_isp_unit(config, params, unit):
    round_index, edge_index = unit
    result = _coordinator_result(config, params)
    return _unit_record(result, round_index, edge_index)


def _multi_isp_reduce(config, params, results):
    # Record-driven on purpose: a fully checkpointed resume reassembles the
    # grid from shards plus the (cheap, memoized) internetwork build, never
    # replaying the coordination in the parent.
    net = _internetwork_for(config, params)
    records = list(results)
    initial_mel = records[0].initial_global_mel if records else 0.0
    return MultiIspExperimentResult(
        isp_names=net.names(),
        edge_names=tuple(edge.name for edge in net.edges),
        n_rounds=int(params["rounds"]),
        initial_mel=initial_mel,
        records=records,
    )


def _multi_isp_summary(result: MultiIspExperimentResult) -> list:
    trajectory = result.mel_trajectory()
    converged = result.converged_round()
    return [
        ("ISPs / peering edges",
         f"{len(result.isp_names)} / {len(result.edge_names)}"),
        ("pairwise sessions run", str(result.total_sessions())),
        ("global MEL trajectory",
         " -> ".join(
             [f"{result.initial_mel:.3f}"]
             + [f"{mel:.3f}" for mel in trajectory]
         )),
        ("converged",
         "no" if converged is None else f"after round {converged}"),
    ]


MULTI_ISP_SCENARIO = register_scenario(ScenarioSpec(
    name="multi_isp",
    enumerate_units=_multi_isp_units,
    run_unit=_multi_isp_unit,
    reduce=_multi_isp_reduce,
    default_params=_MULTI_ISP_DEFAULTS,
    summarize=_multi_isp_summary,
    uses_dataset=False,
))


def run_multi_isp(
    config: ExperimentConfig | None = None,
    internetwork: Internetwork | None = None,
    **coordinator_kwargs,
):
    """Convenience: build an internetwork and run one coordination directly.

    Returns the raw :class:`~repro.core.multi_session.MultiNegotiationResult`
    (the sweep-free path used by the CLI ``multi-isp`` command, examples and
    benchmarks). Keyword arguments pass through to
    :class:`~repro.core.multi_session.MultiSessionCoordinator`; an explicit
    ``internetwork`` skips generation.
    """
    from repro.core.multi_session import MultiSessionCoordinator

    config = config or ExperimentConfig()
    params = dict(_MULTI_ISP_DEFAULTS)
    shape_kwargs = {}
    for key in _SHAPE_PARAM_KEYS:
        if key in coordinator_kwargs:
            shape_kwargs[key] = params[key] = coordinator_kwargs.pop(key)
    if internetwork is None:
        internetwork = build_internetwork(
            _internetwork_config(config, params)
        )
    elif shape_kwargs:
        raise ConfigurationError(
            "an explicit internetwork fixes the topology; drop "
            f"{sorted(shape_kwargs)} or drop internetwork="
        )
    # Backfill the scenario defaults so the direct path and the registered
    # multi_isp sweep run the identical scenario out of the box.
    coordinator_kwargs.setdefault("max_rounds", _MULTI_ISP_DEFAULTS["rounds"])
    for key in (
        "order", "include_transit", "transit_scale", "coord_workers",
        "damping", "hysteresis_margin",
    ):
        coordinator_kwargs.setdefault(key, _MULTI_ISP_DEFAULTS[key])
    return MultiSessionCoordinator(
        internetwork, config=config, **coordinator_kwargs
    ).run()


def run_multi_isp_experiment(
    config: ExperimentConfig | None = None,
    n_isps: int = 4,
    shape: str = "chain",
    rounds: int = 4,
    order: str = "round_robin",
    min_interconnections: int = 2,
    max_interconnections: int | None = 8,
    pool_size: int | None = None,
    peering_probability: float = 0.5,
    include_transit: bool = True,
    transit_scale: float = 3.0,
    coord_workers: int | None = None,
    damping: str | None = None,
    hysteresis_margin: float | None = None,
    workers: int | None = None,
    checkpoint_dir=None,
    resume: bool = False,
    max_retries: int | None = None,
    retry_backoff: float | None = None,
) -> MultiIspExperimentResult:
    """Run the multi-ISP convergence sweep through the unified runner.

    Units are the (ISP-pair edge, round) cells of the coordination grid;
    ``workers`` parallelizes over them (each worker replays the
    deterministic trajectory once, then serves its cells), and
    ``checkpoint_dir`` / ``resume`` persist per-cell shards. Any worker
    count, interrupt/resume split, or serial run produces bit-identical
    results. ``coord_workers`` is orthogonal: it parallelizes the color
    classes *inside* the replayed coordination (also bit-identical).
    ``damping`` / ``hysteresis_margin`` select the oscillation response
    (see :mod:`repro.core.damping`); ``None`` inherits the config's
    values, and the controller runs entirely in the replay parent, so
    damped sweeps keep the bit-identical worker-count contract.
    """
    params = dict(
        n_isps=n_isps,
        shape=shape,
        rounds=rounds,
        order=order,
        min_interconnections=min_interconnections,
        max_interconnections=max_interconnections,
        pool_size=pool_size,
        peering_probability=peering_probability,
        include_transit=include_transit,
        transit_scale=transit_scale,
        coord_workers=coord_workers,
        damping=damping,
        hysteresis_margin=hysteresis_margin,
    )
    return SweepRunner(
        workers=workers, checkpoint_dir=checkpoint_dir, resume=resume,
        **retry_kwargs(max_retries, retry_backoff),
    ).run(MULTI_ISP_SCENARIO, config, params)
