"""The multi-ISP convergence sweep (``multi_isp`` scenario).

Runs one :class:`~repro.core.multi_session.MultiSessionCoordinator`
coordination over an internetwork through the unified runner. Round ``r``
of a coordination depends on round ``r-1``, so the sweep has a single
unit, the whole coordination: :func:`run_multi_isp` runs it once and the
unit lays it out as a padded (round, edge) grid of
:class:`MultiIspUnitRecord` cells. ``--checkpoint-dir`` / ``--resume``
persist that unit; ``coord_workers`` parallelizes the color classes
inside it.

The internetwork is built from the experiment config's generator/seed
(quick preset → small ISPs) with the shape/size taken from the sweep
params; ``uses_dataset=False`` because the two-ISP evaluation dataset is
never touched.
"""

from __future__ import annotations

import inspect
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

#: Params that shape the internetwork itself, with
#: :class:`InternetworkConfig`'s defaults (the ``multi_isp`` and
#: ``robust_negotiation`` sweeps share them).
_SHAPE_DEFAULTS: dict[str, Any] = {
    key: getattr(InternetworkConfig, key)
    for key in (
        "n_isps", "shape", "min_interconnections", "max_interconnections",
        "pool_size", "peering_probability",
    )
}

#: Params passed through to the coordinator under their own names.
_COORDINATOR_KEYS = (
    "order", "include_transit", "transit_scale", "coord_workers",
    "damping", "hysteresis_margin",
)

_MULTI_ISP_DEFAULTS: dict[str, Any] = {
    **_SHAPE_DEFAULTS,
    "rounds": 4,
    "order": "round_robin",
    "include_transit": True,
    "transit_scale": 3.0,
    "coord_workers": None,
    # None = inherit config.damping / config.hysteresis_margin, so one
    # ExperimentConfig threads the damping ladder through whole sweeps.
    "damping": None,
    "hysteresis_margin": None,
}

#: Built internetworks, memoized per process: the robustness sweep's
#: (seed, mode) units all coordinate over the same one.
_INTERNETWORK_CACHE_SIZE = 2
_internetwork_cache: "OrderedDict[str, Internetwork]" = OrderedDict()


def _internetwork_config(
    config: ExperimentConfig, params: Mapping[str, Any]
) -> InternetworkConfig:
    return InternetworkConfig(
        seed=config.dataset.seed,
        generator=config.dataset.generator,
        **{key: params[key] for key in _SHAPE_DEFAULTS},
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
    #: The pre-coordination global MEL, identical on every record of a
    #: sweep. Redundant with the result's ``initial_mel``; it stays because
    #: the golden digests pin the record fields.
    initial_global_mel: float
    #: Injected-fault outcome of this slot ("abort" / "deadline" /
    #: "quarantined"), None on a clean slot. Trails the record fields so
    #: pickled sweeps from before fault injection stay loadable.
    fault: str | None = None
    #: Flows force-re-routed by link failures severed at this slot.
    n_rerouted: int = 0


@dataclass
class MultiIspExperimentResult:
    """The padded coordination grid plus its convergence trajectory."""

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
# Sweep scenario: "multi_isp" (one unit: the whole coordination)
# ---------------------------------------------------------------------------


def _grid_records(result, n_rounds: int) -> list[MultiIspUnitRecord]:
    """A coordination as the padded (round, edge) grid, round-major.

    Executed rounds list their session records by ascending edge; rounds
    the coordinator never ran (early convergence) are no-op cells carrying
    the final MELs.
    """
    initial = result.initial_mel
    records = [
        # The grid cell is the session record plus grid context; the
        # field lists stay in lockstep by construction.
        MultiIspUnitRecord(
            **asdict(record), executed_round=True, initial_global_mel=initial
        )
        for round_ in result.rounds
        for record in sorted(round_.records, key=lambda r: r.edge_index)
    ]
    if result.rounds:
        mels = result.rounds[-1].records[-1].mel_per_isp
    else:
        mels = result.initial_mel_per_isp
    for round_index in range(len(result.rounds), n_rounds):
        for edge_index, pair_name in enumerate(result.edge_names):
            records.append(MultiIspUnitRecord(
                round_index=round_index,
                slot=edge_index,
                edge_index=edge_index,
                pair_name=pair_name,
                scope_size=0,
                ran_session=False,
                adopted=False,
                n_changed=0,
                mel_per_isp=mels,
                global_mel=max(mels) if mels else 0.0,
                executed_round=False,
                initial_global_mel=initial,
            ))
    return records


def _multi_isp_units(config, params):
    return ["coordination"]


def _multi_isp_unit(config, params, unit):
    result = run_multi_isp(
        config,
        internetwork=_internetwork_for(config, params),
        max_rounds=params["rounds"],
        **{key: params[key] for key in _COORDINATOR_KEYS},
    )
    n_rounds = params["rounds"]
    records = _grid_records(result, n_rounds)
    return MultiIspExperimentResult(
        isp_names=result.isp_names,
        edge_names=result.edge_names,
        n_rounds=n_rounds,
        initial_mel=records[0].initial_global_mel if records else 0.0,
        records=records,
    )


def _multi_isp_reduce(config, params, results):
    (result,) = results
    if not isinstance(result, MultiIspExperimentResult):
        # A 1-round, 1-edge sweep checkpointed under the old one-unit-per-
        # (edge, round) layout matches this one's fingerprint and unit count.
        raise ConfigurationError(
            "the multi_isp checkpoint holds one (edge, round) cell, not a "
            "coordination; rerun without --resume"
        )
    return result


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
    """Build an internetwork and run one coordination.

    Returns the raw :class:`~repro.core.multi_session.MultiNegotiationResult`.
    The ``multi_isp`` sweep runs its one unit through here; callers that
    want the raw result call it directly. Keyword arguments pass through to
    :class:`~repro.core.multi_session.MultiSessionCoordinator`, backfilled
    with the sweep's defaults; an explicit ``internetwork`` skips
    generation. A name that is neither an internetwork shape param nor a
    coordinator parameter raises :class:`ConfigurationError` before
    anything is built.
    """
    from repro.core.multi_session import MultiSessionCoordinator

    unknown = sorted(
        set(coordinator_kwargs) - set(_SHAPE_DEFAULTS)
        - set(inspect.signature(MultiSessionCoordinator).parameters)
    )
    if unknown:
        raise ConfigurationError(
            f"unknown run_multi_isp params: {', '.join(unknown)}"
        )
    config = config or ExperimentConfig()
    params = dict(_MULTI_ISP_DEFAULTS)
    shape_kwargs = {}
    for key in _SHAPE_DEFAULTS:
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
    for key in _COORDINATOR_KEYS:
        coordinator_kwargs.setdefault(key, _MULTI_ISP_DEFAULTS[key])
    return MultiSessionCoordinator(
        internetwork, config=config, **coordinator_kwargs
    ).run()


def run_multi_isp_experiment(
    config: ExperimentConfig | None = None,
    workers: int | None = None,
    checkpoint_dir=None,
    resume: bool = False,
    **params,
) -> MultiIspExperimentResult:
    """Run the multi-ISP convergence sweep through the unified runner.

    Keyword ``params`` override :data:`MULTI_ISP_SCENARIO`'s
    ``default_params``: the internetwork's shape (``n_isps``, ``shape``,
    ...), the coordination (``rounds``, ``order``, ``include_transit``,
    ``transit_scale``, ``coord_workers``) and ``damping`` /
    ``hysteresis_margin``, which select the oscillation response (see
    :mod:`repro.core.damping`); ``None`` inherits the config's values.

    The sweep is one unit, the whole coordination, returned as its padded
    (round, edge) grid; ``checkpoint_dir`` / ``resume`` persist that
    unit's shard. ``workers`` follows the runner contract, but a one-unit
    sweep runs serially: ``coord_workers`` is what parallelizes a
    coordination, running each color class on a fork pool, bit-identical
    to serial.
    """
    return SweepRunner(
        workers=workers, checkpoint_dir=checkpoint_dir, resume=resume
    ).run(MULTI_ISP_SCENARIO, config, params)
