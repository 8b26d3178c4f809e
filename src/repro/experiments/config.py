"""Shared experiment configuration.

The paper's full evaluation spans hundreds of ISP pairs; this config scales
the same experiments from CI-friendly quick runs to the full sweep. All
presets are deterministic in their seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.topology.dataset import DatasetConfig
from repro.topology.generator import GeneratorConfig

__all__ = ["ExperimentConfig"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by the distance and bandwidth experiments.

    Attributes:
        dataset: how to build the ISP dataset.
        max_pairs_distance: cap on ISP pairs for the distance experiment
            (None = all pairs with >= 2 interconnections, as in the paper).
        max_pairs_bandwidth: cap for the bandwidth experiment (None = all
            pairs with >= 3 interconnections).
        max_failures_per_pair: how many interconnection failures to
            simulate per pair (None = every interconnection, as in paper).
        preference_p: the opaque class range P (paper: 10).
        ratio_unit: load-ratio improvement per preference class for the
            bandwidth mapping (0.1 = one class per 10% of capacity).
        reassign_fraction: reassign preferences after each such fraction of
            traffic (paper: 0.05).
        seed: master seed for workloads and tie-breaking randomness.
        lp_solver: registered LP backend name for every LP the experiment
            solves ("highs" = the default scipy-HiGHS backend; see
            :mod:`repro.optimal.solver`).

    The multi-ISP coordination knobs (``transit_scale``, ``damping``,
    ``hysteresis_margin``, ...) are arguments of
    :class:`~repro.core.multi_session.MultiSessionCoordinator` and params
    of the ``multi_isp`` sweep.
    """

    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    max_pairs_distance: int | None = None
    max_pairs_bandwidth: int | None = None
    max_failures_per_pair: int | None = None
    preference_p: int = 10
    ratio_unit: float = 0.1
    reassign_fraction: float = 0.05
    seed: int = 7
    lp_solver: str = "highs"

    def __post_init__(self) -> None:
        from repro.optimal.solver import available_lp_solvers
        from repro.util.validation import (
            check_fraction,
            check_int,
            check_positive,
            validate_choice,
        )

        validate_choice(self.lp_solver, available_lp_solvers(), "lp_solver")
        check_int(self.seed, "seed", 0)
        check_int(self.preference_p, "preference_p", 1)
        check_positive(self.ratio_unit, "ratio_unit")
        check_fraction(self.reassign_fraction, "reassign_fraction")
        for name in ("max_pairs_distance", "max_pairs_bandwidth",
                     "max_failures_per_pair"):
            value = getattr(self, name)
            if value is not None:
                check_int(value, name, 1)

    # -- presets -------------------------------------------------------------

    @classmethod
    def quick(cls) -> "ExperimentConfig":
        """Tiny preset for unit tests: ~20 small ISPs, a handful of pairs."""
        return cls(
            dataset=DatasetConfig(
                n_isps=20,
                seed=2005,
                generator=GeneratorConfig(min_pops=6, max_pops=14),
            ),
            max_pairs_distance=8,
            max_pairs_bandwidth=6,
            max_failures_per_pair=1,
        )

    @classmethod
    def bench(cls) -> "ExperimentConfig":
        """Benchmark preset: the full 65-ISP dataset, capped pair counts."""
        return cls(
            dataset=DatasetConfig(n_isps=65, seed=2005),
            max_pairs_distance=60,
            max_pairs_bandwidth=40,
            max_failures_per_pair=2,
        )

    @classmethod
    def paper(cls) -> "ExperimentConfig":
        """The full sweep: every qualifying pair, every failure."""
        return cls(dataset=DatasetConfig(n_isps=65, seed=2005))

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seed=seed)
