"""The 65-ISP evaluation dataset.

Builds the synthetic stand-in for the paper's measured dataset: 65 diverse
PoP-level ISP topologies over real city locations, from which the experiment
harness derives neighboring pairs (>= 2 interconnections for the distance
experiment, >= 3 for the bandwidth experiment). Everything is deterministic
in the dataset seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.geo.cities import CityDatabase, default_city_database
from repro.topology.generator import GeneratorConfig, TopologyGenerator
from repro.topology.interconnect import IspPair, find_isp_pairs
from repro.topology.isp import ISPTopology
from repro.util.rng import RngSource
from repro.util.validation import check_int

__all__ = ["DatasetConfig", "IspDataset", "build_default_dataset"]

#: Number of measured ISPs in the paper's dataset.
PAPER_ISP_COUNT = 65


@dataclass(frozen=True)
class DatasetConfig:
    """Parameters of a dataset build.

    Attributes:
        n_isps: how many ISPs to generate (paper: 65).
        seed: master seed; every ISP derives its own stream from it.
        generator: topology-generation tunables.
        name_prefix: ISP names are ``f"{name_prefix}{i:02d}"``.
    """

    n_isps: int = PAPER_ISP_COUNT
    seed: int = 2005
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    name_prefix: str = "isp"

    def __post_init__(self) -> None:
        check_int(self.n_isps, "n_isps", 2)
        check_int(self.seed, "seed", 0)
        if not self.name_prefix:
            raise ConfigurationError("name_prefix cannot be empty")


class IspDataset:
    """A built dataset: ISP topologies plus the city database behind them."""

    def __init__(self, isps: list[ISPTopology], city_db: CityDatabase,
                 config: DatasetConfig):
        if not isps:
            raise ConfigurationError("dataset cannot be empty")
        names = [isp.name for isp in isps]
        if len(set(names)) != len(names):
            raise ConfigurationError("dataset contains duplicate ISP names")
        self._isps = list(isps)
        self._city_db = city_db
        self._config = config

    # -- accessors ----------------------------------------------------------

    @property
    def isps(self) -> list[ISPTopology]:
        return list(self._isps)

    @property
    def city_db(self) -> CityDatabase:
        return self._city_db

    @property
    def config(self) -> DatasetConfig:
        return self._config

    def __len__(self) -> int:
        return len(self._isps)

    def __iter__(self):
        return iter(self._isps)

    def get(self, name: str) -> ISPTopology:
        for isp in self._isps:
            if isp.name == name:
                return isp
        raise ConfigurationError(f"no ISP named {name!r} in dataset")

    def mesh_isps(self) -> list[ISPTopology]:
        """The logical-mesh ISPs (excluded from experiments, as in paper)."""
        return [isp for isp in self._isps if isp.is_logical_mesh()]

    def non_mesh_isps(self) -> list[ISPTopology]:
        return [isp for isp in self._isps if not isp.is_logical_mesh()]

    # -- pair discovery -------------------------------------------------------

    def pairs(
        self,
        min_interconnections: int = 2,
        max_pairs: int | None = None,
        max_interconnections: int | None = 8,
    ) -> list[IspPair]:
        """Neighboring pairs with at least ``min_interconnections`` peerings.

        ``max_pairs`` caps the result deterministically (pairs are sorted by
        name), which the quick experiment configurations use to bound
        runtime.
        """
        pairs = find_isp_pairs(
            self._isps,
            min_interconnections=min_interconnections,
            max_interconnections=max_interconnections,
            city_db=self._city_db,
            exclude_mesh=True,
        )
        pairs.sort(key=lambda p: p.name)
        if max_pairs is not None:
            if max_pairs < 1:
                raise ConfigurationError("max_pairs must be >= 1")
            pairs = pairs[:max_pairs]
        return pairs

    def summary(self) -> str:
        """One-paragraph dataset description for reports."""
        sizes = sorted(isp.n_pops() for isp in self._isps)
        meshes = len(self.mesh_isps())
        return (
            f"{len(self._isps)} ISPs (PoPs: min {sizes[0]}, median "
            f"{sizes[len(sizes) // 2]}, max {sizes[-1]}; {meshes} logical meshes "
            f"excluded from experiments), seed={self._config.seed}"
        )


def build_default_dataset(
    config: DatasetConfig | None = None,
    seed: RngSource = None,
) -> IspDataset:
    """Build the evaluation dataset.

    ``seed`` overrides ``config.seed`` when given (convenience for tests
    and sweeps).
    """
    config = config or DatasetConfig()
    if seed is not None and isinstance(seed, int):
        config = DatasetConfig(
            n_isps=config.n_isps,
            seed=seed,
            generator=config.generator,
            name_prefix=config.name_prefix,
        )
    city_db = default_city_database()
    generator = TopologyGenerator(config.generator, city_db)
    isps = [
        generator.generate(f"{config.name_prefix}{i:02d}", config.seed + i)
        for i in range(config.n_isps)
    ]
    return IspDataset(isps, city_db, config)
