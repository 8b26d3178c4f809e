"""Interconnections and neighboring-ISP pairs.

Two ISPs interconnect wherever both operate a PoP in the same city — the
same co-location heuristic that identifies peering points in the measured
dataset. An :class:`IspPair` is the unit of every experiment: the paper's
distance experiment uses pairs with >= 2 interconnections (229 pairs), the
bandwidth experiment pairs with >= 3 (247 pairs).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import TopologyError
from repro.geo.cities import CityDatabase
from repro.geo.coords import great_circle_km
from repro.topology.isp import ISPTopology

__all__ = ["Interconnection", "IspPair", "find_isp_pairs"]


@dataclass(frozen=True)
class Interconnection:
    """A peering link between two ISPs in one city.

    Attributes:
        index: position within the pair's interconnection list.
        city: the shared city.
        pop_a: PoP index of the interconnection inside ISP A.
        pop_b: PoP index inside ISP B.
        length_km: geographic length of the peering link (usually ~0 since
            both PoPs sit in the same city).
    """

    index: int
    city: str
    pop_a: int
    pop_b: int
    length_km: float = 0.0

    def __post_init__(self) -> None:
        if self.index < 0:
            raise TopologyError("interconnection index must be >= 0")
        if not (math.isfinite(self.length_km) and self.length_km >= 0):
            raise TopologyError(
                f"interconnection length must be finite and >= 0, "
                f"got {self.length_km}"
            )


class IspPair:
    """A pair of neighboring ISPs and their interconnections."""

    def __init__(
        self,
        isp_a: ISPTopology,
        isp_b: ISPTopology,
        interconnections: Sequence[Interconnection],
    ):
        if isp_a.name == isp_b.name:
            raise TopologyError("an ISP cannot pair with itself")
        if not interconnections:
            raise TopologyError(
                f"pair ({isp_a.name}, {isp_b.name}) has no interconnections"
            )
        self._isp_a = isp_a
        self._isp_b = isp_b
        self._ics: tuple[Interconnection, ...] = tuple(interconnections)
        self._validate()

    def _validate(self) -> None:
        seen_cities: set[str] = set()
        for pos, ic in enumerate(self._ics):
            if ic.index != pos:
                raise TopologyError("interconnection indices must be dense 0..k-1")
            if ic.city in seen_cities:
                raise TopologyError(f"duplicate interconnection city {ic.city!r}")
            seen_cities.add(ic.city)
            pop_a = self._isp_a.pop(ic.pop_a)
            pop_b = self._isp_b.pop(ic.pop_b)
            if pop_a.city != ic.city or pop_b.city != ic.city:
                raise TopologyError(
                    f"interconnection city {ic.city!r} does not match PoP cities "
                    f"({pop_a.city!r}, {pop_b.city!r})"
                )

    # -- accessors ----------------------------------------------------------

    @property
    def isp_a(self) -> ISPTopology:
        return self._isp_a

    @property
    def isp_b(self) -> ISPTopology:
        return self._isp_b

    @property
    def interconnections(self) -> tuple[Interconnection, ...]:
        return self._ics

    @property
    def name(self) -> str:
        return f"{self._isp_a.name}--{self._isp_b.name}"

    def n_interconnections(self) -> int:
        return len(self._ics)

    def exit_pops(self, side: str) -> tuple[int, ...]:
        """PoP indices of the interconnections on one side ('a' or 'b')."""
        if side == "a":
            return tuple(ic.pop_a for ic in self._ics)
        if side == "b":
            return tuple(ic.pop_b for ic in self._ics)
        raise TopologyError(f"side must be 'a' or 'b', got {side!r}")

    def isp(self, side: str) -> ISPTopology:
        if side == "a":
            return self._isp_a
        if side == "b":
            return self._isp_b
        raise TopologyError(f"side must be 'a' or 'b', got {side!r}")

    def other_side(self, side: str) -> str:
        if side == "a":
            return "b"
        if side == "b":
            return "a"
        raise TopologyError(f"side must be 'a' or 'b', got {side!r}")

    def without_interconnection(self, failed_index: int) -> "IspPair":
        """A copy of the pair with one interconnection removed (failed)."""
        if not 0 <= failed_index < len(self._ics):
            raise TopologyError(f"no interconnection with index {failed_index}")
        if len(self._ics) < 2:
            raise TopologyError("cannot fail the only interconnection")
        return self.without_interconnections((failed_index,))

    def without_interconnections(
        self, failed_indices: Sequence[int]
    ) -> "IspPair":
        """A copy of the pair with a set of interconnections removed.

        The multi-failure generalization of
        :meth:`without_interconnection`: survivors keep their relative
        order and are reindexed densely, which is exactly what composing
        single removals produces regardless of composition order. At least
        one interconnection must survive (a pair cannot exist without
        any), and the failed indices must be unique and in range.
        """
        failed = {int(k) for k in failed_indices}
        if len(failed) != len(tuple(failed_indices)):
            raise TopologyError(
                f"duplicate interconnection indices in "
                f"{sorted(int(k) for k in failed_indices)}"
            )
        bad = sorted(k for k in failed if not 0 <= k < len(self._ics))
        if bad:
            raise TopologyError(f"no interconnections with indices {bad}")
        if len(failed) >= len(self._ics):
            raise TopologyError(
                "cannot fail every interconnection of a pair"
            )
        reindexed = [
            Interconnection(
                index=i,
                city=ic.city,
                pop_a=ic.pop_a,
                pop_b=ic.pop_b,
                length_km=ic.length_km,
            )
            for i, ic in enumerate(
                ic for ic in self._ics if ic.index not in failed
            )
        ]
        return IspPair(self._isp_a, self._isp_b, reindexed)

    def reversed(self) -> "IspPair":
        """The same pair with A and B swapped (traffic direction B->A)."""
        swapped = [
            Interconnection(
                index=ic.index,
                city=ic.city,
                pop_a=ic.pop_b,
                pop_b=ic.pop_a,
                length_km=ic.length_km,
            )
            for ic in self._ics
        ]
        return IspPair(self._isp_b, self._isp_a, swapped)

    def __repr__(self) -> str:
        return f"IspPair({self.name}, ics={self.n_interconnections()})"


def find_isp_pairs(
    isps: Iterable[ISPTopology],
    min_interconnections: int = 2,
    max_interconnections: int | None = 8,
    city_db: CityDatabase | None = None,
    exclude_mesh: bool = True,
) -> list[IspPair]:
    """Discover all neighboring pairs among ``isps``.

    Two ISPs are neighbors if they share at least ``min_interconnections``
    cities. When a pair shares more than ``max_interconnections`` cities the
    largest (by population, if ``city_db`` is given, else alphabetical)
    are kept — real ISPs peer at major exchange points, not at every
    co-located city. Mesh ISPs are excluded by default, as in the paper.
    """
    if min_interconnections < 1:
        raise TopologyError("min_interconnections must be >= 1")
    usable = [
        isp for isp in isps if not (exclude_mesh and isp.is_logical_mesh())
    ]
    pairs: list[IspPair] = []
    for isp_a, isp_b in itertools.combinations(usable, 2):
        shared = sorted(isp_a.cities() & isp_b.cities())
        if len(shared) < min_interconnections:
            continue
        if max_interconnections is not None and len(shared) > max_interconnections:
            shared = _top_cities(shared, max_interconnections, city_db)
        ics = []
        for i, city in enumerate(sorted(shared)):
            pop_a = isp_a.pop_in_city(city)
            pop_b = isp_b.pop_in_city(city)
            ics.append(
                Interconnection(
                    index=i,
                    city=city,
                    pop_a=pop_a.index,
                    pop_b=pop_b.index,
                    length_km=great_circle_km(pop_a.location, pop_b.location),
                )
            )
        pairs.append(IspPair(isp_a, isp_b, ics))
    return pairs


def _top_cities(
    cities: list[str], count: int, city_db: CityDatabase | None
) -> list[str]:
    if city_db is None:
        return sorted(cities)[:count]
    ranked = sorted(
        cities,
        key=lambda name: (-city_db.get(name).population if name in city_db else 0.0,
                          name),
    )
    return ranked[:count]
