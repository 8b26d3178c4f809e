"""Basic topology elements: points of presence and intra-ISP links."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import TopologyError
from repro.geo.coords import GeoPoint

__all__ = ["PoP", "Link"]


@dataclass(frozen=True)
class PoP:
    """A point of presence: the city-level node of an ISP topology.

    Attributes:
        index: position of this PoP in its ISP's node list (0-based).
        city: city name; at most one PoP per city per ISP.
        location: geographic coordinates of the city.
    """

    index: int
    city: str
    location: GeoPoint

    def __post_init__(self) -> None:
        if self.index < 0:
            raise TopologyError(f"PoP index must be >= 0, got {self.index}")
        if not self.city:
            raise TopologyError("PoP city name cannot be empty")


@dataclass(frozen=True)
class Link:
    """An undirected intra-ISP link between two PoPs.

    Attributes:
        index: position of this link in its ISP's link list (0-based).
        u: index of one endpoint PoP.
        v: index of the other endpoint PoP (u < v canonically).
        weight: routing weight (OSPF-style); shortest paths minimize the sum
            of weights. The dataset generator sets weight = geographic
            length, mirroring how the Rocketfuel weights were inferred.
            Finite and > 0: Dijkstra needs positive weights, and a NaN or
            inf weight would be routed around or leave PoPs unreachable.
        length_km: geographic length of the link, used by the distance
            resource metric. Finite and >= 0.
    """

    index: int
    u: int
    v: int
    weight: float
    length_km: float

    def __post_init__(self) -> None:
        if self.index < 0:
            raise TopologyError(f"link index must be >= 0, got {self.index}")
        if min(self.u, self.v) < 0:
            raise TopologyError(f"link endpoints must be >= 0, got {self.u}, {self.v}")
        if self.u == self.v:
            raise TopologyError(f"self-loop link at PoP {self.u}")
        if self.u > self.v:
            # Canonicalize endpoint order so (u, v) is a stable identity.
            low, high = self.v, self.u
            object.__setattr__(self, "u", low)
            object.__setattr__(self, "v", high)
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise TopologyError(
                f"link weight must be finite and > 0, got {self.weight}"
            )
        if not (math.isfinite(self.length_km) and self.length_km >= 0):
            raise TopologyError(
                f"link length must be finite and >= 0, got {self.length_km}"
            )

    @property
    def endpoints(self) -> tuple[int, int]:
        return (self.u, self.v)

    def other(self, pop_index: int) -> int:
        """The endpoint opposite to ``pop_index``."""
        if pop_index == self.u:
            return self.v
        if pop_index == self.v:
            return self.u
        raise TopologyError(f"PoP {pop_index} is not an endpoint of link {self.index}")
