"""Population model for gravity-style traffic weights.

The paper weighs each PoP by "the number of people in a 50 x 50 square mile
grid centered on the geographical coordinates of the city" computed from the
CIESIN gridded population dataset. CIESIN data is unavailable offline, so we
approximate the grid count as the metro population of the PoP's city plus the
(distance-attenuated) populations of other database cities falling inside the
grid — which for real city spacing almost always reduces to the city's own
metro population. See DESIGN.md, substitutions table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.geo.cities import City, CityDatabase
from repro.geo.coords import EARTH_RADIUS_KM, GeoPoint, great_circle_km

__all__ = ["PopulationModel", "city_grid_population", "GRID_HALF_SIDE_KM"]

#: Half-side of the paper's 50-mile square grid, in kilometres.
GRID_HALF_SIDE_KM = 25.0 * 1.609344


def city_grid_population(
    point: GeoPoint,
    database: CityDatabase,
    grid_half_side_km: float = GRID_HALF_SIDE_KM,
) -> float:
    """Population of the grid square centered on ``point``.

    Sums the populations of all database cities whose centers fall within a
    ``grid_half_side_km``-radius disc of ``point`` (a circular stand-in for
    the paper's square grid; the difference is immaterial for weighting).

    A latitude prefilter skips most cities without a haversine call. The
    haversine distance is at least ``R·|Δlat|``, because its
    ``cos·cos·sin²`` term is never negative, so a city whose latitude
    difference alone exceeds the radius cannot pass the distance test.
    The window is widened by a relative 1e-6 and an absolute 1e-6 degrees,
    far beyond the rounding of either computation (at most ~1e-8 rad, near
    the antipode). The cities that remain are summed in database order, so
    the total is the same float as a test of every city.
    """
    if grid_half_side_km <= 0:
        raise ConfigurationError("grid_half_side_km must be positive")
    window = math.degrees(grid_half_side_km / EARTH_RADIUS_KM) * (1 + 1e-6) + 1e-6
    lat = point.lat
    total = 0.0
    for city in database:
        location = city.location
        if (
            abs(location.lat - lat) <= window
            and great_circle_km(point, location) <= grid_half_side_km
        ):
            total += city.population
    return total


@dataclass(frozen=True)
class PopulationModel:
    """Maps PoP locations to gravity weights.

    Attributes:
        database: the city database providing population mass.
        grid_half_side_km: radius of the population-aggregation disc.
        floor: minimum weight returned, so that PoPs in low-population spots
            still originate some traffic (the paper's grid never returns 0
            for a city location; ours could if a synthetic PoP were placed
            away from any database city).
    """

    database: CityDatabase
    grid_half_side_km: float = GRID_HALF_SIDE_KM
    floor: float = 50_000.0

    def weight_at(self, point: GeoPoint) -> float:
        """Gravity weight for a PoP located at ``point``."""
        grid = city_grid_population(point, self.database, self.grid_half_side_km)
        return max(grid, self.floor)

    def weight_for_city(self, city: City) -> float:
        """Gravity weight for a PoP placed exactly at ``city``."""
        return max(city.population, self.floor)
