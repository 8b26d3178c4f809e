"""The population grid sum as a haversine test of every city."""

from __future__ import annotations

from repro.geo.coords import great_circle_km


def city_grid_population(point, database, grid_half_side_km) -> float:
    total = 0.0
    for city in database:
        if great_circle_km(point, city.location) <= grid_half_side_km:
            total += city.population
    return total
