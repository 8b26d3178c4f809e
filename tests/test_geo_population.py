"""Tests for repro.geo.population."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.geo.cities import default_city_database
from repro.geo.coords import EARTH_RADIUS_KM, GeoPoint, great_circle_km
from repro.geo.population import (
    GRID_HALF_SIDE_KM,
    PopulationModel,
    city_grid_population,
)

from reference.population import (
    city_grid_population as reference_grid_population,
)


@pytest.fixture(scope="module")
def db():
    return default_city_database()


class TestGridPopulation:
    def test_city_center_includes_itself(self, db):
        seattle = db.get("Seattle")
        pop = city_grid_population(seattle.location, db)
        assert pop >= seattle.population

    def test_remote_ocean_point_is_zero(self, db):
        # Middle of the South Pacific: no cities within 40 km.
        pop = city_grid_population(GeoPoint(-40.0, -130.0), db)
        assert pop == 0.0

    def test_grid_radius_default(self):
        assert GRID_HALF_SIDE_KM == pytest.approx(25 * 1.609344)

    def test_invalid_radius(self, db):
        with pytest.raises(ConfigurationError):
            city_grid_population(GeoPoint(0, 0), db, grid_half_side_km=0)

    def test_larger_grid_counts_more(self, db):
        nyc = db.get("New York")
        small = city_grid_population(nyc.location, db, 10.0)
        large = city_grid_population(nyc.location, db, 500.0)
        assert large >= small


#: Radii from a metre to beyond half the Earth's circumference (~20,015 km).
RADII = st.floats(1e-3, 1.25 * math.pi * EARTH_RADIUS_KM)
LATS = st.floats(-90.0, 90.0)
LONS = st.floats(-180.0, 180.0)


@st.composite
def points(draw):
    """Anywhere, near a pole, or near the antimeridian."""
    kind = draw(st.sampled_from(["anywhere", "pole", "antimeridian"]))
    if kind == "pole":
        lat = draw(st.sampled_from([90.0, -90.0]) | st.floats(89.0, 90.0)
                   | st.floats(-90.0, -89.0))
        return GeoPoint(lat, draw(LONS))
    if kind == "antimeridian":
        lon = draw(st.sampled_from([180.0, -180.0]) | st.floats(179.0, 180.0)
                   | st.floats(-180.0, -179.0))
        return GeoPoint(draw(LATS), lon)
    return GeoPoint(draw(LATS), draw(LONS))


class TestLatitudePrefilter:
    """The prefiltered sum equals a haversine test of every city."""

    @settings(deadline=None)
    @given(point=points(), radius=RADII)
    def test_any_point(self, db, point, radius):
        assert city_grid_population(point, db, radius) == (
            reference_grid_population(point, db, radius)
        )

    @settings(deadline=None)
    @given(index=st.integers(0, 10**6), radius=RADII)
    def test_city_points(self, db, index, radius):
        point = db.cities[index % len(db)].location
        assert city_grid_population(point, db, radius) == (
            reference_grid_population(point, db, radius)
        )

    @settings(deadline=None)
    @given(
        index=st.integers(0, 10**6),
        point=points(),
        dlat=st.floats(-5.0, 5.0),
        step=st.sampled_from([-1, 0, 1]),
    )
    def test_disc_edge(self, db, index, point, dlat, step):
        """A city exactly on, just inside or just outside the disc edge,
        including one due north or south of the point, where the haversine
        distance is the latitude bound itself."""
        city = db.cities[index % len(db)].location
        due = GeoPoint(min(90.0, max(-90.0, city.lat + dlat)), city.lon)
        for center in (point, due):
            edge = great_circle_km(center, city)
            radius = edge
            for _ in range(abs(step)):
                radius = math.nextafter(radius, math.inf * step)
            if radius <= 0:
                continue
            assert city_grid_population(center, db, radius) == (
                reference_grid_population(center, db, radius)
            )


class TestPopulationModel:
    def test_weight_at_city(self, db):
        model = PopulationModel(db)
        tokyo = db.get("Tokyo")
        assert model.weight_at(tokyo.location) >= tokyo.population

    def test_floor_applies_in_ocean(self, db):
        model = PopulationModel(db, floor=1234.0)
        assert model.weight_at(GeoPoint(-40.0, -130.0)) == 1234.0

    def test_weight_for_city_uses_population(self, db):
        model = PopulationModel(db)
        city = db.get("London")
        assert model.weight_for_city(city) == city.population

    def test_weight_for_tiny_city_floored(self, db):
        model = PopulationModel(db, floor=10**9)
        assert model.weight_for_city(db.get("Dubai")) == 10**9
