"""Tests for repro.topology.elements."""

import math

import pytest

from repro.errors import TopologyError
from repro.geo.coords import GeoPoint
from repro.topology.elements import Link, PoP


class TestPoP:
    def test_valid(self):
        pop = PoP(index=0, city="Seattle", location=GeoPoint(47.6, -122.3))
        assert pop.city == "Seattle"

    def test_negative_index(self):
        with pytest.raises(TopologyError):
            PoP(index=-1, city="X", location=GeoPoint(0, 0))

    def test_empty_city(self):
        with pytest.raises(TopologyError):
            PoP(index=0, city="", location=GeoPoint(0, 0))

    def test_frozen(self):
        pop = PoP(index=0, city="X", location=GeoPoint(0, 0))
        with pytest.raises(AttributeError):
            pop.city = "Y"  # type: ignore[misc]


class TestLink:
    def test_valid(self):
        link = Link(index=0, u=0, v=1, weight=10.0, length_km=10.0)
        assert link.endpoints == (0, 1)

    def test_canonical_endpoint_order(self):
        link = Link(index=0, u=5, v=2, weight=1.0, length_km=1.0)
        assert link.endpoints == (2, 5)

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Link(index=0, u=3, v=3, weight=1.0, length_km=1.0)

    @pytest.mark.parametrize("u, v", [(-1, 0), (0, -1), (-2, -1)])
    def test_negative_endpoint_rejected(self, u, v):
        with pytest.raises(TopologyError, match="endpoints must be >= 0"):
            Link(index=0, u=u, v=v, weight=1.0, length_km=1.0)

    @pytest.mark.parametrize("weight", [0.0, -1.0])
    def test_non_positive_weight_rejected(self, weight):
        with pytest.raises(TopologyError):
            Link(index=0, u=0, v=1, weight=weight, length_km=1.0)

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, weight):
        # Dijkstra would route around a NaN link, and an inf one leaves
        # the PoPs behind it unreachable although the graph is connected.
        with pytest.raises(TopologyError, match="weight must be finite"):
            Link(index=0, u=0, v=1, weight=weight, length_km=1.0)

    def test_negative_length_rejected(self):
        with pytest.raises(TopologyError):
            Link(index=0, u=0, v=1, weight=1.0, length_km=-0.1)

    @pytest.mark.parametrize("length", [math.nan, math.inf, -math.inf])
    def test_non_finite_length_rejected(self, length):
        # A NaN length would make every routed distance over it NaN.
        with pytest.raises(TopologyError, match="length must be finite"):
            Link(index=0, u=0, v=1, weight=1.0, length_km=length)

    def test_zero_length_allowed(self):
        # Same-city peering links can be zero length.
        link = Link(index=0, u=0, v=1, weight=1.0, length_km=0.0)
        assert link.length_km == 0.0

    def test_negative_index_rejected(self):
        with pytest.raises(TopologyError):
            Link(index=-1, u=0, v=1, weight=1.0, length_km=1.0)

    def test_other_endpoint(self):
        link = Link(index=0, u=0, v=1, weight=1.0, length_km=1.0)
        assert link.other(0) == 1
        assert link.other(1) == 0

    def test_other_unknown_endpoint(self):
        link = Link(index=0, u=0, v=1, weight=1.0, length_km=1.0)
        with pytest.raises(TopologyError):
            link.other(7)
