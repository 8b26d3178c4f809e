"""Tests for repro.topology.isp."""

import pytest

from repro.errors import TopologyError
from repro.geo.coords import GeoPoint
from repro.topology.builders import build_custom_isp, build_line_isp, build_mesh_isp
from repro.topology.elements import Link, PoP
from repro.topology.isp import ISPTopology


def _pops(cities):
    return [
        PoP(index=i, city=c, location=GeoPoint(40.0, -100.0 + i))
        for i, c in enumerate(cities)
    ]


class TestConstruction:
    def test_minimal(self):
        isp = ISPTopology(
            "t", _pops(["A", "B"]), [Link(0, 0, 1, 1.0, 1.0)]
        )
        assert isp.n_pops() == 2
        assert isp.n_links() == 1

    def test_empty_name_rejected(self):
        with pytest.raises(TopologyError):
            ISPTopology("", _pops(["A", "B"]), [Link(0, 0, 1, 1.0, 1.0)])

    def test_no_pops_rejected(self):
        with pytest.raises(TopologyError):
            ISPTopology("t", [], [])

    def test_non_dense_pop_indices(self):
        pops = [PoP(index=1, city="A", location=GeoPoint(0, 0))]
        with pytest.raises(TopologyError):
            ISPTopology("t", pops, [])

    def test_duplicate_cities_rejected(self):
        pops = _pops(["A", "A"])
        with pytest.raises(TopologyError):
            ISPTopology("t", pops, [Link(0, 0, 1, 1.0, 1.0)])

    def test_link_to_unknown_pop(self):
        with pytest.raises(TopologyError):
            ISPTopology("t", _pops(["A", "B"]), [Link(0, 0, 5, 1.0, 1.0)])

    def test_duplicate_links_rejected(self):
        links = [Link(0, 0, 1, 1.0, 1.0), Link(1, 1, 0, 2.0, 2.0)]
        with pytest.raises(TopologyError):
            ISPTopology("t", _pops(["A", "B"]), links)

    def test_non_dense_link_indices(self):
        with pytest.raises(TopologyError):
            ISPTopology("t", _pops(["A", "B"]), [Link(3, 0, 1, 1.0, 1.0)])

    def test_pops_joined_only_through_a_negative_pop_rejected(self):
        # PoP -1 does not exist, so A and B are not joined at all.
        with pytest.raises(TopologyError, match="endpoints must be >= 0"):
            ISPTopology(
                "t",
                _pops(["A", "B"]),
                [Link(0, -1, 0, 1.0, 1.0), Link(1, -1, 1, 1.0, 1.0)],
            )

    def test_disconnected_rejected(self):
        pops = _pops(["A", "B", "C", "D"])
        links = [Link(0, 0, 1, 1.0, 1.0), Link(1, 2, 3, 1.0, 1.0)]
        with pytest.raises(TopologyError):
            ISPTopology("t", pops, links)

    def test_single_pop_allowed(self):
        isp = ISPTopology("t", _pops(["A"]), [])
        assert isp.n_pops() == 1


class TestAccessors:
    @pytest.fixture()
    def isp(self):
        return build_line_isp("line", ["A", "B", "C"])

    def test_pop_lookup(self, isp):
        assert isp.pop(1).city == "B"

    def test_pop_out_of_range(self, isp):
        with pytest.raises(TopologyError):
            isp.pop(10)

    @pytest.mark.parametrize("index", [-1, -3])
    def test_pop_negative_index_rejected(self, isp, index):
        # A negative index must not wrap around to a PoP from the end.
        with pytest.raises(TopologyError, match="no PoP with index"):
            isp.pop(index)

    def test_degree_negative_index_rejected(self, isp):
        with pytest.raises(TopologyError, match="no PoP with index"):
            isp.degree(-1)

    def test_city_lookup(self, isp):
        assert isp.pop_in_city("C").index == 2

    def test_unknown_city(self, isp):
        with pytest.raises(TopologyError):
            isp.pop_in_city("Nowhere")

    def test_cities(self, isp):
        assert isp.cities() == frozenset({"A", "B", "C"})

    def test_has_city(self, isp):
        assert isp.has_city("A")
        assert not isp.has_city("Z")

    def test_link_between(self, isp):
        link = isp.link_between(1, 0)
        assert link.endpoints == (0, 1)

    def test_link_between_missing(self, isp):
        with pytest.raises(TopologyError):
            isp.link_between(0, 2)

    def test_degree(self, isp):
        assert isp.degree(0) == 1
        assert isp.degree(1) == 2

    def test_total_link_km(self, isp):
        assert isp.total_link_km() == pytest.approx(1000.0)

    def test_repr(self, isp):
        assert "line" in repr(isp)


class TestMeshDetection:
    def test_mesh_detected(self):
        mesh = build_mesh_isp("m", ["A", "B", "C", "D"])
        assert mesh.is_logical_mesh()
        assert mesh.edge_density() == 1.0

    def test_line_not_mesh(self):
        line = build_line_isp("l", ["A", "B", "C", "D", "E"])
        assert not line.is_logical_mesh()

    def test_triangle_too_small_for_mesh(self):
        tri = build_custom_isp(
            "tri",
            [("A", 0, 0), ("B", 0, 1), ("C", 1, 0)],
            [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)],
        )
        assert tri.edge_density() == 1.0
        assert not tri.is_logical_mesh()  # needs >= 4 PoPs


class TestEquality:
    def test_equal_topologies(self):
        a = build_line_isp("x", ["A", "B"])
        b = build_line_isp("x", ["A", "B"])
        assert a == b
        assert hash(a) == hash(b)

    def test_different_names_not_equal(self):
        a = build_line_isp("x", ["A", "B"])
        b = build_line_isp("y", ["A", "B"])
        assert a != b

    def test_not_equal_other_type(self):
        assert build_line_isp("x", ["A", "B"]) != 42


class TestGeographicSpan:
    def test_span_positive(self):
        isp = build_line_isp("l", ["A", "B", "C"], spacing_km=500.0)
        assert isp.geographic_span_km() > 500
