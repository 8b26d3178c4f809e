"""Tests for repro.topology.interconnect."""

import pytest

from repro.errors import TopologyError
from repro.topology.builders import build_custom_isp, build_line_isp, build_mesh_isp
from repro.topology.interconnect import (
    Interconnection,
    IspPair,
    find_isp_pairs,
)


class TestInterconnection:
    def test_valid(self):
        ic = Interconnection(index=0, city="X", pop_a=1, pop_b=2)
        assert ic.length_km == 0.0

    def test_negative_index(self):
        with pytest.raises(TopologyError):
            Interconnection(index=-1, city="X", pop_a=0, pop_b=0)

    def test_negative_length(self):
        with pytest.raises(TopologyError):
            Interconnection(index=0, city="X", pop_a=0, pop_b=0, length_km=-1)

    @pytest.mark.parametrize("length", [float("nan"), float("inf"), -1.0])
    def test_length_must_be_finite_and_non_negative(self, length):
        # Regression: nan and inf passed the ``< 0`` check and reached every
        # Section 5.1 total through the pair's interconnection lengths.
        with pytest.raises(TopologyError, match="finite"):
            Interconnection(index=0, city="X", pop_a=0, pop_b=0, length_km=length)


class TestIspPair:
    def test_validates_cities_match(self, small_pair):
        assert small_pair.n_interconnections() == 2

    def test_self_pair_rejected(self):
        isp = build_line_isp("same", ["A", "B"])
        with pytest.raises(TopologyError):
            IspPair(isp, isp, [Interconnection(0, "A", 0, 0)])

    def test_no_interconnections_rejected(self):
        a = build_line_isp("a", ["A", "B"])
        b = build_line_isp("b", ["A", "B"])
        with pytest.raises(TopologyError):
            IspPair(a, b, [])

    def test_wrong_city_rejected(self):
        a = build_line_isp("a", ["A", "B"])
        b = build_line_isp("b", ["A", "B"])
        with pytest.raises(TopologyError):
            IspPair(a, b, [Interconnection(0, "A", pop_a=1, pop_b=0)])

    def test_negative_pop_rejected(self):
        # PoP -4 of a 4-PoP ISP must not wrap around to PoP 0 in city A.
        a = build_line_isp("a", ["A", "B", "C", "D"])
        b = build_line_isp("b", ["A", "B"])
        with pytest.raises(TopologyError, match="no PoP with index -4"):
            IspPair(a, b, [Interconnection(0, "A", pop_a=-4, pop_b=0)])

    def test_duplicate_city_rejected(self, small_pair):
        ics = list(small_pair.interconnections)
        with pytest.raises(TopologyError):
            IspPair(
                small_pair.isp_a,
                small_pair.isp_b,
                [ics[0], Interconnection(1, "Left", 0, 0)],
            )

    def test_non_dense_indices_rejected(self, small_pair):
        ics = [
            Interconnection(1, "Left", 0, 0),
            Interconnection(0, "Right", 2, 2),
        ]
        with pytest.raises(TopologyError):
            IspPair(small_pair.isp_a, small_pair.isp_b, ics)

    def test_exit_pops(self, small_pair):
        assert small_pair.exit_pops("a") == (0, 2)
        assert small_pair.exit_pops("b") == (0, 2)
        with pytest.raises(TopologyError):
            small_pair.exit_pops("c")

    def test_isp_side_lookup(self, small_pair):
        assert small_pair.isp("a").name == "xnet"
        assert small_pair.isp("b").name == "ynet"
        assert small_pair.other_side("a") == "b"

    def test_reversed_swaps(self, small_pair):
        rev = small_pair.reversed()
        assert rev.isp_a.name == "ynet"
        assert rev.isp_b.name == "xnet"
        assert rev.interconnections[0].pop_a == small_pair.interconnections[0].pop_b

    def test_reversed_twice_is_identity(self, small_pair):
        back = small_pair.reversed().reversed()
        assert back.isp_a.name == small_pair.isp_a.name
        assert back.interconnections == small_pair.interconnections


class TestFailure:
    def test_without_interconnection(self, fig2):
        pair = fig2.pair
        failed = pair.without_interconnection(1)
        assert failed.n_interconnections() == 2
        cities = [ic.city for ic in failed.interconnections]
        assert "MidCity" not in cities
        # Indices reindexed densely.
        assert [ic.index for ic in failed.interconnections] == [0, 1]

    def test_cannot_fail_unknown(self, small_pair):
        with pytest.raises(TopologyError):
            small_pair.without_interconnection(5)

    def test_cannot_fail_only_interconnection(self):
        a = build_line_isp("a", ["A", "B"])
        b = build_line_isp("b", ["A", "C"])
        pair = IspPair(a, b, [Interconnection(0, "A", 0, 0)])
        with pytest.raises(TopologyError):
            pair.without_interconnection(0)


class TestFindPairs:
    def test_finds_shared_cities(self):
        a = build_line_isp("a", ["X", "Y", "Z"])
        b = build_line_isp("b", ["X", "Q", "Z"])
        pairs = find_isp_pairs([a, b], min_interconnections=2)
        assert len(pairs) == 1
        assert {ic.city for ic in pairs[0].interconnections} == {"X", "Z"}

    def test_below_threshold_excluded(self):
        a = build_line_isp("a", ["X", "Y"])
        b = build_line_isp("b", ["X", "Q"])
        assert find_isp_pairs([a, b], min_interconnections=2) == []

    def test_mesh_excluded_by_default(self):
        a = build_line_isp("a", ["X", "Y", "Z", "W"])
        mesh = build_mesh_isp("m", ["X", "Y", "Z", "W"])
        assert find_isp_pairs([a, mesh]) == []
        included = find_isp_pairs([a, mesh], exclude_mesh=False)
        assert len(included) == 1

    def test_max_interconnections_cap(self):
        cities = [f"C{i}" for i in range(12)]
        a = build_line_isp("a", cities)
        b = build_line_isp("b", cities)
        pairs = find_isp_pairs([a, b], max_interconnections=4)
        assert pairs[0].n_interconnections() == 4

    def test_bad_min(self):
        with pytest.raises(TopologyError):
            find_isp_pairs([], min_interconnections=0)

    def test_interconnection_length_zero_for_same_city(self):
        a = build_custom_isp("a", [("X", 40.0, -100.0), ("Y", 41.0, -100.0)],
                             [(0, 1, 5.0)])
        b = build_custom_isp("b", [("X", 40.0, -100.0), ("Z", 42.0, -100.0)],
                             [(0, 1, 5.0)])
        pairs = find_isp_pairs([a, b], min_interconnections=1)
        assert pairs[0].interconnections[0].length_km == 0.0
