"""Tests for repro.capacity.loads."""

import numpy as np
import pytest

from repro.capacity.loads import LoadTracker, link_loads, pair_link_loads
from repro.errors import CapacityError
from repro.routing.costs import build_pair_cost_table
from repro.routing.exits import early_exit_choices
from repro.routing.flows import build_full_flowset

from reference import loads as reference_loads


@pytest.fixture()
def table(small_pair):
    return build_pair_cost_table(
        small_pair, build_full_flowset(small_pair, size_fn=lambda s, d: s + 1.0)
    )


class TestLinkLoads:
    def test_conservation(self, table):
        """Total load = sum over flows of size * hops."""
        choices = early_exit_choices(table)
        loads = link_loads(table, choices, "a")
        expected = 0.0
        for flow in table.flowset:
            expected += flow.size * len(table.up_links[flow.index][choices[flow.index]])
        assert loads.sum() == pytest.approx(expected)

    def test_both_sides(self, table):
        choices = early_exit_choices(table)
        la, lb = pair_link_loads(table, choices)
        assert la.shape == (table.pair.isp_a.n_links(),)
        assert lb.shape == (table.pair.isp_b.n_links(),)

    def test_active_mask(self, table):
        choices = early_exit_choices(table)
        full = link_loads(table, choices, "a")
        none = link_loads(table, choices, "a",
                          active=np.zeros(table.n_flows, dtype=bool))
        assert np.allclose(none, 0.0)
        half_mask = np.arange(table.n_flows) % 2 == 0
        half = link_loads(table, choices, "a", active=half_mask)
        other = link_loads(table, choices, "a", active=~half_mask)
        assert np.allclose(half + other, full)

    def test_base_seeds_accumulation(self, table):
        """Seeded accumulation: base + masked flows, equal to the loop."""
        choices = early_exit_choices(table)
        mask = np.arange(table.n_flows) % 2 == 0
        base = link_loads(table, choices, "a", active=~mask)
        seeded = link_loads(table, choices, "a", active=mask, base=base)
        seeded_legacy = reference_loads.link_loads(
            table, choices, "a", active=mask, base=base
        )
        assert np.array_equal(seeded, seeded_legacy)
        assert np.allclose(seeded, link_loads(table, choices, "a"))
        # base with no active flows passes through exactly.
        none = link_loads(
            table, choices, "a", active=np.zeros(table.n_flows, bool), base=base
        )
        assert np.array_equal(none, base)

    def test_base_shape_validated(self, table):
        with pytest.raises(CapacityError):
            link_loads(table, early_exit_choices(table), "a", base=np.zeros(3))

    def test_bad_side(self, table):
        with pytest.raises(CapacityError):
            link_loads(table, early_exit_choices(table), "x")

    def test_bad_choices_shape(self, table):
        with pytest.raises(CapacityError):
            link_loads(table, np.zeros(3, dtype=int), "a")

    def test_out_of_range_choice(self, table):
        bad = np.full(table.n_flows, 99, dtype=int)
        with pytest.raises(CapacityError):
            link_loads(table, bad, "a")


class TestLoadTracker:
    def test_place_remove_roundtrip(self, table):
        tracker = LoadTracker(table, "a")
        before = tracker.loads
        tracker.place(0, 1)
        tracker.remove(0, 1)
        assert np.allclose(tracker.loads, before)

    def test_place_accumulates(self, table):
        tracker = LoadTracker(table, "a")
        tracker.place(3, 1)
        links = table.up_links[3][1]
        loads = tracker.loads
        for li in links:
            assert loads[li] == pytest.approx(table.flowset[3].size)

    def test_base_loads(self, table):
        base = np.ones(table.pair.isp_a.n_links())
        tracker = LoadTracker(table, "a", base_loads=base)
        assert np.allclose(tracker.loads, 1.0)

    def test_base_loads_shape_checked(self, table):
        wrong_length = table.pair.isp_a.n_links() + 1
        with pytest.raises(CapacityError):
            LoadTracker(table, "a", base_loads=np.ones(wrong_length))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_base_loads_must_be_finite(self, table, value):
        base = np.ones(table.pair.isp_a.n_links())
        base[0] = value
        with pytest.raises(CapacityError, match="finite"):
            LoadTracker(table, "a", base_loads=base)

    def test_loads_property_is_copy(self, table):
        tracker = LoadTracker(table, "a")
        snapshot = tracker.loads
        snapshot[:] = 99.0
        assert not np.allclose(tracker.loads, 99.0)

    def test_peek_max_ratio(self, table):
        caps = np.full(table.pair.isp_a.n_links(), 2.0)
        tracker = LoadTracker(table, "a")
        flow = next(f for f in table.flowset if f.src != 0)  # non-empty path
        choice = 0
        links = table.up_links[flow.index][choice]
        if len(links) == 0:
            choice = 1
            links = table.up_links[flow.index][choice]
        ratio = tracker.peek_max_ratio(flow.index, choice, caps)
        assert ratio == pytest.approx(flow.size / 2.0)

    def test_peek_empty_path_is_zero(self, table):
        caps = np.full(table.pair.isp_a.n_links(), 2.0)
        tracker = LoadTracker(table, "a")
        colocated = next(
            f for f in table.flowset
            if len(table.up_links[f.index][0]) == 0
        )
        assert tracker.peek_max_ratio(colocated.index, 0, caps) == 0.0

    def test_peek_does_not_mutate(self, table):
        caps = np.full(table.pair.isp_a.n_links(), 2.0)
        tracker = LoadTracker(table, "a")
        before = tracker.loads
        tracker.peek_max_ratio(1, 1, caps)
        assert np.allclose(tracker.loads, before)

    def test_bad_side(self, table):
        with pytest.raises(CapacityError):
            LoadTracker(table, "z")
