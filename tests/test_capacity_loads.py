"""Tests for repro.capacity.loads."""

import numpy as np
import pytest

from repro.capacity.loads import LoadTracker, link_loads
from repro.errors import CapacityError
from repro.routing.costs import build_pair_cost_table
from repro.routing.exits import early_exit_choices
from repro.routing.flows import build_full_flowset
from repro.routing.incidence import PathIncidence
from repro.topology.builders import build_scale_pair

from reference import loads as reference_loads
from reference import tables as reference_tables


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
        rows = reference_tables.rows(table, "a")
        expected = 0.0
        for flow in table.flowset:
            expected += flow.size * len(rows[flow.index][choices[flow.index]])
        assert loads.sum() == pytest.approx(expected)

    def test_both_sides(self, table):
        choices = early_exit_choices(table)
        la, lb = (link_loads(table, choices, side) for side in "ab")
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


@pytest.fixture(scope="module")
def scale_table():
    pair = build_scale_pair(16, n_interconnections=3, seed=11)
    return build_pair_cost_table(pair, build_full_flowset(pair))


class TestActiveValidated:
    """``active`` must be a bool mask over every flow; the full early-exit
    placement of this table totals 352.0 upstream."""

    def test_full_placement_total(self, scale_table):
        choices = early_exit_choices(scale_table)
        assert link_loads(scale_table, choices, "a").sum() == 352.0

    @pytest.mark.parametrize(
        "make_active",
        [
            lambda n: np.ones(n - 100, dtype=bool),  # short: silently partial
            lambda n: np.ones(n + 5, dtype=bool),  # long: was an IndexError
            lambda n: np.array([0, 1, 2]),  # indices, not a mask
        ],
        ids=["short-mask", "long-mask", "index-array"],
    )
    def test_rejected(self, scale_table, make_active):
        choices = early_exit_choices(scale_table)
        with pytest.raises(CapacityError, match="active must be a bool array"):
            link_loads(
                scale_table, choices, "a",
                active=make_active(scale_table.n_flows),
            )


class TestPerPopGather:
    """``link_loads`` reads placements from the per-PoP CSR only."""

    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("masked", [False, True], ids=["all", "active"])
    @pytest.mark.parametrize("seeded", [False, True], ids=["zero", "base"])
    def test_equals_reference_without_flow_rows(
        self, scale_table, side, masked, seeded, monkeypatch
    ):
        # A fresh table: no flow-level incidence built by earlier tests.
        table = scale_table.subset(np.arange(scale_table.n_flows))
        rng = np.random.default_rng(7)
        choices = rng.integers(0, table.n_alternatives, size=table.n_flows)
        active = rng.random(table.n_flows) < 0.6 if masked else None
        n_links = reference_tables.n_links(table, side)
        base = rng.uniform(0.0, 5.0, size=n_links) if seeded else None

        def forbidden(*args, **kwargs):  # pragma: no cover - fails the test
            raise AssertionError("link_loads built flow-level rows")

        with monkeypatch.context() as patch:
            patch.setattr(PathIncidence, "gather", forbidden)
            got = link_loads(table, choices, side, active=active, base=base)
        want = reference_loads.link_loads(
            table, choices, side, active=active, base=base
        )
        assert np.array_equal(got, want)
        assert "_incidence_a" not in table.__dict__
        assert "_incidence_b" not in table.__dict__


class TestLoadTracker:
    def test_place_accumulates(self, table):
        tracker = LoadTracker(table, "a")
        tracker.place(3, 1)
        links = reference_tables.rows(table, "a")[3][1]
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
        rows = reference_tables.rows(table, "a")
        links = rows[flow.index][choice]
        if len(links) == 0:
            choice = 1
            links = rows[flow.index][choice]
        ratio = tracker.peek_max_ratio(flow.index, choice, caps)
        assert ratio == pytest.approx(flow.size / 2.0)

    def test_peek_empty_path_is_zero(self, table):
        caps = np.full(table.pair.isp_a.n_links(), 2.0)
        tracker = LoadTracker(table, "a")
        rows = reference_tables.rows(table, "a")
        colocated = next(
            f for f in table.flowset if len(rows[f.index][0]) == 0
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
