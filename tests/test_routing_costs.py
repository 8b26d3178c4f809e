"""Tests for repro.routing.costs (the PairCostTable)."""

import numpy as np
import pytest

from repro.errors import RoutingError
from repro.routing.costs import (
    _gather_columns,
    _gather_rows,
    _per_pop_rows,
    build_pair_cost_table,
)
from repro.routing.flows import Flow, FlowSet, build_full_flowset
from repro.routing.paths import IntradomainRouting


@pytest.fixture()
def table(small_pair):
    return build_pair_cost_table(small_pair, build_full_flowset(small_pair))


class TestShapes:
    def test_dimensions(self, small_pair, table):
        assert table.n_flows == 9
        assert table.n_alternatives == 2
        assert table.up_km.shape == (9, 2)
        assert table.ic_km.shape == (2,)

    def test_link_tables_align(self, table):
        assert len(table.up_links) == table.n_flows
        assert all(len(row) == table.n_alternatives for row in table.up_links)

    def test_validate_passes(self, table):
        table.validate()


class TestValues:
    def test_zero_cost_at_own_exit(self, small_pair, table):
        # Flow from PoP 0 (Left): using the Left interconnection costs the
        # upstream nothing.
        flow = next(f for f in table.flowset if f.src == 0)
        assert table.up_km[flow.index, 0] == 0.0
        assert table.up_weight[flow.index, 0] == 0.0

    def test_chain_costs(self, small_pair, table):
        # xnet is a chain with weight 10 per hop: Left->Right = 20.
        flow = next(f for f in table.flowset if f.src == 0)
        assert table.up_weight[flow.index, 1] == pytest.approx(20.0)

    def test_total_includes_both_sides_and_ic(self, table):
        expected = table.up_km + table.ic_km[np.newaxis, :] + table.down_km
        assert np.allclose(table.total_km(), expected)

    def test_same_city_ic_has_zero_length(self, table):
        assert np.allclose(table.ic_km, 0.0)

    def test_empty_path_for_colocated_flow(self, small_pair, table):
        flow = next(f for f in table.flowset if f.src == 0 and f.dst == 0)
        assert len(table.up_links[flow.index][0]) == 0
        assert len(table.down_links[flow.index][0]) == 0


class TestSharedRouting:
    def test_shared_caches_give_same_results(self, small_pair):
        fs = build_full_flowset(small_pair)
        fresh = build_pair_cost_table(small_pair, fs)
        ra = IntradomainRouting(small_pair.isp_a)
        rb = IntradomainRouting(small_pair.isp_b)
        shared = build_pair_cost_table(small_pair, fs, ra, rb)
        assert np.array_equal(fresh.up_km, shared.up_km)
        assert np.array_equal(fresh.down_weight, shared.down_weight)

    def test_wrong_pair_flowset_rejected(self, small_pair, fig1):
        fs = build_full_flowset(fig1.pair)
        with pytest.raises(RoutingError):
            build_pair_cost_table(small_pair, fs)


class TestSubset:
    def test_subset_rows(self, table):
        sub = table.subset(np.array([1, 3]))
        assert sub.n_flows == 2
        assert np.array_equal(sub.up_km[0], table.up_km[1])
        assert np.array_equal(sub.down_km[1], table.down_km[3])
        assert sub.flowset[0].src == table.flowset[1].src

    def test_subset_links_alias_rows(self, table):
        sub = table.subset(np.array([2]))
        assert sub.up_links[0] is table.up_links[2]

    def test_subset_validates(self, table):
        sub = table.subset(np.array([0, 4, 8]))
        sub.validate()

    def test_subset_flowset_is_view(self, table):
        sub = table.subset(np.array([1, 3]))
        assert np.array_equal(sub.flowset.sizes(), table.flowset.sizes()[[1, 3]])
        assert np.array_equal(sub.flowset.srcs(), table.flowset.srcs()[[1, 3]])


def _ragged(n_rows, n_cols):
    return tuple(
        tuple(np.arange(r + c) for c in range(n_cols)) for r in range(n_rows)
    )


def _same_ragged(got, want) -> None:
    """Same nesting, and every cell is the very same array object."""
    assert type(got) is tuple and len(got) == len(want)
    for got_row, want_row in zip(got, want):
        assert type(got_row) is tuple and len(got_row) == len(want_row)
        assert all(g is w for g, w in zip(got_row, want_row))


class TestRaggedGathers:
    """The C-level gathers equal the per-flow comprehensions they replace."""

    @pytest.mark.parametrize("idx", [[], [2], [3, 0], [1, 1, 4]])
    def test_gather_rows(self, idx):
        rows = _ragged(5, 3)
        _same_ragged(_gather_rows(rows, idx), tuple(rows[i] for i in idx))

    @pytest.mark.parametrize("n_rows", [0, 1, 4])
    @pytest.mark.parametrize("cols", [[], [1], [0, 2], [2, 0, 1]])
    def test_gather_columns(self, n_rows, cols):
        rows = _ragged(n_rows, 3)
        _same_ragged(
            _gather_columns(rows, cols),
            tuple(tuple(row[j] for j in cols) for row in rows),
        )

    @pytest.mark.parametrize("n_views", [0, 1, 3])
    def test_per_pop_rows(self, n_views):
        views = [tuple(np.arange(p + v) for p in range(4)) for v in range(n_views)]
        _same_ragged(
            _per_pop_rows(views, 4),
            tuple(tuple(view[p] for view in views) for p in range(4)),
        )

    def test_one_column_table_derivations(self, table):
        # One surviving column takes the 1-tuple path of every gather.
        single = table.without_alternative(1)
        assert all(len(row) == 1 for row in single.up_links)
        _same_ragged(single.up_links, tuple((row[0],) for row in table.up_links))
        one_row = single.subset([4])
        _same_ragged(one_row.down_links, (single.down_links[4],))


class TestSubsetValidation:
    def test_out_of_range_rejected(self, table):
        with pytest.raises(RoutingError, match="must be in 0"):
            table.subset(np.array([table.n_flows]))

    def test_negative_rejected(self, table):
        """Regression: -1 used to silently alias to the last flow row."""
        with pytest.raises(RoutingError, match="must be in 0"):
            table.subset(np.array([-1]))

    def test_duplicates_rejected(self, table):
        with pytest.raises(RoutingError, match="duplicates"):
            table.subset(np.array([2, 2]))

    def test_non_1d_rejected(self, table):
        with pytest.raises(RoutingError, match="1-D"):
            table.subset(np.array([[0], [1]]))

    def test_unknown_engine_rejected(self, table):
        # One structural subset path: the engine option is gone.
        with pytest.raises(TypeError, match="engine"):
            table.subset(np.array([0]), engine="nope")

    @pytest.mark.parametrize("engine", ["incidence", "legacy"])
    def test_both_engines_validate(self, table, engine):
        """Validation precedes derivation, warm parent or cold."""
        if engine == "incidence":
            table.incidence("a")
        with pytest.raises(RoutingError):
            table.subset(np.array([99]))


class TestReversedDirection:
    def test_reverse_swaps_up_down(self, small_pair):
        fs = build_full_flowset(small_pair)
        fwd = build_pair_cost_table(small_pair, fs)
        rev_pair = small_pair.reversed()
        # Mirror each forward flow (src in A, dst in B) as (dst, src).
        mirrored = FlowSet(
            rev_pair,
            [Flow(index=i, src=f.dst, dst=f.src) for i, f in enumerate(fs)],
        )
        rev = build_pair_cost_table(rev_pair, mirrored)
        assert np.allclose(fwd.up_km, rev.down_km)
        assert np.allclose(fwd.down_km, rev.up_km)
