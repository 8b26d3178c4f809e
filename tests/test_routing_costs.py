"""Tests for repro.routing.costs (the PairCostTable)."""

import numpy as np
import pytest

from repro.errors import RoutingError
from repro.routing.costs import build_pair_cost_table
from repro.routing.flows import Flow, FlowSet, build_full_flowset
from repro.routing.incidence import PathIncidence
from repro.routing.paths import IntradomainRouting

from reference import tables as reference_tables


@pytest.fixture()
def table(small_pair):
    return build_pair_cost_table(small_pair, build_full_flowset(small_pair))


class TestShapes:
    def test_dimensions(self, small_pair, table):
        assert table.n_flows == 9
        assert table.n_alternatives == 2
        assert table.up_km.shape == (9, 2)
        assert table.ic_km.shape == (2,)

    def test_link_tables_align(self, small_pair, table):
        # One path per (interconnection, PoP) on each side.
        for paths, isp in (
            (table.up_paths, small_pair.isp_a),
            (table.down_paths, small_pair.isp_b),
        ):
            assert len(paths) == table.n_alternatives
            assert all(len(column) == isp.n_pops() for column in paths)
        inc = table.incidence("a")
        assert (inc.n_flows, inc.n_alternatives) == (
            table.n_flows, table.n_alternatives,
        )

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
        assert table.incidence("a").row_links(flow.index, 0).size == 0
        assert table.incidence("b").row_links(flow.index, 0).size == 0


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
        table.pop_incidence("a")  # compiled before the subset: shared
        sub = table.subset(np.array([2]))
        assert sub.up_paths is table.up_paths
        assert sub.down_paths is table.down_paths
        assert sub.pop_incidence("a") is table.pop_incidence("a")
        for i in range(table.n_alternatives):
            assert np.array_equal(
                sub.incidence("a").row_links(0, i),
                table.incidence("a").row_links(2, i),
            )

    def test_subset_validates(self, table):
        sub = table.subset(np.array([0, 4, 8]))
        sub.validate()

    def test_subset_flowset_is_view(self, table):
        sub = table.subset(np.array([1, 3]))
        assert np.array_equal(sub.flowset.sizes(), table.flowset.sizes()[[1, 3]])
        assert np.array_equal(sub.flowset.srcs(), table.flowset.srcs()[[1, 3]])


def _paths(n_pops, n_cols):
    """Synthetic ``paths[i][p]``: distinct lengths, one empty per column."""
    return tuple(
        tuple(np.arange(p + c, dtype=np.intp) for p in range(n_pops))
        for c in range(n_cols)
    )


def _assert_incidences_equal(got, want) -> None:
    assert (got.n_flows, got.n_alternatives, got.n_links) == (
        want.n_flows, want.n_alternatives, want.n_links,
    )
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.entry_flow, want.entry_flow)


class TestRaggedGathers:
    """The per-PoP compile and the endpoint gather equal the row-by-row
    compile of the per-flow rows they stand for."""

    @pytest.mark.parametrize("idx", [[], [2], [3, 0], [1, 1, 4]])
    def test_gather_rows(self, idx):
        # Flows are endpoint PoPs, in any order and possibly shared.
        paths = _paths(5, 3)
        pops = PathIncidence.from_paths(paths, 5, n_links=8)
        _assert_incidences_equal(
            pops.gather(np.asarray(idx, dtype=np.intp)),
            reference_tables.compile_rows(
                tuple(tuple(column[p] for column in paths) for p in idx),
                n_links=8, n_alternatives=3,
            ),
        )

    @pytest.mark.parametrize("n_rows", [0, 1, 4])
    @pytest.mark.parametrize("cols", [[], [1], [0, 2], [2, 0, 1]])
    def test_gather_columns(self, n_rows, cols):
        # Any selection of a side's columns compiles per PoP in that order.
        paths = _paths(n_rows, 3)
        picked = tuple(paths[j] for j in cols)
        _assert_incidences_equal(
            PathIncidence.from_paths(picked, n_rows, n_links=8),
            reference_tables.compile_rows(
                tuple(
                    tuple(column[p] for column in picked)
                    for p in range(n_rows)
                ),
                n_links=8, n_alternatives=len(cols),
            ),
        )

    @pytest.mark.parametrize("n_views", [0, 1, 3])
    def test_per_pop_rows(self, n_views):
        # Row p * I + i is view i's entry for PoP p; None compiles empty.
        views = tuple(
            tuple(
                None if p == v else np.arange(p + v, dtype=np.intp)
                for p in range(4)
            )
            for v in range(n_views)
        )
        pops = PathIncidence.from_paths(views, 4, n_links=8)
        assert (pops.n_flows, pops.n_alternatives) == (4, n_views)
        for p in range(4):
            for v, view in enumerate(views):
                want = view[p] if view[p] is not None else []
                assert pops.row_links(p, v).tolist() == list(want)

    def test_one_column_table_derivations(self, table):
        # One surviving column keeps that column's paths themselves.
        single = table.without_alternative(1)
        assert len(single.up_paths) == 1
        assert single.up_paths[0] is table.up_paths[0]
        assert single.down_paths[0] is table.down_paths[0]
        one_row = single.subset([4])
        assert one_row.down_paths is single.down_paths
        for derived in (single, one_row):
            for side in "ab":
                _assert_incidences_equal(
                    derived.incidence(side),
                    reference_tables.incidence(derived, side),
                )


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
