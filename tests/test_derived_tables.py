"""Failure-case fast path: derived tables vs per-case rebuilds.

The derive-don't-recompute contract, on both axes of the (F, I) space:

* column axis — evaluating one interconnection failure does zero routing
  work; the post-failure cost table (dense arrays, per-PoP paths, flowset)
  is *derived* from the pre-failure table by dropping the failed column,
  and must equal a ``build_full_flowset`` + ``build_pair_cost_table``
  rebuild over ``pair.without_interconnection(k)`` bit for bit;
* flow axis — restricting negotiation to the affected flows shares the
  parent's paths and compiled per-PoP CSR; ``PairCostTable.subset``
  row-gathers the table and the array-backed flowset view, and must equal
  the per-flow reference rebuild (``reference.tables.subset``) bit for bit.

Every derived table's flow-level incidence must equal the row-by-row
compile of its per-flow reference rows.

Both contracts hold all the way up to complete ``BandwidthCaseResult``s:
the case-level tests swap the reference in at the derivation seam and
compare whole results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import RoutingError, TrafficError
from repro.experiments.bandwidth import (
    _build_context,
    run_bandwidth_case,
    run_pair_cases,
)
from repro.experiments.config import ExperimentConfig
from repro.geo.population import PopulationModel
from repro.routing.costs import PairCostTable, build_pair_cost_table
from repro.routing.exits import early_exit_choices
from repro.routing.flows import build_full_flowset
from repro.routing.incidence import PathIncidence
from repro.topology.dataset import build_default_dataset
from repro.traffic.gravity import GravityWorkload

from reference import tables as reference_tables


@pytest.fixture(scope="module")
def bandwidth_fixture():
    """A >=3-interconnection pair with gravity sizes and its case context."""
    config = ExperimentConfig.quick()
    dataset = build_default_dataset(config.dataset)
    pair = dataset.pairs(min_interconnections=3, max_pairs=1)[0]
    workload = GravityWorkload(PopulationModel(dataset.city_db))
    context = _build_context(pair, workload)
    return config, pair, workload, context


def _rebuild(pair, workload, k):
    """The per-case rebuild: route the full flowset over the failed pair."""
    failed_pair = pair.without_interconnection(k)
    flowset = build_full_flowset(failed_pair, workload.size_fn(pair))
    return build_pair_cost_table(failed_pair, flowset)


def _rebuild_instead_of_deriving(monkeypatch, workload):
    """Make every ``without_alternative`` a from-scratch rebuild."""
    monkeypatch.setattr(
        PairCostTable, "without_alternative",
        lambda table, k: _rebuild(table.pair, workload, k),
    )


def _cases(pair, config, workload, **includes):
    return run_pair_cases(pair, config, includes, workload)


def _assert_tables_identical(derived, rebuilt):
    assert derived.pair.name == rebuilt.pair.name
    assert [ic.city for ic in derived.pair.interconnections] == [
        ic.city for ic in rebuilt.pair.interconnections
    ]
    for name in ("up_weight", "down_weight", "up_km", "down_km", "ic_km"):
        assert np.array_equal(getattr(derived, name), getattr(rebuilt, name)), name
    assert np.array_equal(derived.flowset.sizes(), rebuilt.flowset.sizes())
    for paths_d, paths_r in (
        (derived.up_paths, rebuilt.up_paths),
        (derived.down_paths, rebuilt.down_paths),
    ):
        assert len(paths_d) == len(paths_r)
        for column_d, column_r in zip(paths_d, paths_r):
            assert len(column_d) == len(column_r)
            for links_d, links_r in zip(column_d, column_r):
                assert np.array_equal(links_d, links_r)
    for side in "ab":
        _assert_reference_incidence(derived, side)
        inc_d = derived.incidence(side)
        inc_r = reference_tables.incidence(rebuilt, side)
        assert np.array_equal(inc_d.indptr, inc_r.indptr)
        assert np.array_equal(inc_d.indices, inc_r.indices)
        assert np.array_equal(inc_d.entry_flow, inc_r.entry_flow)
        assert inc_d.n_links == inc_r.n_links


def _assert_reference_incidence(table, side) -> None:
    """The table's incidence equals the row-by-row compile of its rows."""
    got, want = table.incidence(side), reference_tables.incidence(table, side)
    assert (got.n_flows, got.n_alternatives, got.n_links) == (
        want.n_flows, want.n_alternatives, want.n_links,
    )
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.entry_flow, want.entry_flow)


def _assert_shares_paths(derived, parent, keep) -> None:
    """The derived table holds the parent's path arrays themselves."""
    for got, want in (
        (derived.up_paths, parent.up_paths),
        (derived.down_paths, parent.down_paths),
    ):
        assert len(got) == len(keep)
        assert all(got[i] is want[j] for i, j in enumerate(keep))


class TestWithoutAlternative:
    def test_equals_legacy_rebuild(self, bandwidth_fixture):
        _, pair, workload, context = bandwidth_fixture
        for k in range(pair.n_interconnections()):
            derived = context.table_pre.without_alternative(k)
            rebuilt = _rebuild(pair, workload, k)
            _assert_tables_identical(derived, rebuilt)
            # Early-exit decisions (ties included) must agree.
            assert np.array_equal(
                early_exit_choices(derived), early_exit_choices(rebuilt)
            )

    def test_incidence_derived_from_cache_not_recompiled(self, bandwidth_fixture):
        _, _, _, context = bandwidth_fixture
        table = context.table_pre
        table.incidence("a")
        derived = table.without_alternative(0)
        # The surviving columns' path arrays are the parent's, and the
        # derived incidence is compiled from them, not inherited.
        _assert_shares_paths(derived, table, range(1, table.n_alternatives))
        for side in "ab":
            _assert_reference_incidence(derived, side)

    def test_derived_of_derived(self, bandwidth_fixture):
        _, pair, workload, context = bandwidth_fixture
        if pair.n_interconnections() < 4:
            pytest.skip("needs >= 4 interconnections for a double failure")
        twice = context.table_pre.without_alternative(0).without_alternative(0)
        once = pair.without_interconnection(0)
        rebuilt_twice = build_pair_cost_table(
            once.without_interconnection(0),
            build_full_flowset(
                once.without_interconnection(0), workload.size_fn(pair)
            ),
        )
        _assert_tables_identical(twice, rebuilt_twice)

    def test_bad_index_rejected(self, bandwidth_fixture):
        _, pair, _, context = bandwidth_fixture
        with pytest.raises(Exception):
            context.table_pre.without_alternative(pair.n_interconnections())

    def test_incidence_without_alternative_structural(self, bandwidth_fixture):
        _, _, _, context = bandwidth_fixture
        table = context.table_pre
        n_alt = table.n_alternatives
        dropped = table.without_alternative(1)
        for side in "ab":
            # Each flow's rows minus its row 1, compiled row by row.
            expected = reference_tables.compile_rows(
                tuple(
                    row[:1] + row[2:]
                    for row in reference_tables.rows(table, side)
                ),
                reference_tables.n_links(table, side),
                n_alt - 1,
            )
            got = dropped.incidence(side)
            assert np.array_equal(got.indptr, expected.indptr)
            assert np.array_equal(got.indices, expected.indices)
            assert np.array_equal(got.entry_flow, expected.entry_flow)
        with pytest.raises(RoutingError):
            table.without_alternative(n_alt)


class TestBatchedBuild:
    def test_equals_legacy_build(self, bandwidth_fixture):
        _, pair, workload, context = bandwidth_fixture
        flowset = build_full_flowset(pair, workload.size_fn(pair))
        batched = build_pair_cost_table(pair, flowset)
        cells = reference_tables.build_pair_cost_table(pair, flowset)
        _assert_tables_identical(batched, cells)

    def test_unknown_engine_rejected(self, bandwidth_fixture):
        # One build path: the engine option is gone.
        _, pair, _, _ = bandwidth_fixture
        with pytest.raises(TypeError, match="engine"):
            build_pair_cost_table(pair, build_full_flowset(pair), engine="nope")


class TestFlowsetView:
    def test_with_pair_shares_flows_and_sizes(self, bandwidth_fixture):
        _, pair, _, context = bandwidth_fixture
        flowset = context.table_pre.flowset
        reduced = pair.without_interconnection(0)
        view = flowset.with_pair(reduced)
        assert view.pair is reduced
        assert view.srcs() is flowset.srcs()
        assert view.dsts() is flowset.dsts()
        assert view.sizes() is flowset.sizes()
        assert view.flows == flowset.flows

    def test_sizes_cached_and_read_only(self, bandwidth_fixture):
        _, _, _, context = bandwidth_fixture
        sizes = context.table_pre.flowset.sizes()
        assert context.table_pre.flowset.sizes() is sizes
        with pytest.raises(ValueError):
            sizes[0] = 99.0

    def test_with_pair_rejects_other_isps(self, bandwidth_fixture, small_pair):
        _, _, _, context = bandwidth_fixture
        with pytest.raises(TrafficError):
            context.table_pre.flowset.with_pair(small_pair)


class TestSubsetEquivalence:
    """Flow-axis structural derivation: subset vs the per-flow rebuild."""

    @staticmethod
    def _index_sets(n_flows):
        return [
            np.array([0]),  # singleton, first row
            np.array([n_flows - 1]),  # singleton, last row
            np.arange(0, n_flows, 3),  # non-contiguous stride
            np.array([0, 1, n_flows // 2, n_flows - 1]),  # scattered
            np.arange(n_flows),  # full range
            np.arange(n_flows)[::-1].copy(),  # full range, reordered
        ]

    def test_equals_legacy_rebuild(self, bandwidth_fixture):
        _, _, _, context = bandwidth_fixture
        table = context.table_pre
        table.incidence("a")
        table.incidence("b")
        for idx in self._index_sets(table.n_flows):
            derived = table.subset(idx)
            rebuilt = reference_tables.subset(table, idx)
            _assert_tables_identical(derived, rebuilt)

    def test_incidence_derived_from_cache_not_recompiled(self, bandwidth_fixture):
        _, _, _, context = bandwidth_fixture
        table = context.table_pre
        table.incidence("a")
        table.incidence("b")
        derived = table.subset(np.array([0, 2]))
        # The parent's paths and compiled per-PoP CSR are shared; the
        # subset gathers its own rows from them.
        _assert_shares_paths(derived, table, range(table.n_alternatives))
        for side in "ab":
            assert derived.pop_incidence(side) is table.pop_incidence(side)
            _assert_reference_incidence(derived, side)

    def test_subset_of_derived_failure_table(self, bandwidth_fixture):
        """The bandwidth composition: without_alternative then subset."""
        _, _, _, context = bandwidth_fixture
        table = context.table_pre
        table.incidence("a")
        table.incidence("b")
        post = table.without_alternative(0)
        idx = np.arange(0, post.n_flows, 2)
        _assert_tables_identical(
            post.subset(idx), reference_tables.subset(post, idx)
        )

    def test_incidence_subset_rows_structural(self):
        # Three PoPs' rows; a flow set is a list of endpoint PoPs.
        link_table = (
            (np.array([0, 1]), np.array([2]), np.array([], dtype=np.intp)),
            (np.array([3]), np.array([], dtype=np.intp), np.array([0, 2, 3])),
            (np.array([1, 3]), np.array([0]), np.array([2])),
        )
        paths = tuple(
            tuple(link_table[p][i] for p in range(3)) for i in range(3)
        )
        inc = PathIncidence.from_paths(paths, n_pops=3, n_links=4)
        for rows in ([1], [2, 0], [0, 1, 2], [], [2, 2]):
            derived = inc.gather(np.asarray(rows, dtype=np.intp))
            expected = reference_tables.compile_rows(
                tuple(link_table[r] for r in rows), n_links=4, n_alternatives=3
            )
            assert np.array_equal(derived.indptr, expected.indptr), rows
            assert np.array_equal(derived.indices, expected.indices), rows
            assert np.array_equal(derived.entry_flow, expected.entry_flow), rows
        with pytest.raises(RoutingError):
            inc.gather(np.array([3]))
        with pytest.raises(RoutingError):
            inc.gather(np.array([-1]))

    def test_case_results_bit_identical_across_subset_engines(
        self, bandwidth_fixture, monkeypatch
    ):
        config, pair, _, context = bandwidth_fixture
        includes = [
            dict(
                include_unilateral=(k == 0),
                include_cheating=(k == 0),
                include_diverse=(k == 0),
            )
            for k in range(pair.n_interconnections())
        ]
        fast = [
            run_bandwidth_case(context, k, config, **flags)
            for k, flags in enumerate(includes)
        ]
        monkeypatch.setattr(PairCostTable, "subset", reference_tables.subset)
        rebuilt_scope = [
            run_bandwidth_case(context, k, config, **flags)
            for k, flags in enumerate(includes)
        ]
        assert fast == rebuilt_scope  # dataclass ==: every field, exact floats

    def test_no_recompilation_end_to_end(self, bandwidth_fixture, monkeypatch):
        """A case compiles each side's per-PoP CSR once, for the derived
        table, and gathers flow-level rows for the negotiation scope only."""
        config, pair, workload, _ = bandwidth_fixture
        context = _build_context(pair, workload)
        compiled, gathered = [], []
        compile_paths = PathIncidence.from_paths.__func__
        gather = PathIncidence.gather

        def counting_compile(cls, paths, n_pops, n_links):
            compiled.append(paths)
            return compile_paths(cls, paths, n_pops, n_links)

        def counting_gather(self, flows):
            gathered.append(len(flows))
            return gather(self, flows)

        monkeypatch.setattr(
            PathIncidence, "from_paths", classmethod(counting_compile)
        )
        monkeypatch.setattr(PathIncidence, "gather", counting_gather)
        result = run_bandwidth_case(
            context, 0, config, include_unilateral=True,
            include_cheating=True, include_diverse=True,
        )
        assert result.n_affected > 0
        assert len(compiled) == 2  # the post-failure table, both sides
        assert gathered == [result.n_affected] * 2


class TestCaseEquivalence:
    def test_full_case_results_bit_identical(
        self, bandwidth_fixture, monkeypatch
    ):
        config, pair, workload, context = bandwidth_fixture
        every_variant = dict(
            include_unilateral=True, include_cheating=True,
            include_diverse=True,
        )
        fast = [
            run_bandwidth_case(context, k, config, **every_variant)
            for k in range(pair.n_interconnections())
        ]
        _rebuild_instead_of_deriving(monkeypatch, workload)
        slow = [
            run_bandwidth_case(context, k, config, **every_variant)
            for k in range(pair.n_interconnections())
        ]
        assert fast == slow  # dataclass ==: every field, exact floats

    def test_no_per_case_rebuild_on_fast_path(
        self, bandwidth_fixture, monkeypatch
    ):
        """The derived path must never route or rebuild flowsets per case."""
        config, pair, workload, _ = bandwidth_fixture

        def forbidden(*args, **kwargs):  # pragma: no cover - fails the test
            raise AssertionError("per-case rebuild invoked on the fast path")

        context = _build_context(pair, workload)  # before the guards go up
        import repro.experiments.bandwidth as bw

        monkeypatch.setattr(bw, "build_full_flowset", forbidden)
        monkeypatch.setattr(bw, "build_pair_cost_table", forbidden)
        result = run_bandwidth_case(context, 0, config)
        assert result.n_affected >= 0

    def test_run_pair_cases_honors_flag(self, bandwidth_fixture, monkeypatch):
        """The per-pair unit: derived cases equal rebuilt ones."""
        config, pair, workload, _ = bandwidth_fixture
        fast = _cases(pair, config, workload)
        _rebuild_instead_of_deriving(monkeypatch, workload)
        slow = _cases(pair, config, workload)
        assert fast == slow
        assert len(fast) >= 1

    def test_experiment_matches_legacy_across_workers(self, monkeypatch):
        """Derived tables + parallel workers vs a rebuilding serial loop."""
        from dataclasses import replace

        from repro.experiments.bandwidth import run_bandwidth_experiment
        from repro.experiments.parallel import pairs_for

        config = replace(ExperimentConfig.quick(), max_pairs_bandwidth=2)
        derived_serial = run_bandwidth_experiment(config, workers=1)
        derived_parallel = run_bandwidth_experiment(config, workers=2)
        dataset, pairs = pairs_for(config, 3, config.max_pairs_bandwidth)
        workload = GravityWorkload(PopulationModel(dataset.city_db))
        _rebuild_instead_of_deriving(monkeypatch, workload)
        rebuilt_serial = [
            case for pair in pairs for case in _cases(pair, config, workload)
        ]
        assert derived_serial.cases == rebuilt_serial
        assert derived_parallel.cases == rebuilt_serial
