"""Property-based equivalence of the derived-table fast paths.

Hypothesis-driven composition/commutation laws for the two structural
derivations on :class:`~repro.routing.costs.PairCostTable` (the PR 2/3
derive-don't-recompute contract), over seeded random flow sizes and random
index sets:

* ``subset`` is bit-identical to the per-flow reference rebuild
  (``reference.tables.subset``) for any valid index set — singleton,
  full-range (empty complement), reordered, empty;
* ``without_alternative`` and ``subset`` commute:
  ``t.without_alternative(k).subset(idx) == t.subset(idx).without_alternative(k)``;
* ``subset`` composes: ``t.subset(i).subset(j) == t.subset(i[j])``;
* the flow-level incidence of a table reached along any route — built,
  columns dropped in any order or in a batch, subsets, and compositions
  of these — is bit-identical to compiling the result's
  per-flow reference rows one at a time.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.costs import PairCostTable, build_pair_cost_table
from repro.routing.flows import build_full_flowset
from repro.routing.incidence import PathIncidence
from repro.topology.builders import build_custom_isp
from repro.topology.interconnect import Interconnection, IspPair

from reference import tables as reference_tables


def _property_table() -> PairCostTable:
    """A 3-interconnection pair with seeded, skewed flow sizes."""
    isp_x = build_custom_isp(
        "xnet",
        [
            ("Left", 40.0, -100.0),
            ("MidX", 40.0, -95.0),
            ("Mid", 41.0, -93.0),
            ("Right", 40.0, -90.0),
        ],
        [(0, 1, 10.0), (1, 2, 7.0), (2, 3, 10.0), (0, 2, 20.0)],
    )
    isp_y = build_custom_isp(
        "ynet",
        [
            ("Left", 40.0, -100.0),
            ("Mid", 41.0, -93.0),
            ("MidY", 42.0, -94.0),
            ("Right", 40.0, -90.0),
        ],
        [(0, 1, 12.0), (1, 2, 5.0), (2, 3, 9.0), (1, 3, 11.0)],
    )
    ics = [
        Interconnection(index=0, city="Left", pop_a=0, pop_b=0),
        Interconnection(index=1, city="Mid", pop_a=2, pop_b=1),
        Interconnection(index=2, city="Right", pop_a=3, pop_b=3),
    ]
    pair = IspPair(isp_x, isp_y, ics)
    rng = np.random.default_rng(20050503)
    sizes = rng.uniform(0.25, 4.0, size=(4, 4))
    flowset = build_full_flowset(pair, lambda s, d: float(sizes[s, d]))
    return build_pair_cost_table(pair, flowset)


TABLE = _property_table()


def assert_tables_identical(got: PairCostTable, want: PairCostTable) -> None:
    """Bit-exact equality across dense arrays, paths and flowset."""
    for name in ("up_weight", "down_weight", "up_km", "down_km", "ic_km"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in ("up_paths", "down_paths"):
        got_paths, want_paths = getattr(got, name), getattr(want, name)
        assert len(got_paths) == len(want_paths), name
        for got_column, want_column in zip(got_paths, want_paths):
            for g, w in zip(got_column, want_column):
                assert np.array_equal(g, w), name
    assert np.array_equal(got.flowset.srcs(), want.flowset.srcs())
    assert np.array_equal(got.flowset.dsts(), want.flowset.dsts())
    assert np.array_equal(got.flowset.sizes(), want.flowset.sizes())


def assert_incidences_identical(
    got: PathIncidence, want: PathIncidence
) -> None:
    assert got.n_flows == want.n_flows
    assert got.n_alternatives == want.n_alternatives
    assert got.n_links == want.n_links
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.entry_flow, want.entry_flow)


def _recompiled(table: PairCostTable, side: str) -> PathIncidence:
    """The incidence a row-by-row compile of the per-flow rows produces."""
    return reference_tables.incidence(table, side)


def _warm_parent() -> PairCostTable:
    TABLE.incidence("a")
    TABLE.incidence("b")
    return TABLE


def _random_indices(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = TABLE.n_flows
    size = int(rng.integers(0, n + 1))
    return rng.permutation(n)[:size].astype(np.intp)


@settings(deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_subset_bit_identical_to_legacy(seed):
    idx = _random_indices(seed)
    table = _warm_parent()
    fast = table.subset(idx)
    legacy = reference_tables.subset(table, idx)
    assert_tables_identical(fast, legacy)
    for side in "ab":
        assert_incidences_identical(
            fast.incidence(side), legacy.incidence(side)
        )
        assert_incidences_identical(
            fast.incidence(side), _recompiled(fast, side)
        )


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    k=st.integers(0, TABLE.n_alternatives - 1),
)
def test_column_drop_and_subset_commute(seed, k):
    idx = _random_indices(seed)
    table = _warm_parent()
    drop_first = table.without_alternative(k).subset(idx)
    subset_first = table.subset(idx).without_alternative(k)
    assert_tables_identical(drop_first, subset_first)
    for side in "ab":
        assert_incidences_identical(
            drop_first.incidence(side), subset_first.incidence(side)
        )
        assert_incidences_identical(
            drop_first.incidence(side), _recompiled(drop_first, side)
        )
    # And both stay bit-identical to the per-flow rebuild of the scope.
    legacy = reference_tables.subset(table.without_alternative(k), idx)
    assert_tables_identical(drop_first, legacy)


@settings(deadline=None)
@given(
    seed_outer=st.integers(0, 2**31 - 1),
    seed_inner=st.integers(0, 2**31 - 1),
)
def test_subset_composes(seed_outer, seed_inner):
    outer = _random_indices(seed_outer)
    rng = np.random.default_rng(seed_inner)
    size = int(rng.integers(0, outer.size + 1))
    inner = rng.permutation(outer.size)[:size].astype(np.intp)
    table = _warm_parent()
    chained = table.subset(outer).subset(inner)
    direct = table.subset(outer[inner])
    assert_tables_identical(chained, direct)
    for side in "ab":
        assert_incidences_identical(
            chained.incidence(side), direct.incidence(side)
        )


@pytest.mark.parametrize(
    "indices",
    [
        [0],  # singleton
        list(range(16)),  # full range: the empty complement
        list(reversed(range(16))),  # reordered full range
        [],  # empty selection
        [15, 3, 7],  # non-contiguous, unordered
    ],
)
def test_named_index_cases(indices):
    idx = np.asarray(indices, dtype=np.intp)
    table = _warm_parent()
    fast = table.subset(idx)
    legacy = reference_tables.subset(table, idx)
    assert_tables_identical(fast, legacy)
    for side in "ab":
        assert_incidences_identical(
            fast.incidence(side), legacy.incidence(side)
        )
    for k in range(table.n_alternatives):
        assert_tables_identical(
            table.without_alternative(k).subset(idx),
            table.subset(idx).without_alternative(k),
        )


def test_fixture_shape():
    assert TABLE.n_flows == 16
    assert TABLE.n_alternatives == 3


class TestEmptySubsetShortCircuit:
    """An empty scope gathers no rows and compiles nothing per flow."""

    def test_cold_parent_empty_subset_never_compiles(self, monkeypatch):
        table = _property_table()  # cold: nothing compiled yet
        reference = {
            side: _recompiled(
                reference_tables.subset(table, np.empty(0, dtype=np.intp)),
                side,
            )
            for side in "ab"
        }
        compiled = []
        compile_paths = PathIncidence.from_paths.__func__

        def counting(cls, paths, n_pops, n_links):
            compiled.append(paths)
            return compile_paths(cls, paths, n_pops, n_links)

        monkeypatch.setattr(PathIncidence, "from_paths", classmethod(counting))
        empty = table.subset(np.empty(0, dtype=np.intp))
        assert empty.n_flows == 0
        assert len(empty.flowset) == 0
        for side in "ab":
            incidence = empty.incidence(side)
            assert_incidences_identical(incidence, reference[side])
            assert incidence.indices.size == 0
        # Only the per-PoP CSR of each side (P·I paths), never flow rows.
        assert compiled == [table.up_paths, table.down_paths]

    def test_warm_parent_empty_subset_never_compiles(self, monkeypatch):
        table = _warm_parent()

        def boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("empty subset must not compile incidence")

        monkeypatch.setattr(PathIncidence, "from_paths", boom)
        empty = table.subset(np.empty(0, dtype=np.intp))
        for side in "ab":
            assert empty.incidence(side).n_flows == 0

    def test_empty_subset_supports_loads_and_column_drops(self):
        from repro.capacity.loads import link_loads

        empty = TABLE.subset(np.empty(0, dtype=np.intp))
        loads = link_loads(empty, np.empty(0, dtype=np.intp), "a")
        assert loads.shape == (TABLE.pair.isp_a.n_links(),)
        assert not loads.any()
        dropped = empty.without_alternative(0)
        assert dropped.n_flows == 0
        assert dropped.n_alternatives == TABLE.n_alternatives - 1


# ---------------------------------------------------------------------------
# Multi-column drops (PR 6): without_alternatives / batch_without_alternatives
# ---------------------------------------------------------------------------


def _random_drop_set(seed: int) -> np.ndarray:
    """A random drop set of size 0 .. n_alternatives-1 (>= 1 survivor)."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(0, TABLE.n_alternatives))
    return np.sort(
        rng.permutation(TABLE.n_alternatives)[:size].astype(np.intp)
    )


def _compose_single_drops(
    table: PairCostTable, ks: np.ndarray, order: np.ndarray
) -> PairCostTable:
    """Fold per-column drops in ``order``, reindexing after each drop."""
    remaining = list(range(table.n_alternatives))
    result = table
    for k in ks[order]:
        position = remaining.index(int(k))
        result = result.without_alternative(position)
        remaining.pop(position)
    return result


def _folded_drops(table: PairCostTable, ks) -> PairCostTable:
    """Single drops folded in descending order, so no index shifts."""
    for k in sorted((int(k) for k in ks), reverse=True):
        table = table.without_alternative(k)
    return table


@settings(deadline=None)
@given(seed=st.integers(0, 2**31 - 1), order_seed=st.integers(0, 2**31 - 1))
def test_multi_drop_equals_any_composition_order(seed, order_seed):
    ks = _random_drop_set(seed)
    order = np.random.default_rng(order_seed).permutation(ks.size)
    table = _warm_parent()
    multi = table.without_alternatives(ks)
    composed = _compose_single_drops(table, ks, order)
    assert_tables_identical(multi, composed)
    legacy = _folded_drops(table, ks)
    assert_tables_identical(multi, legacy)
    for side in "ab":
        assert_incidences_identical(
            multi.incidence(side), composed.incidence(side)
        )
        assert_incidences_identical(
            multi.incidence(side), _recompiled(multi, side)
        )


@settings(deadline=None)
@given(seed=st.integers(0, 2**31 - 1), drop_seed=st.integers(0, 2**31 - 1))
def test_multi_drop_commutes_with_subset(seed, drop_seed):
    idx = _random_indices(seed)
    ks = _random_drop_set(drop_seed)
    table = _warm_parent()
    drop_first = table.without_alternatives(ks).subset(idx)
    subset_first = table.subset(idx).without_alternatives(ks)
    assert_tables_identical(drop_first, subset_first)
    for side in "ab":
        assert_incidences_identical(
            drop_first.incidence(side), subset_first.incidence(side)
        )
        assert_incidences_identical(
            drop_first.incidence(side), _recompiled(drop_first, side)
        )


@settings(deadline=None)
@given(seeds=st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=6))
def test_batch_derive_matches_individual_drops(seeds):
    table = _warm_parent()
    drop_sets = [_random_drop_set(s) for s in seeds]
    batch = table.batch_without_alternatives(drop_sets)
    assert len(batch) == len(drop_sets)
    for derived, ks in zip(batch, drop_sets):
        assert_tables_identical(derived, table.without_alternatives(ks))
        assert_tables_identical(derived, _folded_drops(table, ks))
        for side in "ab":
            assert_incidences_identical(
                derived.incidence(side), _recompiled(derived, side)
            )


@pytest.mark.parametrize(
    "ks",
    [
        [],  # empty drop set: an equivalent copy
        [1],  # singleton: exactly without_alternative
        [0, 2],  # non-adjacent pair
        [0, 1],  # all-but-one survivors
        [1, 2],  # all-but-one, other end
    ],
)
def test_named_drop_cases(ks):
    table = _warm_parent()
    multi = table.without_alternatives(ks)
    assert multi.n_alternatives == table.n_alternatives - len(ks)
    assert_tables_identical(multi, _folded_drops(table, ks))
    composed = _compose_single_drops(
        table, np.asarray(ks, dtype=np.intp), np.arange(len(ks))
    )
    assert_tables_identical(multi, composed)
    if len(ks) == 1:
        assert_tables_identical(multi, table.without_alternative(ks[0]))
    for side in "ab":
        assert_incidences_identical(
            multi.incidence(side), _recompiled(multi, side)
        )


def test_drop_validation_unified_with_subset():
    from repro.errors import RoutingError

    table = _warm_parent()
    with pytest.raises(RoutingError, match="duplicates"):
        table.without_alternatives([0, 0])
    with pytest.raises(RoutingError, match="must be in 0"):
        table.without_alternatives([3])
    with pytest.raises(RoutingError, match="must be in 0"):
        table.without_alternatives([-1])
    with pytest.raises(RoutingError, match="every alternative"):
        table.without_alternatives([0, 1, 2])
    with pytest.raises(RoutingError, match="must be in 0"):
        table.without_alternative(7)
    with pytest.raises(RoutingError, match="every alternative"):
        table.batch_without_alternatives([[0], [0, 1, 2]])


# ---------------------------------------------------------------------------
# Every route to a table: its incidence is the reference compile of its rows
# ---------------------------------------------------------------------------


def _fresh_table(warm: bool) -> PairCostTable:
    """The property table, cold or with both per-PoP CSRs compiled."""
    table = _property_table()
    if warm:
        table.pop_incidence("a")
        table.pop_incidence("b")
    return table


def _derive(table: PairCostTable, step: tuple) -> PairCostTable:
    kind, seed = step
    rng = np.random.default_rng(seed)
    n_alt = table.n_alternatives
    if kind == "drop":
        if n_alt == 1:  # the last column cannot fail
            return table
        return table.without_alternative(int(rng.integers(0, n_alt)))
    if kind == "drops":
        size = int(rng.integers(0, n_alt))
        return table.without_alternatives(rng.permutation(n_alt)[:size])
    if kind == "batch":
        drop_sets = [
            rng.permutation(n_alt)[: int(rng.integers(0, n_alt))]
            for _ in range(3)
        ]
        return table.batch_without_alternatives(drop_sets)[
            int(rng.integers(0, 3))
        ]
    size = int(rng.integers(0, table.n_flows + 1))
    return table.subset(rng.permutation(table.n_flows)[:size])


_STEPS = st.tuples(
    st.sampled_from(["drop", "drops", "batch", "subset"]),
    st.integers(0, 2**31 - 1),
)


@settings(deadline=None)
@given(warm=st.booleans(), steps=st.lists(_STEPS, max_size=4))
def test_incidence_equals_reference_compile_on_every_route(warm, steps):
    table = _fresh_table(warm)
    for step in steps:
        derived = _derive(table, step)
        # Derivations drop or share the path arrays, never copy them.
        for name in ("up_paths", "down_paths"):
            survivors = {id(links) for links in getattr(table, name)}
            assert all(
                id(links) in survivors for links in getattr(derived, name)
            )
        table = derived
        for side in "ab":
            got = table.incidence(side)
            want = reference_tables.incidence(table, side)
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.entry_flow, want.entry_flow)
            assert (got.n_flows, got.n_alternatives, got.n_links) == (
                want.n_flows, want.n_alternatives, want.n_links,
            )
