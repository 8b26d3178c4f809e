"""Tests for repro.routing.flows."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TrafficError
from repro.routing.flows import Flow, FlowSet, build_full_flowset


class TestFlow:
    def test_valid(self):
        flow = Flow(index=0, src=1, dst=2, size=3.0)
        assert flow.size == 3.0

    def test_default_size(self):
        assert Flow(index=0, src=0, dst=0).size == 1.0

    # NaN used to slip past ``size <= 0`` and inf passed outright.
    @pytest.mark.parametrize(
        "size", [0.0, -1.0, float("nan"), float("inf"), -float("inf")]
    )
    def test_bad_size(self, size):
        with pytest.raises(TrafficError, match=r"\(1, 2\)"):
            Flow(index=0, src=1, dst=2, size=size)

    def test_bad_index(self):
        with pytest.raises(TrafficError):
            Flow(index=-1, src=0, dst=0)


class TestFlowSet:
    def test_full_flowset_covers_all_pairs(self, small_pair):
        fs = build_full_flowset(small_pair)
        assert len(fs) == small_pair.isp_a.n_pops() * small_pair.isp_b.n_pops()
        seen = {(f.src, f.dst) for f in fs}
        assert len(seen) == len(fs)

    def test_indices_dense(self, small_pair):
        fs = build_full_flowset(small_pair)
        assert [f.index for f in fs] == list(range(len(fs)))

    def test_size_fn(self, small_pair):
        fs = build_full_flowset(small_pair, size_fn=lambda s, d: (s + 1) * (d + 1))
        assert fs[0].size == 1.0
        sizes = fs.sizes()
        assert sizes.shape == (len(fs),)
        assert fs.total_size() == pytest.approx(sizes.sum())

    def test_size_fn_must_be_positive(self, small_pair):
        with pytest.raises(TrafficError):
            build_full_flowset(small_pair, size_fn=lambda s, d: 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_size_fn_must_be_finite(self, small_pair, bad):
        # Regression: an all-NaN size function used to build all-NaN flows.
        with pytest.raises(TrafficError, match=r"\(0, 0\)"):
            build_full_flowset(small_pair, size_fn=lambda s, d: bad)

    def test_size_error_names_first_offending_flow(self, small_pair):
        def size_fn(src, dst):
            return float("nan") if (src, dst) in {(1, 2), (2, 0)} else 1.0

        with pytest.raises(TrafficError, match=r"\(1, 2\)"):
            build_full_flowset(small_pair, size_fn=size_fn)

    def test_array_built_flowset_matches_flow_objects(self, small_pair):
        def size_fn(src, dst):
            return (src + 1) * 0.5 + dst

        fs = build_full_flowset(small_pair, size_fn=size_fn)
        cells = [
            (src, dst)
            for src in range(small_pair.isp_a.n_pops())
            for dst in range(small_pair.isp_b.n_pops())
        ]
        authored = FlowSet(small_pair, [
            Flow(index=i, src=src, dst=dst, size=size_fn(src, dst))
            for i, (src, dst) in enumerate(cells)
        ])
        assert fs._flows is None  # array-backed until iterated
        for built, ref in (
            (fs.srcs(), authored.srcs()),
            (fs.dsts(), authored.dsts()),
            (fs.sizes(), authored.sizes()),
        ):
            assert built.dtype == ref.dtype
            assert np.array_equal(built, ref)
            assert not built.flags.writeable
        assert fs.flows == authored.flows

    def test_invalid_src_rejected(self, small_pair):
        with pytest.raises(TrafficError):
            FlowSet(small_pair, [Flow(index=0, src=99, dst=0)])

    def test_invalid_dst_rejected(self, small_pair):
        with pytest.raises(TrafficError):
            FlowSet(small_pair, [Flow(index=0, src=0, dst=99)])

    def test_non_dense_indices_rejected(self, small_pair):
        with pytest.raises(TrafficError):
            FlowSet(small_pair, [Flow(index=1, src=0, dst=0)])

    def test_getitem_and_iter(self, small_pair):
        fs = build_full_flowset(small_pair)
        assert fs[0].index == 0
        assert sum(1 for _ in fs) == len(fs)


class TestSubset:
    def test_subset_reindexes(self, small_pair):
        fs = build_full_flowset(small_pair, size_fn=lambda s, d: s + d + 1)
        sub = fs.subset([2, 5])
        assert len(sub) == 2
        assert [f.index for f in sub] == [0, 1]
        assert sub[0].src == fs[2].src
        assert sub[0].size == fs[2].size

    def test_empty_subset_allowed(self, small_pair):
        fs = build_full_flowset(small_pair)
        sub = fs.subset([])
        assert len(sub) == 0
        assert sub.sizes().shape == (0,)
        assert sub.total_size() == 0.0

    def test_empty_subset_is_a_valid_view(self, small_pair):
        """Regression: subset([]) must be a complete, well-typed empty view."""
        fs = build_full_flowset(small_pair)
        sub = fs.subset([])
        assert sub._flows is None  # still a lazy array-backed view
        assert sub.srcs().dtype == np.intp and sub.srcs().shape == (0,)
        assert sub.dsts().dtype == np.intp and sub.dsts().shape == (0,)
        assert sub.sizes().dtype == float
        for buffer in (sub.srcs(), sub.dsts(), sub.sizes()):
            assert not buffer.flags.writeable
        assert sub.flows == ()
        assert sub.pair is fs.pair
        # Subsetting the empty view again stays valid.
        assert len(sub.subset([])) == 0

    def test_empty_subset_skips_parent_materialization(self, small_pair):
        """subset([]) must not force the parent's array buffers to build."""
        fs = FlowSet(small_pair, list(build_full_flowset(small_pair)))
        assert fs._srcs is None  # authored from Flow objects, still lazy
        fs.subset([])
        assert fs._srcs is None and fs._dsts is None and fs._sizes is None

    def test_subset_order_preserved(self, small_pair):
        fs = build_full_flowset(small_pair)
        sub = fs.subset([5, 2])
        assert sub[0].src == fs[5].src
        assert sub[1].src == fs[2].src


class TestSubsetView:
    """FlowSet.subset is an array-backed reindexing view."""

    def test_arrays_derived_without_flow_rebuild(self, small_pair):
        fs = build_full_flowset(small_pair, size_fn=lambda s, d: s + d + 1)
        sub = fs.subset([2, 5, 7])
        # The view is served from arrays; no Flow tuple exists until a
        # per-flow consumer iterates it.
        assert sub._flows is None
        assert np.array_equal(sub.srcs(), fs.srcs()[[2, 5, 7]])
        assert np.array_equal(sub.dsts(), fs.dsts()[[2, 5, 7]])
        assert np.array_equal(sub.sizes(), fs.sizes()[[2, 5, 7]])
        assert len(sub) == 3
        assert sub._flows is None  # len/array access did not materialize

    def test_lazy_flows_materialize_dense(self, small_pair):
        fs = build_full_flowset(small_pair, size_fn=lambda s, d: s + d + 1)
        sub = fs.subset([7, 1])
        assert [f.index for f in sub] == [0, 1]
        assert (sub[0].src, sub[0].dst, sub[0].size) == (
            fs[7].src, fs[7].dst, fs[7].size,
        )
        assert sub.flows is sub.flows  # materialized once, then cached

    def test_view_buffers_read_only(self, small_pair):
        sub = build_full_flowset(small_pair).subset([0, 3])
        for arr in (sub.srcs(), sub.dsts(), sub.sizes()):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_srcs_dsts_cached_on_eager_sets(self, small_pair):
        fs = build_full_flowset(small_pair)
        assert fs.srcs() is fs.srcs()
        assert fs.dsts() is fs.dsts()
        assert np.array_equal(fs.srcs(), [f.src for f in fs])
        assert np.array_equal(fs.dsts(), [f.dst for f in fs])


class TestSubsetValidation:
    def test_out_of_range_rejected(self, small_pair):
        fs = build_full_flowset(small_pair)
        with pytest.raises(ConfigurationError, match="must be in 0"):
            fs.subset([len(fs)])

    def test_negative_rejected(self, small_pair):
        """Regression: -1 used to silently alias to the last flow."""
        fs = build_full_flowset(small_pair)
        with pytest.raises(ConfigurationError, match="must be in 0"):
            fs.subset([-1])

    def test_duplicates_rejected(self, small_pair):
        fs = build_full_flowset(small_pair)
        with pytest.raises(ConfigurationError, match="duplicates"):
            fs.subset([1, 1])

    def test_non_1d_rejected(self, small_pair):
        fs = build_full_flowset(small_pair)
        with pytest.raises(ConfigurationError, match="1-D"):
            fs.subset(np.array([[0, 1]]))
