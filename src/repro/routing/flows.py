"""The flow model.

A flow is "a stream of packets from a source node in one ISP to a
destination node in the other ISP" (Section 4); all packets of a flow take
the same path. The experiments use one flow per (source PoP, destination
PoP) pair per direction; flow sizes come from the traffic substrate (gravity
model) for the bandwidth experiments and are uniform for the distance
experiments.

A :class:`FlowSet` is served from arrays: ``srcs()``/``dsts()``/``sizes()``
expose cached read-only buffers that every hot kernel (cost-table build,
load accumulation, LP assembly, session bookkeeping) consumes directly.
:func:`build_full_flowset` fills those buffers with array operations, and
derived flowsets — :meth:`FlowSet.with_pair` for failure cases,
:meth:`FlowSet.subset` for negotiation scopes — are array-backed
reindexing views; none of them builds per-flow Python objects. The
``Flow`` tuple is materialized lazily only if a per-flow loop iterates the
set. A FlowSet built directly from :class:`Flow` objects serves the same
buffers, derived from those objects on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError, TrafficError
from repro.topology.interconnect import IspPair

__all__ = ["Flow", "FlowSet", "build_full_flowset"]


@dataclass(frozen=True)
class Flow:
    """One negotiable traffic flow.

    Attributes:
        index: position within its :class:`FlowSet`.
        src: source PoP index in the upstream ISP.
        dst: destination PoP index in the downstream ISP.
        size: traffic volume (arbitrary units; only ratios matter).
    """

    index: int
    src: int
    dst: int
    size: float = 1.0

    def __post_init__(self) -> None:
        if self.index < 0:
            raise TrafficError(f"flow index must be >= 0, got {self.index}")
        if not (self.size > 0 and math.isfinite(self.size)):
            raise TrafficError(
                f"flow ({self.src}, {self.dst}): size must be finite and "
                f"> 0, got {self.size}"
            )


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class FlowSet:
    """An ordered collection of flows for one (pair, direction).

    The direction is implicit: ``src`` PoPs live in ``pair.isp_a``
    (upstream) and ``dst`` PoPs in ``pair.isp_b`` (downstream). For the
    reverse direction, build a FlowSet over ``pair.reversed()``.
    """

    def __init__(self, pair: IspPair, flows: Sequence[Flow]):
        self._pair = pair
        self._flows: tuple[Flow, ...] | None = tuple(flows)
        self._n = len(self._flows)
        self._srcs: np.ndarray | None = None
        self._dsts: np.ndarray | None = None
        self._sizes: np.ndarray | None = None
        n_a = pair.isp_a.n_pops()
        n_b = pair.isp_b.n_pops()
        for pos, flow in enumerate(self._flows):
            if flow.index != pos:
                raise TrafficError("flow indices must be dense 0..F-1")
            if not 0 <= flow.src < n_a:
                raise TrafficError(f"flow {pos}: unknown source PoP {flow.src}")
            if not 0 <= flow.dst < n_b:
                raise TrafficError(f"flow {pos}: unknown destination PoP {flow.dst}")

    @classmethod
    def _from_arrays(
        cls,
        pair: IspPair,
        srcs: np.ndarray,
        dsts: np.ndarray,
        sizes: np.ndarray,
    ) -> "FlowSet":
        """Internal: an array-backed view over already-validated flow data.

        The ``Flow`` tuple is *not* built here; :attr:`flows` materializes
        it lazily if a per-flow consumer iterates the set. All three buffers
        are stored read-only and served as-is by the accessors.
        """
        view = object.__new__(cls)
        view._pair = pair
        view._flows = None
        view._n = int(srcs.size)
        view._srcs = _read_only(srcs)
        view._dsts = _read_only(dsts)
        view._sizes = _read_only(sizes)
        return view

    @property
    def pair(self) -> IspPair:
        return self._pair

    @property
    def flows(self) -> tuple[Flow, ...]:
        if self._flows is None:
            self._flows = tuple(
                Flow(index=index, src=src, dst=dst, size=size)
                for index, (src, dst, size) in enumerate(
                    zip(
                        self._srcs.tolist(),
                        self._dsts.tolist(),
                        self._sizes.tolist(),
                    )
                )
            )
        return self._flows

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[Flow]:
        return iter(self.flows)

    def __getitem__(self, index: int) -> Flow:
        return self.flows[index]

    def srcs(self) -> np.ndarray:
        """Source PoP indices as an intp array (F,), built once and shared."""
        if self._srcs is None:
            self._srcs = _read_only(
                np.fromiter(
                    (f.src for f in self._flows), dtype=np.intp, count=self._n
                )
            )
        return self._srcs

    def dsts(self) -> np.ndarray:
        """Destination PoP indices as an intp array (F,), built once and shared."""
        if self._dsts is None:
            self._dsts = _read_only(
                np.fromiter(
                    (f.dst for f in self._flows), dtype=np.intp, count=self._n
                )
            )
        return self._dsts

    def sizes(self) -> np.ndarray:
        """Flow sizes as a float array (F,), built once and shared.

        The array is read-only: every hot kernel (load accumulation, LP
        assembly, session bookkeeping) reads the same buffer instead of
        re-materializing it from the Flow objects per call.
        """
        if self._sizes is None:
            self._sizes = _read_only(
                np.asarray([f.size for f in self._flows], dtype=float)
            )
        return self._sizes

    def total_size(self) -> float:
        return float(self.sizes().sum())

    def with_pair(self, pair: IspPair) -> "FlowSet":
        """The same flows re-bound to another pair over the same two ISPs.

        The derived-table fast path evaluates a failure by dropping one
        interconnection from the pair; the flows themselves (src/dst PoPs,
        sizes) are untouched, so the post-failure flowset is just this one
        viewed against the reduced pair — no size-function calls, no Flow
        reconstruction. Both ISPs must match (PoP indexing is per-ISP).
        """
        if (
            pair.isp_a.name != self._pair.isp_a.name
            or pair.isp_b.name != self._pair.isp_b.name
        ):
            raise TrafficError(
                f"cannot rebind flows of {self._pair.name} to {pair.name}"
            )
        view = object.__new__(FlowSet)
        view._pair = pair
        view._flows = self._flows  # share the tuple if already materialized
        view._n = self._n
        view._srcs = self._srcs
        view._dsts = self._dsts
        view._sizes = self.sizes()  # share the cached read-only buffer
        return view

    def subset(self, indices: Sequence[int] | np.ndarray) -> "FlowSet":
        """A reindexed view containing only the given flow indices.

        This is the flow-axis analogue of
        :meth:`~repro.routing.costs.PairCostTable.without_alternative`'s
        structural derivation: the view is assembled by fancy-indexing the
        cached ``srcs``/``dsts``/``sizes`` buffers — no per-flow ``Flow``
        rebuild, no re-validation loop. Selection order is preserved.

        Indices must be unique and within ``0..F-1``; anything else
        (including negative indices, which raw list indexing used to alias
        to the end of the set) raises :class:`ConfigurationError`.
        """
        idx = np.asarray(indices, dtype=np.intp)
        if idx.ndim != 1:
            raise ConfigurationError(
                f"flow subset indices must be 1-D, got shape {idx.shape}"
            )
        if idx.size:
            lo, hi = int(idx.min()), int(idx.max())
            if lo < 0 or hi >= self._n:
                raise ConfigurationError(
                    f"flow subset indices must be in 0..{self._n - 1}, "
                    f"got values spanning [{lo}, {hi}]"
                )
            if np.unique(idx).size != idx.size:
                raise ConfigurationError(
                    "flow subset indices contain duplicates"
                )
        return self._subset_view(idx)

    def _subset_view(self, idx: np.ndarray) -> "FlowSet":
        """Internal: the reindexing view for already-validated intp indices.

        :meth:`~repro.routing.costs.PairCostTable.subset` validates the
        index set once for the whole table and builds its flowset through
        this, so the hot per-failure-case path pays a single validation.

        An empty selection (``subset([])``, a zero-flow internetwork edge
        scope) short-circuits to a fresh empty view without materializing
        the parent's ``srcs``/``dsts``/``sizes`` buffers just to gather
        nothing from them.
        """
        if idx.size == 0:
            return FlowSet._from_arrays(
                self._pair,
                np.empty(0, dtype=np.intp),
                np.empty(0, dtype=np.intp),
                np.empty(0, dtype=float),
            )
        return FlowSet._from_arrays(
            self._pair, self.srcs()[idx], self.dsts()[idx], self.sizes()[idx]
        )


def build_full_flowset(
    pair: IspPair,
    size_fn: Callable[[int, int], float] | None = None,
) -> FlowSet:
    """One flow per (source PoP, destination PoP) pair, upstream = isp_a.

    ``size_fn(src, dst)`` supplies flow sizes (default: 1.0 for all flows,
    the distance-experiment convention), called once per flow in flow
    order. Sources and destinations at the same interconnection city still
    exchange a flow — the paper does not exclude them, and their
    alternatives simply all cost ~0.

    The set is array-backed: sources, destinations and sizes are built as
    arrays and no :class:`Flow` object exists until a per-flow loop asks
    for one. A size that is not finite and positive raises
    :class:`TrafficError` naming the first offending ``(src, dst)``.
    """
    n_a, n_b = pair.isp_a.n_pops(), pair.isp_b.n_pops()
    srcs = np.repeat(np.arange(n_a, dtype=np.intp), n_b)
    dsts = np.tile(np.arange(n_b, dtype=np.intp), n_a)
    if size_fn is None:
        sizes = np.ones(n_a * n_b)
    else:
        sizes = np.fromiter(
            (
                float(size_fn(src, dst))
                for src in range(n_a)
                for dst in range(n_b)
            ),
            dtype=float,
            count=n_a * n_b,
        )
        bad = np.flatnonzero(~((sizes > 0) & np.isfinite(sizes)))
        if bad.size:
            first = int(bad[0])
            raise TrafficError(
                "size_fn returned a non-positive or non-finite size "
                f"{sizes[first]} for ({srcs[first]}, {dsts[first]})"
            )
    return FlowSet._from_arrays(pair, srcs, dsts, sizes)
