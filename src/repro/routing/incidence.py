"""Sparse path-incidence engine: CSR link incidence for the load hot path.

The bandwidth machinery repeatedly asks "which links does flow ``f`` cross
under alternative ``i``, and what happens to their loads?". The ragged
``up_links``/``down_links`` tables on :class:`~repro.routing.costs.PairCostTable`
answer that one (flow, alternative) at a time, which forces Python-level
loops in every hot kernel (load accumulation, preference recomputation).

:class:`PathIncidence` compiles one side's ragged link table into a
CSR-style sparse incidence structure over the flattened row space
``row = flow * n_alternatives + alternative``:

* ``indptr``  — ``(F*I + 1,)`` row pointers;
* ``indices`` — ``(nnz,)`` link ids, concatenated in (flow, alternative)
  row-major order, each row's links in path order;
* ``entry_flow`` — ``(nnz,)`` the flow id of every entry (for per-flow
  weights such as flow sizes).

Because a flow's ``I`` rows are contiguous, per-flow batches (all
alternatives of a set of flows) gather as contiguous entry ranges, and the
whole load/preference pipeline becomes a handful of array expressions:
scatter-adds via :func:`numpy.bincount` and segment reductions
(:func:`segment_sum` here, the max-ratio rows in
:func:`repro.capacity.loads.max_ratio_rows`).

**Bit-exactness contract.** Entries are stored in exactly the order a
per-flow Python loop visits them (flows ascending, path order within a
row), the segment sum below accumulates sequentially in that order
(``bincount`` adds entries one by one), and a maximum is
order-independent. Every vectorized kernel built on this module therefore
produces *bit-identical* floats to its reference loop — the equivalence
tests assert ``==``, not ``allclose``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import RoutingError

__all__ = ["PathIncidence", "segment_sum", "multirange_gather"]


def multirange_gather(
    starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``arange(starts[k], ends[k])`` for all ``k``, vectorized.

    Returns ``(positions, counts)`` where ``positions`` is the concatenated
    index array and ``counts[k] = ends[k] - starts[k]``.
    """
    starts = np.asarray(starts, dtype=np.intp)
    ends = np.asarray(ends, dtype=np.intp)
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.intp), counts
    out_ptr = np.zeros(counts.size, dtype=np.intp)
    np.cumsum(counts[:-1], out=out_ptr[1:])
    positions = np.arange(total, dtype=np.intp) + np.repeat(
        starts - out_ptr, counts
    )
    return positions, counts


def segment_sum(vals: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Per-segment sum of ``vals`` delimited by row pointers ``ptr``.

    Accumulates entries sequentially in storage order (``bincount``), so a
    segment's sum is bit-identical to an ``acc = 0.0; acc += v``
    loop over the same values.
    """
    counts = np.diff(ptr)
    n_segments = counts.size
    if not vals.size:
        return np.zeros(n_segments)
    segment_of = np.repeat(np.arange(n_segments, dtype=np.intp), counts)
    return np.bincount(segment_of, weights=vals, minlength=n_segments)


@dataclass(frozen=True)
class PathIncidence:
    """CSR incidence of path links over the flattened (flow, alternative) rows.

    Built once per (table, side) by :meth:`from_link_table` and cached on
    the cost table (see :meth:`PairCostTable.incidence`). All arrays are
    read-only by convention; nothing here mutates after construction.
    """

    n_flows: int
    n_alternatives: int
    n_links: int
    indptr: np.ndarray  # (F*I + 1,) row pointers
    indices: np.ndarray  # (nnz,) link ids, row-major, path order
    entry_flow: np.ndarray  # (nnz,) flow id of each entry

    @classmethod
    def from_link_table(
        cls,
        link_table: tuple[tuple[np.ndarray, ...], ...],
        n_links: int,
        n_alternatives: int,
    ) -> "PathIncidence":
        """Compile a ragged ``links[f][i]`` table into CSR form."""
        n_flows = len(link_table)
        n_rows = n_flows * n_alternatives
        counts = np.fromiter(
            (len(links) for row in link_table for links in row),
            dtype=np.intp,
            count=n_rows,
        )
        indptr = np.zeros(n_rows + 1, dtype=np.intp)
        np.cumsum(counts, out=indptr[1:])
        nnz = int(indptr[-1])
        if nnz:
            indices = np.concatenate(
                [
                    np.asarray(links, dtype=np.intp)
                    for row in link_table
                    for links in row
                ]
            )
        else:
            indices = np.empty(0, dtype=np.intp)
        per_flow = (
            counts.reshape(n_flows, n_alternatives).sum(axis=1)
            if n_flows
            else np.empty(0, dtype=np.intp)
        )
        entry_flow = np.repeat(np.arange(n_flows, dtype=np.intp), per_flow)
        inc = cls(
            n_flows=n_flows,
            n_alternatives=n_alternatives,
            n_links=n_links,
            indptr=indptr,
            indices=indices,
            entry_flow=entry_flow,
        )
        inc.validate()
        return inc

    def validate(self) -> None:
        n_rows = self.n_flows * self.n_alternatives
        if self.indptr.shape != (n_rows + 1,):
            raise RoutingError("incidence indptr has wrong shape")
        if self.indices.shape != self.entry_flow.shape:
            raise RoutingError("incidence indices/entry_flow mismatch")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.n_links
        ):
            raise RoutingError("incidence link index out of range")

    # -- structural derivation -------------------------------------------------

    def without_alternative(self, alternative: int) -> "PathIncidence":
        """The incidence with one alternative column removed, derived
        structurally: every flow's row ``alternative`` is dropped from the
        CSR arrays (one multirange gather), with no ragged-table
        recompilation. This is how a post-failure table's incidence is
        derived from the intact table's — the result is bit-identical to
        compiling the post-failure ragged tables from scratch.
        """
        n_alt = self.n_alternatives
        if not 0 <= alternative < n_alt:
            raise RoutingError(
                f"no alternative {alternative} in 0..{n_alt - 1}"
            )
        counts = np.diff(self.indptr).reshape(self.n_flows, n_alt)
        keep_counts = np.delete(counts, alternative, axis=1)
        new_indptr = np.zeros(self.n_flows * (n_alt - 1) + 1, dtype=np.intp)
        np.cumsum(keep_counts.ravel(), out=new_indptr[1:])
        # Each flow keeps two contiguous entry ranges: the rows before and
        # after the dropped one. Interleaving them per flow preserves the
        # row-major storage order.
        row0 = np.arange(self.n_flows, dtype=np.intp) * n_alt
        starts = np.stack(
            [self.indptr[row0], self.indptr[row0 + alternative + 1]], axis=1
        )
        ends = np.stack(
            [self.indptr[row0 + alternative], self.indptr[row0 + n_alt]], axis=1
        )
        positions, _ = multirange_gather(starts.ravel(), ends.ravel())
        derived = PathIncidence(
            n_flows=self.n_flows,
            n_alternatives=n_alt - 1,
            n_links=self.n_links,
            indptr=new_indptr,
            indices=self.indices[positions],
            entry_flow=np.repeat(
                np.arange(self.n_flows, dtype=np.intp), keep_counts.sum(axis=1)
            ),
        )
        derived.validate()
        return derived

    def without_alternatives(
        self, alternatives: Sequence[int] | np.ndarray
    ) -> "PathIncidence":
        """The incidence with a set of alternative columns removed.

        The multi-failure generalization of :meth:`without_alternative`,
        still one structural pass: every flow keeps the contiguous entry
        ranges of its surviving rows (one multirange gather over
        ``len(keep)`` ranges per flow, in row-major storage order), with no
        ragged-table recompilation. Bit-identical both to composing single
        :meth:`without_alternative` drops in any order and to compiling
        the reduced ragged tables from scratch.

        ``alternatives`` must be unique, in range, and leave at least one
        column standing.
        """
        n_alt = self.n_alternatives
        raw = np.asarray(alternatives, dtype=np.intp).ravel()
        drop = np.unique(raw)
        if drop.size != raw.size:
            raise RoutingError("duplicate alternative indices in drop set")
        if drop.size and (drop[0] < 0 or drop[-1] >= n_alt):
            raise RoutingError(
                f"alternative drop indices must be in 0..{n_alt - 1}, "
                f"got {drop.tolist()}"
            )
        if drop.size >= n_alt:
            raise RoutingError("cannot drop every alternative column")
        keep = np.setdiff1d(
            np.arange(n_alt, dtype=np.intp), drop, assume_unique=True
        )
        rows = (
            np.arange(self.n_flows, dtype=np.intp)[:, None] * n_alt
            + keep[None, :]
        ).ravel()
        positions, counts = multirange_gather(
            self.indptr[rows], self.indptr[rows + 1]
        )
        new_indptr = np.zeros(rows.size + 1, dtype=np.intp)
        np.cumsum(counts, out=new_indptr[1:])
        per_flow = (
            counts.reshape(self.n_flows, keep.size).sum(axis=1)
            if self.n_flows
            else np.empty(0, dtype=np.intp)
        )
        derived = PathIncidence(
            n_flows=self.n_flows,
            n_alternatives=int(keep.size),
            n_links=self.n_links,
            indptr=new_indptr,
            indices=self.indices[positions],
            entry_flow=np.repeat(
                np.arange(self.n_flows, dtype=np.intp), per_flow
            ),
        )
        derived.validate()
        return derived

    def subset_rows(self, flows: np.ndarray) -> "PathIncidence":
        """The incidence restricted to the given flows, derived structurally.

        The flow-axis counterpart of :meth:`without_alternative`: the
        selected flows' contiguous row blocks are gathered from the CSR
        arrays (one multirange gather) and reindexed to ``0..K-1`` in
        selection order — no ragged-table recompilation. This is how a
        negotiation sub-table's incidence is derived from its parent's;
        the result is bit-identical to compiling the sub-table's ragged
        link rows from scratch.

        ``flows`` may be in any order but must be within ``0..F-1``.
        """
        flows = np.asarray(flows, dtype=np.intp)
        if flows.ndim != 1:
            raise RoutingError(
                f"subset flow indices must be 1-D, got shape {flows.shape}"
            )
        if flows.size and (
            flows.min() < 0 or flows.max() >= self.n_flows
        ):
            raise RoutingError(
                f"subset flow indices must be in 0..{self.n_flows - 1}"
            )
        positions, row_ptr = self.flow_entries(flows)
        per_flow = np.diff(row_ptr[:: self.n_alternatives])
        derived = PathIncidence(
            n_flows=int(flows.size),
            n_alternatives=self.n_alternatives,
            n_links=self.n_links,
            indptr=row_ptr,
            indices=self.indices[positions],
            entry_flow=np.repeat(
                np.arange(flows.size, dtype=np.intp), per_flow
            ),
        )
        derived.validate()
        return derived

    # -- row access ----------------------------------------------------------

    def row_links(self, flow_index: int, alternative: int) -> np.ndarray:
        """Link ids of one (flow, alternative) path (a view, do not mutate)."""
        row = flow_index * self.n_alternatives + alternative
        return self.indices[self.indptr[row] : self.indptr[row + 1]]

    def flow_entries(
        self, flows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Entry positions and row pointers for all rows of ``flows``.

        ``flows`` is an array of flow ids, in any order; selection order is
        preserved in the gather. Returns
        ``(positions, row_ptr)``: ``positions`` indexes ``indices`` /
        ``entry_flow`` for every entry of the selected flows (in selection
        order), and ``row_ptr`` is a ``(len(flows) * I + 1,)`` pointer array
        delimiting the selected rows inside that gather.
        """
        flows = np.asarray(flows, dtype=np.intp)
        n_alt = self.n_alternatives
        row_start = flows * n_alt
        positions, _ = multirange_gather(
            self.indptr[row_start], self.indptr[row_start + n_alt]
        )
        # Per-row counts of the selected block only — O(len(flows) * I),
        # never a pass over the whole incidence — rebased to a local pointer.
        rows = (row_start[:, np.newaxis] + np.arange(n_alt)).ravel()
        sel_counts = self.indptr[rows + 1] - self.indptr[rows]
        row_ptr = np.zeros(rows.size + 1, dtype=np.intp)
        np.cumsum(sel_counts, out=row_ptr[1:])
        return positions, row_ptr

    # -- whole-placement kernels ----------------------------------------------

    def accumulate_loads(
        self,
        choices: np.ndarray,
        sizes: np.ndarray,
        active: np.ndarray | None = None,
        base: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-link loads of a placement in one scatter-add.

        ``choices`` is the (F,) alternative per flow, ``sizes`` the (F,)
        flow sizes; ``active`` optionally masks which flows are placed.
        Entries accumulate in (flow, path) order, matching a per-flow
        double loop bit for bit.

        ``base`` optionally seeds each link's accumulator: the base loads
        enter the bincount as leading per-link entries, so link ``l``
        accumulates ``base[l], entry, entry, ...`` sequentially — exactly
        the float order of a loop started from ``loads = base.copy()``.
        """
        choices = np.asarray(choices, dtype=np.intp)
        if active is None:
            flows = np.arange(self.n_flows, dtype=np.intp)
        else:
            flows = np.flatnonzero(np.asarray(active, dtype=bool))
        rows = flows * self.n_alternatives + choices[flows]
        positions, counts = multirange_gather(
            self.indptr[rows], self.indptr[rows + 1]
        )
        if base is None:
            loads = np.zeros(self.n_links)
            if positions.size:
                weights = np.repeat(sizes[flows], counts)
                loads += np.bincount(
                    self.indices[positions],
                    weights=weights,
                    minlength=self.n_links,
                )
            return loads
        bins = np.arange(self.n_links, dtype=np.intp)
        weights = np.asarray(base, dtype=float)
        if positions.size:
            bins = np.concatenate([bins, self.indices[positions]])
            weights = np.concatenate(
                [weights, np.repeat(sizes[flows], counts)]
            )
        return np.bincount(bins, weights=weights, minlength=self.n_links)
