"""Sparse path-incidence engine: CSR link incidence for the load hot path.

The bandwidth machinery repeatedly asks "which links does flow ``f`` cross
under alternative ``i``, and what happens to their loads?". A
:class:`~repro.routing.costs.PairCostTable` stores each side's paths once
per (interconnection, PoP), since a flow's path inside an ISP depends only
on its endpoint PoP there. :class:`PathIncidence` is the CSR form of such
rows over the flattened row space ``row = flow * n_alternatives +
alternative``:

* ``indptr``  — ``(F*I + 1,)`` row pointers;
* ``indices`` — ``(nnz,)`` link ids, concatenated in (flow, alternative)
  row-major order, each row's links in path order;
* ``entry_flow`` — ``(nnz,)`` the flow id of every entry (for per-flow
  weights such as flow sizes).

A table compiles one *per-PoP* incidence per side (:meth:`PathIncidence.from_paths`:
flow ``p`` is PoP ``p``). The load kernels and the sessions' trackers read
it directly, each flow through its endpoint PoP's rows
(:mod:`repro.capacity.loads`); the LP assembly, ``fractional_loads`` and
the coordinator's scope read the flow-level incidence, one gather from it
through every flow's endpoint PoP (:meth:`PathIncidence.gather`).
Because a flow's ``I`` rows are contiguous, per-flow batches (all
alternatives of a set of flows) gather as contiguous entry ranges
(:meth:`PathIncidence.flow_entries`), and the whole load/preference
pipeline becomes a handful of array expressions: scatter-adds via
:func:`numpy.bincount` and per-row maxima via ``np.maximum.at``.

**Bit-exactness contract.** Entries are stored in exactly the order a
per-flow Python loop visits them (flows ascending, path order within a
row), a ``bincount`` adds entries one by one in that order, and a maximum
is order-independent. Every vectorized kernel built on this module
therefore produces *bit-identical* floats to its reference loop — the
equivalence tests assert ``==``, not ``allclose``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import RoutingError

__all__ = ["PathIncidence", "multirange_gather"]


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


@dataclass(frozen=True)
class PathIncidence:
    """CSR incidence of path links over the flattened (flow, alternative) rows.

    A cost table caches two per side (see
    :meth:`~repro.routing.costs.PairCostTable.incidence`): the per-PoP one
    :meth:`from_paths` compiles and the flow-level one :meth:`gather`
    builds from it. All arrays are read-only by convention; nothing here
    mutates after construction.
    """

    n_flows: int
    n_alternatives: int
    n_links: int
    indptr: np.ndarray  # (F*I + 1,) row pointers
    indices: np.ndarray  # (nnz,) link ids, row-major, path order
    entry_flow: np.ndarray  # (nnz,) flow id of each entry

    @classmethod
    def from_paths(
        cls,
        paths: Sequence[Sequence[np.ndarray | None]],
        n_pops: int,
        n_links: int,
    ) -> "PathIncidence":
        """Compile one side's per-interconnection paths into per-PoP CSR form.

        ``paths[i][p]`` is the link array of the path between
        interconnection ``i``'s PoP and PoP ``p``. The result's flow ``p`` is
        PoP ``p``, so row ``p * I + i`` holds ``paths[i][p]``: P·I arrays
        concatenated once. ``None`` (an unreachable PoP, which no flow of a
        built table has as an endpoint) compiles as an empty row.
        """
        n_alternatives = len(paths)
        cells = [links for pop in zip(*paths) for links in pop]
        counts = np.fromiter(
            (0 if links is None else len(links) for links in cells),
            dtype=np.intp,
            count=len(cells),
        )
        indptr = np.zeros(n_pops * n_alternatives + 1, dtype=np.intp)
        np.cumsum(counts, out=indptr[1:])
        present = [links for links in cells if links is not None and len(links)]
        inc = cls(
            n_flows=n_pops,
            n_alternatives=n_alternatives,
            n_links=n_links,
            indptr=indptr,
            indices=(
                np.concatenate(present) if present
                else np.empty(0, dtype=np.intp)
            ),
            entry_flow=np.repeat(
                np.arange(n_pops, dtype=np.intp),
                counts.reshape(n_pops, n_alternatives).sum(axis=1),
            ),
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

    def gather(self, flows: np.ndarray) -> "PathIncidence":
        """The incidence whose flow ``k`` has the rows of flow ``flows[k]``.

        ``flows`` may repeat and come in any order. One multirange gather
        (:meth:`flow_entries`) copies the selected row blocks in selection
        order, each row's links in path order. A cost table's flow-level
        incidence is its per-PoP incidence gathered through every flow's
        endpoint PoP.
        """
        flows = np.asarray(flows, dtype=np.intp)
        if flows.size and (flows.min() < 0 or flows.max() >= self.n_flows):
            raise RoutingError(
                f"gathered flow ids must be in 0..{self.n_flows - 1}"
            )
        positions, row_ptr = self.flow_entries(flows)
        return PathIncidence(
            n_flows=int(flows.size),
            n_alternatives=self.n_alternatives,
            n_links=self.n_links,
            indptr=row_ptr,
            indices=self.indices[positions],
            entry_flow=np.repeat(
                np.arange(flows.size, dtype=np.intp),
                np.diff(row_ptr[:: self.n_alternatives]),
            ),
        )
