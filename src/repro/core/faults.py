"""Deterministic fault plans for multi-session coordination.

A :class:`FaultPlan` is a replayable schedule of injected failures for a
:class:`~repro.core.multi_session.MultiSessionCoordinator` run. Three
fault kinds, mirroring what a production deployment survives:

* ``"abort"`` — the edge's session crashes mid-negotiation this round.
  Adoption is atomic, so the edge keeps its last adopted assignment and
  retries next round.
* ``"deadline"`` — the edge's session must finish within
  ``deadline_rounds`` protocol rounds; hitting the limit discards its
  proposal (same atomic rollback as an abort).
* ``"link_failure"`` — the listed interconnection columns fail
  permanently mid-round; flows placed on them are re-routed and the edge
  renegotiates over the surviving columns.

Plans are plain data: either authored explicitly from
:class:`FaultEvent` tuples (tests, worked examples) or drawn from a
seeded RNG via :meth:`FaultPlan.seeded` — the same seed always yields
the same plan, which is what makes faulted coordination trajectories
replayable. An empty plan is the explicit "no faults" object; the
coordinator's behaviour under it is bit-identical to running without a
plan at all (pinned by the fault tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, FaultInjectionError
from repro.util.rng import derive_rng
from repro.util.validation import check_int, check_probability

__all__ = ["FaultEvent", "FaultPlan", "FaultInjectionError"]

_KINDS = ("abort", "deadline", "link_failure")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault at a (round, edge) slot.

    ``columns`` names the failing interconnection columns (link_failure
    only); ``deadline_rounds`` caps the inner session's protocol rounds
    (deadline only).
    """

    round_index: int
    edge_index: int
    kind: str
    columns: tuple[int, ...] = ()
    deadline_rounds: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.round_index < 0:
            raise ConfigurationError(
                f"fault round_index must be >= 0, got {self.round_index}"
            )
        if self.edge_index < 0:
            raise ConfigurationError(
                f"fault edge_index must be >= 0, got {self.edge_index}"
            )
        if self.kind == "link_failure":
            if not self.columns:
                raise ConfigurationError(
                    "link_failure events must name at least one column"
                )
            if len(set(self.columns)) != len(self.columns):
                raise ConfigurationError(
                    f"link_failure columns must be distinct, got "
                    f"{self.columns}"
                )
            if any(c < 0 for c in self.columns):
                raise ConfigurationError(
                    f"link_failure columns must be >= 0, got {self.columns}"
                )
        elif self.columns:
            raise ConfigurationError(
                f"{self.kind} events carry no columns, got {self.columns}"
            )
        if self.kind == "deadline":
            # It becomes the inner session's max_rounds.
            check_int(self.deadline_rounds, "deadline_rounds", 1)
        elif self.deadline_rounds:
            raise ConfigurationError(
                f"{self.kind} events carry no deadline_rounds"
            )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, replayable fault schedule."""

    events: tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def is_empty(self) -> bool:
        return not self.events

    def events_for(
        self, round_index: int, edge_index: int
    ) -> tuple[FaultEvent, ...]:
        """Events scheduled at one (round, edge) slot, in plan order."""
        return tuple(
            e for e in self.events
            if e.round_index == round_index and e.edge_index == edge_index
        )

    @classmethod
    def seeded(
        cls,
        seed: int,
        n_edges: int,
        n_rounds: int,
        n_alternatives: "int | list[int]",
        abort_rate: float = 0.1,
        deadline_rate: float = 0.0,
        link_failure_rate: float = 0.0,
        deadline_rounds: int = 2,
        max_failed_per_edge: int | None = None,
    ) -> "FaultPlan":
        """Draw a deterministic plan from a seeded RNG.

        One independent draw per (round, edge, kind), rounds ascending,
        edges ascending, kinds in ``abort, deadline, link_failure`` order
        — the fixed draw order is what makes the plan a pure function of
        the arguments. Link failures pick one not-yet-failed column
        uniformly and never sever an edge's last surviving column.
        """
        for name, rate in (
            ("abort_rate", abort_rate),
            ("deadline_rate", deadline_rate),
            ("link_failure_rate", link_failure_rate),
        ):
            check_probability(rate, name)
        seed = check_int(seed, "seed", 0)
        n_edges = check_int(n_edges, "n_edges", 0)
        n_rounds = check_int(n_rounds, "n_rounds", 0)
        deadline_rounds = check_int(deadline_rounds, "deadline_rounds", 1)
        if max_failed_per_edge is not None:
            max_failed_per_edge = check_int(
                max_failed_per_edge, "max_failed_per_edge", 0
            )
        if np.ndim(n_alternatives) == 0:
            n_alternatives = [n_alternatives] * n_edges
        alts = [check_int(a, "n_alternatives", 1) for a in n_alternatives]
        if len(alts) != n_edges:
            raise ConfigurationError(
                f"n_alternatives lists one entry per edge ({n_edges}), "
                f"got {len(alts)}"
            )
        rng = derive_rng(seed, "fault-plan")
        events: list[FaultEvent] = []
        failed: list[set[int]] = [set() for _ in range(n_edges)]
        for round_index in range(n_rounds):
            for edge_index in range(n_edges):
                if rng.random() < abort_rate:
                    events.append(
                        FaultEvent(round_index, edge_index, "abort")
                    )
                if rng.random() < deadline_rate:
                    events.append(
                        FaultEvent(
                            round_index, edge_index, "deadline",
                            deadline_rounds=deadline_rounds,
                        )
                    )
                if rng.random() < link_failure_rate:
                    done = failed[edge_index]
                    budget = alts[edge_index] - 1
                    if max_failed_per_edge is not None:
                        budget = min(budget, max_failed_per_edge)
                    surviving = [
                        c for c in range(alts[edge_index]) if c not in done
                    ]
                    if len(done) < budget and len(surviving) > 1:
                        column = int(
                            surviving[rng.integers(len(surviving))]
                        )
                        done.add(column)
                        events.append(
                            FaultEvent(
                                round_index, edge_index, "link_failure",
                                columns=(column,),
                            )
                        )
        return cls(events=tuple(events))
