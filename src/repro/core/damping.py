"""Oscillation damping: re-drive flagged coordinations to a fixed point.

PR 9's sha256 assignment fingerprints let the coordinator *detect* when a
round moves flows yet reproduces an earlier global placement — a genuine
cycle of the deterministic round map — but the run could only end in a
diagnosed failure state (``stop_reason="oscillating"``). This module is
the escape hatch the ROADMAP asked for: a deterministic escalation ladder
that re-drives a flagged coordination toward a fixed point instead of
aborting, modelled on Harmonia's approach of resolving detected conflicts
in-flight with a cheap serialization step rather than failing the request.

The ladder (``mode="ladder"``), escalated one rung per fingerprint
revisit:

1. **Hysteresis on the Pareto gate.** The cycle is attributed to its
   participating edges by diffing the fingerprinted assignments across
   the revisit window (:meth:`DampingController.observe`), and
   re-agreements on those edges must now improve *each* endpoint's
   own-network MEL by at least ``hysteresis_margin``. The marginal
   seesaw trades that fuel every observed two-cycle stop qualifying, so
   the contested edges freeze onto their current placements and the rest
   of the system settles around them. The margin halves after every
   clean (revisit-free) round and switches off below 1/16 of its
   configured value, so a successfully damped run finishes under the
   ordinary zero-margin gate.

2. **Seeded tie-break perturbation.** If the assignment is revisited
   again, the implicated edges' renegotiation scopes are additionally
   thinned to a seeded subset of flows (``derive_rng``-keyed on the
   coordinator seed, escalation level and round index), desynchronizing
   the lockstep flow swaps a cycle needs to sustain itself.

Each escalation consumes one unit of ``budget``; a revisit with the
budget spent falls back to the terminal diagnosis — the coordinator
stops with ``stop_reason="oscillating"`` and the (now cycle-attributed)
:class:`~repro.errors.CoordinationOscillationWarning`.

``mode="off"`` never escalates: the controller only keeps the
fingerprint history that enriches the warning, reads no RNG stream, and
gates nothing — the coordinator's observable behaviour is bit-identical
to the pre-damping (PR 9) loop. Determinism: the perturbation streams
derive from the coordinator's own seed under fresh ``derive_rng``
labels, never from the shared round-order stream, so damped runs replay
bit-identically in sweep workers and across serial/parallel schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.util.rng import derive_rng

__all__ = [
    "DAMPING_MODES",
    "DampingConfig",
    "CycleReport",
    "DampingController",
]

DAMPING_MODES = ("off", "ladder")

#: The hysteresis margin is fully off once decayed to this fraction of
#: its configured value or below (four clean-round halvings).
_MARGIN_FLOOR_FRACTION = 1.0 / 16.0


@dataclass(frozen=True)
class DampingConfig:
    """Knobs of the oscillation-damping ladder.

    Attributes:
        mode: ``"off"`` (detect and abort, the PR 9 behaviour) or
            ``"ladder"`` (escalate hysteresis → perturbation before
            aborting).
        hysteresis_margin: required per-endpoint MEL improvement for a
            re-agreement on a cycle-implicated edge while hysteresis is
            active.
        budget: how many escalations (fingerprint revisits) the ladder
            absorbs before falling back to ``stop_reason="oscillating"``.
        perturb_keep: fraction of a perturbed scope's flows kept per
            round (at least one always survives).
    """

    mode: str = "off"
    hysteresis_margin: float = 0.05
    budget: int = 4
    perturb_keep: float = 0.5

    def __post_init__(self) -> None:
        from repro.util.validation import (
            check_int,
            check_positive,
            validate_choice,
        )

        validate_choice(self.mode, DAMPING_MODES, "damping")
        check_positive(self.hysteresis_margin, "hysteresis_margin")
        check_int(self.budget, "damping budget", 0)
        if not 0.0 < self.perturb_keep <= 1.0:
            raise ConfigurationError(
                f"perturb_keep must be in (0, 1], got {self.perturb_keep}"
            )


@dataclass(frozen=True)
class CycleReport:
    """One detected fingerprint revisit, attributed to its edges.

    ``edge_indices`` are the edges whose placements changed anywhere in
    the revisit window — the states the cycle actually walks through —
    in ascending order. ``cycle_length`` is the number of rounds the
    cycle spans (2 for the canonical two-cycle).
    """

    first_seen_round: int
    round_index: int
    edge_indices: tuple[int, ...]

    @property
    def cycle_length(self) -> int:
        return self.round_index - self.first_seen_round


@dataclass
class _Observation:
    """A recorded (round, fingerprint, assignment snapshot) triple."""

    round_index: int
    fingerprint: str
    choices: list[np.ndarray]


class DampingController:
    """Run-scoped damping state machine for one coordination.

    The coordinator calls :meth:`observe` after every flow-moving round,
    :meth:`escalate` on a revisit, :meth:`note_clean_round` otherwise,
    and consults :meth:`margin_for` / :meth:`perturb_scope` from its slot
    machinery. All methods run in the coordination parent (never in pool
    workers), so serial/parallel bit-identity is preserved by
    construction.
    """

    def __init__(self, config: DampingConfig, seed: int):
        self.config = config
        self.seed = seed
        self.level = 0
        self._margin = 0.0
        self._implicated: set[int] = set()
        self._fingerprints: dict[str, int] = {}
        self._history: list[_Observation] = []
        self._pending: _Observation | None = None

    # -- fingerprint bookkeeping --------------------------------------------

    def observe(
        self,
        round_index: int,
        fingerprint: str,
        choices: list[np.ndarray],
    ) -> CycleReport | None:
        """Record one assignment state; report a revisit, else None.

        A revisit is attributed by diffing every pair of consecutive
        recorded states inside the window ``[first_seen, round_index]``:
        the union of differing edges is exactly the set the cycle moves.
        The revisited state is stashed so a subsequent :meth:`escalate`
        can restart the fingerprint memory from it.
        """
        snapshot = _Observation(
            round_index, fingerprint, [c.copy() for c in choices]
        )
        first_seen = self._fingerprints.get(fingerprint)
        if first_seen is None:
            self._fingerprints[fingerprint] = round_index
            self._history.append(snapshot)
            return None
        window = [
            obs for obs in self._history if obs.round_index >= first_seen
        ] + [snapshot]
        implicated: set[int] = set()
        for before, after in zip(window, window[1:]):
            for edge_index, (mine, theirs) in enumerate(
                zip(before.choices, after.choices)
            ):
                if not np.array_equal(mine, theirs):
                    implicated.add(edge_index)
        self._pending = snapshot
        return CycleReport(
            first_seen_round=first_seen,
            round_index=round_index,
            edge_indices=tuple(sorted(implicated)),
        )

    def escalate(self, report: CycleReport) -> bool:
        """Climb one rung of the ladder; False when the budget is spent.

        An accepted escalation arms (or re-arms) the hysteresis margin on
        the report's edges, switches scope perturbation on from the
        second rung up, and resets the fingerprint memory to the
        revisited state — under the new gate the old states are
        legitimately reachable again and must not instantly re-trigger.
        """
        if self.config.mode == "off" or self.level >= self.config.budget:
            return False
        self.level += 1
        self._margin = self.config.hysteresis_margin
        self._implicated.update(report.edge_indices)
        pending = self._pending
        self._pending = None
        self._fingerprints = {pending.fingerprint: pending.round_index}
        self._history = [pending]
        return True

    def note_clean_round(self) -> None:
        """Decay the hysteresis after a revisit-free round.

        Halving per clean round, fully off below 1/16 of the configured
        margin — at which point the implicated set clears too, so a
        later, unrelated cycle is attributed afresh.
        """
        if self._margin <= 0.0:
            return
        self._margin /= 2.0
        if self._margin <= (
            self.config.hysteresis_margin * _MARGIN_FLOOR_FRACTION
        ):
            self._margin = 0.0
            self._implicated.clear()

    # -- gates the coordinator consults -------------------------------------

    @property
    def active(self) -> bool:
        """Whether any damping pressure is currently applied."""
        return self._margin > 0.0 and bool(self._implicated)

    def margin_for(self, edge_index: int) -> float:
        """The extra Pareto-gate margin for one edge (0.0 = plain gate)."""
        if edge_index in self._implicated:
            return self._margin
        return 0.0

    def perturb_scope(
        self, edge_index: int, round_index: int, scope: np.ndarray
    ) -> np.ndarray:
        """Thin a cycle-implicated edge's scope to a seeded subset.

        Active only from the second escalation rung while hysteresis has
        not decayed away; every kept-set draw is ``derive_rng``-keyed on
        (seed, level, round, edge) so replays are bit-identical. At
        least one flow always survives, and unimplicated edges (or
        singleton scopes) pass through untouched.
        """
        if (
            self.level < 2
            or not self.active
            or edge_index not in self._implicated
            or scope.size <= 1
        ):
            return scope
        rng = derive_rng(
            self.seed, "damping-perturb", self.level, round_index, edge_index
        )
        mask = rng.random(scope.size) < self.config.perturb_keep
        if not mask.any():
            mask[int(rng.integers(scope.size))] = True
        return scope[mask]
