"""Exception hierarchy for the Nexit reproduction.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to distinguish configuration mistakes from protocol
violations or infeasible optimization instances.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "TopologyError",
    "RoutingError",
    "TrafficError",
    "CapacityError",
    "PreferenceError",
    "ProtocolError",
    "NegotiationError",
    "OptimizationError",
    "SerializationError",
    "SweepUnitError",
    "FaultInjectionError",
    "CoordinationOscillationWarning",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An experiment or component was configured with invalid parameters."""


class TopologyError(ReproError):
    """A topology is malformed (unknown PoP, disconnected graph, bad link)."""


class RoutingError(ReproError):
    """A routing computation failed (no path, unknown flow, bad exit)."""


class TrafficError(ReproError):
    """A traffic matrix or workload model is invalid."""


class CapacityError(ReproError):
    """Capacity provisioning failed or produced invalid capacities."""


class PreferenceError(ReproError):
    """A preference value or preference list violates the Nexit contract."""


class ProtocolError(ReproError):
    """The negotiation protocol was violated (bad message, wrong turn)."""


class NegotiationError(ReproError):
    """A negotiation session reached an invalid internal state."""


class OptimizationError(ReproError):
    """A globally-optimal routing computation failed (e.g. infeasible LP)."""


class SerializationError(ReproError):
    """Topology or message (de)serialization failed."""


class FaultInjectionError(ReproError):
    """A fault plan does not fit the topology it is injected into."""


class SweepUnitError(ReproError):
    """Sweep units raised; each was attempted once.

    Raised by :class:`~repro.experiments.runner.SweepRunner` *after* every
    other unit has completed (and, with checkpointing, been persisted), so
    a rerun with ``resume=True`` recomputes only the failed units.

    Attributes:
        scenario: the sweep scenario's name.
        failures: ``(unit_index, unit_payload, exception)`` triples, in
            unit order.
    """

    def __init__(self, scenario: str, failures):
        self.scenario = scenario
        self.failures = tuple(failures)
        details = "; ".join(
            f"unit {index} ({payload!r}): {exc.__class__.__name__}: {exc}"
            for index, payload, exc in self.failures
        )
        super().__init__(
            f"{len(self.failures)} unit(s) of sweep {scenario!r} failed: "
            f"{details}"
        )


class CoordinationOscillationWarning(UserWarning):
    """Multi-ISP coordination revisited a previously seen global assignment.

    Emitted by :meth:`~repro.core.multi_session.MultiSessionCoordinator.run`
    when a round that moved flows lands on a global placement fingerprint
    already observed earlier in the run — the deterministic round map will
    cycle through the same states forever — and damping is off or its
    escalation budget is spent, so the loop stops with
    ``stop_reason="oscillating"`` instead of burning the round budget.
    A :class:`Warning` (not a :class:`ReproError`): the run still returns
    its trajectory; callers opt into strictness with ``warnings`` filters.

    Attributes:
        cycle_length: rounds the detected cycle spans (2 for the
            canonical two-cycle), or None if unattributed.
        edges: names of the edges whose placements move within the
            cycle, in edge order.
    """

    def __init__(
        self,
        message: str,
        cycle_length: "int | None" = None,
        edges: "tuple[str, ...]" = (),
    ):
        super().__init__(message)
        self.cycle_length = cycle_length
        self.edges = tuple(edges)
