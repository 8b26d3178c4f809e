"""Identifiable flow signatures (Section 6, "Identifying flows for
negotiation").

"A flow is uniquely identified using the (most specific) source and
destination prefixes of its packets and an identifier that corresponds to
its ingress into the upstream ... To prevent information leakage, the
upstream chooses different identifiers for different flows that enter at the
same place. The upstream periodically refreshes the information on active
flows and flows that are inactive for a certain period are timed out. ...
to improve scalability ISPs can decide to negotiate over only the set of
long-lived and high-bandwidth flows ... the upstream will trigger a new
flow only if its size stays above a threshold for a certain period of time."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ProtocolError
from repro.util.rng import RngSource, make_rng

__all__ = ["FlowSignature", "NewFlowAnnouncement", "FlowSignatureTable"]


@dataclass(frozen=True)
class FlowSignature:
    """The wire identity of one negotiable flow.

    Attributes:
        src_prefix: most specific source prefix of the flow's packets.
        dst_prefix: most specific destination prefix.
        ingress_id: opaque identifier for the flow's ingress into the
            upstream — deliberately NOT the ingress PoP itself, so the
            downstream cannot map identifiers to upstream topology.
    """

    src_prefix: str
    dst_prefix: str
    ingress_id: int

    def __post_init__(self) -> None:
        if not self.src_prefix or not self.dst_prefix:
            raise ProtocolError("flow signature requires both prefixes")
        if self.ingress_id < 0:
            raise ProtocolError("ingress_id must be non-negative")


@dataclass(frozen=True)
class NewFlowAnnouncement:
    """Upstream's signal that a new negotiable flow exists."""

    signature: FlowSignature
    estimated_size: float

    def __post_init__(self) -> None:
        if self.estimated_size <= 0:
            raise ProtocolError("estimated flow size must be positive")


class FlowSignatureTable:
    """Upstream-side management of active flow signatures.

    Tracks per-flow observed rates, triggers announcements for flows that
    stay above ``size_threshold`` for ``sustain_seconds``, assigns
    leak-resistant ingress identifiers, and times out flows inactive for
    ``timeout_seconds``. Time is injected by the caller (monotonic
    seconds), keeping the class deterministic and testable.
    """

    def __init__(
        self,
        size_threshold: float = 0.0,
        sustain_seconds: float = 0.0,
        timeout_seconds: float = 300.0,
        seed: RngSource = None,
    ):
        if size_threshold < 0:
            raise ProtocolError("size_threshold must be >= 0")
        if sustain_seconds < 0 or timeout_seconds <= 0:
            raise ProtocolError("invalid sustain/timeout configuration")
        self.size_threshold = float(size_threshold)
        self.sustain_seconds = float(sustain_seconds)
        self.timeout_seconds = float(timeout_seconds)
        self._rng = make_rng(seed)
        # (src_prefix, dst_prefix, ingress_pop) -> state
        self._above_since: dict[tuple[str, str, int], float] = {}
        self._last_seen: dict[tuple[str, str, int], float] = {}
        self._active: dict[tuple[str, str, int], FlowSignature] = {}
        self._used_ids: set[int] = set()

    # -- observation ------------------------------------------------------

    def observe(
        self,
        src_prefix: str,
        dst_prefix: str,
        ingress_pop: int,
        rate: float,
        now: float,
    ) -> NewFlowAnnouncement | None:
        """Record a traffic observation; return an announcement if a new
        negotiable flow just qualified."""
        if rate < 0:
            raise ProtocolError("rate must be >= 0")
        key = (src_prefix, dst_prefix, ingress_pop)
        self._last_seen[key] = now
        if rate < self.size_threshold:
            self._above_since.pop(key, None)
            return None
        self._above_since.setdefault(key, now)
        if key in self._active:
            return None
        if now - self._above_since[key] < self.sustain_seconds:
            return None
        signature = FlowSignature(
            src_prefix=src_prefix,
            dst_prefix=dst_prefix,
            ingress_id=self._fresh_ingress_id(),
        )
        self._active[key] = signature
        return NewFlowAnnouncement(signature=signature, estimated_size=rate)

    def _fresh_ingress_id(self) -> int:
        """Random identifier, unique per flow — "the upstream chooses
        different identifiers for different flows that enter at the same
        place" so the downstream cannot correlate ingresses."""
        while True:
            candidate = int(self._rng.integers(0, 2**31 - 1))
            if candidate not in self._used_ids:
                self._used_ids.add(candidate)
                return candidate

    # -- lifecycle ----------------------------------------------------------

    def expire(self, now: float) -> list[FlowSignature]:
        """Time out inactive flows; returns the expired signatures."""
        expired = []
        for key, last in list(self._last_seen.items()):
            if now - last >= self.timeout_seconds:
                signature = self._active.pop(key, None)
                self._last_seen.pop(key, None)
                self._above_since.pop(key, None)
                if signature is not None:
                    expired.append(signature)
        return expired

    def __len__(self) -> int:
        return len(self._active)
