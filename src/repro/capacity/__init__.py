"""Capacity substrate: link loads and capacity provisioning."""

from repro.capacity.loads import LoadTracker, link_loads
from repro.capacity.provisioning import ProportionalCapacity, UnusedLinkPolicy

__all__ = [
    "link_loads",
    "LoadTracker",
    "ProportionalCapacity",
    "UnusedLinkPolicy",
]
