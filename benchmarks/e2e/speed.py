"""Timings normalized for the speed of a shared CPU.

On a host shared with other tenants this process runs up to about 1.9x
slower, for seconds to minutes at a time, whenever a neighbour loads the
same physical core. A median over passes cannot remove a slowdown that
covers the whole run, so every timed interval is also scaled by how slow
the CPU was during it. Every ``PERIOD_S`` of wall time, ``SIGALRM`` runs a
fixed pure-Python probe between bytecodes of the main thread and records
its duration. An interval's *slowdown* is the mean probe time inside it
over ``REFERENCE_S``, the probe's time on the unloaded host.

The probe and the workloads do not slow down alike: over three sets of
ten runs per workload on the 2-vCPU Xeon host, the log-log slope of pass
time on probe slowdown ranged from 0.4 to 1.1, depending on the workload
and on the neighbour. An interval therefore counts
``seconds / slowdown ** ELASTICITY`` at reference speed. 0.8 gave the
smallest worst-case spread over those 120 runs: 6.6% of the median
(interquartile range), against 39% raw.

Samples above 3x the interval's median are clipped: they are the probe
itself being descheduled, which the interval pays once but an unclipped
mean would count in full. The probe costs about 0.4% of run time.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.01
#: Mean probe time on the unloaded 2-vCPU Xeon host the bounds were set on.
REFERENCE_S = 37e-6
ELASTICITY = 0.8


def _probe() -> dict:
    table: dict[int, int] = {}
    for i in range(400):
        table[i & 63] = table.get(i & 63, 0) + i
    return table


def at_reference(seconds: float, slowdown: float) -> float:
    """``seconds`` measured at ``slowdown``, rescaled to reference speed."""
    return seconds / slowdown ** ELASTICITY


class SpeedProbe:
    """Samples the probe on a timer; ``stop`` it before the process exits."""

    def __init__(self):
        self.samples: list[float] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe()
        self.samples.append(time.perf_counter() - start)

    def slowdown(self, since: int) -> float:
        """CPU slowdown over ``samples[since:]`` (1.0 if there are none)."""
        window = self.samples[since:]
        if not window:
            return 1.0
        cap = 3 * statistics.median(window)
        return statistics.fmean(min(s, cap) for s in window) / REFERENCE_S
