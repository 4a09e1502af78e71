"""A wall clock with the serving engine's ``VirtualClock`` interface.

``ServeEngine`` advances its clock by modelled costs; this clock makes
those calls harmless so that request latencies are real elapsed time.
``__call__`` returns seconds since the phase started, ``advance`` does
nothing (the compute already took its time), and ``advance_to`` waits
until a request is due.

The wait spins instead of sleeping: on a shared virtual machine a
sleeping process loses its core, and the first iterations after waking
ran ~20% slower, which measured the host's scheduler rather than the
engine.  How late each wait ended is kept, so a report can show that
latencies measure the engine and not the generator.
"""

from __future__ import annotations

import time
from typing import List


class WallClock:
    """Wall time since construction, in seconds."""

    def __init__(self) -> None:
        self._origin = time.perf_counter()
        #: Seconds each ``advance_to`` wait ended past its due time.
        self.lateness: List[float] = []

    def __call__(self) -> float:
        return time.perf_counter() - self._origin

    def advance(self, dt: float) -> float:
        """No-op: work already took its wall time."""
        return self()

    def advance_to(self, t: float) -> float:
        """Wait until ``t`` seconds into the phase (no-op if past it)."""
        now = self()
        if t > now:
            while now < t:
                now = self()
            self.lateness.append(now - t)
        return now
