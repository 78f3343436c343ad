"""Memory bus bandwidth model.

Main memory accepts one line transfer every ``cycles_per_transfer`` cycles.
Requests that arrive while the bus is busy queue behind it, so a burst of
L2 misses sees growing effective latency — the bus contention the paper
added to stock SimpleScalar (Section 2.3).
"""

from __future__ import annotations

from repro.util import run_state


class MemoryBus:
    """Single-queue bandwidth limiter for off-chip transfers."""

    RUN_STATE = run_state(
        derived="cycles_per_transfer", value="_next_free transfers total_queue_delay"
    )

    def __init__(self, cycles_per_transfer: int = 4):
        if cycles_per_transfer <= 0:
            raise ValueError("cycles_per_transfer must be positive")
        self.cycles_per_transfer = cycles_per_transfer
        self._next_free = 0
        self.transfers = 0
        self.total_queue_delay = 0

    def schedule(self, now: int) -> int:
        """Reserve the bus for one transfer requested at cycle ``now``.

        Returns:
            The cycle at which the transfer actually starts (>= ``now``).
        """
        start = max(now, self._next_free)
        self.total_queue_delay += start - now
        self._next_free = start + self.cycles_per_transfer
        self.transfers += 1
        return start

    def reset(self) -> None:
        """Clear bus occupancy and counters (between independent regions)."""
        self._next_free = 0
        self.transfers = 0
        self.total_queue_delay = 0
