"""Miss status holding registers (MSHRs).

The MSHR file bounds the number of distinct outstanding cache-line misses
(Table 1: 32 MSHRs) and the number of accesses that may merge onto one
outstanding miss (8 targets per MSHR).  When either bound is hit the
requesting load/store cannot issue this cycle — the core replays it — which
is exactly the memory-level-parallelism throttle whose interaction with
window capacity (the C factor) drives the paper's floating-point results.

:class:`MSHRFile` holds the in-flight misses and the MSHR counters.  The
policy that reads them (merge onto an in-flight miss, refuse on full
targets or a full file, else allocate) lives in one place,
:meth:`repro.memory.hierarchy.MemoryHierarchy.access`, the file's only user.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from heapq import heappop, heappush


#: Sentinel "no in-flight miss" completion cycle (any real cycle is lower).
_NEVER = float("inf")


@dataclass(slots=True)
class _Miss:
    ready_at: int
    targets: int


class MSHRFile:
    """Tracks outstanding line misses with bounded entries and targets."""

    def __init__(self, entries: int = 32, targets_per_entry: int = 8):
        if entries <= 0 or targets_per_entry <= 0:
            raise ValueError("entries and targets_per_entry must be positive")
        self.entries = entries
        self.targets_per_entry = targets_per_entry
        self._misses: dict[int, _Miss] = {}
        # The tracked misses again as (ready_at, line), earliest first: a
        # reclaim pops exactly the finished ones (this sits on the access
        # hot path, which reads the heap directly).
        self._ready_heap: list[tuple[int, int]] = []
        self.allocations = 0
        self.merges = 0
        self.full_stalls = 0
        self.target_stalls = 0

    def _reclaim(self, now: int) -> None:
        """Drop the misses that have completed by ``now``."""
        heap = self._ready_heap
        misses = self._misses
        while heap and heap[0][0] <= now:
            del misses[heappop(heap)[1]]

    def _allocate(self, line: int, ready_at: int) -> None:
        """Track a new miss on ``line`` completing at ``ready_at``."""
        self._misses[line] = _Miss(ready_at, 1)
        heappush(self._ready_heap, (ready_at, line))
        self.allocations += 1

    @property
    def next_ready(self) -> float:
        """Earliest completion among the tracked misses (``inf`` if none).

        The hierarchy answers every MSHR question the same way until a
        cycle reaches this value and the finished misses are reclaimed.
        """
        heap = self._ready_heap
        return heap[0][0] if heap else _NEVER

    def outstanding(self, now: int) -> int:
        """Number of line misses still in flight at cycle ``now``."""
        self._reclaim(now)
        return len(self._misses)

    def copy(self) -> "MSHRFile":
        """An independent copy: in-flight misses and counters."""
        clone = copy.copy(self)
        clone._misses = {
            line: _Miss(miss.ready_at, miss.targets) for line, miss in self._misses.items()
        }
        clone._ready_heap = self._ready_heap.copy()
        return clone

    def flush(self) -> None:
        """Drop all in-flight state (between independent runs; the
        hierarchy zeroes the counters itself)."""
        self._misses.clear()
        self._ready_heap.clear()
