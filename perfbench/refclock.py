"""Host time in reference seconds, which stay steady on a shared host.

On a shared host the same pure-Python work runs at one speed for a few
milliseconds and up to three times slower for the next few, as load from
outside comes and goes on the physical core.  The share of slow moments
differs by 25-40% from one 20-second run to the next, so plain host times
of identical runs spread that much, and longer runs or medians do not help.

A :class:`Sampler` therefore runs a fixed reference kernel from a timer
signal every :data:`INTERVAL` seconds while the measured code runs.  The
mean time of those calls says how fast the host ran meanwhile.  The work's
host time, without the kernel's own calls, is then rescaled to a host on
which one kernel call takes :data:`REF_CALL_S`: that is the work's time in
*reference seconds*.  A change to the simulator moves its reference
seconds; a busy neighbour moves the kernel and the work alike and cancels.
"""

from __future__ import annotations

import heapq
import signal
import time

#: Seconds between two reference-kernel calls.
INTERVAL = 0.01
#: Duration of one kernel call on the reference host, which defines a
#: reference second.  On an idle 2-CPU Xeon host one call takes 0.45-0.5 ms.
REF_CALL_S = 5e-4
#: Loop trips of one kernel call.
KERNEL_TRIPS = 350


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: int, nxt: "_Node | None") -> None:
        self.key = key
        self.value = value
        self.next = nxt


def kernel(trips: int = KERNEL_TRIPS) -> int:
    """Fixed interpreter work shaped like the simulator's inner loops:
    integer arithmetic, a heap, dict updates and small object allocation."""
    heap: list[tuple[int, int]] = []
    table: dict[int, int] = {}
    x, head = 12345, None
    for i in range(trips):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x & 1023, i))
        if len(heap) > 64:
            key, value = heapq.heappop(heap)
            table[key] = table.get(key, 0) + value
        head = _Node(x & 255, i, head if i & 7 else None)
        if head.key in table:
            x ^= table[head.key]
    return x


class Sampler:
    """Times one interval of work in host and reference seconds.

    Only the main thread of a process may use it (it owns ``SIGALRM``).
    """

    def __init__(self) -> None:
        self.calls = 0
        self.spent = 0.0
        self._started = 0.0
        self._busy = False
        self._previous = None

    def _sample(self, *_: object) -> None:
        if self._busy:
            return
        self._busy = True
        started = time.perf_counter()
        kernel()
        self.spent += time.perf_counter() - started
        self.calls += 1
        self._busy = False

    def start(self) -> None:
        self.calls, self.spent = 0, 0.0
        self._started = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()  # one sample even for an interval shorter than INTERVAL
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> tuple[float, float]:
        """End the interval: its host seconds, and the reference seconds
        of the work in it (the kernel calls taken out)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - self._started
        signal.signal(signal.SIGALRM, self._previous)
        work = max(wall - self.spent, 0.0)
        return wall, work * REF_CALL_S * self.calls / self.spent
