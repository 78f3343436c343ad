"""Event-driven scheduling kernel shared by the core and the checker.

The pre-kernel simulator rescanned the whole instruction window every
cycle: primary issue walked every in-flight op to find the ready ones, the
checker re-walked it for check candidates, and check retirement re-walked
it for finished re-executions — O(window × cycles) for work that is
O(events) in a real scheduler.  This module provides the structures that
replace those scans, and the functional-unit pool both issue stages share:

* :class:`EventWheel` — a cycle-indexed wheel of timed wakeups.  Anything
  that will happen at a *known* future cycle (a functional unit finishing,
  a deferred memory fill arriving, a mispredicted branch resolving, a
  checker re-execution retiring) posts an event; the core drains exactly
  the current cycle's events at the top of each step and touches nothing
  else.
* :class:`ReadyQueue` — the out-of-order primary ready queue, a seq-keyed
  min-heap.  An op is pushed exactly when its *last* source produces a
  result: rename (in ``SuperscalarCore._fetch``) registers it on its
  producers' wakeup lists and posts wheel events, so oldest-first issue
  pops ready ops instead of testing every window op's sources each
  cycle.  Deletion is lazy: squashed or already-issued entries are
  dropped when popped.
* the checker's in-order ready queue, a plain deque
  (``Checker._pending``).  Correct-path ops enter at rename in program
  order; the head is the only op the in-order check pipeline can start
  next, so eligibility is a head test, not a window scan.  Squashed
  entries are dropped lazily at the head.
* :class:`FUPool` — per-class functional-unit availability.  Primary
  issue and checker issue draw from the *same* pool object within a
  cycle, which is exactly the resource sharing the paper exploits: the
  checker can only take what the primary stream left idle.

Layout the hot loops rely on.  Fetch (with rename), primary issue and
checker issue do their per-op work on these structures' internals in
place instead of calling their methods:

* ``EventWheel._due`` maps a cycle to its bucket, a list of ``(kind,
  payload)`` tuples in posting order.  An inlined post appends to the
  bucket (creating it when absent) and adds one to ``posted``, which
  ``CoreStats.sched_events`` reports.
* ``ReadyQueue._heap`` holds ``(seq, tick, op)`` tuples, and ``_tick``
  grows by one per push.
* ``Checker._pending`` is a deque in program order.  The core appends
  to it at rename and the checker pops its head when a check issues.
* ``FUPool._counts``, ``_used`` and ``_blocked`` are lists indexed by
  :class:`~repro.isa.opcodes.FUClass`.  A class has a free unit while
  ``_counts[cls] - _used[cls] - len(_blocked[cls]) > 0``.  A pipelined
  issue adds one to ``_used[cls]``, appending ``cls`` to
  ``_used_classes`` on the class's first issue of the cycle; an
  unpipelined one appends its completion cycle to ``_blocked[cls]`` and
  sets ``_any_blocked``.

A loop that keeps ``_tick`` or ``posted`` in a local writes it back before
its stage returns: ``SuperscalarCore.capture()`` copies both at cycle
boundaries.

Determinism note: the kernel is a pure restructuring of the per-cycle
scans.  Events within a cycle are applied before the pipeline stages run,
and both queues reproduce the window's program order (live window
sequence numbers are strictly increasing — wrong-path seqs start past the
trace), so a kernel core and a scan core produce identical cycle-by-cycle
schedules.  The golden-equivalence suite pins this against pre-kernel
fixtures.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping

from repro.isa.opcodes import FU_CLASSES, FUClass
from repro.util import run_state

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.dynop import DynOp

# --- event kinds ---------------------------------------------------------
#: A producer's result arrives; payload is the waiting DynOp whose
#: ``pending_deps`` count drops by one.
EV_DEP_WAKE = 0
#: A deferred L1D fill response arrives; payload is None (the hierarchy
#: applies every due fill at the next data access — see
#: ``MemoryHierarchy.attach_wheel``).
EV_MEM_FILL = 1
#: A checker re-execution finishes; payload is the checked DynOp.
EV_CHECK_DONE = 2
#: A mispredicted branch resolves; payload is None (the core validates the
#: active wrong-path episode itself — a recovery may have ended it early).
EV_BRANCH_RESOLVE = 3
#: A store's address resolved under an already-issued younger same-address
#: load; payload is the ``(store, load)`` pair.  Delivery re-validates both
#: ops (either may have been squashed between post and delivery) before
#: training the store-set predictor and squashing from the load.
EV_MEM_VIOLATION = 4


class DeadlockError(RuntimeError):
    """The simulation exceeded its cycle bound without draining the window.

    Subclasses :class:`RuntimeError` for backward compatibility with the
    pre-kernel guard.  The message names the stuck oldest op and its unmet
    dependencies so a hung configuration is diagnosable from the exception
    alone (sweep error rows carry it verbatim).

    The core raises it with the report alone.  A run driven by
    :meth:`repro.obs.telemetry.IntervalTelemetry.run` raises it again
    with that sampler's flight recorder — its last few samples — as
    ``samples``, appended to the message, so a hang arrives with its own
    recent history (occupancy, IPC, checker lag).
    """

    def __init__(self, message: str, samples: list[dict] | None = None):
        super().__init__(message)
        #: Last telemetry samples before the guard tripped (empty when
        #: telemetry was off).
        self.samples: list[dict] = samples or []


class EventWheel:
    """Cycle-indexed timed-wakeup wheel.

    Sparse by design: a plain ``{cycle: [(kind, payload), ...]}`` map, so
    posting is O(1), draining a cycle is O(events due), and an eventless
    cycle costs one dictionary miss.  Events are delivered in posting
    order within a cycle; handlers that need program order (check
    retirement) sort their own batch.
    """

    RUN_STATE = run_state(value="posted", ops="_due")
    __slots__ = tuple(RUN_STATE)

    def __init__(self) -> None:
        self._due: dict[int, list[tuple[int, Any]]] = {}
        #: Events posted since the run (or a warm-start window) began
        #: (kernel telemetry, surfaced by perfbench).
        self.posted = 0

    def post(self, cycle: int, kind: int, payload: Any) -> None:
        """Schedule ``(kind, payload)`` for delivery at ``cycle``."""
        self.posted += 1
        bucket = self._due.get(cycle)
        if bucket is None:
            self._due[cycle] = [(kind, payload)]
        else:
            bucket.append((kind, payload))

    def pop_due(self, cycle: int) -> list[tuple[int, Any]] | None:
        """Remove and return the events due at exactly ``cycle`` (or None)."""
        return self._due.pop(cycle, None)

    def next_cycle(self) -> int | None:
        """Earliest cycle with a pending event, or None.

        The cycle skipper reads it on every skip attempt (its next bound),
        and deadlock reports name it.
        """
        return min(self._due) if self._due else None

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._due.values())


class ReadyQueue:
    """Seq-ordered ready queue for out-of-order primary issue.

    A min-heap keyed by sequence number reproduces the window scan's
    oldest-first order (live window seqs are strictly increasing).  A
    monotonic tiebreak keeps heap entries comparable when a stale entry
    for a squashed op coexists with its re-fetched (same-seq) successor;
    staleness is resolved lazily in :meth:`pop_live`.
    """

    RUN_STATE = run_state(value="_tick", ops="_heap")
    __slots__ = tuple(RUN_STATE)

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, DynOp]] = []
        self._tick = 0

    def push(self, op: DynOp) -> None:
        """Add a deps-ready, unissued op."""
        self._tick += 1
        heappush(self._heap, (op.seq, self._tick, op))

    def pop_live(self) -> DynOp | None:
        """Pop the oldest live entry; drop squashed/issued entries on the way.

        The issue loop re-:meth:`push`\\ es ops it could not serve this
        cycle (functional unit busy, memory refusal), so popped-but-unissued
        ops are never lost.
        """
        heap = self._heap
        while heap:
            op = heappop(heap)[2]
            if op.squashed or op.issued_at is not None:
                continue
            return op
        return None

    def __len__(self) -> int:
        return len(self._heap)

    def __iter__(self) -> Iterator[DynOp]:
        """Live entries, unordered (diagnostics only)."""
        return (op for _, _, op in self._heap if not op.squashed and op.issued_at is None)


class FUPool:
    """Per-class functional-unit availability with unpipelined blocking.

    The pool tracks two things: how many issues each unit class has
    accepted this cycle (pipelined units accept one new op per unit per
    cycle) and which units stay blocked across cycles by unpipelined
    divides.  The issue loops inline :meth:`available` and
    :meth:`acquire` (see the layout notes above); the methods remain the
    reference the pool's tests pin.
    """

    RUN_STATE = run_state(
        derived="_counts", value="_used _blocked _cycle _used_classes _any_blocked"
    )

    def __init__(self, counts: Mapping[FUClass, int]):
        # List storage indexed by FUClass (an IntEnum): the issue loops hit
        # these several times per op, and list indexing beats dict hashing.
        self._counts: list[int] = [0] * len(FU_CLASSES)
        for cls, count in counts.items():
            self._counts[cls] = count
        self._used: list[int] = [0] * len(FU_CLASSES)
        # busy-until cycles of units blocked by in-flight unpipelined ops
        self._blocked: list[list[int]] = [[] for _ in FU_CLASSES]
        self._cycle = -1
        # Issue-count reset in begin_cycle only touches classes that issued
        # last cycle; unpipelined reservations are rare enough to track with
        # one flag instead of four per-cycle list scans.
        self._used_classes: list[int] = []
        self._any_blocked = False

    def begin_cycle(self, now: int) -> None:
        """Reset per-cycle issue counts and release finished unpipelined units."""
        self._cycle = now
        used_classes = self._used_classes
        if used_classes:
            used = self._used
            for cls in used_classes:
                used[cls] = 0
            used_classes.clear()
        if self._any_blocked:
            blocked_lists = self._blocked
            any_left = False
            for cls in FU_CLASSES:
                blocked = blocked_lists[cls]
                if blocked:
                    blocked_lists[cls] = blocked = [end for end in blocked if end > now]
                    if blocked:
                        any_left = True
            self._any_blocked = any_left

    def available(self, cls: FUClass) -> int:
        """Units of ``cls`` that can still accept an op this cycle."""
        return self._counts[cls] - self._used[cls] - len(self._blocked[cls])

    def acquire(self, cls: FUClass, busy_until: int | None = None) -> None:
        """Issue one op to a ``cls`` unit.

        Args:
            busy_until: For unpipelined ops, the completion cycle through
                which the unit stays blocked; ``None`` for pipelined ops.

        Raises:
            RuntimeError: if no unit is available (callers must check
                :meth:`available` first).
        """
        if self.available(cls) <= 0:
            raise RuntimeError(f"no {cls.name} unit available at cycle {self._cycle}")
        if busy_until is not None:
            # The blocked entry covers the issue cycle too (busy_until is
            # in the future), so counting it in _used as well would make
            # one divide occupy two units this cycle.
            self._blocked[cls].append(busy_until)
            self._any_blocked = True
        else:
            if not self._used[cls]:
                self._used_classes.append(cls)
            self._used[cls] += 1

    def release(self, cls: FUClass, busy_until: int) -> bool:
        """Free one unit blocked through ``busy_until`` (a squashed op).

        Squash-and-replay removes ops from the window, but an in-flight
        unpipelined op's reservation would otherwise keep its unit blocked
        for the full latency of work that no longer exists.  Returns True
        if a matching reservation was found and removed; False if it had
        already expired (``begin_cycle`` dropped it) — a no-op, not an
        error, so callers can release unconditionally at squash time.
        """
        blocked = self._blocked[cls]
        if busy_until in blocked:
            blocked.remove(busy_until)
            return True
        return False

    def utilization(self, classes: Iterable[FUClass] | None = None) -> dict[FUClass, int]:
        """Current-cycle issues per class (for stats and tests)."""
        wanted = tuple(classes) if classes is not None else FU_CLASSES
        return {cls: self._used[cls] for cls in wanted}
