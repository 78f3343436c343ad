"""SHREC-style shared-resource checker.

Instructions that finish (possibly out-of-order) primary execution are
re-executed **in program order** through the *same* issue slots and
functional units as the primary stream, consuming only bandwidth the
primary scheduler left idle that cycle.  The re-execution reads verified
operand values (produced by older checks or already-committed state), so a
corrupted primary result shows up as a mismatch when its check completes —
always before the instruction can commit, because commit is gated on the
``checked`` flag.

The checker rides the scheduling kernel (:mod:`repro.core.sched`): the
core enqueues every correct-path op at rename into an in-order
:class:`~repro.core.sched.CheckQueue`, so candidate selection is a head
test instead of a window scan, and each issued check posts an
``EV_CHECK_DONE`` wheel event for its completion cycle, so retirement
touches exactly the checks that finish this cycle.

Simplifications versus the hardware proposal, chosen to keep the model
single-pass:

* Checker loads/stores re-execute address generation on an integer ALU in
  one cycle; the loaded value is bypassed from the load/store queue rather
  than re-reading the full data path.  With a single-bank D-cache the
  checker therefore never competes for D-cache ports; with
  ``HierarchyParams.dcache_banks > 1`` the core passes a ``dcache_probe``
  and each checker load/store must win a bank slot against the primary
  stream before its check can issue (cf. MEEK's narrowed checker
  datapath), stalling the in-order check pipeline on a conflict.
* Faults are carried as flags rather than wrong values, so a check
  "compares" by looking at the flag; timing is unaffected by this.
"""

from __future__ import annotations

from typing import Callable

from repro.core.dynop import DynOp
from repro.core.sched import EV_CHECK_DONE, CheckQueue, EventWheel, FUPool
from repro.core.stats import CoreStats
from repro.isa.opcodes import OpClass, UNPIPELINED_OPS, fu_class_for
from repro.isa.registers import REG_ZERO


class Checker:
    """In-order re-execution engine layered over the primary core."""

    def __init__(
        self,
        fu_pool: FUPool,
        latencies: dict[OpClass, int],
        stats: CoreStats,
        wheel: EventWheel | None = None,
        dcache_probe: Callable[[int, int], bool] | None = None,
    ):
        self._fu = fu_pool
        self._lat = latencies
        # IntEnum-indexed lookup tables for the issue loop (see the core's
        # identical tables); loads/stores re-check in 1 cycle (address
        # generation only — the value is bypassed from the LSQ).
        self._check_lat_by_op = [self._check_latency(op) for op in OpClass]
        self._fu_by_op = [fu_class_for(op) for op in OpClass]
        self._unpip_by_op = [op in UNPIPELINED_OPS for op in OpClass]
        self._stats = stats
        # Standalone uses (unit tests) may omit the wheel; completion events
        # then accumulate on a private wheel the caller drains itself.
        self._wheel = wheel if wheel is not None else EventWheel()
        # With D-cache banking modelled, every checker load/store must win
        # a (port, bank) slot via this probe before its check issues; None
        # keeps the legacy LSQ-bypass assumption (no D-cache competition).
        self._dcache_probe = dcache_probe
        #: Last cycle whose issue() refused the queue head's D-cache probe
        #: before issuing anything: the core's cycle skipper repeats such
        #: a cycle only if the pipe provably stalls the same way again.
        self.probe_stalled_at = -1
        self._pending = CheckQueue()
        # Cycle at which each register's *verified* value becomes available.
        # Absent key = value verified long ago (committed state), ready now.
        self._reg_ready: dict[int, int] = {}
        # Per-issued-check fault hook (a FaultModel's on_check_issue, set by
        # the core for models with wants_check_hook).  None — the default —
        # costs one hoisted None-test per issued check.
        self.fault_hook: Callable[[DynOp, int], None] | None = None

    # ----------------------------------------------------------------- queue

    @property
    def pending_checks(self) -> int:
        """Ops enqueued but not yet check-issued (the checker's lag).

        Counts lazily-dropped squashed entries until the head test discards
        them — a read-only occupancy gauge for interval telemetry, never
        used by the pipeline itself.
        """
        return len(self._pending)

    def enqueue(self, op: DynOp) -> None:
        """Register a renamed correct-path op for its future in-order check.

        The core calls this at rename in fetch order, which *is* program
        order for checkable ops (wrong-path ops never check and nops are
        born checked; neither is enqueued).
        """
        self._pending.append(op)

    # ----------------------------------------------------------- completions

    def process_completions(self, done: list[DynOp], now: int) -> DynOp | None:
        """Retire the checks that finished this cycle; return the first
        anomalous op (a detected fault, or a false-alarming clean op).

        ``done`` is this cycle's batch of EV_CHECK_DONE payloads.  It is
        processed in program order so that when several checks finish on
        the same cycle, the oldest anomaly wins and the caller squashes
        everything younger (which covers the rest — including any
        clean-but-younger checks left unmarked here).  Squashed entries are
        stale events from a victim of an earlier recovery and are ignored.

        A *silently* corrupted op (``fault_silent`` — the corruption is
        outside what the check recomputes) passes as clean here and is
        free to commit: that is the SDC path the non-transient fault
        models open up.  A ``check_faulty`` op miscompares even though
        its primary result is fine; the caller dispatches on ``.faulty``
        to tell the two returns apart.
        """
        if len(done) > 1:
            done.sort(key=_by_seq)
        stats = self._stats
        for op in done:
            if op.squashed or op.checked:
                continue
            if op.faulty and not op.fault_silent:
                stats.faults_detected += 1
                # `fault_at` can legitimately be cycle 0, so a falsy-or
                # fallback would report zero latency for that fault.
                fault_at = op.fault_at if op.fault_at is not None else op.check_complete_at
                stats.record_detection_latency(op.check_complete_at - fault_at)
                return op
            if op.check_faulty:
                return op  # spurious miscompare: false alarm
            op.checked = True
            stats.checks_completed += 1
        return None

    # ----------------------------------------------------------------- issue

    def issue(self, now: int, slots: int) -> int:
        """Re-issue pending checks into up to ``slots`` leftover issue slots.

        Checks issue strictly in program order: the loop stops at the first
        queue head that cannot check this cycle (primary still executing,
        verified operands pending, or no unit/slot), mirroring the in-order
        check pipeline of the paper.

        Returns:
            Number of issue slots consumed.
        """
        used = 0
        # The check queue's deque, the FU pool's lists and the wheel's
        # buckets, read and updated in place (see the layout notes in
        # repro.core.sched).
        queue = self._pending._queue
        fu = self._fu
        fu_counts = fu._counts
        fu_used = fu._used
        fu_blocked = fu._blocked
        reg_ready = self._reg_ready
        reg_ready_get = reg_ready.get
        wheel = self._wheel
        due = wheel._due
        lat_by_op = self._check_lat_by_op
        fu_by_op = self._fu_by_op
        unpip_by_op = self._unpip_by_op
        probe = self._dcache_probe
        fault_hook = self.fault_hook
        load_cls = OpClass.LOAD
        store_cls = OpClass.STORE
        while used < slots and queue:
            op = queue[0]
            if op.squashed:
                queue.popleft()  # a recovery victim, dropped lazily
                continue
            complete_at = op.complete_at
            if complete_at is None or complete_at > now:
                break
            uop = op.uop
            blocked = False
            for src in uop.srcs:
                if src != REG_ZERO and reg_ready_get(src, 0) > now:
                    blocked = True
                    break
            if blocked:
                break
            op_cls = uop.op
            cls = fu_by_op[op_cls]
            if fu_counts[cls] - fu_used[cls] - len(fu_blocked[cls]) <= 0:
                break
            if probe is not None and (op_cls is load_cls or op_cls is store_cls):
                # The FU is won first, then the D-cache bank: a probe that
                # wins a bank slot but loses its FU would waste real
                # bandwidth.
                if not probe(uop.addr, now):
                    if not used:
                        self.probe_stalled_at = now
                    break  # bank/port conflict: in-order pipe stalls here
            complete = now + lat_by_op[op_cls]
            if unpip_by_op[op_cls]:
                fu_blocked[cls].append(complete)
                fu._any_blocked = True
            else:
                if not fu_used[cls]:
                    fu._used_classes.append(cls)
                fu_used[cls] += 1
            op.check_issued_at = now
            op.check_complete_at = complete
            if fault_hook is not None:
                fault_hook(op, now)
            bucket = due.get(complete)
            if bucket is None:
                due[complete] = [(EV_CHECK_DONE, op)]
            else:
                bucket.append((EV_CHECK_DONE, op))
            dest = uop.dest
            if dest is not None and dest != REG_ZERO:
                reg_ready[dest] = complete
            queue.popleft()
            used += 1
        wheel.posted += used
        self._stats.checker_slots_used += used
        return used

    def _check_latency(self, op: OpClass) -> int:
        if op is OpClass.LOAD or op is OpClass.STORE:
            return 1  # address re-generation; value bypassed from the LSQ
        return self._lat[op]

    # -------------------------------------------------------------- recovery

    def rebuild_after_squash(self, window) -> None:
        """Recompute verified-value ready times from the surviving window.

        Squashed in-flight checks may have advertised ready times for
        registers they will never verify; surviving ops re-advertise theirs
        in program order (later writers overwrite earlier ones).  The
        check queue needs no rebuild: squashed entries are dropped lazily
        at the head, and re-fetched instances are re-enqueued in order.
        """
        reg_ready = self._reg_ready
        reg_ready.clear()
        for op in window:
            if op.wrong_path:
                continue
            dest = op.uop.dest
            if dest is None or dest == REG_ZERO:
                continue
            if op.check_complete_at is not None:
                reg_ready[dest] = op.check_complete_at


def _by_seq(op: DynOp) -> int:
    return op.seq
