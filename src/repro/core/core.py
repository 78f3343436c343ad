"""Cycle-level superscalar core with an optional shared-resource checker.

The machine is trace driven and models the paper's pipeline shape:

* **fetch** — up to ``fetch_width`` micro-ops per cycle enter a bounded
  window; fetch stalls on I-cache misses (probed once per cache line the
  fetch group touches).  At a mispredicted branch the front end switches
  to a synthetic **wrong-path** stream (see
  :class:`~repro.workloads.synthetic.WrongPathGenerator`): wrong-path ops
  are renamed, issued, and executed like any other op — consuming real
  issue slots, functional units, and memory bandwidth — and are squashed
  when the branch resolves, after which fetch redirects to the correct
  path.  With ``model_wrong_path`` off, fetch instead stalls at the
  branch and the full penalty is resolution wait + redirect.  Streams are
  consumed lazily: only the prefix the front end actually fetches before
  resolution is ever synthesized.
* **rename** — done op by op in fetch's group loop: source operands
  capture direct references to their in-flight producers; the zero
  register never creates a dependency.  Rename also feeds the scheduling
  kernel (:mod:`repro.core.sched`): an op with outstanding sources
  registers for their completion wakeups and enters the primary ready
  queue exactly when the last one lands, and a correct-path op joins the
  checker's in-order ready queue.  With ``frontend_depth`` > 0, a
  front-end hold delays issue eligibility by that many extra pipeline
  cycles.
* **issue/execute** — oldest-first out-of-order issue of ready ops into the
  shared issue slots and Table 1 functional units, popping the seq-ordered
  ready queue instead of rescanning the window; loads and stores go
  through the memory hierarchy (ports, MSHRs, bus) and replay on
  structural refusal; divides block their unpipelined units.  With
  ``CoreParams.memdep`` enabled, a load-store queue tracks in-flight
  memory ops in program order: a store-set predictor
  (:mod:`repro.core.storesets`) delays loads behind stores they have
  conflicted with before, a load whose address matches an older issued
  store forwards from the store buffer instead of accessing the D-cache,
  and a load that issued under an older not-yet-issued same-address store
  is caught when the store's address resolves — an ``EV_MEM_VIOLATION``
  event squashes the load and everything younger through the same
  recovery machinery fault detection uses.
* **check** — with the checker enabled, completed ops are re-executed in
  program order through whatever issue slots and units the primary stream
  left idle this cycle (see :mod:`repro.core.checker`); commit is gated on
  verification, and a detected fault squashes all younger ops and replays
  them from the verified state.
* **commit** — in-order, up to ``commit_width`` per cycle.  With
  ``CoreParams.recovery.checkpoint_interval`` set, commit also takes
  periodic verified-state checkpoints that fault recovery rolls back to.

All squash paths — branch-mispredict redirect, checker fault recovery,
memory-order-violation replay, wrong-path cleanup — are owned by one
:class:`~repro.core.recovery.RecoveryManager`; the core's pipeline stages
make thin calls into it.

All timed wakeups — functional-unit completion, deferred memory fills,
branch resolution, checker retirement — flow through one cycle-indexed
:class:`~repro.core.sched.EventWheel` drained at the top of every step, so
per-cycle cost scales with events and issues, not window occupancy.  With
``CoreParams.cycle_skip`` (the default), the run loop additionally jumps
``now`` over stretches of cycles that provably repeat the one before —
nothing issuable, or only memory retries the hierarchy keeps refusing;
fetch stalled or blocked on a full window, a full LSQ, or an exhausted
wrong-path stream; every pending wakeup in the future — landing exactly on
the next cycle that can differ.  The retries and LSQ stalls the skipped
cycles would have counted are charged analytically, so the simulated
schedule (and every statistic) is identical to ticking cycle by cycle.
"""

from __future__ import annotations

import json
from collections import deque
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.branch.combining import CombiningPredictor
from repro.core.checker import Checker
from repro.core.dynop import DynOp
from repro.faults.models import FaultModel, build_fault_model
from repro.faults.outcomes import OutcomeTracker
from repro.core.params import CoreParams
from repro.core.recovery import RecoveryManager
from repro.core.sched import (
    EV_BRANCH_RESOLVE,
    EV_CHECK_DONE,
    EV_DEP_WAKE,
    EV_MEM_FILL,
    EV_MEM_VIOLATION,
    DeadlockError,
    EventWheel,
    FUPool,
    ReadyQueue,
)
from repro.core.stats import CoreStats
from repro.core.storesets import StoreSetPredictor
from repro.isa.instruction import MicroOp, format_microop
from repro.isa.opcodes import OpClass, UNPIPELINED_OPS, default_latencies, fu_class_for
from repro.isa.registers import REG_ZERO
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs.telemetry import IntervalTelemetry
from repro.obs.tracer import PipelineTracer
from repro.util import run_state, start_run
from repro.workloads.synthetic import WrongPathGenerator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.capture import CoreState

#: Signature of a wrong-path stream source: (branch uop, branch seq,
#: depth) -> the micro-ops the front end finds down the wrong path.  The
#: core consumes the iterable lazily, so generator-backed sources only pay
#: for the prefix fetched before the branch resolves.
WrongPathSource = Callable[[MicroOp, int, int], Iterable[MicroOp]]


class SuperscalarCore:
    """One simulated core; :meth:`run` executes a trace to completion."""

    #: The live wrong-path episode (one at a time: the next mispredicted
    #: branch can only be fetched after the redirect), by run-state rule
    #: with each attribute's start: a reset and every episode's end
    #: (``RecoveryManager.end_wrong_path``) set these.
    WRONG_PATH_EPISODE = run_state(
        # The episode's stream: a lazy iterator plus a one-op lookahead
        # slot (an op probed for an I-cache miss stays peeked until the
        # stall clears), so unconsumed wrong-path ops cost nothing to
        # synthesize.
        derived={"_wp_iter": None, "_wp_peek": None},
        value={
            # Set once the wrong-path stream runs dry (it cannot be
            # peeked): the episode then fetches nothing more.
            "_wp_exhausted": False,
            "_wp_resolve_at": None,
            "_wp_icache_stall_until": 0,
        },
        ops={"_wp_branch": None, "_wp_saved_producers": dict},
    )

    #: Every attribute of a core by its run-state rule (see
    #: :func:`repro.util.run_state`); values and op references with their
    #: starts.
    RUN_STATE = run_state(
        subsystem="hierarchy _fu _wheel _ready stats checker fault_injector "
        "_storesets _recovery",
        derived="params tracer _owns_predictor _wp_source_override _latencies _trace "
        "_silent_tracker _issue_width _frontend_depth _reserved _primary_budget "
        "_ready_heap _wheel_pop _check_deque _trace_len _lat_by_op _fu_by_op "
        "_unpip_by_op _memdep_on _lsq_size _fwd_latency _violation_penalty "
        "telemetry _ckpt_on _skip_enabled _wp_source _cycle_limit",
        value={
            "_now": 0,
            # A caller-supplied predictor keeps its trained state.
            "predictor": lambda core: (
                CombiningPredictor() if core._owns_predictor else core.predictor
            ),
            # Each fetched branch's first outcome, until the branch commits
            # (see _fetch_branch).
            "_branch_outcome": dict,
            "_fetch_index": 0,
            # Redirect stalls (branch/recovery) and I-cache-miss stalls are
            # tracked separately: a recovery replaces the former but must
            # not cancel an outstanding instruction-fetch miss.
            "_fetch_stall_until": 0,
            "_icache_stall_until": 0,
            # Wrong-path seqs start past the trace so they always read as
            # "younger than any real op" to the squash machinery.
            "_wp_next_seq": lambda core: len(core._trace),
            # A replay-only cycle's cycle, and the ready-heap length after
            # issue, handed from _issue_primary to _maybe_skip (with its
            # refused ops, `_replay`).
            "_replay_at": -1,
            "_replay_heap_len": 0,
        },
        ops={
            "retired": list,
            "_window": deque,
            "_reg_producer": dict,
            "_waiting_branch": None,
            "_replay": None,
            "_lsq": deque,
            # The LSQ's correct-path ops again, by address, each list in
            # program order: the forwarding and violation searches walk one
            # list.
            "_lsq_index": dict,
        },
    ) | WRONG_PATH_EPISODE

    def __init__(
        self,
        params: CoreParams | None = None,
        hierarchy: MemoryHierarchy | None = None,
        predictor: CombiningPredictor | None = None,
        wrong_path_source: WrongPathSource | None = None,
        tracer: PipelineTracer | None = None,
    ):
        self.params = params or CoreParams()
        self.hierarchy = hierarchy if hierarchy is not None else MemoryHierarchy()
        # Observability is opt-in objects, not no-op objects: with no
        # tracer the commit/recovery paths hold None and pay one is-None
        # test per finalized op; with telemetry_interval == 0 the run loop
        # has no per-cycle observer.  Only the tracer may also be assigned
        # directly, before begin(): each run builds its telemetry from
        # ``params.telemetry_interval``.
        self.tracer = tracer
        self._owns_predictor = predictor is None and self.params.use_real_predictor
        self.predictor = predictor  # built by _reset_run_state() when owned
        # A caller-supplied source (e.g. a profile-aware WrongPathGenerator)
        # overrides the default generic stream generator.
        self._wp_source_override = wrong_path_source
        self._latencies = default_latencies()
        # Everything else is run state (RUN_STATE): begin() sets it.

    def _reset_run_state(self) -> None:
        """Rebuild everything a fresh measurement needs: the subsystems and
        derived attributes, then each declared start (:data:`RUN_STATE`).

        The hierarchy is always reset: its queues and in-flight misses hold
        absolute cycle numbers, which would poison a run that restarts at
        cycle 0 (warm *caches* across runs would need relative timestamps —
        an open item).  A caller-supplied predictor keeps its trained state;
        predictor state is cycle-free, so staying warm is sound.
        """
        self._fu = FUPool(self.params.fu_counts)
        self._wheel = EventWheel()
        self._ready = ReadyQueue()
        self.stats = CoreStats(issue_width=self.params.issue_width)
        cp = self.params.checker
        self.checker: Checker | None = None
        self.fault_injector: FaultModel | None = None
        self._silent_tracker: OutcomeTracker | None = None
        if cp.enabled:
            # With D-cache banking modelled, every checker load/store must
            # win a (port, bank) slot against the primary stream before its
            # check can issue; single-bank keeps the legacy LSQ bypass.
            probe = (
                self.hierarchy.checker_probe
                if self.hierarchy.params.dcache_banks > 1
                else None
            )
            self.checker = Checker(
                self._fu, self._latencies, self.stats, self._wheel, dcache_probe=probe
            )
            model = self.fault_injector = build_fault_model(cp, self.params.fu_counts)
            if model.wants_check_hook:
                self.checker.fault_hook = model.on_check_issue
            # One tracker resolves every fault of every model; only a model
            # whose faults can go silent needs its per-op issue and commit
            # hooks.  The transient default keeps the legacy row format: it
            # emits no fault-model block.
            model.tracker = OutcomeTracker(self.stats, self.tracer)
            if model.can_go_silent:
                self._silent_tracker = model.tracker
            self.stats.fault_model_enabled = cp.fault_model != "transient"
            self.stats.fault_model = cp.fault_model
        # --- per-run caches for the cycle loop (the params object is
        # read-only during a run; a few of these reach into kernel-structure
        # internals, trading encapsulation for measured per-cycle cost) ---
        params = self.params
        self._issue_width = params.issue_width
        self._frontend_depth = params.frontend_depth
        self._reserved = (
            cp.reserved_slots
            if self.checker is not None and cp.slot_policy == "reserved"
            else 0
        )
        self._primary_budget = self._issue_width - self._reserved
        self._ready_heap = self._ready._heap
        self._wheel_pop = self._wheel.pop_due
        self._check_deque = self.checker._pending if self.checker else None
        self._trace_len = len(self._trace)
        # Per-OpClass lookup tables (IntEnum-indexed lists beat dict/set
        # hashing in the issue loop).
        self._lat_by_op = [self._latencies[op] for op in OpClass]
        self._fu_by_op = [fu_class_for(op) for op in OpClass]
        self._unpip_by_op = [op in UNPIPELINED_OPS for op in OpClass]
        # --- memory-dependence subsystem (inert when disabled: no LSQ
        # bookkeeping, no predictor, no extra RNG/stat traffic) ---
        md = params.memdep
        self._memdep_on = md.enabled
        self._lsq_size = md.lsq_size
        self._fwd_latency = md.forward_latency
        self._violation_penalty = md.violation_penalty
        self._storesets = (
            StoreSetPredictor(md.ssit_size, md.lfst_size, md.ssit_decay_cycles)
            if md.enabled
            else None
        )
        self.stats.memdep_enabled = md.enabled
        self.stats.ssit_decay_enabled = md.enabled and md.ssit_decay_cycles > 0
        # --- observability: telemetry exists only when sampling is on;
        # the recovery manager below captures self.tracer as its hook ---
        interval = params.telemetry_interval
        self.telemetry = IntervalTelemetry(interval, self) if interval else None
        # --- recovery subsystem: one manager owns every squash path and
        # the (optional) verified-state checkpointing policy ---
        self._recovery = RecoveryManager(self)
        self._ckpt_on = self._recovery.checkpointing
        self.stats.checkpointing_enabled = self._ckpt_on
        self._skip_enabled = params.cycle_skip
        self.hierarchy.reset()
        self.hierarchy.attach_wheel(self._wheel)
        # --- wrong-path streams (see WRONG_PATH_EPISODE) ---
        if self.params.model_wrong_path:
            self._wp_source = self._wp_source_override or WrongPathGenerator(
                seed=self.params.wrong_path_seed
            ).iter_stream
        else:
            self._wp_source = None
        start_run(self)

    # ------------------------------------------------------------------- run

    def run(
        self,
        trace: Sequence[MicroOp],
        max_cycles: int | None = None,
        start: CoreState | None = None,
        stop: Callable[[], bool] | None = None,
    ) -> CoreStats:
        """Simulate ``trace`` to completion and return the stats.

        With ``start`` (a :meth:`capture` of a fault-free core part-way
        through this same ``trace`` object), the run resumes from that
        state instead of cycle 0 and returns exactly the statistics of an
        uninterrupted run.  This core's params may differ from the captured
        core's only in the checker's ``fault_seed`` and
        ``force_fault_index``; its fault model starts with the captured
        eligible count, and its wrong-path source must give the captured
        core's streams.  The run takes over the state's memory hierarchy
        contents and queues, so one state starts one run.

        With ``stop``, the run also ends after the first stepped cycle at
        which ``stop()`` holds (see :meth:`advance`), and the stats cover
        only the cycles simulated up to there (``committed`` falls short of
        the trace's length unless that was the last cycle).  ``stop`` is
        called once per stepped cycle, so it must be cheap.  A campaign
        trial stops this way once its fault has resolved silently.

        Raises:
            DeadlockError: if the simulation exceeds ``max_cycles``
                (defaults to a generous bound scaled by trace length) — a
                deadlock guard, not an expected exit.  The message names
                the stuck oldest op and its unmet dependencies.
            ValueError: if ``start`` cannot resume on this core (see
                :func:`repro.core.capture.resume`).
        """
        self.begin(trace, max_cycles, start)
        self.advance(stop)
        if self.telemetry is not None:
            self.telemetry.finalize(self._now)
        return self._finish()

    def run_window(
        self,
        trace: Sequence[MicroOp],
        warmup_ops: int,
        max_cycles: int | None = None,
    ) -> CoreStats:
        """Simulate ``trace`` but report stats for a measured window only.

        The first ``warmup_ops`` *commits* are a warm-start prefix: they
        train the caches, branch predictor, store sets, and fill the
        checker pipeline exactly as :meth:`run` would, but their statistics
        are discarded at a commit-aligned boundary (the first cycle whose
        commit stage reaches ``warmup_ops`` retired ops — commit is
        in-order, so the boundary is a well-defined point in the trace).
        Everything after the boundary is measured: ``stats.cycles`` spans
        boundary-to-end, and every counter — the stats (each field by its
        declared rule, see :mod:`repro.core.stats`), the memory
        hierarchy's, the event wheel's and the store sets' — is zeroed in
        place at the boundary, so it covers only the window.
        Time-sharded runs (see :mod:`repro.parallel`) use this so each
        shard's measurement starts from plausibly-warm microarchitectural
        state rather than a cold machine.

        ``warmup_ops <= 0`` is exactly :meth:`run`.  In-flight state at the
        boundary (issued-not-committed ops, outstanding misses, an open
        wrong-path episode) deliberately carries across: splitting such
        state between windows is what would make shard sums diverge from
        the monolithic run far more than the boundary approximation does.
        """
        if warmup_ops <= 0:
            return self.run(trace, max_cycles=max_cycles)
        self.begin(trace, max_cycles)
        if self.telemetry is not None:
            raise ValueError(
                "interval telemetry is not supported with warm-start windows"
            )
        stats = self.stats
        # Warmup stops right after the cycle whose commit count reaches the
        # target, so any cycles that cycle lets the loop skip are skipped
        # (and charged) inside the measured window.
        self.advance(lambda: stats.committed >= warmup_ops)
        # Measurement boundary: zero every counter (the stats object in
        # place: subsystems hold references to it).
        start_cycle = self._now
        stats.reset_window()
        self.hierarchy.reset_counters()
        self._wheel.posted = 0
        if self._storesets is not None:
            self._storesets.decays = 0
        injector = self.fault_injector
        if injector is not None:
            # A fault still unresolved at the boundary resolves inside the
            # window, so the window counts it as injected too.
            injector.injected = injector.tracker.unresolved()
        self.advance()
        return self._finish(start_cycle)

    def begin(
        self,
        trace: Sequence[MicroOp],
        max_cycles: int | None = None,
        start: CoreState | None = None,
    ) -> None:
        """Set up a run of ``trace`` — from cycle 0, or from a captured
        ``start`` state (see :meth:`run`) — without simulating a cycle.

        :meth:`advance` then simulates it.
        """
        self._trace = trace  # before the reset: wrong-path seqs start past it
        self._reset_run_state()
        # Cycle skipping must not leap past the deadlock guard: a stuck run
        # still stops (and reports its state) at the limit + 1, as if ticking.
        self._cycle_limit = (
            max_cycles if max_cycles is not None else 10_000 + 400 * len(trace)
        )
        if start is not None:
            # Imported on first use, like capture(): only campaign trials
            # need it, and the module costs import time everywhere else.
            from repro.core.capture import resume

            resume(self, start)

    def advance(self, stop: Callable[[], bool] | None = None) -> bool:
        """Simulate the begun run until ``stop()`` holds after a cycle
        (returns True) or the trace has drained (returns False).

        This is the core's one cycle loop; :meth:`run`, :meth:`run_window`
        and a campaign's fault-free leader all drive it.  With telemetry
        attached, every cycle goes to its sampler (``observe``).  A stopped
        loop continues exactly as if it had never stopped: the cycles the
        last cycle lets it skip are skipped when it is entered again.

        Raises:
            DeadlockError: past the run's cycle limit (see :meth:`run`).
        """
        step = self._step
        trace_len = self._trace_len
        window = self._window
        skip = self._skip_enabled
        ready_heap = self._ready_heap
        maybe_skip = self._maybe_skip
        limit = self._cycle_limit
        telemetry = self.telemetry
        observe = telemetry.observe if telemetry is not None else None
        while self._fetch_index < trace_len or window:
            # Cycle skipping: with nothing ready to issue, or only refused
            # retries, jump to the next cycle that can differ.
            if skip and (not ready_heap or self._replay is not None):
                maybe_skip()
            if self._now > limit:
                raise self._deadlock(limit)
            step()
            if observe is not None:
                observe(self._now)
            if stop is not None and stop():
                return True
        return False

    def capture(self) -> CoreState:
        """Copy this fault-free core's run state at the current cycle
        boundary, for another core to :meth:`run` on from there.

        Raises:
            ValueError: if a fault has been injected, or a tracer or
                telemetry is attached.
        """
        from repro.core.capture import CoreState

        return CoreState(self)

    def _finish(self, start_cycle: int = 0) -> CoreStats:
        """Finalize the run's stats (a warm-start window's measurement
        started at ``start_cycle``)."""
        stats = self.stats
        stats.cycles = self._now - start_cycle
        injector = self.fault_injector
        if injector is not None:
            stats.faults_injected = injector.injected
            # Committed-and-still-live silent faults resolve as SDC; after
            # this every injected fault has exactly one outcome.
            injector.tracker.finalize(self._now)
        if self._storesets is not None:
            stats.ssit_decays = self._storesets.decays
        stats.sched_events = self._wheel.posted
        stats.memory = self.hierarchy.snapshot()
        return stats

    def _deadlock(self, limit: int) -> DeadlockError:
        """The error for a run past its cycle limit; with telemetry, it
        carries (and its message appends) the flight recorder's last
        samples."""
        telemetry = self.telemetry
        report = self._deadlock_report(limit)
        if telemetry is None:
            return DeadlockError(report)
        telemetry.finalize(self._now)
        samples = telemetry.recent_samples()
        if samples:
            lines = [report, f"flight recorder (last {len(samples)} telemetry samples):"]
            for row in samples:
                lines.append("  " + json.dumps(row, sort_keys=True))
            report = "\n".join(lines)
        return DeadlockError(report, samples=samples)

    def _deadlock_report(self, limit: int) -> str:
        """Describe why the window is stuck (for :class:`DeadlockError`)."""
        now = self._now
        lines = [
            f"simulation exceeded {limit} cycles with {len(self._window)} ops "
            f"in flight — likely deadlock"
        ]
        next_event = self._wheel.next_cycle()
        if next_event is None:
            when = "none"
        elif next_event < now:
            # Posted into a cycle whose bucket was already drained: no step
            # ever delivers it.
            when = f"at cycle {next_event} (stale: that cycle has passed)"
        else:
            when = f"at cycle {next_event}"
        lines.append(f"cycle {now}; next scheduled event {when}")
        # A recovery loop (a replay that recovers again each time) commits
        # little and shows here; the op states below cannot tell it apart.
        stats = self.stats
        causes = ", ".join(
            f"{cause} {count}" for cause, count in stats.recoveries_by_cause.items() if count
        )
        lines.append(
            f"committed {stats.committed} of {self._trace_len} ops; recoveries by "
            f"cause: {causes or 'none'}"
        )
        if not self._window:
            lines.append(
                f"window empty but fetch stuck at trace index {self._fetch_index} "
                f"(fetch stall until {self._fetch_stall_until}, i-cache stall "
                f"until {self._icache_stall_until}, waiting branch "
                f"{self._waiting_branch.seq if self._waiting_branch else None})"
            )
            return "\n".join(lines)
        op = self._window[0]
        state: str
        if op.issued_at is None:
            unmet = [
                d for d in op.deps if d.complete_at is None or d.complete_at > now
            ]
            if unmet:
                deps_desc = ", ".join(
                    f"seq={d.seq} <{format_microop(d.uop)}> "
                    f"({'never issued' if d.issued_at is None else f'completes at {d.complete_at}'}"
                    f"{', squashed' if d.squashed else ''})"
                    for d in unmet
                )
                state = f"waiting to issue on unmet dependencies: {deps_desc}"
            elif op.pending_deps:
                state = (
                    f"every dependency completed, but {op.pending_deps} "
                    f"wake-up(s) never delivered (lost wake-up: the op never "
                    f"entered the ready queue)"
                )
            else:
                state = (
                    "ready but never issued (structural starvation: functional "
                    "unit or issue slot never became available)"
                )
        elif op.complete_at is not None and op.complete_at > now:
            state = f"executing until cycle {op.complete_at}"
        elif self.checker is not None and not op.checked:
            if op.check_issued_at is None:
                state = "completed but its in-order check never issued"
            else:
                state = f"check in flight until cycle {op.check_complete_at}"
        else:
            state = "complete and commit-ready (commit stage never drained it)"
        lines.append(
            f"oldest op seq={op.seq} <{format_microop(op.uop)}> fetched at "
            f"cycle {op.fetched_at}: {state}"
        )
        return "\n".join(lines)

    def _maybe_skip(self) -> None:
        """Jump ``self._now`` over cycles that provably repeat the last one.

        Called by the run loop after a step that left the primary ready
        queue empty, or that :meth:`_issue_primary` recorded as
        *replay-only*: it issued nothing, stashed nothing on a busy unit,
        and every op it popped was a memory access the hierarchy refused.
        Those ops are back in the queue, and until the hierarchy's answers
        can change (:meth:`MemoryHierarchy.replay_horizon`) each following
        cycle pops them again and is refused the same way.  The next cycle
        that can differ is bounded by:

        * the event wheel's next pending wakeup (producer completions,
          memory fills, branch resolution, check retirements, violation
          deliveries all live there), not counting a bucket behind
          ``now``, which is never delivered;
        * the window head's completion (unchecked mode's commit gate);
        * the check-queue head's wake-up — its primary completion and its
          verified source operands, whose ready cycles the in-order
          checker fixed when the older checks issued;
        * the end of the active fetch stall (redirect, I-cache miss, or
          the wrong-path stream's own I-cache stall);
        * after a replay-only cycle, the hierarchy's replay horizon.

        A fetch stage free to run but blocked — full window, full LSQ
        ahead of a load/store, exhausted wrong-path stream — adds no bound:
        only a commit or a squash unblocks it, and both are bounded above.
        If a commit is due, fetch can make progress, or the checker head is
        eligible (unless it has no slots, or its D-cache probe was just
        refused before anything issued — a stall that repeats too), the
        loop ticks normally.  Otherwise ``now`` jumps to the earliest
        bound, and what the skipped cycles would have done is charged
        analytically: each refused op's retries (``replays``, the replay
        and slot counters, the hierarchy's refusal counters via
        :meth:`MemoryHierarchy.repeat_refusals`) and one
        ``lsq_full_stalls`` per cycle for a fetch stalled on the LSQ.
        Every statistic is identical with skipping on or off (pinned by
        the cycle-skip identity tests and the goldens).
        """
        now = self._now
        replay = self._replay
        if replay is not None:
            self._replay = None
            # The record holds only for the cycle just stepped, and only if
            # rename pushed nothing after issue (that op would issue next).
            if (
                self._replay_at != now - 1
                or len(self._ready_heap) != self._replay_heap_len
            ):
                replay = None
        if replay is None and self._ready_heap:
            return
        window = self._window
        if not window and self._fetch_index >= self._trace_len:
            # Run complete: the loop is about to exit, and a last jump to a
            # stale wheel event (a squashed op's wake, a late fill) would
            # inflate the recorded cycle count past the final commit.
            return
        target = self._wheel.next_cycle()
        if target is not None and target < now:  # a stale bucket
            target = min((due for due in self._wheel._due if due >= now), default=None)
        checker = self.checker
        if window:
            head = window[0]
            if checker is not None:
                if head.checked:
                    return  # commit drains this cycle
            else:
                complete_at = head.complete_at
                if complete_at is not None:
                    if complete_at <= now:
                        return  # commit drains this cycle
                    if target is None or complete_at < target:
                        target = complete_at
        # The refused retries of a replay-only cycle used len(replay) issue
        # slots; a checker left with none cannot act at all.
        if checker is not None and self._check_deque and (
            replay is None or len(replay) < self._issue_width
        ):
            head = self._check_deque[0]
            if head.squashed:
                return  # let the issue path drop the stale head
            complete_at = head.complete_at
            if complete_at is not None:
                wake = complete_at
                reg_ready_get = checker._reg_ready.get
                for src in head.uop.srcs:
                    if src != REG_ZERO:
                        ready = reg_ready_get(src, 0)
                        if ready > wake:
                            wake = ready
                if wake <= now:
                    if replay is None or checker.probe_stalled_at != now - 1:
                        return  # head may check (or is blocked structurally)
                elif target is None or wake < target:
                    target = wake
        # Fetch: the end of the active stall (None: fetch waits on an event).
        if self._wp_branch is not None:
            stall = self._wp_icache_stall_until
        elif self._waiting_branch is None and self._fetch_index < self._trace_len:
            stall = self._fetch_stall_until
            icache = self._icache_stall_until
            if icache > stall:
                stall = icache
        else:
            stall = None
        lsq_stalled = False
        if stall is not None:
            if stall > now:
                if target is None or stall < target:
                    target = stall
            else:
                blocked = self._fetch_blocked()
                if blocked is None:
                    return  # fetch may run this cycle
                lsq_stalled = blocked
        if replay is not None:
            horizon = self.hierarchy.replay_horizon()
            if horizon <= now:
                return
            if target is None or horizon < target:
                target = horizon
        if target is not None and target > now:
            bound = self._cycle_limit + 1
            if target > bound:
                target = bound
                if target <= now:
                    return
            skipped = target - now
            stats = self.stats
            stats.cycles_skipped += skipped
            if lsq_stalled:
                stats.lsq_full_stalls += skipped
            if replay is not None:
                stats.replay_slots_used += len(replay) * skipped
                for op in replay:
                    op.replays += skipped
                    if op.wrong_path:
                        stats.wrong_path_mem_replays += skipped
                        stats.wrong_path_slots_used += skipped
                    else:
                        stats.mem_replays += skipped
                self.hierarchy.repeat_refusals(now - 1, skipped)
            self._now = target

    def _fetch_blocked(self) -> bool | None:
        """How a fetch stage free to run this cycle fares (for _maybe_skip).

        ``None`` if it may make progress.  Otherwise it fetches nothing
        until a commit or a squash frees window or LSQ space or ends the
        wrong-path episode: ``True`` if it stalls on a full LSQ ahead of a
        load/store, counting one ``lsq_full_stalls`` per cycle; ``False``
        if it stalls silently (full window, exhausted wrong-path stream).
        """
        if len(self._window) >= self.params.window_size:
            return False
        if self._wp_branch is not None:
            if self._wp_exhausted:
                return False
            uop = self._wp_peek
            if uop is None:
                return None  # the next wrong-path op is not synthesized yet
        else:
            uop = self._trace[self._fetch_index]
        if (
            self._memdep_on
            and (uop.op is OpClass.LOAD or uop.op is OpClass.STORE)
            and len(self._lsq) >= self._lsq_size
        ):
            return True
        return None

    # ------------------------------------------------------------ cycle step

    def _step(self) -> None:
        now = self._now
        # Deliver this cycle's timed wakeups before any stage runs: producer
        # completions top up the ready queue, fill arrivals arm the
        # hierarchy, and branch-resolution / check-retirement events are
        # batched for the squash and checker phases below (in the same
        # order the scan-based core processed them).
        events = self._wheel_pop(now)
        checker = self.checker
        if events is not None:
            checks_done: list[DynOp] | None = None
            violations: list[tuple[DynOp, DynOp]] | None = None
            branch_resolved = False
            ready_push = self._ready.push
            for kind, payload in events:
                if kind == EV_DEP_WAKE:
                    payload.pending_deps -= 1
                    if not payload.pending_deps and not payload.squashed:
                        ready_push(payload)
                elif kind == EV_CHECK_DONE:
                    if checks_done is None:
                        checks_done = [payload]
                    else:
                        checks_done.append(payload)
                elif kind == EV_MEM_FILL:
                    self.hierarchy.fills_due()
                elif kind == EV_BRANCH_RESOLVE:
                    branch_resolved = True
                else:  # EV_MEM_VIOLATION
                    if violations is None:
                        violations = [payload]
                    else:
                        violations.append(payload)
            if branch_resolved:
                self._recovery.squash_wrong_path(now)
            if violations is not None:
                for store, load in violations:
                    self._recovery.recover_mem_violation(store, load, now)
            if checks_done is not None and checker is not None:
                anomaly = checker.process_completions(checks_done, now)
                if anomaly is not None:
                    if anomaly.faulty:
                        self._recovery.recover_fault(anomaly, now)
                    else:
                        # A clean op whose check miscompared: checker-side
                        # fault, replay the op itself (false alarm).
                        self._recovery.recover_false_alarm(anomaly, now)
        # In-order commit: gate on the head so quiet cycles cost one check.
        window = self._window
        if window:
            head = window[0]
            if (
                head.checked
                if checker is not None
                else (head.complete_at is not None and head.complete_at <= now)
            ):
                self._commit(now)
        self._fu.begin_cycle(now)
        # Under the "reserved" policy the issue stage is statically
        # partitioned: the primary stream never sees the checker's slots,
        # and the checker gets its reservation plus whatever the capped
        # primary stream still left idle.  "opportunistic" (the paper's
        # scheme) gives the primary stream the full width and the checker
        # only the leftovers.
        if self._ready_heap:
            slots_left = self._issue_primary(now, self._primary_budget)
        else:
            slots_left = self._primary_budget
        if checker is not None:
            # The in-order check pipeline can only start at the queue head;
            # skip the issue call outright when the head has no completed
            # primary result yet (a lazily-dropped squashed head still
            # routes through issue, which discards it).
            pending = self._check_deque
            if pending:
                head = pending[0]
                complete_at = head.complete_at
                if head.squashed or (complete_at is not None and complete_at <= now):
                    checker.issue(now, slots_left + self._reserved)
        # Fetch, with the cheap stall guards inlined so a stalled front end
        # costs two comparisons instead of a call.
        if self._wp_branch is not None:
            if now >= self._wp_icache_stall_until:
                self._fetch(now, True)
        elif (
            self._waiting_branch is None
            and now >= self._fetch_stall_until
            and now >= self._icache_stall_until
            and self._fetch_index < self._trace_len
        ):
            self._fetch(now)
        self._now = now + 1

    # ---------------------------------------------------------------- commit

    def _commit(self, now: int) -> None:
        done = 0
        window = self._window
        reg_producer = self._reg_producer
        budget = self.params.commit_width
        record = self.params.record_retired
        gate_on_check = self.checker is not None
        lsq = self._lsq if self._memdep_on else None
        lsq_index = self._lsq_index
        tracer = self.tracer
        silent_tracker = self._silent_tracker
        branch_outcome = self._branch_outcome
        branch_cls = OpClass.BRANCH
        while window and done < budget:
            op = window[0]
            if gate_on_check:
                if not op.checked:
                    break
            elif op.complete_at is None or op.complete_at > now:
                break
            window.popleft()
            if lsq is not None and lsq and lsq[0] is op:
                lsq.popleft()
                addr = op.uop.addr
                entries = lsq_index[addr]
                if len(entries) == 1:
                    del lsq_index[addr]
                else:
                    del entries[0]
            op.committed_at = now
            uop = op.uop
            dest = uop.dest
            if reg_producer.get(dest) is op:
                del reg_producer[dest]
            if uop.op is branch_cls:
                # A committed branch is never fetched again.
                branch_outcome.pop(op.seq, None)
            if record:
                self.retired.append(op)
            if tracer is not None:
                tracer.op_retired(op, now)
            if silent_tracker is not None:
                silent_tracker.note_commit(op, now)
            done += 1
        self.stats.committed += done
        if done and self._ckpt_on:
            self._recovery.note_commit(done, now)

    # ----------------------------------------------------------------- issue

    def _issue_primary(self, now: int, budget: int) -> int:
        """Oldest-first OOO issue from the ready queue; returns leftovers.

        Ops the cycle cannot serve — functional unit busy, memory access
        refused — are stashed and re-pushed for the next cycle, matching
        the scan core's behaviour of skipping them without losing them.
        A refused memory access still burns its issue slot (a replay storm
        must not look like idle issue bandwidth to the checker).  A refused
        retry costs one heap pop, one ``access`` call and one re-push.
        """
        slots = budget
        refused = 0
        ready_heap = self._ready_heap
        stash: list[DynOp] | None = None
        # The FU pool's lists, read and updated in place (see the layout
        # notes in repro.core.sched).
        fu = self._fu
        fu_counts = fu._counts
        fu_used = fu._used
        fu_blocked = fu._blocked
        fu_used_classes = fu._used_classes
        stats = self.stats
        lat_by_op = self._lat_by_op
        fu_by_op = self._fu_by_op
        unpip_by_op = self._unpip_by_op
        wheel = self._wheel
        due = wheel._due
        posted = 0
        access = self.hierarchy.access
        injector = self.fault_injector
        inject_all = injector is not None and not injector.dest_only
        silent_tracker = self._silent_tracker
        waiting_branch = self._waiting_branch
        store_cls = OpClass.STORE
        load_cls = OpClass.LOAD
        memdep_on = self._memdep_on
        fwd_latency = self._fwd_latency
        while slots and ready_heap:
            # ReadyQueue.pop_live, inlined: squashed and issued entries drop.
            op = heappop(ready_heap)[2]
            if op.squashed or op.issued_at is not None:
                continue
            uop = op.uop
            op_cls = uop.op
            cls = fu_by_op[op_cls]
            if op_cls is load_cls or op_cls is store_cls:
                # FUPool.available, read from the pool's lists.
                if fu_counts[cls] - fu_used[cls] - len(fu_blocked[cls]) <= 0:
                    if stash is None:
                        stash = [op]
                    else:
                        stash.append(op)
                    continue
                fwd = None
                if memdep_on and op_cls is load_cls and not op.wrong_path:
                    fwd = self._forwarding_store(op)
                if fwd is not None:
                    # Store-to-load forwarding: the value comes straight
                    # from the older store's buffer entry, so the load
                    # skips the D-cache entirely (no port, no MSHR).
                    complete = now + fwd_latency
                    op.fwd_from = fwd
                    stats.loads_forwarded += 1
                else:
                    result = access(uop.addr, now, op_cls is store_cls)
                    if not result.ok:
                        op.replays += 1
                        slots -= 1
                        refused += 1
                        stats.replay_slots_used += 1
                        if op.wrong_path:
                            stats.wrong_path_mem_replays += 1
                            stats.wrong_path_slots_used += 1
                        else:
                            stats.mem_replays += 1
                        if stash is None:
                            stash = [op]
                        else:
                            stash.append(op)
                        continue
                    complete = result.ready_at
                    if memdep_on and op_cls is store_cls and not op.wrong_path:
                        # The store's address just resolved: any younger
                        # load that already read this address from memory
                        # saw stale data and must replay.
                        self._scan_order_violation(op, now)
                # Loads and stores are pipelined.
                if not fu_used[cls]:
                    fu_used_classes.append(cls)
                fu_used[cls] += 1
            else:
                if fu_counts[cls] - fu_used[cls] - len(fu_blocked[cls]) <= 0:
                    if stash is None:
                        stash = [op]
                    else:
                        stash.append(op)
                    continue
                complete = now + lat_by_op[op_cls]
                if unpip_by_op[op_cls]:
                    # An unpipelined op blocks its unit through completion
                    # (the issue cycle included, so it takes no _used slot).
                    fu_blocked[cls].append(complete)
                    fu._any_blocked = True
                else:
                    if not fu_used[cls]:
                        fu_used_classes.append(cls)
                    fu_used[cls] += 1
            op.issued_at = now
            op.complete_at = complete
            slots -= 1
            waiters = op.waiters
            if waiters is not None:
                bucket = due.get(complete)
                if bucket is None:
                    due[complete] = bucket = []
                for waiter in waiters:
                    bucket.append((EV_DEP_WAKE, waiter))
                posted += len(waiters)
                op.waiters = None
            if op.wrong_path:
                stats.wrong_path_issued += 1
                stats.wrong_path_slots_used += 1
            else:
                stats.primary_slots_used += 1
                if silent_tracker is not None:
                    # A consumer of a live silent fault just issued: the
                    # corrupt value propagated (MASKED is off the table).
                    silent_tracker.note_issue(op)
                # Wrong-path results are never checked, so corrupting them
                # would be invisible and would break the detected+squashed
                # == injected invariant.  Skipping them also keeps forced
                # fault seqs stable across the toggle (rate-based draws
                # still follow issue order, which the toggle can perturb).
                # Register-writing ops only by default (the transient
                # injector's own gate, so this fast path changes no RNG
                # draw sequence); models with dest_only=False — the
                # address-path model must see stores — gate themselves.
                if injector is not None and (uop.dest is not None or inject_all):
                    injector.maybe_inject(op)
            if op is waiting_branch:
                # Resolution time is now known: fetch restarts after redirect
                # and any wrong-path work is squashed at resolution.
                self._waiting_branch = waiting_branch = None
                self._recovery.schedule_branch_redirect(complete)
        wheel.posted += posted
        if stash is not None:
            ready = self._ready
            tick = ready._tick
            for op in stash:
                tick += 1
                heappush(ready_heap, (op.seq, tick, op))
            ready._tick = tick
            if refused == len(stash) == budget - slots and self._skip_enabled:
                # Replay-only cycle: nothing issued and every popped op was
                # refused.  _maybe_skip decides how many cycles repeat it.
                self._replay = stash
                self._replay_at = now
                self._replay_heap_len = len(self._ready_heap)
        return slots

    # ------------------------------------------------------ memory dependence

    def _forwarding_store(self, load: DynOp) -> DynOp | None:
        """Youngest older same-address store that can forward to ``load``.

        Walks the load's address list youngest-first, so the first older
        store is the one whose value the load must see.  A matching store
        that has not issued yet cannot forward (its data does not exist) —
        the load proceeds to the D-cache and the store's later issue
        catches the ordering violation.  Wrong-path stores never forward:
        their values are fiction and they vanish at resolution, so the
        index leaves them out.
        """
        seq = load.seq
        store_cls = OpClass.STORE
        for entry in reversed(self._lsq_index[load.uop.addr]):
            if entry.seq < seq and entry.uop.op is store_cls:
                return entry if entry.issued_at is not None else None
        return None

    def _scan_order_violation(self, store: DynOp, now: int) -> None:
        """At store issue, catch younger loads that already read its address.

        A younger issued load with the same address violated memory order
        unless it forwarded from a store *younger* than this one (in which
        case it saw the closer value, which is correct).  Only the oldest
        violator matters — squashing from it removes every younger one —
        and the address list is program-ordered, so the walk stops at the
        first match.  The squash is posted as an EV_MEM_VIOLATION event for
        the next cycle rather than applied mid-issue: the issue loop is
        walking the ready queue and must not mutate the window under itself.
        """
        sseq = store.seq
        load_cls = OpClass.LOAD
        for entry in self._lsq_index[store.uop.addr]:
            if entry.seq <= sseq or entry.uop.op is not load_cls or entry.issued_at is None:
                continue
            fwd = entry.fwd_from
            if fwd is not None and fwd.seq > sseq:
                continue
            self._wheel.post(now + 1, EV_MEM_VIOLATION, (store, entry))
            break

    def _trim_lsq(self) -> None:
        """Refund the LSQ slots (and index entries) of squashed ops.

        A squash always takes the youngest ops, so its victims form a tail
        of the LSQ and of every address list.
        """
        lsq = self._lsq
        index = self._lsq_index
        while lsq and lsq[-1].squashed:
            op = lsq.pop()
            if not op.wrong_path:
                addr = op.uop.addr
                entries = index[addr]
                if len(entries) == 1:
                    del index[addr]
                else:
                    entries.pop()

    # ----------------------------------------------------------------- fetch

    def _fetch(self, now: int, wrong_path: bool = False) -> None:
        """Fetch and rename one group, from the trace or down the wrong path.

        Rename happens in the group loop itself: each op captures its
        in-flight producers (the zero register never creates a
        dependency), registers for their completion wakeups, and enters
        the primary ready queue exactly when the last one lands; a
        correct-path op also joins the checker's in-order queue.  A nop
        consumes front-end and commit bandwidth only: it is born complete
        and checked.

        With ``wrong_path``, the group comes from the live episode's
        stream, and its ops never join the check queue, the LSQ's address
        index or the store-set predictor; their branches are inert.
        Wrong-path I-cache misses stall only that stream (their line fills
        and bus traffic persist): the correct-path redirect after the
        squash must not inherit a wait for instructions that were never on
        the program's path.  The stream iterator is advanced only when an
        op is actually renamed, so resolution leaves the unfetched suffix
        unsynthesized.
        """
        # Stall and end-of-trace guards live in _step (inlined on the cycle
        # loop); this body only runs when fetch may proceed.  The window
        # only grows during fetch, so the per-cycle budget is fixed up
        # front instead of re-deriving len(window) per op.
        params = self.params
        window = self._window
        budget = params.window_size - len(window)
        if params.fetch_width < budget:
            budget = params.fetch_width
        if wrong_path:
            seq = self._wp_next_seq
            color = self._wp_branch.seq
            wp_iter = self._wp_iter
            peek = self._wp_peek
            check_append = None
            branch_cls = None  # wrong-path branches are inert
        else:
            trace = self._trace
            seq = self._fetch_index
            if len(trace) - seq < budget:
                budget = len(trace) - seq
            color = peek = None
            check_append = self._check_deque.append if self._check_deque is not None else None
            branch_cls = OpClass.BRANCH
        if budget <= 0:
            return
        stats = self.stats
        probed_line: int | None = None
        model_icache = params.model_icache
        line_bytes = self.hierarchy.params.line_bytes
        ifetch = self.hierarchy.ifetch
        memdep_on = self._memdep_on
        # Only correct-path memory ops are indexed by address and seen by
        # the store-set predictor.
        memdep_correct = memdep_on and not wrong_path
        lsq = self._lsq
        lsq_size = self._lsq_size
        # No squash runs inside the loop (a branch only snapshots the map),
        # so the producer map cannot be replaced under it.
        reg_producer = self._reg_producer
        reg_get = reg_producer.get
        depth = self._frontend_depth
        wheel = self._wheel
        due = wheel._due
        ready = self._ready
        ready_heap = self._ready_heap
        nop_cls = OpClass.NOP
        load_cls = OpClass.LOAD
        store_cls = OpClass.STORE
        # The ready queue's tie-break counter and the wheel's event count
        # live in locals until the finally below: capture() copies both.
        tick = ready._tick
        posted = 0
        fetched = 0
        try:
            while fetched < budget:
                if wrong_path:
                    uop = peek
                    if uop is None:
                        uop = next(wp_iter, None)
                        if uop is None:
                            self._wp_exhausted = True
                            break  # stream exhausted: wait for resolution
                        peek = uop
                else:
                    uop = trace[seq]
                op_cls = uop.op
                if (
                    memdep_on
                    and (op_cls is load_cls or op_cls is store_cls)
                    and len(lsq) >= lsq_size
                ):
                    # LSQ full: the front end stalls until commit or a
                    # squash frees a slot (the op stays where it is).
                    stats.lsq_full_stalls += 1
                    return
                if model_icache:
                    # Probe once per cache line the group touches, not once
                    # per group: a line-crossing group pays for (and trains
                    # the prefetcher on) its second line too.
                    line = uop.pc // line_bytes
                    if line != probed_line:
                        result = ifetch(uop.pc, now, prefetch=not wrong_path)
                        probed_line = line
                        if result.level != "l1":
                            if wrong_path:
                                self._wp_icache_stall_until = result.ready_at
                            else:
                                self._icache_stall_until = result.ready_at
                            return
                peek = None
                # Dependency capture, unrolled for the 0-2 sources nearly
                # every micro-op has.
                srcs = uop.srcs
                n_srcs = len(srcs)
                if n_srcs == 0:
                    deps = ()
                elif n_srcs == 1:
                    src = srcs[0]
                    producer = reg_get(src) if src else None
                    deps = () if producer is None else (producer,)
                elif n_srcs == 2:
                    src = srcs[0]
                    first = reg_get(src) if src else None
                    src = srcs[1]
                    second = reg_get(src) if src else None
                    if first is None:
                        deps = () if second is None else (second,)
                    else:
                        deps = (first,) if second is None else (first, second)
                else:
                    deps = tuple(
                        producer
                        for src in srcs
                        if src != REG_ZERO and (producer := reg_get(src)) is not None
                    )
                if memdep_correct and op_cls is load_cls:
                    # Store-set prediction: a load that has conflicted with
                    # an in-flight store's PC before waits for that store to
                    # issue (riding the ordinary wakeup machinery) instead
                    # of racing it to the D-cache.  An already-issued store
                    # needs no delay: forwarding at issue handles it.
                    pred = self._storesets.predicted_store(uop.pc, now)
                    if pred is not None and pred.issued_at is None:
                        deps = (*deps, pred)
                        stats.loads_delayed += 1
                op = DynOp(uop, seq, now, deps, wrong_path, color)
                if memdep_on and (op_cls is load_cls or op_cls is store_cls):
                    # Every in-flight memory op holds an LSQ slot from
                    # rename to commit or squash.
                    lsq.append(op)
                    if memdep_correct:
                        entries = self._lsq_index.get(uop.addr)
                        if entries is None:
                            self._lsq_index[uop.addr] = [op]
                        else:
                            entries.append(op)
                        if op_cls is store_cls:
                            self._storesets.store_fetched(uop.pc, op, now)
                if op_cls is nop_cls:
                    op.issued_at = now
                    op.complete_at = now
                    op.checked = True
                else:
                    dest = uop.dest
                    if dest is not None and dest != REG_ZERO:
                        reg_producer[dest] = op
                    # Producers whose completion cycle is known share one
                    # wheel event at the latest such cycle (readiness is
                    # the max); unissued producers each enlist the op on
                    # their waiter list, and their issue posts its wakeup.
                    pending = 0
                    if deps:
                        wake_at = 0
                        for producer in deps:
                            complete = producer.complete_at
                            if complete is None:
                                pending += 1
                                if producer.waiters is None:
                                    producer.waiters = [op]
                                else:
                                    producer.waiters.append(op)
                            elif complete > wake_at:
                                wake_at = complete
                        if wake_at > now:
                            pending += 1
                            posted += 1
                            bucket = due.get(wake_at)
                            if bucket is None:
                                due[wake_at] = [(EV_DEP_WAKE, op)]
                            else:
                                bucket.append((EV_DEP_WAKE, op))
                    if depth:
                        # Front-end pipeline hold: +depth cycles between
                        # fetch and the first issue opportunity (fetch+1 at
                        # depth 0, since fetch runs after issue in a cycle).
                        pending += 1
                        posted += 1
                        wake_at = now + depth + 1
                        bucket = due.get(wake_at)
                        if bucket is None:
                            due[wake_at] = [(EV_DEP_WAKE, op)]
                        else:
                            bucket.append((EV_DEP_WAKE, op))
                    if pending:
                        op.pending_deps = pending
                    else:
                        tick += 1
                        heappush(ready_heap, (seq, tick, op))
                    if check_append is not None:
                        check_append(op)
                window.append(op)
                seq += 1
                fetched += 1
                if op_cls is branch_cls and self._fetch_branch(op):
                    return
        finally:
            ready._tick = tick
            wheel.posted += posted
            if wrong_path:
                self._wp_peek = peek
                self._wp_next_seq = seq
                stats.wrong_path_fetched += fetched
            else:
                self._fetch_index = seq
                stats.fetched += fetched

    def _fetch_branch(self, op: DynOp) -> bool:
        """Record prediction outcome; True if fetch must stop at ``op``.

        A branch re-fetched after a recovery squash reuses its first
        outcome: the dynamic branch is counted (and, in real-predictor
        mode, trains the predictor) exactly once.  The outcome is kept
        until the branch commits (see :meth:`_commit`), so the map holds
        only branches within a window's length of the commit frontier.
        """
        uop = op.uop
        outcome = self._branch_outcome.get(op.seq)
        if outcome is None:
            self.stats.branches += 1
            if self.predictor is not None and self.params.use_real_predictor:
                prediction = self.predictor.predict(uop.pc)
                resolved_target = uop.target if uop.target is not None else uop.pc + 4
                outcome = self.predictor.resolve(
                    uop.pc, prediction, bool(uop.taken), resolved_target
                )
            else:
                outcome = uop.mispredicted
            if outcome:
                self.stats.branch_mispredicts += 1
            self._branch_outcome[op.seq] = outcome
        op.mispredicted = outcome
        if op.mispredicted:
            self._waiting_branch = op
            if self._wp_source is not None:
                # Start a wrong-path episode: fetch switches to this stream
                # next cycle and stays there until the branch resolves.  The
                # last episode's end left the rest at their declared starts.
                self._wp_branch = op
                self._wp_iter = iter(
                    self._wp_source(uop, op.seq, self.params.wrong_path_depth)
                )
                # Snapshot the producer map: during the episode only
                # wrong-path renames (overwrites) and in-order commits
                # (deletions) touch it, so the resolution squash restores
                # this snapshot minus since-committed entries instead of
                # rescanning the window (see _squash_wrong_path).
                self._wp_saved_producers = dict(self._reg_producer)
            return True
        return False
