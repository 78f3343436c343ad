"""Capture a fault-free core's run state, and resume other cores from it.

Until its one injected fault, a campaign trial replays exactly the
schedule of its cell's fault-free calibration run: a forced fault draws
no random numbers before its site.  So a trial can start from a copy of a
fault-free *leader* core, taken just before the trial's site, instead of
from cycle 0.  ``SuperscalarCore.capture()`` copies a core's run state at
a cycle boundary into a :class:`CoreState`, and ``SuperscalarCore.run(
trace, start=state)`` resumes from it (via :func:`resume`) with exactly
the statistics of an uninterrupted run.

A state shares what can no longer change and copies the rest:

* the trace and its micro-ops are immutable and shared;
* in-flight ``DynOp`` records are copied, and every reference to them —
  window, queues, wheel events, LSQ, store-set table, producer maps, the
  dependences and wake-up lists between them — points at the copies.
  Committed records never change again and stay shared;
* a live wrong-path episode is kept as its branch and the number of ops
  already pulled from its stream (those in the window plus any peeked
  op).  Streams are pure functions of (seed, branch pc, branch seq), so
  the resuming core re-creates the stream from its own source and pulls
  that many ops again;
* the memory hierarchy copies only the cache sets a fill has created
  (:meth:`~repro.memory.hierarchy.MemoryHierarchy.save_state`).

This module is the one place that knows the layout of a core's run
state; like the recovery manager, it reads and writes the core's
subsystems directly.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import fields, replace
from operator import attrgetter
from typing import TYPE_CHECKING, Any

from repro.core.dynop import DynOp
from repro.core.sched import EV_CHECK_DONE, EV_DEP_WAKE, EV_MEM_VIOLATION

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.core import SuperscalarCore
    from repro.core.params import CoreParams

#: The core's per-run attributes that hold plain values.
_SCALARS = (
    "_fetch_index",
    "_fetch_stall_until",
    "_icache_stall_until",
    "_wp_exhausted",
    "_wp_resolve_at",
    "_wp_icache_stall_until",
    "_wp_next_seq",
    "_now",
    "_replay_at",
    "_replay_heap_len",
)

_dynop_fields = attrgetter(*(f.name for f in fields(DynOp)))


class _Copies:
    """Copies each uncommitted ``DynOp`` once; committed ops are shared."""

    __slots__ = ("_by_id",)

    def __init__(self) -> None:
        self._by_id: dict[int, DynOp] = {}

    def __call__(self, op: DynOp | None) -> DynOp | None:
        if op is None or op.committed_at is not None:
            return op
        clone = self._by_id.get(id(op))
        if clone is None:
            clone = self._by_id[id(op)] = DynOp(*_dynop_fields(op))
        return clone

    def window(self, window: deque[DynOp]) -> deque[DynOp]:
        """Copy the window's (live) ops, pointing their references at copies.

        Only live ops still follow their references, so squashed ops
        elsewhere are copied without re-pointing theirs.
        """
        copies = deque(map(self, window))
        for op in copies:
            if op.deps:
                op.deps = tuple(map(self, op.deps))
            if op.waiters is not None:
                op.waiters = list(map(self, op.waiters))
            if op.fwd_from is not None:
                op.fwd_from = self(op.fwd_from)
        return copies

    def event(self, event: tuple[int, Any]) -> tuple[int, Any]:
        """A wheel event, its op payloads copied."""
        kind, payload = event
        if kind == EV_DEP_WAKE or kind == EV_CHECK_DONE:
            return kind, self(payload)
        if kind == EV_MEM_VIOLATION:
            return kind, (self(payload[0]), self(payload[1]))
        return event


class CoreState:
    """A fault-free core's run state at a cycle boundary (see the module
    docstring); starts one resumed run.

    Raises:
        ValueError: if the core has injected a fault (only fault-free
            prefixes are shared), or has a tracer or telemetry attached
            (a run resumed from the state would lack their records of the
            prefix).
    """

    def __init__(self, core: "SuperscalarCore") -> None:
        if core.tracer is not None or core.telemetry is not None:
            raise ValueError(
                "cannot capture a core with a tracer or telemetry attached: a "
                "resumed run would lack their records of the prefix"
            )
        injector = core.fault_injector
        if injector is not None and injector.injected:
            raise ValueError(
                "cannot capture a core that has injected a fault: only "
                "fault-free run states can be shared"
            )
        op = _Copies()
        self.params = core.params
        self.trace = core._trace
        self.eligible = injector.eligible if injector is not None else 0
        self.scalars = {name: getattr(core, name) for name in _SCALARS}
        self.window = op.window(core._window)
        self.retired = list(core.retired)
        self.reg_producer = {reg: op(x) for reg, x in core._reg_producer.items()}
        self.branch_outcome = dict(core._branch_outcome)
        self.waiting_branch = op(core._waiting_branch)
        self.wp_branch = op(core._wp_branch)
        self.wp_saved_producers = {
            reg: op(x) for reg, x in core._wp_saved_producers.items()
        }
        # Every wrong-path op in the window belongs to the live episode:
        # resolution and every squash end an episode together with its ops.
        self.wp_peeked = core._wp_peek is not None
        self.wp_pulled = sum(x.wrong_path for x in self.window) + self.wp_peeked
        self.replay = None if core._replay is None else [op(x) for x in core._replay]
        self.lsq = deque(map(op, core._lsq))
        self.lsq_index = {
            addr: [op(x) for x in ops] for addr, ops in core._lsq_index.items()
        }
        fu = core._fu
        self.fu = (
            list(fu._used),
            [list(blocked) for blocked in fu._blocked],
            fu._cycle,
            list(fu._used_classes),
            fu._any_blocked,
        )
        wheel = core._wheel
        self.wheel_due = {
            cycle: [op.event(event) for event in bucket]
            for cycle, bucket in wheel._due.items()
        }
        self.wheel_posted = wheel.posted
        ready = core._ready
        self.ready_heap = [(seq, tick, op(x)) for seq, tick, x in ready._heap]
        self.ready_tick = ready._tick
        checker = core.checker
        self.checker = (
            None
            if checker is None
            else (
                deque(map(op, checker._pending)),
                dict(checker._reg_ready),
                checker.probe_stalled_at,
            )
        )
        stats = core.stats
        # Shallow copies suffice: the stats' containers hold numbers and
        # strings (the reservoir RNG copies its state).
        self.stats = {f.name: copy.copy(getattr(stats, f.name)) for f in fields(stats)}
        recovery = core._recovery
        checkpoints = recovery._checkpoints
        self.recovery = (
            deque(checkpoints, maxlen=checkpoints.maxlen),
            recovery._committed,
            recovery._next_ckpt_commit,
        )
        sets = core._storesets
        self.storesets = (
            None
            if sets is None
            else (
                list(sets._ssit),
                list(map(op, sets._lfst)),
                sets._next_ssid,
                sets._decay_boundary,
                sets.decays,
            )
        )
        self.predictor = (
            copy.deepcopy(core.predictor) if core.params.use_real_predictor else None
        )
        self.memory_params = core.hierarchy.params
        self.memory = core.hierarchy.save_state()
        self.used = False


def _same_run(params: "CoreParams", captured: "CoreParams") -> bool:
    """Whether ``params`` differ from ``captured`` at most in the checker's
    fault seed and forced fault site."""
    checker = replace(
        params.checker,
        fault_seed=captured.checker.fault_seed,
        force_fault_index=captured.checker.force_fault_index,
    )
    return replace(params, checker=checker) == captured


def resume(core: "SuperscalarCore", state: CoreState) -> None:
    """Continue ``core``'s begun run from ``state``, which it takes over.

    ``core`` has just been reset for ``state``'s trace, so its fault model
    comes from its own params: it picks up the captured eligible count
    and, as the captured core injected nothing and drew no random number,
    nothing else.

    Raises:
        ValueError: if the state already started a run, if ``core`` runs
            another trace object or has a tracer attached, if its params
            differ from the captured core's in anything but the checker's
            ``fault_seed`` and ``force_fault_index``, if its fault rate is
            not 0 (a rate draws random numbers before the site), or if its
            forced site is already behind the captured state.
    """
    params = core.params
    cp = params.checker
    if state.used:
        raise ValueError("this state already started a run; capture another")
    if core._trace is not state.trace:
        raise ValueError("a captured state resumes only on the trace it was captured on")
    if core.tracer is not None:
        raise ValueError("a resumed run cannot be traced: its prefix was not")
    if not _same_run(params, state.params) or core.hierarchy.params != state.memory_params:
        raise ValueError(
            "a captured state resumes only on a core whose params differ at "
            "most in the checker's fault_seed and force_fault_index"
        )
    if cp.fault_rate:
        raise ValueError("a captured state resumes only with fault rate 0")
    if cp.force_fault_index is not None and cp.force_fault_index < state.eligible:
        raise ValueError(
            f"forced fault site {cp.force_fault_index} is behind the captured "
            f"state ({state.eligible} eligible events seen)"
        )
    state.used = True
    for name, value in state.scalars.items():
        setattr(core, name, value)
    core._window = state.window
    core.retired = state.retired
    core._reg_producer = state.reg_producer
    core._branch_outcome = state.branch_outcome
    core._waiting_branch = state.waiting_branch
    core._wp_branch = state.wp_branch
    core._wp_saved_producers = state.wp_saved_producers
    if state.wp_branch is not None:
        branch = state.wp_branch
        stream = iter(core._wp_source(branch.uop, branch.seq, params.wrong_path_depth))
        for _ in range(state.wp_pulled - state.wp_peeked):
            next(stream)
        core._wp_iter = stream
        core._wp_peek = next(stream) if state.wp_peeked else None
    core._replay = state.replay
    core._lsq = state.lsq
    core._lsq_index = state.lsq_index
    fu = core._fu
    fu._used, fu._blocked, fu._cycle, fu._used_classes, fu._any_blocked = state.fu
    core._wheel._due = state.wheel_due
    core._wheel.posted = state.wheel_posted
    core._ready._heap = core._ready_heap = state.ready_heap
    core._ready._tick = state.ready_tick
    if core.checker is not None:
        queue, reg_ready, probe_stalled_at = state.checker
        core.checker._pending = core._check_deque = queue
        core.checker._reg_ready = reg_ready
        core.checker.probe_stalled_at = probe_stalled_at
    for name, value in state.stats.items():
        setattr(core.stats, name, value)
    if core.fault_injector is not None:
        core.fault_injector.eligible = state.eligible
    recovery = core._recovery
    recovery._checkpoints, recovery._committed, recovery._next_ckpt_commit = state.recovery
    if core._storesets is not None:
        sets = core._storesets
        sets._ssit, sets._lfst, sets._next_ssid, sets._decay_boundary, sets.decays = (
            state.storesets
        )
    if state.predictor is not None:
        core.predictor = state.predictor
    core.hierarchy.restore_state(state.memory)
