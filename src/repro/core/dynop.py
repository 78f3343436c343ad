"""Per-in-flight-instruction dynamic state.

A :class:`DynOp` wraps one trace :class:`~repro.isa.instruction.MicroOp`
for one trip through the pipeline.  Squash-and-replay creates a *fresh*
DynOp for the re-fetched instance, so every timing field is written at most
once per record and the trace stays immutable.

Kept a ``slots=True`` dataclass deliberately: the pipeline reads these
fields far more often than it constructs records (issue, commit, and the
kernel queues all test ``squashed``/``complete_at``/``checked`` per touch),
and slot descriptor reads beat instance-dict lookups with class-attribute
fallbacks — measured on the 100k-op bench against a plain-class variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instruction import MicroOp


@dataclass(slots=True)
class DynOp:
    """Dynamic execution record for one in-flight instruction.

    Timing fields are ``None`` until the corresponding event happens.
    ``deps`` holds direct references to the producing DynOps captured at
    rename time; a dependency is satisfied once its producer's
    ``complete_at`` has passed.
    """

    uop: MicroOp
    seq: int
    fetched_at: int
    deps: tuple["DynOp", ...] = field(default=())
    #: True for ops fetched past an unresolved mispredicted branch.  Wrong-path
    #: ops consume fetch/issue/FU/memory bandwidth like any other op but are
    #: never checked, never advertise verified registers, and never commit:
    #: they are squashed when their spawning branch resolves.
    wrong_path: bool = False
    #: Sequence number of the mispredicted branch a wrong-path op belongs to;
    #: the resolution squash removes exactly the ops carrying its colour.
    branch_color: int | None = None
    issued_at: int | None = None
    complete_at: int | None = None
    check_issued_at: int | None = None
    check_complete_at: int | None = None
    committed_at: int | None = None
    checked: bool = False
    squashed: bool = False
    faulty: bool = False
    fault_at: int | None = None
    #: A corruption the checker cannot see (load data path, or a check that
    #: re-executed on the same broken unit): the check passes and the op can
    #: commit corrupt — the SDC path.  Only non-transient fault models set it.
    fault_silent: bool = False
    #: The *check* recompute was wrong while the primary result is fine; the
    #: spurious miscompare raises a false alarm and the op replays.
    check_faulty: bool = False
    #: A correct-path consumer issued while this op's silent corruption was
    #: live — the outcome tracker's MASKED-vs-SDC discriminator.
    fault_consumed: bool = False
    corrected: bool = False
    mispredicted: bool = False
    replays: int = 0
    #: For a load whose value was forwarded from an older in-flight store's
    #: buffer entry instead of the D-cache: that store.  Violation scans use
    #: it to tell "got the right data from a closer store" apart from
    #: "speculatively read stale memory".
    fwd_from: "DynOp | None" = None
    # --- scheduling-kernel state (see repro.core.sched) ---
    #: Sources (plus the front-end hold, if any) whose results are still
    #: outstanding.  The op enters the primary ready queue exactly when the
    #: last EV_DEP_WAKE delivery drops this to zero.
    pending_deps: int = 0
    #: Ops renamed while this op's completion cycle was still unknown; when
    #: the op finally issues, each waiter gets an EV_DEP_WAKE at the
    #: completion cycle.  ``None`` once drained (or never needed).
    waiters: list["DynOp"] | None = None
