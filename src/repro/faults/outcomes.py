"""Per-fault outcome taxonomy and the tracker that resolves it.

Every corrupted event a :class:`~repro.faults.models.FaultModel` injects
resolves to exactly **one** :class:`FaultOutcome` by the time ``run()``
returns — the invariant the campaign engine and the acceptance tests
lean on (``sum(outcomes) == faults_injected``):

``DETECTED``
    The checker's in-order re-execution flagged the corruption and the
    recovery manager squashed-and-replayed.  The legacy transient model
    resolves *every* live fault this way — detection by construction.
``SQUASHED``
    The corrupted op was thrown away by an unrelated recovery (an older
    fault's squash, a memory-order violation) while still faulty: the
    corruption never reached architectural state.
``MASKED``
    A *silent* corruption committed, but its destination register was
    architecturally overwritten before any consumer issued against it —
    the classic "fault landed in a dead value" masking case.
``SDC``
    Silent data corruption: a corrupted result committed undetected and
    either propagated to a consumer, wrote memory (a store), or was
    still architecturally live when the run ended.
``FALSE_ALARM``
    A checker-side fault made a *clean* op's check miscompare; recovery
    fired and the op replayed — availability cost, no data corruption.

The tracker is attached only for non-transient fault models; the default
path carries no tracker object at all, so the legacy transient pipeline
is byte-identical (detected/squashed remain the only possible outcomes
there and are already counted by ``CoreStats``).

Silent-fault bookkeeping rides on three ``DynOp`` flags set by the
models and the issue hook (``fault_silent``, ``check_faulty``,
``fault_consumed``); the tracker itself keeps only the committed-live
dest map and the resolution guard, so squash-and-refetch (which builds
fresh DynOps) needs no cleanup callbacks.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.dynop import DynOp
    from repro.core.stats import CoreStats
    from repro.obs.tracer import PipelineTracer


class FaultOutcome(Enum):
    """Terminal classification of one injected fault."""

    DETECTED = "detected"
    SQUASHED = "squashed"
    MASKED = "masked"
    SDC = "sdc"
    FALSE_ALARM = "false_alarm"


#: Stable key order for reports and stored rows.
OUTCOME_KEYS = tuple(outcome.value for outcome in FaultOutcome)


def zero_outcomes() -> dict[str, int]:
    """A fresh all-zero outcome counter dict (stable key set)."""
    return {key: 0 for key in OUTCOME_KEYS}


class OutcomeTracker:
    """Resolves every injected fault to one :class:`FaultOutcome`.

    Writes directly into ``stats.fault_outcomes`` and (when a tracer is
    attached) emits one ``fault_outcome`` instant event per resolution.
    ``id(op)``-keyed guards make resolution idempotent: a false-alarmed
    op that is then squashed for replay, or a committed-live fault also
    registered in the dest map, counts once.
    """

    __slots__ = ("_stats", "_tracer", "_resolved", "_live", "_injected")

    def __init__(self, stats: "CoreStats", tracer: "PipelineTracer | None" = None):
        self._stats = stats
        self._tracer = tracer
        #: ids of ops whose fault already resolved (idempotence guard).
        self._resolved: set[int] = set()
        #: dest register -> committed silent-faulty op still architecturally
        #: live (not yet overwritten by a younger commit).
        self._live: dict[int, DynOp] = {}
        #: every corrupted op, for the end-of-run sweep.
        self._injected: list[DynOp] = []

    # ------------------------------------------------------------------ hooks

    def note_injected(self, op: "DynOp") -> None:
        """A model corrupted ``op`` (primary result or its check)."""
        self._injected.append(op)

    def note_issue(self, op: "DynOp") -> None:
        """A correct-path op issued: mark any silent-faulty producers consumed."""
        for producer in op.deps:
            if producer.fault_silent:
                producer.fault_consumed = True

    def note_commit(self, op: "DynOp", now: int) -> None:
        """Commit-time resolution: silent faults go live, overwrites mask."""
        dest = op.uop.dest
        if op.fault_silent and id(op) not in self._resolved:
            if dest is None:
                # A corrupted store wrote memory: unrecoverable, immediate SDC.
                self._resolve(op, FaultOutcome.SDC, now)
            else:
                prior = self._live.get(dest)
                if prior is not None:
                    self._resolve_overwritten(prior, now)
                self._live[dest] = op
            return
        if dest is not None and self._live:
            prior = self._live.pop(dest, None)
            if prior is not None:
                self._resolve_overwritten(prior, now)

    def note_detected(self, op: "DynOp", now: int) -> None:
        self._resolve(op, FaultOutcome.DETECTED, now)

    def note_squashed(self, op: "DynOp", now: int) -> None:
        self._resolve(op, FaultOutcome.SQUASHED, now)

    def note_false_alarm(self, op: "DynOp", now: int) -> None:
        self._resolve(op, FaultOutcome.FALSE_ALARM, now)

    def unresolved(self) -> int:
        """Injected faults that have no outcome yet."""
        resolved = self._resolved
        return sum(1 for op in self._injected if id(op) not in resolved)

    def finalize(self, now: int) -> None:
        """End of run: anything committed-and-still-live is SDC."""
        for op in self._injected:
            if id(op) not in self._resolved:
                self._resolve(op, FaultOutcome.SDC, now)
        self._live.clear()

    # --------------------------------------------------------------- internal

    def _resolve_overwritten(self, op: "DynOp", now: int) -> None:
        """A younger commit overwrote a live silent fault's dest register."""
        outcome = FaultOutcome.SDC if op.fault_consumed else FaultOutcome.MASKED
        self._resolve(op, outcome, now)

    def _resolve(self, op: "DynOp", outcome: FaultOutcome, now: int) -> None:
        key = id(op)
        if key in self._resolved:
            return
        self._resolved.add(key)
        counters = self._stats.fault_outcomes
        counters[outcome.value] = counters.get(outcome.value, 0) + 1
        if self._tracer is not None:
            self._tracer.fault_outcome(op, outcome.value, now)
