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

Every checked core has one tracker, whatever its fault model.  The core
calls its per-op issue and commit hooks only for models whose faults can
go silent (``FaultModel.can_go_silent``): a transient or intermittent
fault can only be detected or squashed.

Silent-fault bookkeeping rides on three ``DynOp`` flags set by the
models and the issue hook (``fault_silent``, ``check_faulty``,
``fault_consumed``).  The tracker keeps no record of each fault: every
resolution site sees only unresolved faults (detection clears
``faulty``, a false alarm clears ``check_faulty``, and a squashed or
committed op never comes back), and the committed-live dest map holds
only committed silent faults that have not resolved yet.  So
squash-and-refetch (which builds fresh DynOps) needs no cleanup
callbacks, and no op outlives its run.
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
    """Resolves every injected fault of one checked core's run to one
    :class:`FaultOutcome`.

    Its counts start at zero in ``stats.fault_outcomes``, which it writes
    directly, and (when a tracer is attached) it emits one
    ``fault_outcome`` instant event per resolution.

    Attributes:
        silent: True once every injected fault has resolved and each
            outcome so far is masked or SDC (at least one fault injected).
            Detection, a false alarm and a squash are the outcomes that
            change the run's schedule; a silent fault is a flag that
            changes no timing.  Kept at each injection and resolution, so
            reading it costs nothing per cycle.
    """

    __slots__ = ("_stats", "_tracer", "_live", "_open", "_loud", "silent")

    def __init__(self, stats: "CoreStats", tracer: "PipelineTracer | None" = None):
        self._stats = stats
        stats.fault_outcomes = zero_outcomes()
        self._tracer = tracer
        #: dest register -> committed silent-faulty op still architecturally
        #: live (not yet overwritten by a younger commit).
        self._live: dict[int, DynOp] = {}
        #: injected faults with no outcome yet.
        self._open = 0
        #: whether some outcome so far changed the schedule.
        self._loud = False
        self.silent = False

    # ------------------------------------------------------------------ hooks

    def note_injected(self) -> None:
        """A model corrupted an op (its primary result or its check)."""
        self._open += 1
        self.silent = False

    def note_issue(self, op: "DynOp") -> None:
        """A correct-path op issued: mark any silent-faulty producers consumed."""
        for producer in op.deps:
            if producer.fault_silent:
                producer.fault_consumed = True

    def note_commit(self, op: "DynOp", now: int) -> None:
        """Commit-time resolution: silent faults go live, overwrites mask."""
        dest = op.uop.dest
        if op.fault_silent:
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
        return self._open

    def finalize(self, now: int) -> None:
        """End of run: anything committed-and-still-live is SDC."""
        for op in self._live.values():
            self._resolve(op, FaultOutcome.SDC, now)
        self._live.clear()

    # --------------------------------------------------------------- internal

    def _resolve_overwritten(self, op: "DynOp", now: int) -> None:
        """A younger commit overwrote a live silent fault's dest register."""
        outcome = FaultOutcome.SDC if op.fault_consumed else FaultOutcome.MASKED
        self._resolve(op, outcome, now)

    def _resolve(self, op: "DynOp", outcome: FaultOutcome, now: int) -> None:
        self._open -= 1
        if outcome is not FaultOutcome.MASKED and outcome is not FaultOutcome.SDC:
            self._loud = True
        self.silent = not self._open and not self._loud
        self._stats.fault_outcomes[outcome.value] += 1
        if self._tracer is not None:
            self._tracer.fault_outcome(op, outcome.value, now)
