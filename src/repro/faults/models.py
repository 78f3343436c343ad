"""Typed fault models behind one pluggable injection protocol.

Every model decides, per eligible pipeline event, whether to corrupt
state, and carries the corruption as ``DynOp`` flags (values are not
modelled):

``faulty``
    The primary result is wrong.  The checker's in-order re-execution
    from verified operands miscompares and detection fires at check
    completion — unless the fault is also *silent*.
``fault_silent``
    The corruption is outside what the checker recomputes (a load's data
    path, a check that re-executes on the same broken unit), so the
    check passes and the fault can commit — the SDC path.
``check_faulty``
    The *check* recompute is wrong while the primary result is fine: the
    miscompare is spurious and recovery replays a correct op (a false
    alarm).

Two trigger mechanisms are shared by all models:

* ``rate`` — per-eligible-event Bernoulli draw from one seeded
  ``random.Random`` (the legacy behaviour);
* ``force_index`` — deterministically trigger on the k-th eligible
  event, consuming **no** RNG draws for the trigger decision.  This is
  the campaign engine's single-fault mechanism: a calibration run
  counts eligible events, then each trial picks one uniformly by index.

:class:`TransientFault` is bit-compatible with the historical
single-model ``FaultInjector`` it replaced (same constructor, same RNG
draw sequence, same force-seq semantics), which keeps the golden cells
and every committed store byte-identical.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.core.dynop import DynOp
from repro.isa.opcodes import FUClass, OpClass, fu_class_for
from repro.util import run_state

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.params import CheckerParams

#: Registered model names, in documentation order.  ``transient`` is the
#: default and the only model the legacy single-knob CLI path ever builds.
FAULT_MODELS: tuple[str, ...] = (
    "transient",
    "intermittent",
    "stuck-fu",
    "address",
    "checker",
)


class FaultModel:
    """Shared trigger plumbing; subclasses define eligibility and effect.

    Attributes:
        name: Registry name (one of :data:`FAULT_MODELS`).
        dest_only: When True the core's issue loop pre-filters to
            register-writing ops before calling :meth:`maybe_inject` —
            the historical fast-path gate, preserved so the transient
            model's RNG draw sequence is untouched.  Models that must
            see stores (the address model) set it False and gate
            themselves.
        wants_check_hook: When True the checker calls
            :meth:`on_check_issue` for every check it issues.
        can_go_silent: When True a fault can pass its check and commit
            (``fault_silent``), so the core calls the outcome tracker's
            per-op issue and commit hooks.  The other models' faults are
            all detected or squashed, and their runs make no per-op call.
        injected: Corrupted events so far (``CoreStats.faults_injected``
            is finalized from this).
        eligible: Eligible events seen so far — the campaign engine's
            calibration output and the domain of ``force_index``.
    """

    name = "fault-model"
    dest_only = True
    wants_check_hook = False
    can_go_silent = False
    #: Run state (see :func:`repro.util.run_state`).  A capture refuses a
    #: core that injected, so all but the eligible count is as built.
    RUN_STATE = run_state(derived="rate _rng _force_index injected tracker", value="eligible")

    def __init__(self, rate: float, seed: int, force_index: int | None = None):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate}")
        self.rate = rate
        self._rng = random.Random(seed)
        self._force_index = force_index
        self.injected = 0
        self.eligible = 0
        #: The checked core's outcome tracker, told of every injection (a
        #: model driven on its own, outside a core, has none).
        self.tracker = None

    def _triggered(self) -> bool:
        """One shared trigger decision; counts the eligible event."""
        index = self.eligible
        self.eligible = index + 1
        if self._force_index is not None:
            return index == self._force_index
        return self.rate > 0.0 and self._rng.random() < self.rate

    def _count_injection(self) -> None:
        """Count one injected fault and report it to the tracker."""
        self.injected += 1
        if self.tracker is not None:
            self.tracker.note_injected()

    def _corrupt(self, op: DynOp) -> bool:
        """Corrupt ``op``'s primary result from its completion on, and
        count the injection (True, for :meth:`maybe_inject` to return)."""
        op.faulty = True
        op.fault_at = op.complete_at
        self._count_injection()
        return True

    def spent(self, now: int) -> bool:
        """Whether the model can inject no more faults from cycle ``now`` on:
        it draws at rate 0 and any forced site is behind.  Subclasses add
        the faults a trigger leaves pending."""
        force = self._force_index
        return not self.rate and (force is None or self.eligible > force)

    def maybe_inject(self, op: DynOp) -> bool:
        """Primary-issue hook: corrupt ``op`` if this event triggers."""
        raise NotImplementedError

    def on_check_issue(self, op: DynOp, now: int) -> None:
        """Checker-issue hook; only called when ``wants_check_hook``."""


class TransientFault(FaultModel):
    """A particle strike in an FU or result bus: one wrong primary result.

    Byte-identical to the historical ``FaultInjector``: same constructor
    signature, same dest gate, same force-seq handling (a forced seq is
    corrupted on first issue and consumes no RNG draw), same Bernoulli
    draw order otherwise.

    Args:
        rate: Per-eligible-op corruption probability.
        seed: RNG seed; the injection sequence is a pure function of the
            seed and the (deterministic) simulation schedule.
        force_seqs: Trace sequence numbers corrupted on first issue
            regardless of ``rate`` — lets tests place faults exactly.
        force_index: Corrupt the k-th eligible op (campaign trials).
    """

    name = "transient"
    RUN_STATE = {**FaultModel.RUN_STATE, **run_state(derived="_force")}

    def __init__(
        self,
        rate: float = 0.0,
        seed: int = 7,
        force_seqs: frozenset[int] = frozenset(),
        force_index: int | None = None,
    ):
        super().__init__(rate, seed, force_index)
        self._force = set(force_seqs)

    def spent(self, now: int) -> bool:
        return not self._force and super().spent(now)

    def maybe_inject(self, op: DynOp) -> bool:
        """Corrupt ``op``'s primary result if the dice (or a force) say so.

        Only register-writing ops are eligible: stores, branches, and
        nops carry no result value to corrupt in this model.
        """
        if op.uop.dest is None:  # inlined writes_register(): issue hot path
            return False
        index = self.eligible
        self.eligible = index + 1
        if self._force and op.seq in self._force:
            self._force.discard(op.seq)
        elif self._force_index is not None:
            if index != self._force_index:
                return False
        elif not (self.rate > 0.0 and self._rng.random() < self.rate):
            return False
        return self._corrupt(op)


class IntermittentFault(FaultModel):
    """A marginal circuit misbehaving in bursts (voltage droop, wearout).

    One trigger corrupts ``burst`` consecutive eligible register-writing
    ops — the trigger op and the next ``burst - 1`` — each counted as
    one injected fault.  Ops inside a burst consume no RNG draws, so a
    burst's footprint is independent of the rate.
    """

    name = "intermittent"
    RUN_STATE = {**FaultModel.RUN_STATE, **run_state(derived="burst _burst_left")}

    def __init__(
        self,
        rate: float = 0.0,
        seed: int = 7,
        burst: int = 4,
        force_index: int | None = None,
    ):
        super().__init__(rate, seed, force_index)
        if burst < 1:
            raise ValueError(f"burst length must be >= 1, got {burst}")
        self.burst = burst
        self._burst_left = 0

    def spent(self, now: int) -> bool:
        return not self._burst_left and super().spent(now)

    def maybe_inject(self, op: DynOp) -> bool:
        if op.uop.dest is None:
            return False
        if self._burst_left > 0:
            self._burst_left -= 1
            self.eligible += 1
        elif self._triggered():
            self._burst_left = self.burst - 1
        else:
            return False
        return self._corrupt(op)


class StuckAtFUFault(FaultModel):
    """One functional unit of a chosen class is broken for a repair window.

    A trigger breaks one unit of ``fu`` at the triggering op's issue
    cycle; the unit is repaired ``repair_cycles`` later.  While broken,
    the count-based FU pool has no per-unit placement, so each eligible
    op (and each check) of that class lands on the broken unit with
    probability ``1 / fu_count`` — except the triggering op itself,
    which is the op that exposed the break and corrupts for certain.

    The checker shares the FU pool, so a *check* that lands on the
    broken unit goes wrong too: re-checking an already-corrupt result on
    the same broken unit reproduces the wrong transform and the compare
    passes (``fault_silent`` — a missed detection), while a clean op
    checked there miscompares spuriously (``check_faulty`` — a false
    alarm).  This is exactly the shared-resource vulnerability the
    paper's partitioned-checker argument is about.
    """

    name = "stuck-fu"
    wants_check_hook = True
    can_go_silent = True
    RUN_STATE = {
        **FaultModel.RUN_STATE,
        **run_state(derived="fu fu_count repair_cycles _broken_until"),
    }

    def __init__(
        self,
        rate: float = 0.0,
        seed: int = 7,
        fu: FUClass = FUClass.IALU,
        fu_count: int = 1,
        repair_cycles: int = 200,
        force_index: int | None = None,
    ):
        super().__init__(rate, seed, force_index)
        if repair_cycles < 1:
            raise ValueError(f"repair_cycles must be >= 1, got {repair_cycles}")
        if fu_count < 1:
            raise ValueError(f"fu_count must be >= 1, got {fu_count}")
        self.fu = fu
        self.fu_count = fu_count
        self.repair_cycles = repair_cycles
        #: First cycle the unit is healthy again; None while nothing is broken.
        self._broken_until: int | None = None

    def spent(self, now: int) -> bool:
        broken_until = self._broken_until
        return (broken_until is None or now >= broken_until) and super().spent(now)

    def _on_broken_unit(self) -> bool:
        return self.fu_count == 1 or self._rng.random() * self.fu_count < 1.0

    def maybe_inject(self, op: DynOp) -> bool:
        if op.uop.dest is None or fu_class_for(op.uop.op) is not self.fu:
            return False
        now = op.issued_at if op.issued_at is not None else 0
        if self._broken_until is not None and now >= self._broken_until:
            self._broken_until = None  # repaired
        if self._broken_until is None:
            if not self._triggered():
                return False
            self._broken_until = now + self.repair_cycles
        else:
            self.eligible += 1
            if not self._on_broken_unit():
                return False
        return self._corrupt(op)

    def on_check_issue(self, op: DynOp, now: int) -> None:
        if self._broken_until is None or now >= self._broken_until:
            return
        if fu_class_for(op.uop.op) is not self.fu or not self._on_broken_unit():
            return
        if op.faulty:
            # Same broken transform on both executions: the compare passes.
            # The op was already counted when its primary issue corrupted;
            # going silent changes its outcome, not the injection count.
            op.fault_silent = True
        else:
            # A clean op mis-checked on the broken unit is a *new* fault
            # event (the corruption is in the check recompute), so it
            # counts as an injection and resolves like any other fault.
            op.check_faulty = True
            op.fault_at = now
            self._count_injection()


class AddressPathFault(FaultModel):
    """A corrupted effective address or load data path.

    Eligible events are correct-path loads and stores.  At trigger time
    one RNG draw picks the locus: the AGU stage (probability
    ``1 - DATA_PATH_FRACTION``), which the checker re-executes and
    therefore detects like any transient; or the post-AGU data path
    (``DATA_PATH_FRACTION``), which is **silent** — the checker's memory
    check re-runs address generation only and bypasses the value from
    the LSQ, so a corrupted fill or forwarded value sails through and
    can commit as SDC.
    """

    name = "address"
    dest_only = False
    can_go_silent = True

    #: Fraction of address-path faults landing past the AGU, where the
    #: checker cannot see them.
    DATA_PATH_FRACTION = 0.5

    def maybe_inject(self, op: DynOp) -> bool:
        cls = op.uop.op
        if cls is not OpClass.LOAD and cls is not OpClass.STORE:
            return False
        if not self._triggered():
            return False
        if self._rng.random() < self.DATA_PATH_FRACTION:
            op.fault_silent = True
        return self._corrupt(op)


class CheckerFault(FaultModel):
    """The check recompute itself is wrong (a strike in the shared FU
    during a checker slot, or in the compare logic).

    Eligible events are issued checks.  On a clean op the spurious
    miscompare raises a false alarm — recovery fires and the op replays;
    on an op that is already faulty the wrong recompute masks the
    miscompare (``fault_silent`` — a missed detection).  Either way the
    checker is no longer a perfect oracle, which is the point.
    """

    name = "checker"
    wants_check_hook = True
    can_go_silent = True

    def maybe_inject(self, op: DynOp) -> bool:
        return False  # injects at check issue, not primary issue

    def on_check_issue(self, op: DynOp, now: int) -> None:
        if not self._triggered():
            return
        if op.faulty:
            op.fault_silent = True
        else:
            op.check_faulty = True
            op.fault_at = now
        self._count_injection()


def build_fault_model(
    checker_params: "CheckerParams", fu_counts=None
) -> FaultModel:
    """Construct the configured model from :class:`CheckerParams`.

    ``fu_counts`` (mapping ``FUClass -> int``) sizes the stuck-at
    model's broken-unit probability; other models ignore it.
    """
    cp = checker_params
    name = cp.fault_model
    force_index = cp.force_fault_index
    if name == "transient":
        return TransientFault(
            rate=cp.fault_rate,
            seed=cp.fault_seed,
            force_seqs=cp.force_fault_seqs,
            force_index=force_index,
        )
    if name == "intermittent":
        return IntermittentFault(
            rate=cp.fault_rate,
            seed=cp.fault_seed,
            burst=cp.fault_burst,
            force_index=force_index,
        )
    if name == "stuck-fu":
        fu = FUClass[cp.fault_fu]
        count = int(fu_counts.get(fu, 1)) if fu_counts else 1
        return StuckAtFUFault(
            rate=cp.fault_rate,
            seed=cp.fault_seed,
            fu=fu,
            fu_count=count,
            repair_cycles=cp.fault_repair_cycles,
            force_index=force_index,
        )
    if name == "address":
        return AddressPathFault(
            rate=cp.fault_rate, seed=cp.fault_seed, force_index=force_index
        )
    if name == "checker":
        return CheckerFault(
            rate=cp.fault_rate, seed=cp.fault_seed, force_index=force_index
        )
    raise ValueError(f"unknown fault model {name!r} (choose from {FAULT_MODELS})")
