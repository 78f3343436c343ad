"""Core configuration (Table 1 machine, 8-wide).

``CoreParams`` captures everything about the pipeline shape; the memory
system is configured separately through
:class:`~repro.memory.hierarchy.HierarchyParams` and the checker through
:class:`CheckerParams` so experiments can vary one axis at a time.

Each field is declared once, with :func:`repro.util.knob`: its default,
its valid range or choices, and whether ``to_dict`` emits it always or
only off its default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.recovery import RecoveryParams
from repro.isa.opcodes import FUClass
from repro.util import OFF_DEFAULT, Params, check_fields, knob


def _table1_fus() -> dict[FUClass, int]:
    return {FUClass.IALU: 8, FUClass.IMUL: 2, FUClass.FALU: 2, FUClass.FMUL: 2}


def _fault_models() -> tuple[str, ...]:
    # Imported late: repro.faults imports this module.
    from repro.faults.models import FAULT_MODELS

    return FAULT_MODELS


#: Checker issue-slot policies.  ``opportunistic`` is the paper's scheme —
#: the checker only consumes slots the primary scheduler left idle this
#: cycle.  ``reserved`` statically partitions the issue stage: the primary
#: stream is capped at ``issue_width - reserved_slots`` and the checker is
#: guaranteed its reservation (plus any further leftovers) every cycle.
SLOT_POLICIES: tuple[str, ...] = ("opportunistic", "reserved")


@dataclass(slots=True)
class CheckerParams(Params):
    """Configuration of the shared-resource checker.

    Attributes:
        enabled: Run the in-order re-execution checker.
        fault_rate: Per-instruction probability of corrupting a primary
            execution result (register-writing ops only).
        fault_seed: RNG seed for the injector (deterministic replays).
        force_fault_seqs: Trace sequence numbers whose first primary issue
            is always corrupted — used by tests to place faults precisely.
        recovery_penalty: Cycles between detection and the restart of fetch
            after a squash (checkpoint-restore cost).
        slot_policy: How the checker obtains issue slots (one of
            :data:`SLOT_POLICIES`).
        reserved_slots: Issue slots per cycle set aside for the checker
            under the ``reserved`` policy (ignored when ``opportunistic``).
        fault_model: Which :mod:`repro.faults` model injects (one of
            ``repro.faults.FAULT_MODELS``; ``transient`` is the legacy
            default and the only model with detection by construction).
        fault_burst: Consecutive eligible ops corrupted per trigger under
            the ``intermittent`` model.
        fault_fu: FU class the ``stuck-fu`` model breaks (an
            :class:`~repro.isa.opcodes.FUClass` name).
        fault_repair_cycles: Cycles until a stuck unit is repaired.
        force_fault_index: Corrupt the k-th eligible event regardless of
            ``fault_rate`` — the campaign engine's single-fault knob.
    """

    enabled: bool = False
    fault_rate: float = knob(0.0, lo=0, hi=1)
    fault_seed: int = 7
    force_fault_seqs: frozenset[int] = knob(frozenset(), encode=sorted, decode=frozenset)
    recovery_penalty: int = knob(8, lo=0)
    slot_policy: str = knob("opportunistic", choices=SLOT_POLICIES)
    reserved_slots: int = 2
    # The model knobs are emitted only off their defaults, keeping every
    # stored config hash and golden params block from the single-model
    # era byte-identical.
    fault_model: str = knob("transient", choices=_fault_models, emit=OFF_DEFAULT)
    fault_burst: int = knob(4, lo=1, emit=OFF_DEFAULT)
    fault_fu: str = knob("IALU", choices=tuple(FUClass.__members__), emit=OFF_DEFAULT)
    fault_repair_cycles: int = knob(200, lo=1, emit=OFF_DEFAULT)
    force_fault_index: int | None = knob(None, lo=0, emit=OFF_DEFAULT)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.reserved_slots <= 0 and self.slot_policy == "reserved":
            raise ValueError("reserved_slots must be positive under the reserved policy")


@dataclass(slots=True)
class MemDepParams(Params):
    """Memory-dependence subsystem configuration (off by default).

    Attributes:
        enabled: Model load/store ordering: an LSQ tracks in-flight memory
            ops, a store-set predictor delays predicted-dependent loads,
            matching-address loads forward from older in-flight stores,
            and a load that issued under an older same-address store is
            squashed and replayed when the store's address resolves.
        ssit_size: Store Set ID Table slots (direct-mapped by PC hash).
        lfst_size: Last Fetched Store Table slots (one live store per set).
        lsq_size: Load-store queue capacity; fetch stalls on a full queue.
        violation_penalty: Fetch-redirect cycles after a memory-order
            violation squash (same role as the checker's recovery_penalty).
        forward_latency: Cycles for a load to receive a forwarded store
            value (store-buffer bypass instead of a D-cache access).
        ssit_decay_cycles: When positive, both predictor tables are cleared
            once per that many cycles (lazily, at the first predictor
            access past each interval boundary), bounding how long a
            trained-in false dependency can keep delaying loads on long
            runs.  0 (the default) keeps entries forever — the legacy
            behaviour the goldens pin.
    """

    enabled: bool = False
    ssit_size: int = knob(1024, lo=1)
    lfst_size: int = knob(128, lo=1)
    lsq_size: int = knob(64, lo=1)
    violation_penalty: int = knob(8, lo=0)
    forward_latency: int = knob(1, lo=1)
    # Emitted only when non-zero, so stored rows from memdep sweeps that
    # predate the knob keep their exact layout.
    ssit_decay_cycles: int = knob(0, lo=0, emit=OFF_DEFAULT)


def _fu_names(counts: Mapping[FUClass, int]) -> dict[str, int]:
    return {cls.name: count for cls, count in counts.items()}


def _fu_classes(counts: Mapping[str, int]) -> dict[FUClass, int]:
    return {FUClass[name]: int(count) for name, count in counts.items()}


@dataclass(slots=True)
class CoreParams(Params):
    """Pipeline-shape parameters (defaults follow Table 1).

    Attributes:
        fetch_width / issue_width / commit_width: Per-cycle bandwidths of
            the three in-order ends of the machine (8 each).
        window_size: Bound on in-flight instructions (ROB/scheduler window).
        fu_counts: Functional units per class (8 IALU, 2 IMUL, 2 FALU,
            2 FMUL — divides share the multiply units).
        mispredict_penalty: Fetch-redirect cycles after a mispredicted
            branch resolves.
        model_wrong_path: Keep fetching (and renaming/issuing/executing)
            down the wrong path while a mispredicted branch is unresolved,
            instead of stalling fetch at the branch.  Wrong-path ops consume
            real issue slots, functional units, and memory-hierarchy
            bandwidth — the wasted work the checker competes with in the
            paper — and are squashed when the branch resolves.
        wrong_path_depth: Maximum micro-ops fetched down one wrong path
            before the front end gives up and waits for resolution.
        wrong_path_seed: Seed for the synthetic wrong-path stream generator
            (each branch's stream is a pure function of seed, PC, and seq).
        model_icache: Charge I-cache miss stalls on the fetch path.
        use_real_predictor: Predict branches with the combining predictor
            instead of honouring trace-supplied ``mispredicted`` flags.
        record_retired: Keep every committed DynOp on ``core.retired`` so
            tests can assert per-op timing (off by default — long runs).
        checker: The shared-resource checker (see :class:`CheckerParams`).
        frontend_depth: Extra fetch-to-issue pipeline stages.  An op
            fetched at cycle *t* becomes issue-eligible at
            ``t + 1 + frontend_depth`` (depth 0 reproduces the legacy
            two-stage front end).  A deeper front end widens the
            branch-resolution window: a mispredicted branch issues — and
            therefore resolves — later, so each mispredict drags more
            wrong-path work through the shared resources, as a deep pipe
            would.
        memdep: Memory-dependence subsystem (LSQ, store-set predictor,
            forwarding, order-violation replay) — see :class:`MemDepParams`.
            Disabled by default: loads then issue as soon as their register
            sources are ready, the legacy behaviour the goldens pin.
        recovery: Recovery-policy knobs (see
            :class:`~repro.core.recovery.RecoveryParams`).  The default
            ``checkpoint_interval = 0`` keeps the legacy flat-penalty
            fault-recovery model the goldens pin; a positive interval
            enables verified-state checkpointing with rollback-based
            recovery cost.
        cycle_skip: Let the run loop jump ``now`` to the next cycle that
            can differ when the cycles ahead provably repeat the last one
            (nothing issuable or only refused memory retries, fetch
            stalled or blocked, no other stage able to make progress)
            instead of ticking cycle by cycle, charging the skipped
            retries analytically.  A pure wall-clock optimization: the
            simulated schedule and every statistic are identical either
            way (asserted by the cycle-skip identity tests), so it is on
            by default and excluded from serialized configs unless
            disabled.
        telemetry_interval: Cycles between interval-telemetry samples
            (see :class:`~repro.obs.telemetry.IntervalTelemetry`).  0 (the
            default) disables sampling entirely — the run loop then has no
            per-cycle observer to call.  Sampling is
            read-only: every ``CoreStats`` field is identical at any
            interval (pinned by the trace-identity tests).
    """

    fetch_width: int = knob(8, lo=1)
    issue_width: int = knob(8, lo=1)
    commit_width: int = knob(8, lo=1)
    window_size: int = knob(128, lo=1)
    fu_counts: Mapping[FUClass, int] = knob(
        factory=_table1_fus, lo=1, encode=_fu_names, decode=_fu_classes
    )
    mispredict_penalty: int = knob(3, lo=0)
    model_wrong_path: bool = True
    wrong_path_depth: int = knob(64, lo=1)
    wrong_path_seed: int = 0
    model_icache: bool = True
    use_real_predictor: bool = False
    record_retired: bool = False
    checker: CheckerParams = knob(factory=CheckerParams)
    # Experiment-result rows embed to_dict(), and older stores must stay
    # byte-identical when re-generated with the default (legacy)
    # configuration: every field below is emitted only off its default,
    # memdep only when enabled and recovery only when checkpointing is on.
    frontend_depth: int = knob(0, lo=0, emit=OFF_DEFAULT)
    memdep: MemDepParams = knob(factory=MemDepParams, emit=lambda memdep: memdep.enabled)
    recovery: RecoveryParams = knob(
        factory=RecoveryParams, emit=lambda recovery: recovery.checkpoint_interval > 0
    )
    cycle_skip: bool = knob(True, emit=OFF_DEFAULT)
    telemetry_interval: int = knob(0, lo=0, emit=OFF_DEFAULT)

    def __post_init__(self) -> None:
        check_fields(self)
        if (
            self.checker.slot_policy == "reserved"
            and self.checker.reserved_slots >= self.issue_width
        ):
            raise ValueError(
                f"reserved_slots ({self.checker.reserved_slots}) must leave the "
                f"primary stream at least one of the {self.issue_width} issue slots"
            )
