"""Core configuration (Table 1 machine, 8-wide).

``CoreParams`` captures everything about the pipeline shape; the memory
system is configured separately through
:class:`~repro.memory.hierarchy.HierarchyParams` and the checker through
:class:`CheckerParams` so experiments can vary one axis at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from repro.core.recovery import RecoveryParams
from repro.isa.opcodes import FUClass


def _table1_fus() -> dict[FUClass, int]:
    return {FUClass.IALU: 8, FUClass.IMUL: 2, FUClass.FALU: 2, FUClass.FMUL: 2}


#: Checker issue-slot policies.  ``opportunistic`` is the paper's scheme —
#: the checker only consumes slots the primary scheduler left idle this
#: cycle.  ``reserved`` statically partitions the issue stage: the primary
#: stream is capped at ``issue_width - reserved_slots`` and the checker is
#: guaranteed its reservation (plus any further leftovers) every cycle.
SLOT_POLICIES: tuple[str, ...] = ("opportunistic", "reserved")


@dataclass(slots=True)
class CheckerParams:
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
    fault_rate: float = 0.0
    fault_seed: int = 7
    force_fault_seqs: frozenset[int] = frozenset()
    recovery_penalty: int = 8
    slot_policy: str = "opportunistic"
    reserved_slots: int = 2
    fault_model: str = "transient"
    fault_burst: int = 4
    fault_fu: str = "IALU"
    fault_repair_cycles: int = 200
    force_fault_index: int | None = None

    def __post_init__(self) -> None:
        if self.slot_policy not in SLOT_POLICIES:
            raise ValueError(
                f"slot_policy must be one of {SLOT_POLICIES}, got {self.slot_policy!r}"
            )
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError(f"fault_rate must be in [0, 1], got {self.fault_rate}")
        if self.recovery_penalty < 0:
            raise ValueError(
                f"recovery_penalty must be non-negative, got {self.recovery_penalty}"
            )
        if self.reserved_slots <= 0 and self.slot_policy == "reserved":
            raise ValueError("reserved_slots must be positive under the reserved policy")
        from repro.faults.models import FAULT_MODELS

        if self.fault_model not in FAULT_MODELS:
            raise ValueError(
                f"fault_model must be one of {FAULT_MODELS}, got {self.fault_model!r}"
            )
        if self.fault_burst < 1:
            raise ValueError(f"fault_burst must be >= 1, got {self.fault_burst}")
        if self.fault_repair_cycles < 1:
            raise ValueError(
                f"fault_repair_cycles must be >= 1, got {self.fault_repair_cycles}"
            )
        if self.fault_fu not in FUClass.__members__:
            raise ValueError(
                f"fault_fu must be an FUClass name, got {self.fault_fu!r}"
            )
        if self.force_fault_index is not None and self.force_fault_index < 0:
            raise ValueError(
                f"force_fault_index must be >= 0, got {self.force_fault_index}"
            )

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot (``force_fault_seqs`` as a sorted list).

        The fault-model knobs are emitted only off their defaults, keeping
        every stored config hash and golden params block from the
        single-model era byte-identical.
        """
        data = {
            "enabled": self.enabled,
            "fault_rate": self.fault_rate,
            "fault_seed": self.fault_seed,
            "force_fault_seqs": sorted(self.force_fault_seqs),
            "recovery_penalty": self.recovery_penalty,
            "slot_policy": self.slot_policy,
            "reserved_slots": self.reserved_slots,
        }
        if self.fault_model != "transient":
            data["fault_model"] = self.fault_model
        if self.fault_burst != 4:
            data["fault_burst"] = self.fault_burst
        if self.fault_fu != "IALU":
            data["fault_fu"] = self.fault_fu
        if self.fault_repair_cycles != 200:
            data["fault_repair_cycles"] = self.fault_repair_cycles
        if self.force_fault_index is not None:
            data["force_fault_index"] = self.force_fault_index
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CheckerParams":
        """Inverse of :meth:`to_dict`; rejects unknown keys.

        Raises:
            ValueError: on keys that are not ``CheckerParams`` fields, so a
                stale sweep spec fails loudly instead of silently dropping a
                knob.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown CheckerParams keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "force_fault_seqs" in kwargs:
            kwargs["force_fault_seqs"] = frozenset(kwargs["force_fault_seqs"])
        return cls(**kwargs)


@dataclass(slots=True)
class MemDepParams:
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
    ssit_size: int = 1024
    lfst_size: int = 128
    lsq_size: int = 64
    violation_penalty: int = 8
    forward_latency: int = 1
    ssit_decay_cycles: int = 0

    def __post_init__(self) -> None:
        for name in ("ssit_size", "lfst_size", "lsq_size", "forward_latency"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.violation_penalty < 0:
            raise ValueError("violation_penalty must be non-negative")
        if self.ssit_decay_cycles < 0:
            raise ValueError("ssit_decay_cycles must be non-negative")

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot.

        ``ssit_decay_cycles`` is emitted only when non-zero so stored rows
        from memdep sweeps that predate the knob keep their exact layout.
        """
        data = {
            "enabled": self.enabled,
            "ssit_size": self.ssit_size,
            "lfst_size": self.lfst_size,
            "lsq_size": self.lsq_size,
            "violation_penalty": self.violation_penalty,
            "forward_latency": self.forward_latency,
        }
        if self.ssit_decay_cycles:
            data["ssit_decay_cycles"] = self.ssit_decay_cycles
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MemDepParams":
        """Inverse of :meth:`to_dict`; rejects unknown keys."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown MemDepParams keys: {sorted(unknown)}")
        return cls(**dict(data))


@dataclass(slots=True)
class CoreParams:
    """Pipeline-shape parameters (defaults follow Table 1).

    Attributes:
        fetch_width / issue_width / commit_width: Per-cycle bandwidths of
            the three in-order ends of the machine (8 each).
        window_size: Bound on in-flight instructions (ROB/scheduler window).
        fu_counts: Functional units per class (8 IALU, 2 IMUL, 2 FALU,
            2 FMUL — divides share the multiply units).
        mispredict_penalty: Fetch-redirect cycles after a mispredicted
            branch resolves.
        frontend_depth: Extra fetch-to-issue pipeline stages.  An op
            fetched at cycle *t* becomes issue-eligible at
            ``t + 1 + frontend_depth`` (depth 0 reproduces the legacy
            two-stage front end).  A deeper front end widens the
            branch-resolution window: a mispredicted branch issues — and
            therefore resolves — later, so each mispredict drags more
            wrong-path work through the shared resources, as a deep pipe
            would.
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

    fetch_width: int = 8
    issue_width: int = 8
    commit_width: int = 8
    window_size: int = 128
    fu_counts: Mapping[FUClass, int] = field(default_factory=_table1_fus)
    mispredict_penalty: int = 3
    frontend_depth: int = 0
    model_wrong_path: bool = True
    wrong_path_depth: int = 64
    wrong_path_seed: int = 0
    model_icache: bool = True
    use_real_predictor: bool = False
    record_retired: bool = False
    checker: CheckerParams = field(default_factory=CheckerParams)
    memdep: MemDepParams = field(default_factory=MemDepParams)
    recovery: RecoveryParams = field(default_factory=RecoveryParams)
    cycle_skip: bool = True
    telemetry_interval: int = 0

    def __post_init__(self) -> None:
        for name in ("fetch_width", "issue_width", "commit_width", "window_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.telemetry_interval < 0:
            raise ValueError("telemetry_interval must be non-negative")
        if self.wrong_path_depth <= 0:
            raise ValueError("wrong_path_depth must be positive")
        if self.frontend_depth < 0:
            raise ValueError("frontend_depth must be non-negative")
        if self.mispredict_penalty < 0:
            raise ValueError("mispredict_penalty must be non-negative")
        if any(count <= 0 for count in self.fu_counts.values()):
            raise ValueError("every functional-unit count must be positive")
        if (
            self.checker.slot_policy == "reserved"
            and self.checker.reserved_slots >= self.issue_width
        ):
            raise ValueError(
                f"reserved_slots ({self.checker.reserved_slots}) must leave the "
                f"primary stream at least one of the {self.issue_width} issue slots"
            )

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot (FU classes by name, checker nested).

        ``frontend_depth`` is emitted only when non-zero, ``memdep`` only
        when enabled, ``recovery`` only when checkpointing is on,
        ``cycle_skip`` only when disabled, and ``telemetry_interval`` only
        when sampling is on: experiment-result rows embed this dict, and
        older stores must stay byte-identical when re-generated with the
        default (legacy) configuration.
        """
        data = {
            "fetch_width": self.fetch_width,
            "issue_width": self.issue_width,
            "commit_width": self.commit_width,
            "window_size": self.window_size,
            "fu_counts": {cls.name: count for cls, count in self.fu_counts.items()},
            "mispredict_penalty": self.mispredict_penalty,
            "model_wrong_path": self.model_wrong_path,
            "wrong_path_depth": self.wrong_path_depth,
            "wrong_path_seed": self.wrong_path_seed,
            "model_icache": self.model_icache,
            "use_real_predictor": self.use_real_predictor,
            "record_retired": self.record_retired,
            "checker": self.checker.to_dict(),
        }
        if self.frontend_depth:
            data["frontend_depth"] = self.frontend_depth
        if self.memdep.enabled:
            data["memdep"] = self.memdep.to_dict()
        if self.recovery.checkpoint_interval:
            data["recovery"] = self.recovery.to_dict()
        if not self.cycle_skip:
            data["cycle_skip"] = False
        if self.telemetry_interval:
            data["telemetry_interval"] = self.telemetry_interval
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CoreParams":
        """Inverse of :meth:`to_dict`; rejects unknown keys.

        Accepts partial dicts — missing fields keep their defaults — so
        sweep specs only name the axes they vary.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown CoreParams keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "fu_counts" in kwargs:
            kwargs["fu_counts"] = {
                FUClass[name]: int(count) for name, count in kwargs["fu_counts"].items()
            }
        if "checker" in kwargs and not isinstance(kwargs["checker"], CheckerParams):
            kwargs["checker"] = CheckerParams.from_dict(kwargs["checker"])
        if "memdep" in kwargs and not isinstance(kwargs["memdep"], MemDepParams):
            kwargs["memdep"] = MemDepParams.from_dict(kwargs["memdep"])
        if "recovery" in kwargs and not isinstance(kwargs["recovery"], RecoveryParams):
            kwargs["recovery"] = RecoveryParams.from_dict(kwargs["recovery"])
        return cls(**kwargs)
