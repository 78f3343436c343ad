"""End-of-run statistics for one core simulation.

Each :class:`CoreStats` field declares once how it crosses a warm-start
boundary (:meth:`CoreStats.reset_window`) and a shard merge
(:func:`repro.parallel.merge.merge_core_stats`): its window rule, listed
in :data:`WINDOW_RULES`.
"""

from __future__ import annotations

import random
from dataclasses import MISSING, dataclass, field, fields
from typing import TYPE_CHECKING, Any

from repro.core.recovery import RecoveryCause
from repro.util import run_state

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

#: Cap on stored detection-latency samples.  ``detection_latency_sum`` and
#: ``max`` stay exact past the cap; the stored list degrades to a uniform
#: reservoir (Algorithm R) so sweep rows stay bounded on long runs.
DETECTION_LATENCY_RESERVOIR = 512


def _reservoir_rng() -> random.Random:
    # Fixed seed: the sample kept past the cap is deterministic, keeping
    # result rows byte-identical across machines and repeat runs.
    return random.Random(0x5EED)


# The window rules.  A field declared without one is a COUNT.
#: Zeroed at a boundary; a merge sums the parts.
COUNT = "count"
#: Describes the machine: kept at a boundary; a merge takes the first part's.
MACHINE = "machine"
#: Zeroed at a boundary; a merge takes the largest part.
MAX = "max"
#: A dict of counts: zeroed in place at a boundary, its keys kept in their
#: order; a merge adds key by key.
KEYED = "keyed"
#: A histogram: emptied at a boundary; a merge adds key by key.
BUCKETS = "buckets"
#: Reset to its default at a boundary; merged by its own function
#: (``merge_reservoirs``, ``merge_memory``).
OWN = "own"


def _rule(rule: str, default: Any = MISSING, *, factory: Any = MISSING, **kwargs) -> Any:
    """Declare a :class:`CoreStats` field that is not a count."""
    return field(
        default=default, default_factory=factory, metadata={"window": rule}, **kwargs
    )


def _zero_causes() -> dict[str, int]:
    # Pre-seeded with the legacy causes so serialized dicts keep the exact
    # key set golden runs and the committed bench references pinned before
    # false-alarm recoveries existed.  CHECKER_FALSE_ALARM can only occur
    # under a non-transient fault model, so it is inserted lazily by its
    # first occurrence instead of padding every legacy row.
    return {
        cause.value: 0
        for cause in RecoveryCause
        if cause is not RecoveryCause.CHECKER_FALSE_ALARM
    }


@dataclass(slots=True)
class CoreStats:
    """Counters accumulated over one :meth:`SuperscalarCore.run` call,
    or over the measured part of a warm-start window.

    ``issue_width`` is recorded so slot rates can be derived without the
    params object; ``memory`` is the hierarchy snapshot taken at run end.
    A field declared without a window rule is a count; the others
    declare theirs with ``_rule``.
    """

    issue_width: int = _rule(MACHINE, 8)
    cycles: int = 0
    fetched: int = 0
    committed: int = 0
    squashed: int = 0
    mem_replays: int = 0
    #: Issue slots burned by memory ops the hierarchy refused (the attempt
    #: occupied real issue bandwidth even though the access replays later).
    replay_slots_used: int = 0
    branches: int = 0
    branch_mispredicts: int = 0
    primary_slots_used: int = 0
    # --- wrong path ---
    wrong_path_fetched: int = 0
    wrong_path_issued: int = 0
    wrong_path_squashed: int = 0
    #: Issue slots consumed by wrong-path ops (successful issues plus
    #: refused-memory attempts down the wrong path).
    wrong_path_slots_used: int = 0
    wrong_path_mem_replays: int = 0
    # --- checker ---
    checks_completed: int = 0
    checker_slots_used: int = 0
    faults_injected: int = 0
    faults_detected: int = 0
    faults_squashed: int = 0
    recoveries: int = 0
    detection_latency_sum: int = 0
    detection_latency_max: int = _rule(MAX, 0)
    #: Per-detection latency samples — the raw values behind the sum/max
    #: aggregates, kept so reports can show distributions (percentiles,
    #: histograms) rather than just the mean.  Exact and in detection order
    #: up to :data:`DETECTION_LATENCY_RESERVOIR` detections; past the cap
    #: the list becomes a uniform sample (see :meth:`record_detection_latency`).
    detection_latencies: list[int] = _rule(OWN, factory=list)
    # --- fault models (every checked run counts its outcomes; the block is
    # emitted only when a non-transient fault model is configured, the
    # same gating pattern as memdep below — the transient default emits no
    # block and stays byte-identical) ---
    fault_model_enabled: bool = _rule(MACHINE, False)
    fault_model: str = _rule(MACHINE, "transient")
    #: Terminal per-fault outcome counters keyed by
    #: :class:`~repro.faults.outcomes.FaultOutcome` value; a checked core's
    #: outcome tracker guarantees they sum to ``faults_injected`` at run end.
    fault_outcomes: dict[str, int] = _rule(KEYED, factory=dict)
    # --- memory dependence (populated only when CoreParams.memdep is on;
    # the gate keeps to_dict() byte-identical for legacy configurations) ---
    memdep_enabled: bool = _rule(MACHINE, False)
    #: Loads that issued before an older same-address store resolved and
    #: had to be squashed and replayed.
    mem_order_violations: int = 0
    #: Loads whose value came from an older in-flight store's buffer entry
    #: instead of a D-cache access.
    loads_forwarded: int = 0
    #: Loads held back at rename because the store-set predictor named a
    #: still-executing store they likely depend on.
    loads_delayed: int = 0
    #: Fetch cycles cut short because the load-store queue was full.
    lsq_full_stalls: int = 0
    #: Whether the store-set decay knob was active (gates ``ssit_decays``
    #: in to_dict so legacy memdep rows keep their exact layout).
    ssit_decay_enabled: bool = _rule(MACHINE, False)
    #: Times the store-set predictor's tables were cleared by decay.
    ssit_decays: int = 0
    # --- recovery / checkpointing (counters always maintained; the dict
    # block is emitted only when checkpointing ran, keeping legacy rows
    # byte-identical — same gating pattern as memdep above) ---
    checkpointing_enabled: bool = _rule(MACHINE, False)
    #: Verified-state checkpoints taken (excludes the implicit initial one).
    checkpoints_taken: int = 0
    #: Front-end stall cycles charged for checkpoint creation.
    checkpoint_overhead_cycles: int = 0
    #: Total cycles between fault detections and fetch restart.
    recovery_stall_cycles: int = 0
    #: Sum/max over per-recovery rollback distances (instructions between
    #: the restored checkpoint and the restart point).
    rollback_distance_sum: int = 0
    rollback_distance_max: int = _rule(MAX, 0)
    #: Power-of-two-bucketed rollback-distance histogram (key = bucket
    #: upper bound as a string, for JSON).
    rollback_distance_hist: dict[str, int] = _rule(BUCKETS, factory=dict)
    #: Recovery events by :class:`~repro.core.recovery.RecoveryCause`
    #: (branch redirects scheduled, fault recoveries, violation replays).
    recoveries_by_cause: dict[str, int] = _rule(KEYED, factory=_zero_causes)
    #: Squashed ops (wrong-path included) by the cause that squashed them.
    squashed_by_cause: dict[str, int] = _rule(KEYED, factory=_zero_causes)
    memory: dict[str, float] = _rule(OWN, factory=dict)
    #: RNG backing the detection-latency reservoir (host-side bookkeeping,
    #: never serialized), seeded at the first detection past the cap.
    _reservoir_rng: random.Random | None = _rule(OWN, None, repr=False)
    #: Total detections observed (may exceed ``len(detection_latencies)``).
    _detections_seen: int = _rule(OWN, 0)
    # --- scheduling-kernel telemetry (host-side measurements, NOT simulated
    # state; deliberately excluded from to_dict() so result rows — and the
    # sweep stores built from them — stay deterministic and byte-identical
    # across machines, worker counts, and kernel revisions) ---
    #: Timed wakeups posted to the event wheel over the run.
    sched_events: int = 0
    #: Cycles the run loop jumped over (``CoreParams.cycle_skip``).
    #: Telemetry, not simulated state: a skipped cycle provably repeats the
    #: one before it (nothing issued, or only refused memory retries; fetch
    #: stalled or blocked), and the retries and LSQ stalls it would have
    #: counted are charged analytically, so ``cycles`` and every other
    #: counter are identical with skipping on or off.
    cycles_skipped: int = 0

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        if not self.cycles:
            return 0.0
        return self.committed / self.cycles

    @property
    def slot_steal_rate(self) -> float:
        """Fraction of all issue-slot-cycles consumed by the checker."""
        total = self.cycles * self.issue_width
        if not total:
            return 0.0
        return self.checker_slots_used / total

    @property
    def primary_slot_utilization(self) -> float:
        """Fraction of issue-slot-cycles consumed by primary execution."""
        total = self.cycles * self.issue_width
        if not total:
            return 0.0
        return self.primary_slots_used / total

    @property
    def wrong_path_slot_rate(self) -> float:
        """Fraction of all issue-slot-cycles wasted on wrong-path work."""
        total = self.cycles * self.issue_width
        if not total:
            return 0.0
        return self.wrong_path_slots_used / total

    @property
    def wrong_path_fetch_fraction(self) -> float:
        """Fraction of all fetched micro-ops that were wrong-path."""
        total = self.fetched + self.wrong_path_fetched
        if not total:
            return 0.0
        return self.wrong_path_fetched / total

    @property
    def mean_detection_latency(self) -> float:
        """Mean cycles from fault activation to checker detection."""
        if not self.faults_detected:
            return 0.0
        return self.detection_latency_sum / self.faults_detected

    def record_detection_latency(self, latency: int) -> None:
        """Account one detection; sum/max exact, stored samples capped.

        The first :data:`DETECTION_LATENCY_RESERVOIR` samples are stored
        verbatim (in detection order — the common case; golden runs never
        reach the cap).  Past the cap, Algorithm R replaces a uniformly
        random stored sample, so the list remains an unbiased sample of
        all detections without unbounded growth.
        """
        self.detection_latency_sum += latency
        if latency > self.detection_latency_max:
            self.detection_latency_max = latency
        self._detections_seen += 1
        samples = self.detection_latencies
        if len(samples) < DETECTION_LATENCY_RESERVOIR:
            samples.append(latency)
        else:
            if self._reservoir_rng is None:
                self._reservoir_rng = _reservoir_rng()
            slot = self._reservoir_rng.randrange(self._detections_seen)
            if slot < DETECTION_LATENCY_RESERVOIR:
                samples[slot] = latency

    def reset_window(self) -> None:
        """Apply each field's boundary rule (a warm-start window starts).

        Mutates this object rather than swapping it out: the checker, the
        recovery manager, and the tracer hooks all captured a reference at
        construction and must keep writing into the same instance.  A
        :data:`MACHINE` field survives, a :data:`KEYED` dict keeps its keys
        at zero, and every other field takes its default (a histogram's is
        empty).
        """
        fresh = CoreStats()
        for name, rule in WINDOW_RULES:
            if rule == KEYED:
                counts = getattr(self, name)
                for key in counts:
                    counts[key] = 0
            elif rule != MACHINE:
                setattr(self, name, getattr(fresh, name))

    @property
    def mean_recovery_stall(self) -> float:
        """Mean fetch-restart stall cycles per fault recovery."""
        if not self.recoveries:
            return 0.0
        return self.recovery_stall_cycles / self.recoveries

    @property
    def mean_rollback_distance(self) -> float:
        """Mean instructions replayed from checkpoint per fault recovery."""
        if not self.recoveries:
            return 0.0
        return self.rollback_distance_sum / self.recoveries

    @property
    def mispredict_rate(self) -> float:
        """Fraction of committed-path branches that were mispredicted."""
        if not self.branches:
            return 0.0
        return self.branch_mispredicts / self.branches

    def to_dict(self) -> dict[str, float | list[int]]:
        """Flatten counters and derived rates for reports (JSON-serializable).

        Memory-dependence counters appear only when the subsystem ran:
        legacy configurations must keep emitting byte-identical dicts (the
        golden-equivalence suite and stored sweep rows both pin this).
        """
        memdep: dict[str, int] = (
            {
                "mem_order_violations": self.mem_order_violations,
                "loads_forwarded": self.loads_forwarded,
                "loads_delayed": self.loads_delayed,
                "lsq_full_stalls": self.lsq_full_stalls,
            }
            if self.memdep_enabled
            else {}
        )
        if self.memdep_enabled and self.ssit_decay_enabled:
            memdep["ssit_decays"] = self.ssit_decays
        faultmodel: dict[str, float | str | dict[str, int]] = (
            {
                "fault_model": self.fault_model,
                "fault_outcomes": dict(self.fault_outcomes),
            }
            if self.fault_model_enabled
            else {}
        )
        recovery: dict[str, float | dict[str, int]] = (
            {
                "checkpoints_taken": self.checkpoints_taken,
                "checkpoint_overhead_cycles": self.checkpoint_overhead_cycles,
                "recovery_stall_cycles": self.recovery_stall_cycles,
                "mean_recovery_stall": self.mean_recovery_stall,
                "mean_rollback_distance": self.mean_rollback_distance,
                "max_rollback_distance": self.rollback_distance_max,
                # str() is defensive normalization: the histogram is keyed
                # by strings at the write site, but an int key slipping in
                # would make the dict differ from its own json.loads round
                # trip (pinned by the round-trip test).
                "rollback_distance_hist": {
                    str(key): count
                    for key, count in self.rollback_distance_hist.items()
                },
                "recoveries_by_cause": dict(self.recoveries_by_cause),
                "squashed_by_cause": dict(self.squashed_by_cause),
            }
            if self.checkpointing_enabled
            else {}
        )
        return {
            "cycles": self.cycles,
            "committed": self.committed,
            "ipc": self.ipc,
            "fetched": self.fetched,
            "squashed": self.squashed,
            "mem_replays": self.mem_replays,
            "replay_slots_used": self.replay_slots_used,
            "wrong_path_fetched": self.wrong_path_fetched,
            "wrong_path_issued": self.wrong_path_issued,
            "wrong_path_squashed": self.wrong_path_squashed,
            "wrong_path_slots_used": self.wrong_path_slots_used,
            "wrong_path_mem_replays": self.wrong_path_mem_replays,
            "wrong_path_slot_rate": self.wrong_path_slot_rate,
            "wrong_path_fetch_fraction": self.wrong_path_fetch_fraction,
            "branches": self.branches,
            "branch_mispredicts": self.branch_mispredicts,
            "mispredict_rate": self.mispredict_rate,
            "primary_slot_utilization": self.primary_slot_utilization,
            "checks_completed": self.checks_completed,
            "slot_steal_rate": self.slot_steal_rate,
            "faults_injected": self.faults_injected,
            "faults_detected": self.faults_detected,
            "faults_squashed": self.faults_squashed,
            "recoveries": self.recoveries,
            "mean_detection_latency": self.mean_detection_latency,
            "max_detection_latency": self.detection_latency_max,
            "detection_latencies": list(self.detection_latencies),
            **faultmodel,
            **memdep,
            **recovery,
            **{f"mem_{key}": value for key, value in self.memory.items()},
        }

    def register_metrics(self, registry: "MetricsRegistry", prefix: str = "core.") -> None:
        """Register this run's aggregates into a typed metrics registry.

        Scalar totals become counters, derived rates become gauges, and
        the two distributions (detection latency, rollback distance)
        become histograms — ``--metrics-out`` then serves one schema for
        everything instead of each layer's ad-hoc dict.  The memdep and
        recovery blocks follow the same gating as :meth:`to_dict`.
        """
        for name in (
            "cycles",
            "fetched",
            "committed",
            "squashed",
            "mem_replays",
            "replay_slots_used",
            "branches",
            "branch_mispredicts",
            "primary_slots_used",
            "wrong_path_fetched",
            "wrong_path_issued",
            "wrong_path_squashed",
            "wrong_path_slots_used",
            "wrong_path_mem_replays",
            "checks_completed",
            "checker_slots_used",
            "faults_injected",
            "faults_detected",
            "faults_squashed",
            "recoveries",
        ):
            registry.set_counter(f"{prefix}{name}", getattr(self, name))
        for name in (
            "ipc",
            "slot_steal_rate",
            "primary_slot_utilization",
            "wrong_path_slot_rate",
            "wrong_path_fetch_fraction",
            "mispredict_rate",
            "mean_detection_latency",
        ):
            registry.set_gauge(f"{prefix}{name}", getattr(self, name))
        if self.detection_latencies:
            hist = registry.histogram(
                f"{prefix}detection_latency",
                "cycles from fault activation to checker detection",
            )
            for latency in self.detection_latencies:
                hist.observe(latency)
        if self.fault_model_enabled:
            for outcome, count in self.fault_outcomes.items():
                registry.set_counter(f"{prefix}fault_outcomes.{outcome}", count)
        if self.memdep_enabled:
            for name in (
                "mem_order_violations",
                "loads_forwarded",
                "loads_delayed",
                "lsq_full_stalls",
            ):
                registry.set_counter(f"{prefix}{name}", getattr(self, name))
        if self.checkpointing_enabled:
            for name in (
                "checkpoints_taken",
                "checkpoint_overhead_cycles",
                "recovery_stall_cycles",
                "rollback_distance_sum",
            ):
                registry.set_counter(f"{prefix}{name}", getattr(self, name))
            hist = registry.histogram(
                f"{prefix}rollback_distance",
                "instructions replayed from checkpoint per fault recovery",
            )
            for label, count in self.rollback_distance_hist.items():
                hist.record_bucket(label, count)
            for cause, count in self.recoveries_by_cause.items():
                registry.set_counter(f"{prefix}recoveries_by_cause.{cause}", count)
            for cause, count in self.squashed_by_cause.items():
                registry.set_counter(f"{prefix}squashed_by_cause.{cause}", count)


#: Each :class:`CoreStats` field's name and window rule, in field order.
WINDOW_RULES: tuple[tuple[str, str], ...] = tuple(
    (f.name, f.metadata.get("window", COUNT)) for f in fields(CoreStats)
)

#: Every field is run state a capture copies (see :func:`repro.util.run_state`).
CoreStats.RUN_STATE = run_state(value=" ".join(f.name for f in fields(CoreStats)))
