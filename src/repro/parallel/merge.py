"""Merging per-shard :class:`~repro.core.stats.CoreStats` into one result.

The contract is reconciliation, not estimation: every merged value is
computable exactly from the shard parts —

* plain counters **sum** (each dynamic op is measured by exactly one
  shard's window);
* pow2 histograms and per-cause dicts **add per key**;
* rates and gauges are **re-derived from the summed raw quantities**
  (IPC = total committed / total cycles; the memory rates re-divide the
  summed numerators/denominators, weighting each shard by its own
  traffic, or by its cycle count where the denominator is not recorded);
* detection-latency reservoirs **merge seed-stably**: concatenation while
  the combined sample fits the cap, otherwise a fixed-seed proportional
  subsample (by each shard's true detection count), so the merged result
  is a pure function of the shard parts — byte-identical on every
  machine and worker count.

A single-part merge is an exact identity, which is what makes the
``--shards 1`` path bit-identical to the monolithic run even though it
flows through this module.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.stats import DETECTION_LATENCY_RESERVOIR, CoreStats

#: CoreStats fields that sum across shards (each op/cycle/event belongs to
#: exactly one shard's measured window).
_SUMMED_FIELDS = (
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
    "detection_latency_sum",
    "mem_order_violations",
    "loads_forwarded",
    "loads_delayed",
    "lsq_full_stalls",
    "ssit_decays",
    "checkpoints_taken",
    "checkpoint_overhead_cycles",
    "recovery_stall_cycles",
    "rollback_distance_sum",
    "sched_events",
    "cycles_skipped",
)

#: Memory-snapshot keys re-derived by weighted division rather than summed.
#: Maps rate key -> the snapshot key holding its exact denominator.
_MEM_RATE_WEIGHTS = {
    "l1d_miss_rate": "l1d_accesses",
    "bus_avg_queue_delay": "bus_transfers",
}


def merge_reservoirs(
    parts: Sequence[tuple[Sequence[int], int]],
    cap: int = DETECTION_LATENCY_RESERVOIR,
    seed: int = 0x5EED,
) -> tuple[list[int], int]:
    """Merge per-shard (samples, true detection count) reservoirs.

    Returns ``(samples, seen_total)``.  While the combined samples fit the
    cap, the merge is plain concatenation in shard order — exact, and the
    identity merge for a single part.  Past the cap, each shard gets a
    quota proportional to its *true* detection count (largest-remainder
    rounding, overflow redistributed to shards with spare samples) and is
    subsampled with a ``random.Random`` seeded from ``seed`` and the
    totals — deterministic for a given set of parts.
    """
    samples_total = sum(len(samples) for samples, _ in parts)
    seen_total = sum(seen for _, seen in parts)
    if samples_total <= cap:
        merged = [value for samples, _ in parts for value in samples]
        return merged, seen_total
    # Proportional quotas by true counts, capped by what each shard stored.
    ideals = [cap * seen / seen_total for _, seen in parts]
    quotas = [min(int(ideal), len(samples)) for ideal, (samples, _) in zip(ideals, parts)]
    remainders = sorted(
        range(len(parts)),
        key=lambda i: (ideals[i] - int(ideals[i]), -i),
        reverse=True,
    )
    shortfall = cap - sum(quotas)
    # First pass hands out the fractional remainders; further passes soak
    # up quota that capped shards could not absorb.
    while shortfall > 0:
        progressed = False
        for index in remainders:
            if shortfall <= 0:
                break
            if quotas[index] < len(parts[index][0]):
                quotas[index] += 1
                shortfall -= 1
                progressed = True
        if not progressed:  # every shard exhausted (cannot happen when
            break  # samples_total > cap, kept as a guard)
    rng = random.Random((seed << 1) ^ seen_total ^ samples_total)
    merged: list[int] = []
    for (samples, _), quota in zip(parts, quotas):
        if quota >= len(samples):
            merged.extend(samples)
        else:
            picked = sorted(rng.sample(range(len(samples)), quota))
            merged.extend(samples[i] for i in picked)
    return merged, seen_total


def merge_memory(
    snapshots: Sequence[dict[str, float]], cycles: Sequence[int]
) -> dict[str, float]:
    """Merge per-shard memory snapshots (see ``MemoryHierarchy.snapshot``).

    Counters sum; ``*_per_bank`` lists add element-wise; rates with a
    recorded denominator (:data:`_MEM_RATE_WEIGHTS`) are re-divided from
    the summed totals — an exact reconciliation; rates without one
    (``l2_miss_rate``) are occupancy-weighted by shard cycle counts;
    ``dcache_banks`` is configuration and carries through unchanged.
    """
    if not snapshots:
        return {}
    if len(snapshots) == 1:
        return dict(snapshots[0])
    merged: dict[str, float] = {}
    for key in snapshots[0]:
        values = [snap.get(key, 0) for snap in snapshots]
        if key == "dcache_banks":
            merged[key] = snapshots[0][key]
        elif key in _MEM_RATE_WEIGHTS:
            weights = [snap.get(_MEM_RATE_WEIGHTS[key], 0) for snap in snapshots]
            total = sum(weights)
            merged[key] = (
                sum(value * weight for value, weight in zip(values, weights)) / total
                if total
                else 0.0
            )
        elif key.endswith("_rate"):
            total = sum(cycles)
            merged[key] = (
                sum(value * weight for value, weight in zip(values, cycles)) / total
                if total
                else 0.0
            )
        elif key.endswith("_per_bank"):
            merged[key] = [sum(bank) for bank in zip(*values)]
        else:
            merged[key] = sum(values)
    return merged


def merge_core_stats(parts: Sequence[CoreStats]) -> CoreStats:
    """Combine per-shard window stats into one :class:`CoreStats`.

    ``parts`` must be in shard order.  Machine-shape fields
    (``issue_width``, the ``*_enabled`` flags) come from the first part;
    everything measured follows the rules in the module docstring.
    """
    if not parts:
        raise ValueError("merge_core_stats needs at least one part")
    first = parts[0]
    merged = CoreStats(issue_width=first.issue_width)
    merged.memdep_enabled = first.memdep_enabled
    merged.ssit_decay_enabled = first.ssit_decay_enabled
    merged.checkpointing_enabled = first.checkpointing_enabled
    merged.fault_model_enabled = first.fault_model_enabled
    merged.fault_model = first.fault_model
    for name in _SUMMED_FIELDS:
        setattr(merged, name, sum(getattr(part, name) for part in parts))
    merged.detection_latency_max = max(part.detection_latency_max for part in parts)
    merged.rollback_distance_max = max(part.rollback_distance_max for part in parts)
    for part in parts:
        for bucket, count in part.rollback_distance_hist.items():
            merged.rollback_distance_hist[bucket] = (
                merged.rollback_distance_hist.get(bucket, 0) + count
            )
        for cause, count in part.recoveries_by_cause.items():
            merged.recoveries_by_cause[cause] = (
                merged.recoveries_by_cause.get(cause, 0) + count
            )
        for cause, count in part.squashed_by_cause.items():
            merged.squashed_by_cause[cause] = (
                merged.squashed_by_cause.get(cause, 0) + count
            )
        for outcome, count in part.fault_outcomes.items():
            merged.fault_outcomes[outcome] = (
                merged.fault_outcomes.get(outcome, 0) + count
            )
    samples, seen = merge_reservoirs(
        [(part.detection_latencies, part._detections_seen) for part in parts]
    )
    merged.detection_latencies = samples
    merged._detections_seen = seen
    merged.memory = merge_memory(
        [part.memory for part in parts], [part.cycles for part in parts]
    )
    return merged
