"""Merging per-shard :class:`~repro.core.stats.CoreStats` into one result.

The contract is reconciliation, not estimation: every merged value is
computable exactly from the shard parts.  Each field merges by the window
rule it declares in :mod:`repro.core.stats`:

* counts **sum** (each dynamic op is measured by exactly one shard's
  window), maxima take the largest part, and machine fields (issue width,
  fault model, the ``*_enabled`` flags) come from the first part;
* pow2 histograms and per-cause/per-outcome dicts **add per key**;
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

from repro.core.stats import (
    BUCKETS,
    COUNT,
    DETECTION_LATENCY_RESERVOIR,
    KEYED,
    MACHINE,
    MAX,
    WINDOW_RULES,
    CoreStats,
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

    ``parts`` must be in shard order.  Each field follows its declared
    rule (see the module docstring); the reservoir and the memory snapshot
    merge through :func:`merge_reservoirs` and :func:`merge_memory`.
    """
    if not parts:
        raise ValueError("merge_core_stats needs at least one part")
    merged = CoreStats()
    for name, rule in WINDOW_RULES:
        values = [getattr(part, name) for part in parts]
        if rule == COUNT:
            setattr(merged, name, sum(values))
        elif rule == MACHINE:
            setattr(merged, name, values[0])
        elif rule == MAX:
            setattr(merged, name, max(values))
        elif rule == KEYED or rule == BUCKETS:
            total = getattr(merged, name)
            for counts in values:
                for key, count in counts.items():
                    total[key] = total.get(key, 0) + count
    merged.detection_latencies, merged._detections_seen = merge_reservoirs(
        [(part.detection_latencies, part._detections_seen) for part in parts]
    )
    merged.memory = merge_memory(
        [part.memory for part in parts], [part.cycles for part in parts]
    )
    return merged
