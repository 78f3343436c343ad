"""Multiprocess sweep execution.

``run_sweep`` expands a :class:`~repro.experiments.spec.SweepSpec`, drops
every point whose config hash is already in the store (resume/caching),
and runs the rest through the batched executor
(:mod:`repro.experiments.executor`).  Points that differ only in what the
checked core alone reads share one trace and one unchecked baseline run.
Three properties the tests pin down:

* **Determinism** — each point's config carries its own seeds (workload
  seed, fault seed = seed + 1, wrong-path seed), and a shared baseline is
  the very run each point of its group would have made, so results are a
  pure function of the config.  Rows are appended in pending order,
  making the store byte-identical for any ``--workers`` value.
* **Crash isolation** — :func:`execute_point` catches everything and
  returns an error row; one pathological point cannot take down the sweep,
  and error rows are retried on the next invocation.
* **Streaming** — a row is appended (and progress reported) as soon as
  every earlier point has finished, so an interrupted sweep keeps its
  completed prefix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.experiments.executor import (
    ELAPSED_KEY,
    STARTED_KEY,
    WORKER_KEY,
    execute_batched,
    point_row,
)
from repro.experiments.spec import RunPoint, canonical_json
from repro.experiments.store import ResultsStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry
    from repro.obs.spans import SpanCollector

#: Progress callback: (completed count, pending total, the row just stored).
ProgressFn = Callable[[int, int, dict], None]

#: Config keys only the checked core reads.  Points whose configs differ in
#: nothing else run the same unchecked baseline on the same trace, so they
#: run as one group that computes both once.
_CHECKER_KEYS = frozenset({"fault_rate", "slot_policy", "reserved_slots", "fault_model"})


@dataclass(slots=True)
class SweepSummary:
    """What one ``run_sweep`` invocation did."""

    total: int  #: points in the expanded grid
    cached: int  #: skipped — already completed in the store (or in-grid dupes)
    executed: int  #: actually simulated this invocation
    errors: int  #: executed points that produced error rows
    retried: int = 0  #: in-invocation re-executions of error rows (``retries=N``)
    wall_seconds: float = 0.0  #: wall time of this invocation's execution loop
    slowest_point_s: float = 0.0  #: worst single-point wall time observed
    #: Sum of per-point wall times over (effective workers x loop wall):
    #: 1.0 means no worker ever idled, low values mean stragglers
    #: serialized the tail of the pool.
    worker_utilization: float = 0.0

    def to_dict(self) -> dict[str, int | float]:
        return {
            "total": self.total,
            "cached": self.cached,
            "executed": self.executed,
            "errors": self.errors,
            "retried": self.retried,
            "wall_seconds": self.wall_seconds,
            "slowest_point_s": self.slowest_point_s,
            "worker_utilization": self.worker_utilization,
        }


def execute_point(
    config: dict[str, Any], timeout_s: float | None = None
) -> dict[str, Any]:
    """Run one grid point; always returns a row, never raises.

    Top-level (picklable) so it works under any multiprocessing start
    method.  The import is deferred so pool workers spawned under
    ``spawn`` pay it once here rather than at module import in the parent.
    A point that exceeds ``timeout_s`` wall seconds becomes an error row —
    retried by the next invocation like any other error — instead of a
    stuck worker.  Inside a sweep batch, the point reuses the trace and
    unchecked baseline an earlier point of its group computed; its
    ``_elapsed_s`` (transport-only, see
    :data:`~repro.experiments.executor.ELAPSED_KEY`) and its budget cover
    only what it computed itself.
    """
    with point_row(config, timeout_s) as row:
        from repro.cli import run_experiment
        from repro.workloads import preset

        point = RunPoint.from_config(config)
        row["group_hash"] = point.group_hash()
        row["result"] = run_experiment(
            preset(point.preset),
            num_ops=point.ops,
            seed=point.seed,
            check=True,
            fault_rate=point.fault_rate,
            real_predictor=point.real_predictor,
            wrong_path=point.wrong_path,
            wrong_path_depth=point.wrong_path_depth,
            params=point.core_params(),
            dcache_banks=point.dcache_banks,
            store_alias_fraction=(
                point.store_alias_fraction if point.store_alias_fraction else None
            ),
        )
    return row


def _baseline_key(config: dict[str, Any]) -> str:
    """The inputs of a point's unchecked baseline: its config without the
    keys only the checked core reads."""
    return canonical_json({k: v for k, v in config.items() if k not in _CHECKER_KEYS})


def _pending_points(
    points: Iterable[RunPoint], store: ResultsStore
) -> tuple[list[RunPoint], int]:
    """Points still to run, and how many the store (or in-grid dupes) covers."""
    done = store.completed_hashes()
    seen: set[str] = set()
    pending: list[RunPoint] = []
    cached = 0
    for point in points:
        digest = point.config_hash()
        if digest in done or digest in seen:
            cached += 1
            continue
        seen.add(digest)
        pending.append(point)
    return pending, cached


def _schedule_pending(
    pending: list[RunPoint], timings: dict[str, float]
) -> list[RunPoint]:
    """Longest-point-first order for resumed sweeps.

    Points with a recorded wall time (the store's timings sidecar, fed by
    previous invocations) run longest-first, so the stragglers start while
    the pool is still full instead of serializing at its tail.  Points
    never timed run *first*, in spec order: an unknown point may itself be
    the next straggler, and spec order keeps a fresh sweep's store layout
    exactly what it was before scheduling existed.  Ties keep spec order
    (the sort is stable), so the order — and therefore the store layout —
    is a pure function of (spec, sidecar).
    """
    if not timings:
        return pending
    known = [point for point in pending if point.config_hash() in timings]
    unknown = [point for point in pending if point.config_hash() not in timings]
    known.sort(key=lambda point: timings[point.config_hash()], reverse=True)
    return unknown + known


def run_sweep(
    spec,
    store: ResultsStore,
    workers: int = 1,
    progress: ProgressFn | None = None,
    timeout_s: float | None = None,
    spans: "SpanCollector | None" = None,
    registry: "MetricsRegistry | None" = None,
    retries: int = 0,
    retry_backoff_s: float = 0.5,
) -> SweepSummary:
    """Execute every not-yet-stored point of ``spec`` into ``store``.

    ``timeout_s`` bounds each point's wall time (None defers to the spec's
    ``timeout_s`` field; both None disables the bound).  Per-point wall
    times are surfaced through the progress callback (the popped
    ``_elapsed_s``) and aggregated into the summary, never stored.

    ``retries`` re-executes a point that came back as an error row up to
    that many times *within this invocation* (in the parent process, with
    exponential backoff starting at ``retry_backoff_s``) before the error
    row is stored.  A retry that succeeds stores the ordinary success row
    — a pure function of the config, so the store stays byte-identical to
    a run that never needed the retry.

    ``spans`` collects one wall-clock span per executed point (worker,
    start, duration — the runner half of ``--trace-out``); ``registry``
    receives the summary counters under ``sweep.``.  Both are observers:
    the stored rows are byte-identical with or without them.
    """
    if timeout_s is None:
        timeout_s = getattr(spec, "timeout_s", None)
    if retries < 0:
        raise ValueError(f"retries must be non-negative, got {retries}")
    if retry_backoff_s < 0:
        raise ValueError(f"retry_backoff_s must be non-negative, got {retry_backoff_s}")
    points = spec.points()
    pending, cached = _pending_points(points, store)
    timings = store.load_timings()
    pending = _schedule_pending(pending, timings)
    configs = [point.config() for point in pending]
    executed = 0
    errors = 0
    retried = 0
    slowest = 0.0
    busy = 0.0
    new_timings: dict[str, float] = {}
    started = time.perf_counter()
    for row in execute_batched(execute_point, configs, _baseline_key, workers, timeout_s):
        # In-invocation retry: re-run error rows in the parent (crash
        # isolation still holds — execute_point never raises) with
        # exponential backoff, keeping whichever row the last attempt
        # produced.  Transport keys are still on the row here, so the
        # replacement row flows through the same popping below.
        attempt = 0
        while row.get("status") == "error" and attempt < retries:
            time.sleep(retry_backoff_s * (2 ** attempt))
            attempt += 1
            retried += 1
            row = execute_point(row["config"], timeout_s)
        elapsed = row.pop(ELAPSED_KEY, 0.0)
        started_at = row.pop(STARTED_KEY, None)
        worker = row.pop(WORKER_KEY, 0)
        slowest = max(slowest, elapsed)
        busy += elapsed
        digest = row.get("config_hash")
        if digest:
            new_timings[str(digest)] = elapsed
        store.append(row)
        executed += 1
        if row.get("status") != "ok":
            errors += 1
        if spans is not None and started_at is not None:
            config = row.get("config", {})
            spans.record(
                f"{config.get('preset', '?')} seed={config.get('seed')}",
                started_at,
                elapsed,
                worker,
                status=row.get("status"),
                fault_rate=config.get("fault_rate"),
                config_hash=str(row.get("config_hash", ""))[:12],
            )
        if progress is not None:
            row["_elapsed_s"] = elapsed  # callback-visible, already un-stored
            progress(executed, len(configs), row)
            del row["_elapsed_s"]
    wall = round(time.perf_counter() - started, 3)
    effective_workers = max(1, min(workers, len(configs)))
    summary = SweepSummary(
        total=len(points),
        cached=cached,
        executed=executed,
        errors=errors,
        retried=retried,
        wall_seconds=wall,
        slowest_point_s=slowest,
        # min(): per-point times are rounded before summing, so the ratio
        # can nudge past 1.0 on sub-millisecond points.
        worker_utilization=(
            min(1.0, round(busy / (effective_workers * wall), 4))
            if executed and wall > 0
            else 0.0
        ),
    )
    if new_timings:
        timings.update(new_timings)
        store.save_timings(timings)
    if registry is not None:
        for name in ("total", "cached", "executed", "errors", "retried"):
            registry.set_counter(f"sweep.{name}", getattr(summary, name))
        registry.set_gauge("sweep.wall_seconds", summary.wall_seconds)
        registry.set_gauge("sweep.slowest_point_s", summary.slowest_point_s)
        registry.set_gauge("sweep.worker_utilization", summary.worker_utilization)
    return summary

