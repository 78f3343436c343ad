"""One experiment point, and multiprocess sweeps of them.

:func:`run_experiment` runs one (preset, seed, machine) point through an
unchecked baseline core and, optionally, the checked core on the same
trace.  Its pieces are the one definition of a point's run: the sharded
runner (:mod:`repro.parallel.shards`) builds its cores and its result
from the same :func:`~repro.experiments.spec.run_params`,
:func:`core_hierarchy` and :func:`result_dict`.

``run_sweep`` expands a :class:`~repro.experiments.spec.SweepSpec` and
hands its points to :func:`~repro.experiments.executor.drive`, which skips
every point whose config hash is already in the store (resume/caching)
and runs the rest through the batched executor.  Points that differ only
in what the checked core alone reads share one trace and one unchecked
baseline run.  Three properties the tests pin down:

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

from dataclasses import replace
from typing import TYPE_CHECKING, Any

from repro.core.core import SuperscalarCore
from repro.core.params import CheckerParams, CoreParams
from repro.core.stats import CoreStats
from repro.experiments.executor import (
    ELAPSED_KEY,
    ProgressFn,
    SweepSummary,
    drive,
    point_row,
    shared_input,
)
from repro.experiments.spec import (
    DEFAULT_FAULT_RATE,
    DEFAULT_OPS,
    DEFAULT_WRONG_PATH_DEPTH,
    RunPoint,
    canonical_json,
    run_params,
)
from repro.experiments.store import ResultsStore
from repro.memory.hierarchy import HierarchyParams, MemoryHierarchy
from repro.workloads import WorkloadProfile, WrongPathGenerator, generate, preset

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import ObsSession
    from repro.obs.registry import MetricsRegistry
    from repro.obs.spans import SpanCollector

#: Config keys only the checked core reads.  Points whose configs differ in
#: nothing else run the same unchecked baseline on the same trace, so they
#: run as one group that computes both once.
_CHECKER_KEYS = frozenset({"fault_rate", "slot_policy", "reserved_slots", "fault_model"})


def core_hierarchy(dcache_banks: int) -> MemoryHierarchy | None:
    """The memory hierarchy of one core of a run.

    None keeps the core's own default hierarchy; a banked run needs a
    *separate* instance per core (hierarchies hold per-run state).
    """
    if dcache_banks == 1:
        return None
    return MemoryHierarchy(HierarchyParams(dcache_banks=dcache_banks))


def result_dict(
    profile: WorkloadProfile,
    num_ops: int,
    seed: int,
    wrong_path: bool,
    params: CoreParams,
    unchecked: CoreStats,
    checked: CoreStats | None,
) -> dict:
    """The JSON-serializable result of one run.

    ``profile`` is the workload the trace was generated from; a nonzero
    ``store_alias_fraction`` of it is recorded (a zero one is left out, so
    results without aliasing keep their bytes).  ``params`` is the
    effective configuration of the run's last core (``CoreParams.to_dict``
    names the FU classes); the stats are flattened via
    ``CoreStats.to_dict``.  A checked run adds the checked stats, the
    slowdown and the fault coverage.
    """
    result: dict = {
        "preset": profile.name,
        "ops": num_ops,
        "seed": seed,
        "wrong_path": wrong_path,
    }
    if profile.store_alias_fraction:
        result["store_alias_fraction"] = profile.store_alias_fraction
    result["params"] = params.to_dict()
    result["unchecked"] = unchecked.to_dict()
    if checked is not None:
        result["checked"] = checked.to_dict()
        # None (JSON null) rather than inf: json.dumps would emit the
        # non-RFC-8259 literal `Infinity` for float("inf").
        result["slowdown"] = unchecked.ipc / checked.ipc if checked.ipc else None
        live = checked.faults_injected - checked.faults_squashed
        result["fault_coverage"] = 1.0 if live <= 0 else checked.faults_detected / live
    return result


def run_experiment(
    profile: WorkloadProfile,
    num_ops: int = DEFAULT_OPS,
    seed: int = 0,
    check: bool = True,
    fault_rate: float = DEFAULT_FAULT_RATE,
    real_predictor: bool = False,
    wrong_path: bool = True,
    wrong_path_depth: int = DEFAULT_WRONG_PATH_DEPTH,
    params: CoreParams | None = None,
    dcache_banks: int = 1,
    store_alias_fraction: float | None = None,
    obs: "ObsSession | None" = None,
) -> dict:
    """Run one preset through baseline and (optionally) checked cores.

    Both cores consume the *same* trace, so every difference in the stats
    is attributable to the checker's resource sharing and recoveries.
    Wrong-path streams come from a profile-aware generator so the wasted
    work the checker competes with matches the workload's own op mix.

    Args:
        params: Optional base :class:`CoreParams` (issue width, FU counts,
            checker slot policy, memory-dependence knobs, …).  The explicit
            keyword arguments — predictor mode, wrong-path knobs, and the
            per-run checker enable/fault-rate/seed — are applied on top of
            it (:func:`~repro.experiments.spec.run_params`); sweeps use
            this to vary machine shape per grid point.
        dcache_banks: D-cache banks per core (1 = the legacy unbanked
            model; more makes checker loads/stores compete for bank slots).
        store_alias_fraction: When set, overrides the profile's
            ``store_alias_fraction`` (see
            :class:`~repro.workloads.profiles.WorkloadProfile`).
        obs: Optional :class:`~repro.obs.ObsSession`.  When provided, each
            core gets a pipeline tracer (labelled ``unchecked``/``checked``)
            if tracing was requested, runs through the session's telemetry
            sampler if it hands one out, and registers its final stats into
            the session's metrics registry.  ``None`` (the default — every
            sweep and golden path) leaves the cores entirely uninstrumented.

    The returned dict is :func:`result_dict`'s.
    """
    if store_alias_fraction is not None:
        profile = replace(profile, store_alias_fraction=store_alias_fraction)
    # Inside a sweep batch, points with equal inputs share the trace and
    # the unchecked baseline (see repro.experiments.executor); anywhere
    # else shared_input just computes.
    trace = shared_input(
        "trace", (profile, num_ops, seed), lambda: generate(profile, num_ops, seed=seed)
    )
    # iter_stream: the core consumes wrong-path streams lazily, so only the
    # prefix fetched before each branch resolves is ever synthesized.
    wp_source = WrongPathGenerator(profile, seed=seed).iter_stream if wrong_path else None
    knobs = dict(
        real_predictor=real_predictor, wrong_path=wrong_path, wrong_path_depth=wrong_path_depth
    )
    unchecked_params = run_params(params, seed, checked=False, **knobs)
    checked_params = run_params(params, seed, checked=True, fault_rate=fault_rate, **knobs)

    def run(mode: str, core_params: CoreParams) -> CoreStats:
        core = SuperscalarCore(
            core_params,
            hierarchy=core_hierarchy(dcache_banks),
            wrong_path_source=wp_source,
            tracer=obs.tracer_for(mode) if obs is not None else None,
        )
        sampler = obs.telemetry_for(mode, core) if obs is not None else None
        stats = core.run(trace) if sampler is None else sampler.run(trace)
        if obs is not None:
            stats.register_metrics(obs.registry, f"{mode}.")
        return stats

    if obs is None:
        # A disabled checker's fields are never read (pinned by
        # tests/test_experiments_executor.py), so they are normalized out
        # of the baseline's identity.
        identity = replace(unchecked_params, checker=CheckerParams())
        baseline = shared_input(
            "unchecked",
            (profile, num_ops, seed, dcache_banks, identity),
            lambda: run("unchecked", unchecked_params),
        )
    else:
        baseline = run("unchecked", unchecked_params)
    return result_dict(
        profile,
        num_ops,
        seed,
        wrong_path,
        checked_params if check else unchecked_params,
        baseline,
        run("checked", checked_params) if check else None,
    )


def execute_point(
    config: dict[str, Any], timeout_s: float | None = None
) -> dict[str, Any]:
    """Run one grid point; always returns a row, never raises.

    Top-level (picklable) so it works under any multiprocessing start
    method.  A point that exceeds ``timeout_s`` wall seconds becomes an
    error row — retried by the next invocation like any other error —
    instead of a stuck worker.  Inside a sweep batch, the point reuses the
    trace and unchecked baseline an earlier point of its group computed;
    its ``_elapsed_s`` (transport-only, see
    :data:`~repro.experiments.executor.ELAPSED_KEY`) and its budget cover
    only what it computed itself.
    """
    with point_row(config, timeout_s) as row:
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
    is a pure function of (spec, sidecar).  Ordering the whole grid before
    the store's points are dropped gives the same order as ordering only
    the pending ones.
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
    times are surfaced through the progress callback (``_elapsed_s``),
    recorded in the store's timings sidecar for the next invocation's
    longest-first order, and aggregated into the summary, never stored.
    ``retries``, ``retry_backoff_s`` and ``spans`` are
    :func:`~repro.experiments.executor.drive`'s; ``registry`` receives the
    summary counters under ``sweep.``.  All observers: the stored rows are
    byte-identical with or without them.
    """
    if timeout_s is None:
        timeout_s = getattr(spec, "timeout_s", None)
    timings = store.load_timings()
    new_timings: dict[str, float] = {}

    def timed(done: int, total: int, row: dict) -> None:
        new_timings[str(row["config_hash"])] = row[ELAPSED_KEY]
        if progress is not None:
            progress(done, total, row)

    summary = drive(
        execute_point,
        [point.config() for point in _schedule_pending(spec.points(), timings)],
        store,
        _baseline_key,
        workers,
        timeout_s,
        progress=timed,
        retries=retries,
        retry_backoff_s=retry_backoff_s,
        spans=spans,
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
