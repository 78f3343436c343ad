"""Time-sharded parallel simulation of a single trace.

``run_sharded_experiment`` splits one run's op budget into N contiguous
windows, simulates each window in its own worker process, and merges the
per-shard :class:`~repro.core.stats.CoreStats` into one result dict with
the same shape :func:`~repro.experiments.runner.run_experiment` produces:
each shard builds its cores, and the parent its result, from the same
pieces (:mod:`repro.experiments.runner`).

Each worker reconstructs its slice of the monolithic run exactly:

* the main op stream via :func:`~repro.workloads.synthetic.generate_window`
  — shard *k* synthesizes ``trace[fetch_start:end]`` without building the
  prefix;
* wrong-path streams via :class:`OffsetWrongPathSource`, which re-keys
  each branch's stream by its *monolithic* sequence number, so a shard
  fetches byte-identical wrong-path work to the monolithic run;
* alias-pair addresses fall out of the main-stream fast-forward (they are
  a pure function of the static program and the iteration index).

Shards with index >= 1 prepend a ``warmup`` op prefix whose statistics
are discarded at a commit-aligned boundary
(:meth:`SuperscalarCore.run_window`), so their measured windows start
from plausibly-warm caches, predictor, store sets, and checker pipeline
instead of a cold machine.  ``--shards 1`` (no warmup, no pool) is
bit-identical to the monolithic path; N > 1 is an explicitly approximate
fast mode — cold-boundary effects and per-shard fault-RNG divergence are
real — whose error is measured and gated by tests/test_parallel_sharded.py.

The windows fan out through :mod:`repro.experiments.executor`, each shard
its own share key and crash-guarded.  A multi-shard run re-runs a failed
shard once, in the calling process (the executor's retry rule, with no
backoff); a second failure fails the run, and a single-shard run never
re-runs.  A shard is deterministic: only host trouble (a ``MemoryError``,
say) passes on the second attempt.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, replace
from typing import Any

from repro.core.core import SuperscalarCore
from repro.core.params import CoreParams
from repro.experiments.executor import ELAPSED_KEY, execute_batched, guarded, retry_errors
from repro.experiments.runner import core_hierarchy, result_dict
from repro.experiments.spec import (
    DEFAULT_FAULT_RATE,
    DEFAULT_OPS,
    DEFAULT_WRONG_PATH_DEPTH,
    run_params,
)
from repro.obs import ObsSession, PipelineTracer
from repro.parallel.merge import merge_core_stats
from repro.workloads import WorkloadProfile, WrongPathGenerator
from repro.workloads.synthetic import generate_window

#: Default warm-start prefix (ops) for shards with index >= 1.  Sized on
#: the big-core bench trace (branchy, 100k ops, 200-cycle memory): the
#: cold-start transient there needs ~5k ops before per-window IPC is
#: within 1% of the monolithic run's same window.
DEFAULT_SHARD_WARMUP = 5_000


@dataclass(frozen=True, slots=True)
class ShardWindow:
    """One shard's slice of the op budget.

    ``start``/``length`` delimit the measured window in monolithic trace
    offsets; ``warmup`` ops before ``start`` are additionally simulated
    (never more than exist: shard 0 has none to run).
    """

    index: int
    start: int
    length: int
    warmup: int

    @property
    def fetch_start(self) -> int:
        """Monolithic offset of the first op the shard actually fetches."""
        return self.start - self.warmup


def plan_shards(num_ops: int, shards: int, warmup: int) -> list[ShardWindow]:
    """Split ``[0, num_ops)`` into ``shards`` contiguous windows.

    The remainder of an uneven split goes to the earliest shards, one op
    each, so window lengths differ by at most one.  Each shard's warmup is
    clipped to the ops that exist before its window (shard 0 gets none).
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if warmup < 0:
        raise ValueError(f"warmup must be non-negative, got {warmup}")
    if num_ops < 0:
        raise ValueError(f"num_ops must be non-negative, got {num_ops}")
    base, extra = divmod(num_ops, shards)
    windows: list[ShardWindow] = []
    start = 0
    for index in range(shards):
        length = base + (1 if index < extra else 0)
        windows.append(
            ShardWindow(
                index=index, start=start, length=length, warmup=min(warmup, start)
            )
        )
        start += length
    return windows


class OffsetWrongPathSource:
    """A wrong-path source keyed by *monolithic* branch sequence numbers.

    Wrong-path streams are pure functions of ``(seed, branch pc, branch
    seq)``.  Inside a shard the core hands this source shard-local seqs
    (its trace starts at 0); adding the shard's fetch offset reproduces
    exactly the stream the monolithic run synthesizes for the same dynamic
    branch.
    """

    def __init__(self, profile: WorkloadProfile, seed: int, offset: int):
        self._generator = WrongPathGenerator(profile, seed=seed)
        self._offset = offset

    def __call__(self, branch, seq: int, depth: int):
        return self._generator.iter_stream(branch, seq + self._offset, depth)


@dataclass(slots=True)
class _ShardTask:
    """Everything one worker needs to simulate one shard (picklable)."""

    window: ShardWindow
    profile: WorkloadProfile
    seed: int
    #: ``(mode, params)`` of each core the shard simulates: the unchecked
    #: core, then (in a checked run) the checked one.
    cores: list[tuple[str, CoreParams]]
    dcache_banks: int
    collect_trace: bool
    #: ``--trace-ops`` window in *monolithic* seq coordinates (or None);
    #: the worker translates it into shard-local seqs before tracing.
    trace_ops: tuple[int, int] | None


def _execute_shard(task: _ShardTask, timeout_s: float | None) -> dict[str, Any]:
    """Simulate one shard's window; top-level so pools can pickle it.

    Returns the guard's row (:func:`~repro.experiments.executor.guarded`)
    holding each mode's window stats under the mode's name and, when
    tracing, its ``(op rows, instant events, total cycles)`` under
    ``trace``.  The total includes the warmup: window stats cover only the
    measured span, and the trace lanes need the full extent.
    """
    window = task.window
    with guarded({"trace": {}}, timeout_s) as row:
        trace = generate_window(
            task.profile, window.fetch_start, window.warmup + window.length, task.seed
        )
        wp_source = (
            OffsetWrongPathSource(task.profile, task.seed, window.fetch_start)
            if task.cores[0][1].model_wrong_path
            else None
        )
        # Shard-local seqs are monolithic seqs minus the fetch offset, so
        # the --trace-ops window translates by the same shift (a negative
        # bound is harmless: local seqs start at 0).
        local_trace_ops = (
            (
                task.trace_ops[0] - window.fetch_start,
                task.trace_ops[1] - window.fetch_start,
            )
            if task.trace_ops is not None
            else None
        )
        for mode, params in task.cores:
            tracer = (
                PipelineTracer(mode, seq_range=local_trace_ops)
                if task.collect_trace
                else None
            )
            core = SuperscalarCore(
                params,
                hierarchy=core_hierarchy(task.dcache_banks),
                wrong_path_source=wp_source,
                tracer=tracer,
            )
            row[mode] = core.run_window(trace, warmup_ops=window.warmup)
            if tracer is not None:
                row["trace"][mode] = (tracer.ops, tracer.events, core._now)
    return row


def _host_shard_tracers(rows: list[dict[str, Any]], obs: ObsSession, check: bool) -> None:
    """Re-host each shard's trace rows as its own tracer with offset stamps.

    Each shard becomes its own Perfetto lane group (``unchecked.shard0``,
    ``unchecked.shard1``, …); within a mode, shard *k*'s timestamps are
    shifted by the total simulated cycles of the shards before it, so the
    lanes line up end-to-end in monolithic-run order instead of all
    starting at cycle 0.
    """
    modes = ["unchecked"] + (["checked"] if check else [])
    for mode in modes:
        offset = 0
        for index, row in enumerate(rows):
            ops, events, cycles = row["trace"][mode]
            tracer = PipelineTracer(f"{mode}.shard{index}")
            tracer.ops = [_offset_row(op, offset) for op in ops]
            tracer.events = [
                (name, cycle + offset, args) for name, cycle, args in events
            ]
            obs.tracers.append(tracer)
            offset += cycles


def _offset_row(row: dict, offset: int) -> dict:
    """Shift every per-op cycle stamp (``*_at`` keys) by ``offset``."""
    if not offset:
        return row
    shifted = dict(row)
    for key, value in row.items():
        if key.endswith("_at") and value is not None:
            shifted[key] = value + offset
    return shifted


def run_sharded_experiment(
    profile: WorkloadProfile,
    num_ops: int = DEFAULT_OPS,
    seed: int = 0,
    shards: int = 1,
    warmup: int = DEFAULT_SHARD_WARMUP,
    check: bool = True,
    fault_rate: float = DEFAULT_FAULT_RATE,
    real_predictor: bool = False,
    wrong_path: bool = True,
    wrong_path_depth: int = DEFAULT_WRONG_PATH_DEPTH,
    params: CoreParams | None = None,
    dcache_banks: int = 1,
    store_alias_fraction: float | None = None,
    workers: int | None = None,
    obs: ObsSession | None = None,
) -> dict:
    """Run one experiment point time-sharded across processes.

    The returned dict has exactly
    :func:`~repro.experiments.runner.run_experiment`'s shape
    (:func:`~repro.experiments.runner.result_dict`); with ``shards > 1`` a
    ``"sharding"`` block is appended describing the split and per-shard
    wall times.  With ``shards == 1`` everything runs in-process with zero
    warmup and the result is bit-identical to the monolithic path.

    Raises:
        ValueError: if ``obs`` or ``params`` asks for interval telemetry,
            at any shard count: no shard records it, and a warm-start
            window cannot sample it.
        RuntimeError: naming each shard that failed (a multi-shard run's
            after its re-run) with its traceback.
    """
    interval = (obs.telemetry_interval if obs is not None else 0) or (
        params.telemetry_interval if params is not None else 0
    )
    if interval:
        raise ValueError(
            f"telemetry_interval={interval} needs one continuous run; "
            "a sharded run records no telemetry (use run_experiment)"
        )
    if store_alias_fraction is not None:
        profile = replace(profile, store_alias_fraction=store_alias_fraction)
    windows = plan_shards(num_ops, shards, warmup if shards > 1 else 0)
    collect_trace = obs is not None and obs.wants_tracing
    knobs = dict(
        real_predictor=real_predictor, wrong_path=wrong_path, wrong_path_depth=wrong_path_depth
    )

    def cores(window: ShardWindow) -> list[tuple[str, CoreParams]]:
        modes = [("unchecked", run_params(params, seed, checked=False, **knobs))]
        if check:
            # Shard 0 keeps the monolithic fault seed: it replays the trace
            # from op 0, so the injector's draw stream lines up exactly and
            # the --shards 1 path stays bit-identical.  Later shards get a
            # decorrelated per-shard stream — replaying the monolithic
            # *prefix* stream in every shard would both correlate their
            # fault placements and make late-stream faults unreachable,
            # biasing the merged fault count low.
            checked = run_params(
                params,
                seed,
                checked=True,
                fault_rate=fault_rate,
                fault_seed=seed + 1 + 0xF5EED * window.index,
                **knobs,
            )
            modes.append(("checked", checked))
        return modes

    tasks = [
        _ShardTask(
            window=window,
            profile=profile,
            seed=seed,
            cores=cores(window),
            dcache_banks=dcache_banks,
            collect_trace=collect_trace,
            trace_ops=obs.trace_ops if obs is not None else None,
        )
        for window in windows
    ]
    started = time.perf_counter()
    pool_size = min(workers or shards, shards)
    rows = list(
        execute_batched(
            _execute_shard, tasks, lambda task: task.window.index, pool_size, None
        )
    )
    # A multi-shard run re-runs each failed shard once, here.
    reruns = 0
    for index, task in enumerate(tasks):
        rows[index], attempts = retry_errors(
            functools.partial(_execute_shard, task, None), rows[index], int(shards > 1), 0.0
        )
        reruns += attempts
    wall_s = time.perf_counter() - started
    failed = [
        f"shard {index}: {row['error']}"
        for index, row in enumerate(rows)
        if row["status"] == "error"
    ]
    if failed:
        raise RuntimeError(f"{len(failed)} shard(s) failed\n" + "\n".join(failed))
    unchecked = merge_core_stats([row["unchecked"] for row in rows])
    checked = merge_core_stats([row["checked"] for row in rows]) if check else None
    # Shard 0's last core is the monolithic run's: same fault seed.
    result = result_dict(
        profile, num_ops, seed, wrong_path, tasks[0].cores[-1][1], unchecked, checked
    )
    if shards > 1:
        result["sharding"] = {
            "shards": shards,
            "warmup_ops": warmup,
            "workers": pool_size,
            "host_cpus": os.cpu_count(),
            # Both count the shards re-run in this process; readers of
            # either key (perfbench among them) keep working.
            "retries": reruns,
            "fallbacks": reruns,
            "wall_s": round(wall_s, 4),
            "windows": [
                {
                    "start": window.start,
                    "length": window.length,
                    "warmup": window.warmup,
                    "wall_s": row[ELAPSED_KEY],
                }
                for window, row in zip(windows, rows)
            ],
        }
    if obs is not None:
        if collect_trace:
            _host_shard_tracers(rows, obs, check)
        unchecked.register_metrics(obs.registry, "unchecked.")
        if checked is not None:
            checked.register_metrics(obs.registry, "checked.")
    return result
