"""One executor for sweep points, campaign trials and shards: configs in, rows out.

Sweeps and campaigns both turn a list of configs into one row per config
and append the rows in list order, which is what keeps a store
byte-identical for any ``--workers`` value and across resume; a sharded
run merges its windows' rows.  :func:`execute_batched` is that fan-out,
on the one process pool, and it stops a study from re-computing what it
already knows.  Configs with equal *share keys* run back to back in one
process, and what they have in common -- a generated trace, an unchecked
baseline run -- is computed by the first point that needs it and reused
by the rest (:func:`shared_input`).  A caller may also order each group's
points: a campaign runs its trials by fault site, so the one fault-free
leader core its batch keeps only moves forward (:func:`shared_state`).
The per-point executor is still called once per config, so every row is
exactly the row that executor returns on its own.

Three properties the tests pin down:

* **Order** -- rows are yielded in config order, whatever the worker count
  and however the configs were batched.
* **Crash isolation** -- a point executor never raises: :func:`guarded`
  turns any exception, or an exceeded wall-clock budget, into an error row.
  A worker killed outright raises nothing, and the pool waits for it.
* **Streaming** -- a row is yielded as soon as every earlier row is in, so
  an interrupted run keeps its completed prefix (in config order: points
  that ran out of config order wait for the earlier ones).

:func:`drive` wraps the fan-out with what both studies do around it: skip
the configs the store already holds, retry error rows (:func:`retry_errors`,
the rule shards follow too), append each row and report it.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import signal
import threading
import time
import traceback
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable, Iterator, TypeVar

from repro.experiments.spec import SCHEMA_VERSION, config_hash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.store import ResultsStore
    from repro.obs.spans import SpanCollector

#: Transient row key carrying the point's wall time from the worker to the
#: parent.  Popped before the row reaches the store: store rows must stay a
#: pure function of the config (byte-identical across machines and worker
#: counts), and wall time is neither.  It covers the point's own work plus
#: whatever shared input it was the first in its batch to compute.
ELAPSED_KEY = "_elapsed_s"

#: More transport-only keys (same contract as :data:`ELAPSED_KEY`): the
#: wall-clock start of the point and the worker process that ran it, which
#: become runner spans in the parent when span collection is on.
STARTED_KEY = "_started_at"
WORKER_KEY = "_worker"

#: Batches per worker in a pooled run: enough that one slow batch does not
#: leave the other workers idle at the tail, few enough that each batch
#: still shares its inputs across several points.
BATCHES_PER_WORKER = 4

#: ``execute(config, timeout_s) -> row``: a point executor.  A config is a
#: dict, or a shard's task.
Execute = Callable[[Any, float | None], dict[str, Any]]

#: Progress callback: (completed count, pending total, the row just stored).
ProgressFn = Callable[[int, int, dict], None]

T = TypeVar("T")


class PointTimeout(Exception):
    """A grid point exceeded its per-point wall-clock budget."""


@contextmanager
def wall_clock_limit(seconds: float | None):
    """Raise :class:`PointTimeout` in the calling thread after ``seconds``.

    Uses ``SIGALRM``/``setitimer`` (pool tasks run on each worker's main
    thread, where the signal is deliverable).  Where the timer cannot be
    armed -- platforms without ``SIGALRM`` (Windows), or an in-process
    run called from a non-main thread -- the limit degrades to a no-op
    instead of erroring every point.
    """
    if (
        seconds is None
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _expired(signum, frame):
        raise PointTimeout()

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@contextmanager
def guarded(row: dict[str, Any], timeout_s: float | None) -> Iterator[dict[str, Any]]:
    """Run the ``with`` body under the ``timeout_s`` wall-clock budget and
    record its outcome in ``row``, which it yields.

    Nothing the body raises propagates: the row's ``status`` is ``"ok"``,
    or ``"error"`` with the traceback (or the exceeded budget) as its
    ``error``.  The body's wall time goes to :data:`ELAPSED_KEY`.
    """
    started = time.perf_counter()
    try:
        with wall_clock_limit(timeout_s):
            yield row
        row["status"] = "ok"
    except PointTimeout:
        row["status"] = "error"
        row["error"] = f"timeout: point exceeded its {timeout_s}s wall-clock budget"
    except Exception:
        row["status"] = "error"
        row["error"] = traceback.format_exc()
    row[ELAPSED_KEY] = round(time.perf_counter() - started, 3)


@contextmanager
def point_row(config: dict[str, Any], timeout_s: float | None) -> Iterator[dict[str, Any]]:
    """Run the ``with`` body as one point, :func:`guarded`, and yield its
    store row: schema, config hash, config and the transport keys.  The
    body stores its ``result`` in it.
    """
    row: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "config_hash": config_hash(config),
        "config": config,
        STARTED_KEY: time.time(),
        WORKER_KEY: os.getpid(),
    }
    with guarded(row, timeout_s):
        yield row


def retry_errors(
    rerun: Callable[[], dict[str, Any]], row: dict[str, Any], retries: int, backoff_s: float
) -> tuple[dict[str, Any], int]:
    """``rerun()`` in this process while ``row`` is an error row, up to
    ``retries`` times, with exponential backoff starting at ``backoff_s``.
    Returns the last row and the attempts made."""
    attempt = 0
    while row.get("status") == "error" and attempt < retries:
        time.sleep(backoff_s * (2 ** attempt))
        attempt += 1
        row = rerun()
    return row, attempt


# ------------------------------------------------------------- shared inputs

#: What the point running inside a batch may reuse: ``{kind: (key, value)}``,
#: the latest value computed per kind.  Set only while a batch runs one of
#: its points, so nothing leaks to a caller outside the batch.
_shared: ContextVar[dict[str, tuple[Any, Any]] | None] = ContextVar(
    "shared_inputs", default=None
)


def shared_input(kind: str, key: Any, compute: Callable[[], T]) -> T:
    """``compute()``, or the ``kind`` value an earlier point of the running
    batch computed for an equal ``key``.

    One value is held per kind: a batch runs the points that share inputs
    back to back, so the memory a batch holds stays that of one point.
    The value is kept only once ``compute`` returns, so a point that fails
    or times out part-way leaves the next point to compute it.  Outside a
    batch this is just ``compute()``.
    """
    with shared_state(kind, key, compute) as value:
        return value


@contextmanager
def shared_state(kind: str, key: Any, make: Callable[[], T]) -> Iterator[T]:
    """Borrow the running batch's ``kind`` value for an equal ``key``, or
    ``make()`` one, for a ``with`` body that may change it.

    The value is out of the batch while the body runs and goes back only
    when the body completes, so a point that fails or times out part-way
    leaves no half-changed value for the next point.  Outside a batch the
    value is made afresh and dropped after the body.
    """
    memo = _shared.get()
    held = memo.pop(kind, None) if memo is not None else None
    value = held[1] if held is not None and held[0] == key else make()
    yield value
    if memo is not None:
        memo[kind] = (key, value)


def _batch_rows(
    execute: Execute, timeout_s: float | None, batch: list[tuple[int, Any]]
) -> Iterator[tuple[int, dict[str, Any]]]:
    """Run one batch's points in order, each able to reuse the earlier ones'
    shared inputs; yields ``(config index, row)``."""
    memo: dict[str, tuple[Any, Any]] = {}
    for index, config in batch:
        token = _shared.set(memo)
        try:
            row = execute(config, timeout_s)
        finally:
            _shared.reset(token)
        yield index, row


def _run_batch(
    execute: Execute, timeout_s: float | None, batch: list[tuple[int, Any]]
) -> list[tuple[int, dict[str, Any]]]:
    """One pool task: a whole batch."""
    return list(_batch_rows(execute, timeout_s, batch))


def _batches(
    configs: list[Any],
    share_key: Callable[[Any], Hashable],
    workers: int,
    order: Callable[[Any], Any] | None,
) -> list[list[tuple[int, Any]]]:
    """Group the indexed configs by share key, sort each group by ``order``
    (config order if None), then cut the groups into batches.

    One worker runs one batch: every group back to back, in order of first
    appearance.  A pool gets each group cut into chunks of about
    ``len(configs) / (workers * BATCHES_PER_WORKER)`` points.
    """
    groups: dict[Hashable, list[tuple[int, Any]]] = {}
    for index, config in enumerate(configs):
        groups.setdefault(share_key(config), []).append((index, config))
    if order is not None:
        for group in groups.values():
            group.sort(key=lambda item: order(item[1]))
    if workers <= 1:
        return [[item for group in groups.values() for item in group]]
    size = -(-len(configs) // (workers * BATCHES_PER_WORKER))
    return [
        group[start:start + size]
        for group in groups.values()
        for start in range(0, len(group), size)
    ]


def _in_config_order(
    pairs: Iterable[tuple[int, dict[str, Any]]],
) -> Iterator[dict[str, Any]]:
    """Re-sequence ``(config index, row)`` pairs into config order, yielding
    each row as soon as every earlier one is in."""
    held: dict[int, dict[str, Any]] = {}
    following = 0
    for index, row in pairs:
        held[index] = row
        while following in held:
            yield held.pop(following)
            following += 1


def execute_batched(
    execute: Execute,
    configs: list[Any],
    share_key: Callable[[Any], Hashable],
    workers: int,
    timeout_s: float | None,
    order: Callable[[Any], Any] | None = None,
) -> Iterator[dict[str, Any]]:
    """``execute(config, timeout_s)`` for every config, yielded in config order.

    Configs with equal ``share_key(config)`` run back to back in one batch,
    in ascending ``order(config)`` (config order if None), where
    :func:`shared_input` and :func:`shared_state` let each point reuse
    what an earlier point of its batch computed.  With ``workers > 1`` the
    batches run on a process pool (``execute`` must then be picklable).
    """
    batches = _batches(configs, share_key, workers, order)
    if workers <= 1 or len(batches) <= 1:
        yield from _in_config_order(
            pair for batch in batches for pair in _batch_rows(execute, timeout_s, batch)
        )
        return
    task = functools.partial(_run_batch, execute, timeout_s)
    with multiprocessing.Pool(processes=min(workers, len(batches))) as pool:
        yield from _in_config_order(
            pair for rows in pool.imap_unordered(task, batches) for pair in rows
        )


@dataclass(slots=True)
class SweepSummary:
    """What one :func:`drive` call did: a sweep, or one campaign phase."""

    total: int  #: configs passed in
    cached: int  #: skipped — already completed in the store (or repeated)
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


def drive(
    execute: Execute,
    configs: list[dict[str, Any]],
    store: "ResultsStore",
    share_key: Callable[[dict[str, Any]], Hashable],
    workers: int,
    timeout_s: float | None,
    order: Callable[[dict[str, Any]], Any] | None = None,
    progress: ProgressFn | None = None,
    retries: int = 0,
    retry_backoff_s: float = 0.5,
    spans: "SpanCollector | None" = None,
) -> SweepSummary:
    """Execute every config ``store`` does not yet hold and append its row.

    A config whose hash the store has completed, or that repeats an
    earlier config of the call, counts as cached.  The rest run through
    :func:`execute_batched` (``share_key`` and ``order`` as there), and
    their rows are appended in config order.

    ``retries`` re-executes a point that came back as an error row up to
    that many times in this process, with exponential backoff starting at
    ``retry_backoff_s``, before the error row is stored.  A retry that
    succeeds stores the ordinary row, a pure function of the config.

    The transport keys are popped before a row is stored.  ``spans`` gets
    one span per executed point, and ``progress`` sees each stored row
    with its ``_elapsed_s`` put back; both are observers only.
    """
    if retries < 0:
        raise ValueError(f"retries must be non-negative, got {retries}")
    if retry_backoff_s < 0:
        raise ValueError(f"retry_backoff_s must be non-negative, got {retry_backoff_s}")
    done = store.completed_hashes()
    seen: set[str] = set()
    pending: list[dict[str, Any]] = []
    for config in configs:
        digest = config_hash(config)
        if digest not in done and digest not in seen:
            pending.append(config)
        seen.add(digest)
    executed = errors = retried = 0
    slowest = busy = 0.0
    started = time.perf_counter()
    for row in execute_batched(execute, pending, share_key, workers, timeout_s, order):
        # Transport keys are still on a retried row, so the replacement
        # flows through the same popping below.
        row, attempts = retry_errors(
            functools.partial(execute, row["config"], timeout_s), row, retries, retry_backoff_s
        )
        retried += attempts
        elapsed = row.pop(ELAPSED_KEY, 0.0)
        started_at = row.pop(STARTED_KEY, None)
        worker = row.pop(WORKER_KEY, 0)
        slowest = max(slowest, elapsed)
        busy += elapsed
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
            row[ELAPSED_KEY] = elapsed
            progress(executed, len(pending), row)
            del row[ELAPSED_KEY]
    wall = round(time.perf_counter() - started, 3)
    effective_workers = max(1, min(workers, len(pending)))
    return SweepSummary(
        total=len(configs),
        cached=len(configs) - len(pending),
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
