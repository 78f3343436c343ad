"""One executor for sweep and campaign points: configs in, store rows out.

Sweeps and campaigns both turn a list of configs into one row per config
and append the rows in list order, which is what keeps a store
byte-identical for any ``--workers`` value and across resume.
:func:`execute_batched` is that fan-out, and it stops a study from
re-computing what it already knows.  Configs with equal *share keys* run
back to back in one process, and what they have in common -- a generated
trace, an unchecked baseline run -- is computed by the first point that
needs it and reused by the rest (:func:`shared_input`).  The per-point
executor (``execute_point``, ``execute_campaign_point``) is still called
once per config, so every row is exactly the row that executor returns on
its own.

Three properties the tests pin down:

* **Order** -- rows are yielded in config order, whatever the worker count
  and however the configs were batched.
* **Crash isolation** -- a point executor never raises: :func:`point_row`
  turns any exception, or an exceeded wall-clock budget, into an error row.
* **Streaming** -- a row is yielded as soon as every earlier row is in, so
  an interrupted run keeps its completed prefix.
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
from typing import Any, Callable, Hashable, Iterable, Iterator, TypeVar

from repro.experiments.spec import SCHEMA_VERSION, config_hash

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

#: ``execute(config, timeout_s) -> row``: a point executor.
Execute = Callable[[dict[str, Any], float | None], dict[str, Any]]

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
def point_row(config: dict[str, Any], timeout_s: float | None) -> Iterator[dict[str, Any]]:
    """Run the ``with`` body as one point and record its outcome in the row.

    Yields the row (schema, config hash, config and the transport keys);
    the body stores its ``result`` in it.  The body runs under the
    ``timeout_s`` wall-clock budget, and anything it raises -- the budget
    running out included -- becomes an error row instead of propagating.
    """
    row: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "config_hash": config_hash(config),
        "config": config,
        STARTED_KEY: time.time(),
        WORKER_KEY: os.getpid(),
    }
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
    memo = _shared.get()
    if memo is None:
        return compute()
    held = memo.get(kind)
    if held is not None and held[0] == key:
        return held[1]
    value = compute()
    memo[kind] = (key, value)
    return value


def _batch_rows(
    execute: Execute, timeout_s: float | None, batch: list[tuple[int, dict[str, Any]]]
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
    execute: Execute, timeout_s: float | None, batch: list[tuple[int, dict[str, Any]]]
) -> list[tuple[int, dict[str, Any]]]:
    """One pool task: a whole batch."""
    return list(_batch_rows(execute, timeout_s, batch))


def _batches(
    configs: list[dict[str, Any]],
    share_key: Callable[[dict[str, Any]], Hashable],
    workers: int,
) -> list[list[tuple[int, dict[str, Any]]]]:
    """Group the indexed configs by share key, then cut the groups into batches.

    One worker runs one batch: every group back to back, in order of first
    appearance.  A pool gets each group cut into chunks of about
    ``len(configs) / (workers * BATCHES_PER_WORKER)`` points.
    """
    groups: dict[Hashable, list[tuple[int, dict[str, Any]]]] = {}
    for index, config in enumerate(configs):
        groups.setdefault(share_key(config), []).append((index, config))
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
    configs: list[dict[str, Any]],
    share_key: Callable[[dict[str, Any]], Hashable],
    workers: int,
    timeout_s: float | None,
) -> Iterator[dict[str, Any]]:
    """``execute(config, timeout_s)`` for every config, yielded in config order.

    Configs with equal ``share_key(config)`` run back to back in one batch,
    where :func:`shared_input` lets each point reuse what an earlier point
    of its batch computed.  With ``workers > 1`` the batches run on a
    process pool (``execute`` must then be a picklable top-level function).
    """
    batches = _batches(configs, share_key, workers)
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
