"""Outside-in instrumentation: core-run records, spans, and the wrappers.

Nothing here edits the simulator.  Wrappers are installed around the
public calls into each layer, either on one object (an instance the
benchmark builds and passes in) or on a class / module attribute for the
duration of one pass, and are always restored afterwards.

Two instruments:

* :class:`RunLog` times every ``SuperscalarCore.run`` / ``run_window``
  call and keeps the counts its returned stats carry.  It is cheap (two
  clock reads per core run) and is the only instrument present in timed
  runs.  Pool workers are forked, so they inherit the wrapper; a worker
  appends its records to a per-process file the parent collects.
* :class:`SpanRecorder` (traced passes only) records one span per wrapped
  call -- a name, start, end and parent -- in flat in-memory arrays that are
  written out once at the end.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Iterator

_clock = time.perf_counter

#: Counts copied from the stats every core run returns.
STAT_FIELDS = (
    "cycles",
    "cycles_skipped",
    "sched_events",
    "committed",
    "fetched",
    "squashed",
    "wrong_path_fetched",
    "checks_completed",
    "checker_slots_used",
    "mem_replays",
    "faults_injected",
)


def core_record(core: Any, trace: Any, stats: Any, wall: float) -> dict[str, Any]:
    """One core run: its mode, trace length, host seconds and stat counts."""
    record = {
        "mode": "checked" if core.params.checker.enabled else "unchecked",
        "ops": len(trace),
        "wall": wall,
    }
    for name in STAT_FIELDS:
        record[name] = getattr(stats, name)
    return record


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, bool, Any]] = []

    def set(self, target: Any, name: str, value: Any) -> None:
        own = name in vars(target)
        self._undo.append((target, name, own, vars(target).get(name)))
        setattr(target, name, value)

    def wrap(self, target: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``target.name`` by ``make(original)``.

        On a class the original is the plain function (so the wrapper
        receives ``self`` first); on an instance it is the bound method.
        """
        original = vars(target)[name] if isinstance(target, type) else getattr(target, name)
        self.set(target, name, make(original))

    def rebind(self, original: Callable, replacement: Callable) -> None:
        """Point every ``repro`` module-level name bound to ``original`` at
        ``replacement`` (``from x import f`` copies the binding)."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            target, name, own, value = self._undo.pop()
            if own:
                setattr(target, name, value)
            else:
                delattr(target, name)


class RunLog:
    """Per-core-run records, gathered across forked pool workers.

    With ``reference=True`` each core run is also timed in reference
    seconds (``refclock``), in whichever process it runs; its record then
    carries ``ref`` beside the host seconds ``wall``.
    """

    def __init__(self, directory: Path, reference: bool = False) -> None:
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)
        self._owner = os.getpid()
        self._records: list[dict[str, Any]] = []
        self._depth = 0
        self._patches = Patches()
        self._sampler = None
        if reference:
            from refclock import Sampler

            self._sampler = Sampler()

    def _keep(self, record: dict[str, Any]) -> None:
        if os.getpid() == self._owner:
            self._records.append(record)
            return
        with open(self.directory / f"{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")

    def _timed(self, original: Callable) -> Callable:
        log = self

        def timed(core, trace, *args, **kwargs):
            # run_window(warmup_ops <= 0) delegates to run(): record once.
            log._depth += 1
            sampler = log._sampler if log._depth == 1 else None
            started = _clock()
            if sampler is not None:
                sampler.start()
            try:
                stats = original(core, trace, *args, **kwargs)
            finally:
                log._depth -= 1
                if sampler is not None:
                    wall, ref = sampler.stop()
            if log._depth == 0:
                if sampler is None:
                    wall = ref = _clock() - started
                record = core_record(core, trace, stats, wall)
                record.update(start=started, ref=ref)
                log._keep(record)
            return stats

        return timed

    def install(self) -> "RunLog":
        from repro.core.core import SuperscalarCore

        self._patches.wrap(SuperscalarCore, "run", self._timed)
        self._patches.wrap(SuperscalarCore, "run_window", self._timed)
        return self

    def restore(self) -> None:
        self._patches.restore()

    def take(self) -> list[dict[str, Any]]:
        """Every record since the last call, this process's and the workers'."""
        records, self._records = self._records, []
        for path in sorted(self.directory.glob("*.jsonl")):
            with path.open(encoding="utf-8") as fh:
                records.extend(json.loads(line) for line in fh)
            path.unlink()
        return records


class SpanRecorder:
    """Spans in flat arrays: name id, parent index, start and end seconds."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        #: Counts the wrappers observe in return values (memory refusals).
        self.counters: dict[str, int] = {}
        #: Returned-stats records of every traced core run.
        self.core_runs: list[dict[str, Any]] = []
        #: (addr, now, is_store) of the first traced core run's accesses.
        self.access_stream: list[tuple[int, int, bool]] = []
        self.capture_limit = 400_000
        self._capturing = True

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(_clock())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = _clock()
        self._stack.pop()

    def span(self, name: str, original: Callable) -> Callable:
        """``original`` wrapped so each call is one span called ``name``."""
        nid = self.name_id(name)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            sid = open_(nid)
            try:
                return original(*args, **kwargs)
            finally:
                close(sid)

        return traced

    def count(self, key: str) -> None:
        self.counters[key] = self.counters.get(key, 0) + 1

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: Path) -> None:
        """Header JSON plus the four columns as raw native arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self),
            "columns": [
                ["name", self.name.typecode, self.name.itemsize],
                ["parent", self.parent.typecode, self.parent.itemsize],
                ["start", self.start.typecode, self.start.itemsize],
                ["end", self.end.typecode, self.end.itemsize],
            ],
            "byteorder": sys.byteorder,
        }
        path.with_suffix(".json").write_text(json.dumps(header), encoding="utf-8")
        with path.with_suffix(".bin").open("wb") as fh:
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(fh)


# --------------------------------------------------------------- wrappers


def memory_wrappers(patches: Patches, rec: SpanRecorder, target: Any) -> None:
    """Spans on the four public hierarchy calls the core makes, refusal
    counts by ``AccessResult.reason``, and the captured access stream.

    ``target`` is a ``MemoryHierarchy`` instance the benchmark passes to a
    core, or the class itself when the program builds its own cores."""
    access_id = rec.name_id("memory.access")
    open_, close, count = rec.open, rec.close, rec.count
    stream = rec.access_stream
    method = not isinstance(target, type)

    def make_access(original):
        def access(*args, **kwargs):
            if rec._capturing and len(stream) < rec.capture_limit:
                # args are (addr, now[, is_store]) after an optional self.
                call = args if method else args[1:]
                is_store = call[2] if len(call) > 2 else kwargs.get("is_store", False)
                stream.append((call[0], call[1], bool(is_store)))
            sid = open_(access_id)
            try:
                result = original(*args, **kwargs)
            finally:
                close(sid)
            count("memory.accepted" if result.ok else f"memory.refused_{result.reason}")
            return result

        return access

    patches.wrap(target, "access", make_access)
    for name in ("ifetch", "checker_probe", "fills_due"):
        patches.wrap(target, name, lambda original, n=name: rec.span(f"memory.{n}", original))


def _timed_stream(rec: SpanRecorder, nid: int, ops: Iterator) -> Iterator:
    """Each op drawn from a lazy wrong-path stream is one span."""
    open_, close = rec.open, rec.close
    while True:
        sid = open_(nid)
        try:
            op = next(ops)
        except StopIteration:
            close(sid)
            return
        close(sid)
        yield op


def wrong_path_wrapper(rec: SpanRecorder, source: Callable) -> Callable:
    nid = rec.name_id("workloads.wrong_path")

    def traced_source(*args, **kwargs):
        return _timed_stream(rec, nid, iter(source(*args, **kwargs)))

    return traced_source


def install_tracing(rec: SpanRecorder, class_level_inputs: bool) -> Patches:
    """Class- and module-level wrappers for one traced pass.

    ``class_level_inputs`` also wraps the memory hierarchy and wrong-path
    generator classes, for workloads whose cores the program builds
    itself (sweeps, campaigns, shards), where no instance can be passed.
    """
    import repro.cli  # noqa: F401  (binds `generate`; must precede rebind)
    import repro.experiments.campaign as campaign
    import repro.experiments.report as report
    import repro.experiments.runner as runner
    import repro.parallel.merge as merge
    import repro.workloads.synthetic as synthetic
    from repro.core.checker import Checker
    from repro.core.core import SuperscalarCore
    from repro.core.recovery import RecoveryManager
    from repro.experiments.store import ResultsStore
    from repro.memory.hierarchy import MemoryHierarchy

    patches = Patches()

    for cls, layer in ((Checker, "checker"), (RecoveryManager, "recovery")):
        for name, value in list(vars(cls).items()):
            if callable(value) and not name.startswith("_"):
                patches.wrap(cls, name, lambda original, n=f"{layer}.{name}": rec.span(n, original))

    core_id = rec.name_id("core.run")

    def make_core(original):
        def run(core, trace, *args, **kwargs):
            sid = rec.open(core_id)
            try:
                stats = original(core, trace, *args, **kwargs)
            finally:
                rec.close(sid)
            parent = rec._stack[-1]
            if parent >= 0 and rec.name[parent] == core_id:
                return stats  # run_window delegating to run: one record
            rec.core_runs.append(
                core_record(core, trace, stats, rec.end[sid] - rec.start[sid])
            )
            rec._capturing = False
            return stats

        return run

    patches.wrap(SuperscalarCore, "run", make_core)
    patches.wrap(SuperscalarCore, "run_window", make_core)

    patches.wrap(ResultsStore, "append", lambda f: rec.span("experiments.store_append", f))
    for original, name in (
        (synthetic.generate, "workloads.generate"),
        (synthetic.generate_window, "workloads.generate_window"),
        (merge.merge_core_stats, "parallel.merge_core_stats"),
        (report.aggregate, "experiments.aggregate"),
        (campaign.aggregate_campaign, "experiments.aggregate_campaign"),
        (runner.execute_point, "experiments.point"),
    ):
        patches.rebind(original, rec.span(name, original))
    patches.wrap(
        synthetic.TraceGenerator,
        "fast_forward",
        lambda f: rec.span("workloads.fast_forward", f),
    )

    trial = rec.span("experiments.trial", campaign.execute_campaign_point)
    calibration = rec.span("experiments.calibration", campaign.execute_campaign_point)

    def campaign_point(config, *args, **kwargs):
        chosen = trial if config.get("kind") == "trial" else calibration
        return chosen(config, *args, **kwargs)

    patches.rebind(campaign.execute_campaign_point, campaign_point)

    if class_level_inputs:
        memory_wrappers(patches, rec, MemoryHierarchy)
        patches.wrap(
            synthetic.WrongPathGenerator,
            "iter_stream",
            lambda f: wrong_path_wrapper(rec, f),
        )
    return patches
