"""Per-op pipeline tracer: lifecycle records and timeline-viewer export.

The core records every per-op pipeline timestamp it already knows —
``fetched_at``, ``issued_at``, ``complete_at``, ``check_issued_at``,
``check_complete_at``, ``committed_at`` (see
:class:`~repro.core.dynop.DynOp`) — so the tracer does not instrument the
hot stage loops at all.  Instead it hooks the two places an op's record
becomes *final*:

* :meth:`PipelineTracer.op_retired` — called by the commit stage for every
  committed op; and
* :meth:`PipelineTracer.op_squashed` — called by the recovery subsystem
  for every squash victim, carrying the typed
  :class:`~repro.core.recovery.RecoveryCause`.

On top of the per-op rows the recovery path emits **instant events**
(fault detections, recovery squashes with their stall cycles, checkpoint
creations), so a timeline shows *why* occupancy collapsed, not just that
it did.

Two output shapes:

* :meth:`op_rows` / :meth:`write_op_jsonl` — one JSON object per op, the
  machine-readable op trace;
* :meth:`trace_events` / :func:`write_trace_event_json` — Chrome
  ``trace_event`` JSON (the format Perfetto and ``chrome://tracing``
  open), with one timestamp unit = one simulated cycle.  Per-stage slices
  (``frontend``, ``execute``, ``check``) are greedily packed into lanes so
  concurrent ops render side by side instead of overlapping.

With tracing disabled the core holds no tracer and makes no calls — the
null path is the absence of the object, not a no-op object, so the hot
loops pay at most a local ``is not None`` test per committed op.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.dynop import DynOp
    from repro.core.recovery import RecoveryCause

#: Serialization version for op-trace JSONL rows.
OP_TRACE_SCHEMA_VERSION = 1

#: tid bases per stage category; lanes within a category count up from its
#: base, so a window full of in-flight ops still yields distinct lanes.
_STAGE_TID_BASE = {"frontend": 1000, "execute": 2000, "check": 3000}

#: tid carrying the instant (recovery/checkpoint/fault) events.
_EVENTS_TID = 1


class PipelineTracer:
    """Collects finalized per-op lifecycle records plus instant events.

    ``seq_range`` (half-open ``(lo, hi)``) restricts collection to ops
    whose trace sequence number falls in the range — the ``--trace-ops``
    filter that keeps timelines of long runs tractable.  Wrong-path ops
    have their own sequence space, so they are filtered by the
    *mispredicted branch's* seq (``branch_color``): asking for ops
    ``5000:6000`` also shows the wrong-path work those branches spawned.
    Instant events carrying a ``seq`` follow the same rule; events without
    one (they are sparse) are always kept.
    """

    __slots__ = ("label", "ops", "events", "seq_range")

    def __init__(
        self, label: str = "core", seq_range: tuple[int, int] | None = None
    ):
        self.label = label
        self.seq_range = seq_range
        #: Finalized op rows, in retirement/squash order.
        self.ops: list[dict[str, Any]] = []
        #: Instant events: ``(name, cycle, args)`` tuples.
        self.events: list[tuple[str, int, dict[str, Any]]] = []

    def _wants(self, seq: int | None) -> bool:
        if self.seq_range is None or seq is None:
            return True
        lo, hi = self.seq_range
        return lo <= seq < hi

    def _wants_op(self, op: "DynOp") -> bool:
        if self.seq_range is None:
            return True
        return self._wants(op.branch_color if op.wrong_path else op.seq)

    # ------------------------------------------------------------------ hooks

    def op_retired(self, op: "DynOp", now: int) -> None:
        """Commit-stage hook: ``op`` just committed (record is final)."""
        if self._wants_op(op):
            self.ops.append(self._row(op, squashed_at=None, cause=None))

    def op_squashed(self, op: "DynOp", cause: "RecoveryCause", now: int) -> None:
        """Recovery hook: ``op`` was just squashed for ``cause``."""
        if self._wants_op(op):
            self.ops.append(self._row(op, squashed_at=now, cause=cause.value))

    def recovery(self, cause: str, now: int, **detail: Any) -> None:
        """A recovery event fired (redirect scheduled, fault, violation)."""
        if self._wants(detail.get("seq")):
            self.events.append((f"recovery:{cause}", now, dict(detail)))

    def checkpoint(self, seq: int, now: int) -> None:
        """A verified-state checkpoint was taken at commit frontier ``seq``."""
        if self._wants(seq):
            self.events.append(("checkpoint", now, {"seq": seq}))

    def fault_detected(self, op: "DynOp", now: int) -> None:
        """The checker detected a corrupted primary result."""
        if not self._wants(op.seq):
            return
        latency = (
            op.check_complete_at - op.fault_at
            if op.check_complete_at is not None and op.fault_at is not None
            else None
        )
        self.events.append(
            ("fault_detected", now, {"seq": op.seq, "latency": latency})
        )

    def fault_outcome(self, op: "DynOp", outcome: str, now: int) -> None:
        """One injected fault resolved to its terminal taxonomy outcome.

        Emitted by the outcome tracker under every fault model, once per
        injected fault — including the ``detected`` case, whose instant
        this duplicates with the outcome attached.
        """
        if not self._wants(op.seq):
            return
        self.events.append(
            ("fault_outcome", now, {"seq": op.seq, "outcome": outcome})
        )

    # ---------------------------------------------------------------- op rows

    @staticmethod
    def _row(
        op: "DynOp", squashed_at: int | None, cause: str | None
    ) -> dict[str, Any]:
        uop = op.uop
        row: dict[str, Any] = {
            "seq": op.seq,
            "pc": uop.pc,
            "op": uop.op.name,
            "wrong_path": op.wrong_path,
            "fetched_at": op.fetched_at,
            "issued_at": op.issued_at,
            "complete_at": op.complete_at,
            "check_issued_at": op.check_issued_at,
            "check_complete_at": op.check_complete_at,
            "committed_at": op.committed_at,
            "squashed_at": squashed_at,
            "squash_cause": cause,
        }
        if op.replays:
            row["replays"] = op.replays
        if op.corrected:
            row["corrected"] = True
        if op.fault_at is not None:
            row["fault_at"] = op.fault_at
        if op.mispredicted:
            row["mispredicted"] = True
        return row

    def op_rows(self) -> list[dict[str, Any]]:
        """The finalized op records (retirement/squash order)."""
        return list(self.ops)

    def write_op_jsonl(self, path: str | Path) -> Path:
        """One JSON object per line: a header row, then every op row."""
        path = Path(path)
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            header = {
                "schema": OP_TRACE_SCHEMA_VERSION,
                "kind": "op-trace",
                "label": self.label,
                "ops": len(self.ops),
            }
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for row in self.ops:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        return path

    # ----------------------------------------------------------- trace_event

    def trace_events(self, pid: int = 1) -> list[dict[str, Any]]:
        """Chrome ``trace_event`` dicts for this core's ops and events.

        One trace timestamp unit = one simulated cycle.  Slices are packed
        per stage category: within ``frontend``/``execute``/``check``,
        overlapping ops go to separate lanes (tids), so an 8-wide issue
        burst renders as eight parallel slices.
        """
        events: list[dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": self.label},
            },
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": _EVENTS_TID,
                "args": {"name": "events"},
            },
        ]
        slices: dict[str, list[tuple[int, int, dict[str, Any]]]] = {
            "frontend": [],
            "execute": [],
            "check": [],
        }
        for row in self.ops:
            name = f"{row['op']} #{row['seq']}"
            end_of_life = row["squashed_at"] if row["squashed_at"] is not None else row["committed_at"]
            args = {
                "seq": row["seq"],
                "pc": row["pc"],
                "wrong_path": row["wrong_path"],
            }
            if row["squash_cause"]:
                args["squash_cause"] = row["squash_cause"]
            frontend_end = row["issued_at"] if row["issued_at"] is not None else end_of_life
            if frontend_end is not None and frontend_end >= row["fetched_at"]:
                slices["frontend"].append((row["fetched_at"], frontend_end, {"name": name, **args}))
            if row["issued_at"] is not None and row["complete_at"] is not None:
                slices["execute"].append((row["issued_at"], row["complete_at"], {"name": name, **args}))
            if row["check_issued_at"] is not None and row["check_complete_at"] is not None:
                slices["check"].append(
                    (row["check_issued_at"], row["check_complete_at"], {"name": name, **args})
                )
        for stage, intervals in slices.items():
            base = _STAGE_TID_BASE[stage]
            lanes = _pack_lanes(intervals)
            for lane_index, lane in enumerate(lanes):
                tid = base + lane_index
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": tid,
                        "args": {"name": f"{stage}[{lane_index}]"},
                    }
                )
                for start, end, args in lane:
                    name = args.pop("name")
                    events.append(
                        {
                            "name": name,
                            "cat": stage,
                            "ph": "X",
                            "ts": start,
                            "dur": max(end - start, 0),
                            "pid": pid,
                            "tid": tid,
                            "args": args,
                        }
                    )
        for name, cycle, args in self.events:
            events.append(
                {
                    "name": name,
                    "cat": "events",
                    "ph": "i",
                    "s": "p",
                    "ts": cycle,
                    "pid": pid,
                    "tid": _EVENTS_TID,
                    "args": args,
                }
            )
        return events


def _pack_lanes(
    intervals: Iterable[tuple[int, int, dict[str, Any]]],
) -> list[list[tuple[int, int, dict[str, Any]]]]:
    """Greedy interval-graph coloring: first lane whose last slice ended.

    Slices are sorted by start (ties by end); each goes to the first lane
    whose previous slice ends at or before its start.  Zero-duration
    slices still occupy their start cycle so simultaneous events split
    lanes.
    """
    lanes: list[list[tuple[int, int, dict[str, Any]]]] = []
    lane_ends: list[int] = []
    for start, end, args in sorted(intervals, key=lambda item: (item[0], item[1])):
        for index, lane_end in enumerate(lane_ends):
            if lane_end <= start:
                lanes[index].append((start, end, args))
                lane_ends[index] = max(end, start + 1)
                break
        else:
            lanes.append([(start, end, args)])
            lane_ends.append(max(end, start + 1))
    return lanes


def write_trace_event_json(
    events: list[dict[str, Any]], path: str | Path, metadata: dict[str, Any] | None = None
) -> Path:
    """Write a ``trace_event`` JSON object (``{"traceEvents": [...]}``).

    ``metadata`` lands under ``otherData``; ``displayTimeUnit`` is fixed
    to ``ms`` with the convention that one timestamp unit is one simulated
    cycle (or one microsecond for runner spans).
    """
    path = Path(path)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    payload: dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if metadata:
        payload["otherData"] = metadata
    path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
    return path
