"""Interval telemetry: a time-series view of one core run.

Every ``CoreParams.telemetry_interval`` cycles the run loop takes one
sample (see ``SuperscalarCore.run``): the **delta** of every tracked
:class:`~repro.core.stats.CoreStats` counter since the previous sample,
plus instantaneous occupancy gauges (window, LSQ, pending checks) and
derived interval rates (IPC, checker slot-steal).  A final flush at run
end covers the partial last interval, so the samples **reconcile exactly**
with the end-of-run aggregates:

    sum(sample[field] for sample in samples) == getattr(stats, field)

for every counter field — pinned by the reconciliation tests.  With cycle
skipping, one sample may cover several interval boundaries (the machine
was provably idle across them); its ``cycles`` span says so.

Sampling only *reads* simulator state — no RNG, no counter writes — so an
instrumented run's :class:`~repro.core.stats.CoreStats` is identical to an
untraced run's, field for field (pinned by the trace-identity tests).
The last few samples double as a flight recorder: a
:class:`~repro.core.sched.DeadlockError` raised with telemetry enabled
carries them, so a hung configuration arrives with its recent history.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.core import SuperscalarCore

#: Serialization version for telemetry JSONL rows.
TELEMETRY_SCHEMA_VERSION = 1

#: CoreStats counter fields sampled as per-interval deltas, in column
#: order.  Sums over all samples equal the end-of-run values exactly.
COUNTER_FIELDS: tuple[str, ...] = (
    "fetched",
    "committed",
    "squashed",
    "primary_slots_used",
    "checker_slots_used",
    "wrong_path_fetched",
    "wrong_path_squashed",
    "wrong_path_slots_used",
    "checks_completed",
    "mem_replays",
    "branch_mispredicts",
    "recoveries",
    "recovery_stall_cycles",
    "faults_detected",
    "mem_order_violations",
    "lsq_full_stalls",
    "checkpoints_taken",
)

#: Samples kept in the deadlock flight recorder.
FLIGHT_RECORDER_DEPTH = 8


class IntervalTelemetry:
    """Delta-sampled time series over one ``run()`` call."""

    __slots__ = (
        "interval",
        "samples",
        "_core",
        "_last",
        "_last_cycle",
        "_last_bank",
        "_next_at",
    )

    def __init__(self, interval: int, core: "SuperscalarCore"):
        if interval <= 0:
            raise ValueError(f"telemetry interval must be positive, got {interval}")
        self.interval = interval
        self.samples: list[dict[str, Any]] = []
        self._core = core
        self._last = dict.fromkeys(COUNTER_FIELDS, 0)
        self._last_cycle = 0
        self._last_bank = 0
        self._next_at = interval

    # -------------------------------------------------------------- sampling

    def next_boundary(self, now: int) -> int:
        """First sampling cycle strictly after ``now``."""
        return (now // self.interval + 1) * self.interval

    def observe(self, now: int) -> None:
        """Per-cycle hook of the core's run loop: sample once ``now`` has
        reached the next boundary.  A cycle skip that jumps several
        boundaries yields one sample spanning the gap (its ``cycles``
        field says so)."""
        if now >= self._next_at:
            self.sample(now)
            self._next_at = self.next_boundary(now)

    def sample(self, now: int) -> None:
        """Record the delta sample ``(last_cycle, now]``.

        Reads counters from the core's stats and occupancy from its
        pipeline structures; writes nothing back, so the simulated
        schedule is untouched.
        """
        core = self._core
        stats = core.stats
        dcycles = now - self._last_cycle
        row: dict[str, Any] = {"cycle": now, "cycles": dcycles}
        last = self._last
        for name in COUNTER_FIELDS:
            value = getattr(stats, name)
            row[name] = value - last[name]
            last[name] = value
        bank_total = 0
        hier_stats = core.hierarchy.stats
        if hier_stats.bank_conflicts:
            bank_total = sum(hier_stats.bank_conflicts) + sum(
                hier_stats.checker_bank_conflicts
            )
        row["bank_conflicts"] = bank_total - self._last_bank
        self._last_bank = bank_total
        # Instantaneous occupancy gauges (not deltas): how full the
        # machine's structures are at the sample instant.
        row["window_occupancy"] = len(core._window)
        row["lsq_occupancy"] = len(core._lsq)
        checker = core.checker
        row["checker_lag"] = checker.pending_checks if checker is not None else 0
        # Derived interval rates.
        issue_slots = dcycles * stats.issue_width
        row["ipc"] = row["committed"] / dcycles if dcycles else 0.0
        row["slot_steal_rate"] = (
            row["checker_slots_used"] / issue_slots if issue_slots else 0.0
        )
        self._last_cycle = now
        self.samples.append(row)

    def finalize(self, now: int) -> None:
        """Flush the trailing partial interval (no-op if already sampled)."""
        if now > self._last_cycle or not self.samples:
            self.sample(now)

    # --------------------------------------------------------------- reading

    def recent_samples(self, depth: int = FLIGHT_RECORDER_DEPTH) -> list[dict[str, Any]]:
        """The last ``depth`` samples (deadlock flight recorder)."""
        return list(self.samples[-depth:])

    def totals(self) -> dict[str, int]:
        """Summed counter deltas — must equal the final CoreStats values."""
        totals = dict.fromkeys(COUNTER_FIELDS, 0)
        for row in self.samples:
            for name in COUNTER_FIELDS:
                totals[name] += row[name]
        return totals

    # --------------------------------------------------------------- outputs

    def write_jsonl(self, path: str | Path, label: str = "core") -> Path:
        """A header line, then one JSON object per sample."""
        path = Path(path)
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            header = {
                "schema": TELEMETRY_SCHEMA_VERSION,
                "kind": "telemetry",
                "label": label,
                "interval": self.interval,
                "samples": len(self.samples),
            }
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for row in self.samples:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        return path

    def counter_events(self, pid: int = 1) -> list[dict[str, Any]]:
        """Chrome ``trace_event`` counter (``ph: C``) series per sample.

        Rendered by Perfetto as stacked counter tracks alongside the
        per-op slices, one timestamp unit per cycle.
        """
        events: list[dict[str, Any]] = []
        for row in self.samples:
            ts = row["cycle"]
            for name in (
                "ipc",
                "window_occupancy",
                "lsq_occupancy",
                "checker_lag",
                "slot_steal_rate",
            ):
                events.append(
                    {
                        "name": name,
                        "ph": "C",
                        "ts": ts,
                        "pid": pid,
                        "tid": 0,
                        "args": {name: row[name]},
                    }
                )
        return events


def render_table(samples: Sequence[dict[str, Any]], label: str = "core") -> str:
    """Fixed-width text table of the telemetry time series."""
    if not samples:
        return f"telemetry[{label}]: (no samples)"
    columns = [
        "cycle",
        "cycles",
        "ipc",
        "committed",
        "fetched",
        "squashed",
        "window_occupancy",
        "lsq_occupancy",
        "checker_lag",
        "primary_slots_used",
        "checker_slots_used",
        "slot_steal_rate",
        "wrong_path_slots_used",
        "bank_conflicts",
        "recoveries",
        "recovery_stall_cycles",
    ]
    headers = {
        "window_occupancy": "window",
        "lsq_occupancy": "lsq",
        "checker_lag": "chk-lag",
        "primary_slots_used": "prim-slots",
        "checker_slots_used": "chk-slots",
        "slot_steal_rate": "steal",
        "wrong_path_slots_used": "wp-slots",
        "bank_conflicts": "bank-conf",
        "recovery_stall_cycles": "rec-stall",
    }

    def _fmt(name: str, value: Any) -> str:
        if name in ("ipc", "slot_steal_rate"):
            return f"{value:.3f}"
        return str(value)

    names = [headers.get(name, name) for name in columns]
    cells = [[_fmt(name, row.get(name, 0)) for name in columns] for row in samples]
    widths = [
        max(len(header), *(len(line[i]) for line in cells))
        for i, header in enumerate(names)
    ]
    out = [f"telemetry[{label}] — one row per sampling interval"]
    out.append("  ".join(name.rjust(width) for name, width in zip(names, widths)))
    out.append("  ".join("-" * width for width in widths))
    for line in cells:
        out.append("  ".join(cell.rjust(width) for cell, width in zip(line, widths)))
    return "\n".join(out)
