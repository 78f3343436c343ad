"""Append-only JSONL results store.

One line per completed (or failed) experiment point, written in canonical
JSON so the same sweep always produces byte-identical files regardless of
worker count.  The store is the sweep's resume state: points whose config
hash already appears with ``status == "ok"`` are skipped on re-runs, while
error rows are retried.

A truncated final line (a crash mid-append) is tolerated on read — the
damaged line is counted in :attr:`ResultsStore.skipped_lines` and the
corresponding point simply re-runs.

Every read parses the file afresh: a sweep or campaign reads its store a
few times (resume checks and its report), never once per point, so a
cache would save little while every append paid to keep it warm.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.experiments.spec import canonical_json


class ResultsStore:
    """JSONL rows keyed by ``config_hash``; append-only by construction."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        #: Lines the last read pass could not parse (corruption from an
        #: interrupted write); the points they held will re-run.
        self.skipped_lines = 0

    def append(self, row: dict[str, Any]) -> None:
        """Write one row and flush — a crashed sweep loses at most one line."""
        if self.path.parent != Path("."):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a+b") as fh:
            # Heal a crash-truncated tail: without this, the new row would
            # concatenate onto the partial line and be lost with it.
            fh.seek(0, 2)
            if fh.tell() > 0:
                fh.seek(-1, 2)
                if fh.read(1) != b"\n":
                    fh.write(b"\n")
            fh.write((canonical_json(row) + "\n").encode("utf-8"))
            fh.flush()

    def rows(self) -> list[dict[str, Any]]:
        """All parseable rows, in append order, parsed from the file now."""
        out: list[dict[str, Any]] = []
        skipped = 0
        if self.path.exists():
            with self.path.open("r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        parsed = json.loads(line)
                    except json.JSONDecodeError:
                        skipped += 1
                        continue
                    if isinstance(parsed, dict):
                        out.append(parsed)
                    else:
                        skipped += 1
        self.skipped_lines = skipped
        return out

    @property
    def timings_path(self) -> Path:
        """Sidecar JSON of per-point wall times (``<store>.timings.json``).

        Kept outside the store itself: rows are a pure function of the
        config (byte-identical across machines and worker counts), wall
        times are neither.  The runner uses it to schedule resumed sweeps
        longest-point-first; losing the file costs only scheduling quality.
        """
        return self.path.with_name(self.path.name + ".timings.json")

    def load_timings(self) -> dict[str, float]:
        """``config_hash -> wall seconds`` last observed (empty when absent)."""
        try:
            parsed = json.loads(self.timings_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return {}
        if not isinstance(parsed, dict):
            return {}
        return {
            key: float(value)
            for key, value in parsed.items()
            if isinstance(key, str) and isinstance(value, (int, float))
        }

    def save_timings(self, timings: dict[str, float]) -> None:
        """Overwrite the sidecar (it is advisory state, not results)."""
        if self.path.parent != Path("."):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self.timings_path.write_text(
            json.dumps(timings, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )

    def ok_rows(self) -> list[dict[str, Any]]:
        """Rows of successfully-completed runs (what reports aggregate)."""
        return [row for row in self.rows() if row.get("status") == "ok"]

    def completed_hashes(self) -> set[str]:
        """Config hashes that never need to run again (errors are retried)."""
        return {
            row["config_hash"]
            for row in self.rows()
            if row.get("status") == "ok" and "config_hash" in row
        }

    def __len__(self) -> int:
        return len(self.rows())
