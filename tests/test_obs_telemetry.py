"""Interval telemetry: exact reconciliation with the final CoreStats.

The telemetry contract is *delta* sampling: each sample holds the change
in every tracked counter since the previous sample, plus a final flush at
run end — so the column sums equal the end-of-run aggregates exactly, not
approximately.  The sampler runs the core from outside, through its
``stop`` hook: the core itself imports nothing from ``repro.obs``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.params import CheckerParams, CoreParams, MemDepParams, RecoveryParams
from repro.core.core import SuperscalarCore
from repro.core.sched import DeadlockError
from repro.obs.telemetry import (
    COUNTER_FIELDS,
    FLIGHT_RECORDER_DEPTH,
    TELEMETRY_SCHEMA_VERSION,
    IntervalTelemetry,
    render_table,
)
from repro.workloads import PRESETS, generate


def _run_with_telemetry(interval: int, preset: str = "branchy", num_ops: int = 3000):
    params = CoreParams(
        checker=CheckerParams(enabled=True, fault_rate=1e-3, fault_seed=1),
        memdep=MemDepParams(enabled=True),
        recovery=RecoveryParams(checkpoint_interval=64),
    )
    telemetry = IntervalTelemetry(interval, SuperscalarCore(params))
    stats = telemetry.run(generate(PRESETS[preset], num_ops, seed=0))
    return telemetry, stats


@pytest.mark.parametrize("interval", [64, 333, 1000, 10_000_000])
def test_counter_deltas_sum_exactly_to_final_stats(interval):
    telemetry, stats = _run_with_telemetry(interval)
    totals = telemetry.totals()
    for name in COUNTER_FIELDS:
        assert totals[name] == getattr(stats, name), name
    # The sampled cycle spans tile the whole run: no gap, no overlap.
    assert sum(row["cycles"] for row in telemetry.samples) == stats.cycles


def test_samples_are_monotonic_and_aligned():
    telemetry, stats = _run_with_telemetry(250)
    samples = telemetry.samples
    cycles = [row["cycle"] for row in samples]
    assert cycles == sorted(cycles)
    assert len(set(cycles)) == len(cycles)
    # Each sample crosses at least one interval boundary (cycle skipping
    # may overshoot a boundary, or span several in one sample).
    previous = 0
    for row in samples[:-1]:
        assert row["cycle"] // 250 > previous // 250
        previous = row["cycle"]
    assert samples[-1]["cycle"] == stats.cycles


def test_gauges_and_rates_present():
    telemetry, _ = _run_with_telemetry(200)
    for row in telemetry.samples:
        assert row["window_occupancy"] >= 0
        assert row["lsq_occupancy"] >= 0
        assert row["checker_lag"] >= 0
        assert row["ipc"] >= 0.0
        assert 0.0 <= row["slot_steal_rate"] <= 1.0
    # The machine drained by run end.
    assert telemetry.samples[-1]["window_occupancy"] == 0


def test_single_giant_interval_degenerates_to_one_flush_sample():
    telemetry, stats = _run_with_telemetry(10_000_000)
    samples = telemetry.samples
    assert len(samples) == 1
    assert samples[0]["cycle"] == stats.cycles
    assert samples[0]["committed"] == stats.committed


def test_write_jsonl_header_then_samples(tmp_path):
    telemetry, _ = _run_with_telemetry(500)
    path = telemetry.write_jsonl(tmp_path / "tel.jsonl", "checked")
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    assert header["schema"] == TELEMETRY_SCHEMA_VERSION
    assert header["kind"] == "telemetry"
    assert header["label"] == "checked"
    assert header["interval"] == 500
    assert header["samples"] == len(lines) - 1
    assert [json.loads(line) for line in lines[1:]] == telemetry.samples


def test_counter_events_track_per_sample_gauges():
    telemetry, _ = _run_with_telemetry(500)
    events = telemetry.counter_events(pid=3)
    assert len(events) == 5 * len(telemetry.samples)
    assert all(event["ph"] == "C" and event["pid"] == 3 for event in events)


def test_render_table_has_a_row_per_sample():
    telemetry, _ = _run_with_telemetry(500)
    table = render_table(telemetry.samples, "checked")
    # Title + header + rule + one line per sample.
    assert len(table.splitlines()) == 3 + len(telemetry.samples)
    assert "telemetry[checked]" in table
    assert render_table([], "x") == "telemetry[x]: (no samples)"


def test_interval_must_be_positive():
    core = SuperscalarCore(CoreParams())
    with pytest.raises(ValueError):
        IntervalTelemetry(0, core)


def test_a_deadlocked_run_raises_with_the_flight_recorder():
    """The core's own report, then the sampler's last samples: the first
    seven at interval boundaries (cycle skipping overshoots some), the
    last the flush at the cycle the guard tripped."""
    trace = generate(PRESETS["int-heavy"], 3000, seed=0)
    with pytest.raises(DeadlockError) as plain:
        SuperscalarCore(CoreParams()).run(trace, max_cycles=1500)
    assert plain.value.samples == []
    telemetry = IntervalTelemetry(40, SuperscalarCore(CoreParams()))
    with pytest.raises(DeadlockError) as caught:
        telemetry.run(trace, max_cycles=1500)
    samples = caught.value.samples
    assert samples == telemetry.samples[-FLIGHT_RECORDER_DEPTH:]
    assert [row["cycle"] for row in samples] == [960, 1087, 1120, 1160, 1303, 1323, 1370, 1501]
    report, recorder = str(caught.value).split("\nflight recorder", 1)
    assert report == str(plain.value)
    assert report.startswith("simulation exceeded 1500 cycles with ")
    lines = recorder.splitlines()
    assert lines[0] == f" (last {FLIGHT_RECORDER_DEPTH} telemetry samples):"
    assert [json.loads(line) for line in lines[1:]] == samples
    # The samples up to the guard still tile every simulated cycle.
    assert sum(row["cycles"] for row in telemetry.samples) == 1501


def test_the_core_and_the_experiments_load_no_observability_module():
    """A fresh interpreter, so no other test's imports count."""
    code = (
        "import sys, repro.core.core, repro.experiments; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.obs')))"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[]"


def test_deadlock_error_carries_flight_recorder_samples():
    plain = DeadlockError("stuck")
    assert plain.samples == []
    samples = [{"cycle": 100, "committed": 0}]
    loaded = DeadlockError("stuck", samples=samples)
    assert loaded.samples == samples
