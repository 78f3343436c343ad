"""Pipeline tracer: op rows, instant events, and trace_event export.

The exported timeline must validate against the trace_event schema
committed at ``tests/trace_event.schema.json`` — the same check the CI
obs-smoke job runs via ``python -m repro.obs.validate``.
"""

import json
from pathlib import Path

from repro.core.params import CheckerParams, CoreParams, RecoveryParams
from repro.core.core import SuperscalarCore
from repro.obs import ObsSession, validate_schema, write_trace_event_json
from repro.obs.tracer import OP_TRACE_SCHEMA_VERSION, PipelineTracer, _pack_lanes
from repro.workloads import PRESETS, generate

SCHEMA = json.loads(
    (Path(__file__).parent / "trace_event.schema.json").read_text(encoding="utf-8")
)

#: Every op row carries these keys (extras like replays are conditional).
ROW_KEYS = {
    "seq",
    "pc",
    "op",
    "wrong_path",
    "fetched_at",
    "issued_at",
    "complete_at",
    "check_issued_at",
    "check_complete_at",
    "committed_at",
    "squashed_at",
    "squash_cause",
}


def _traced_run(tracer: PipelineTracer, num_ops: int = 2000) -> SuperscalarCore:
    params = CoreParams(
        checker=CheckerParams(enabled=True, fault_rate=1e-3, fault_seed=1),
        recovery=RecoveryParams(checkpoint_interval=64),
    )
    core = SuperscalarCore(params, tracer=tracer)
    core.run(generate(PRESETS["branchy"], num_ops, seed=0))
    return core


def test_op_rows_cover_commits_and_squashes():
    tracer = PipelineTracer("checked")
    core = _traced_run(tracer)
    stats = core.stats
    rows = tracer.op_rows()
    assert all(ROW_KEYS <= set(row) for row in rows)
    committed = [row for row in rows if row["squashed_at"] is None]
    squashed = [row for row in rows if row["squashed_at"] is not None]
    assert len(committed) == stats.committed
    assert len(squashed) == stats.squashed + stats.wrong_path_squashed
    assert all(row["squash_cause"] is None for row in committed)
    causes = {row["squash_cause"] for row in squashed}
    assert causes <= {"branch_mispredict", "checker_fault", "mem_order_violation"}
    # A faulting branchy run exercises at least misprediction squashes.
    assert "branch_mispredict" in causes


def test_instant_events_cover_recoveries_and_checkpoints():
    tracer = PipelineTracer("checked")
    core = _traced_run(tracer)
    stats = core.stats
    names = [name for name, _, _ in tracer.events]
    assert names.count("checkpoint") == stats.checkpoints_taken
    assert names.count("fault_detected") == stats.faults_detected
    # One recovery event per cause occurrence, matching the per-cause stats.
    for cause, count in stats.recoveries_by_cause.items():
        assert names.count(f"recovery:{cause}") == count
    assert names.count("recovery:checker_fault") == stats.recoveries
    # Detection latency rides on the fault event when both endpoints exist.
    for name, _, args in tracer.events:
        if name == "fault_detected":
            assert args["latency"] is None or args["latency"] >= 0


def test_trace_event_export_validates_against_committed_schema(tmp_path):
    tracer = PipelineTracer("checked")
    _traced_run(tracer)
    path = write_trace_event_json(
        tracer.trace_events(pid=1), tmp_path / "trace.json", {"preset": "branchy"}
    )
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert validate_schema(doc, SCHEMA) == []
    phases = {event["ph"] for event in doc["traceEvents"]}
    assert phases == {"M", "X", "i"}
    assert doc["otherData"] == {"preset": "branchy"}


def test_schema_rejects_malformed_events():
    bad = {
        "traceEvents": [{"name": "x", "ph": "Z", "pid": 1}],
        "displayTimeUnit": "ms",
    }
    errors = validate_schema(bad, SCHEMA)
    assert errors and any("ph" in error for error in errors)
    missing = {"traceEvents": [{"ph": "X", "pid": 1}], "displayTimeUnit": "ms"}
    assert validate_schema(missing, SCHEMA)


def test_lane_packing_separates_overlaps():
    intervals = [(0, 10, {"name": "a"}), (5, 15, {"name": "b"}), (10, 20, {"name": "c"})]
    lanes = _pack_lanes(intervals)
    assert len(lanes) == 2
    # a and c share a lane (a ends exactly when c starts); b overlaps both.
    assert [args["name"] for _, _, args in lanes[0]] == ["a", "c"]
    assert [args["name"] for _, _, args in lanes[1]] == ["b"]


def test_lane_packing_zero_duration_slices_split_lanes():
    intervals = [(5, 5, {"name": "a"}), (5, 5, {"name": "b"})]
    assert len(_pack_lanes(intervals)) == 2


def test_op_jsonl_header_then_rows(tmp_path):
    tracer = PipelineTracer("unchecked")
    _traced_run(tracer, num_ops=500)
    path = tracer.write_op_jsonl(tmp_path / "ops.jsonl")
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    assert header == {
        "schema": OP_TRACE_SCHEMA_VERSION,
        "kind": "op-trace",
        "label": "unchecked",
        "ops": len(lines) - 1,
    }
    for line in lines[1:]:
        row = json.loads(line)
        assert ROW_KEYS <= set(row)


def test_obs_session_merges_cores_and_suffixes_outputs(tmp_path):
    obs = ObsSession(
        trace_out=tmp_path / "trace.json", op_trace_out=tmp_path / "ops.jsonl"
    )
    for label in ("unchecked", "checked"):
        tracer = obs.tracer_for(label)
        assert tracer is not None
        core = SuperscalarCore(CoreParams(), tracer=tracer)
        core.run(generate(PRESETS["int-heavy"], 400, seed=0))
    written = obs.finish(metadata={"ops": 400})
    assert (tmp_path / "trace.json") in written
    assert (tmp_path / "ops.unchecked.jsonl") in written
    assert (tmp_path / "ops.checked.jsonl") in written
    doc = json.loads((tmp_path / "trace.json").read_text(encoding="utf-8"))
    assert validate_schema(doc, SCHEMA) == []
    # One pid per core, both present in the merged timeline.
    assert {event["pid"] for event in doc["traceEvents"]} == {1, 2}


def test_untraced_session_hands_out_no_tracers(tmp_path):
    obs = ObsSession(metrics_out=tmp_path / "m.json")
    assert not obs.wants_tracing
    assert obs.tracer_for("unchecked") is None
    assert obs.span_collector() is None
