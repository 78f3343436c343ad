"""Sweep runner: resume/caching, crash isolation, parallel determinism."""

import pytest

from repro.core.params import CoreParams
from repro.experiments import ResultsStore, SweepSpec, execute_point, run_experiment, run_sweep
from repro.obs import ObsSession
from repro.workloads import preset

#: Small but real: 2 presets x 2 seeds, short traces.
SPEC = SweepSpec(
    name="runner-test",
    presets=["int-heavy", "branchy"],
    seeds=[0, 1],
    ops=300,
    fault_rates=[0.01],
)


def _counts(summary) -> dict:
    """The deterministic part of a summary (timings vary per run)."""
    data = summary.to_dict()
    assert data.pop("wall_seconds") >= 0.0
    assert data.pop("slowest_point_s") >= 0.0
    assert 0.0 <= data.pop("worker_utilization") <= 1.0
    assert data.pop("retried") >= 0
    return data


def test_sweep_executes_every_point_and_resumes_with_zero(tmp_path):
    store = ResultsStore(tmp_path / "r.jsonl")
    seen = []
    summary = run_sweep(SPEC, store, workers=1, progress=lambda i, n, row: seen.append((i, n)))
    assert _counts(summary) == {"total": 4, "cached": 0, "executed": 4, "errors": 0}
    assert summary.slowest_point_s > 0.0  # per-point wall time captured
    assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]
    rows = store.ok_rows()
    assert len(rows) == 4
    for row in rows:
        assert row["result"]["checked"]["faults_injected"] > 0
        assert row["group_hash"]  # grouping key precomputed for reports
    # Second invocation: the store already covers the whole grid.
    again = run_sweep(SPEC, store, workers=1)
    assert _counts(again) == {"total": 4, "cached": 4, "executed": 0, "errors": 0}
    assert len(store.rows()) == 4


def test_partial_store_resumes_only_the_missing_points(tmp_path):
    full = ResultsStore(tmp_path / "full.jsonl")
    run_sweep(SPEC, full, workers=1)
    partial = ResultsStore(tmp_path / "partial.jsonl")
    for row in full.rows()[:3]:
        partial.append(row)
    summary = run_sweep(SPEC, partial, workers=1)
    assert summary.cached == 3 and summary.executed == 1
    assert partial.completed_hashes() == full.completed_hashes()


def test_two_workers_produce_byte_identical_store(tmp_path):
    serial = ResultsStore(tmp_path / "serial.jsonl")
    parallel = ResultsStore(tmp_path / "parallel.jsonl")
    run_sweep(SPEC, serial, workers=1)
    run_sweep(SPEC, parallel, workers=2)
    assert serial.path.read_bytes() == parallel.path.read_bytes()


def test_error_rows_isolate_crashes_and_are_retried(tmp_path):
    good = SPEC.points()[0].config()
    bad = dict(good, preset="exploded")  # fails RunPoint validation in-worker
    row = execute_point(bad)
    assert row["status"] == "error"
    assert "exploded" in row["error"]
    assert row["config"] == bad
    # An error row does not poison resume: the hash stays incomplete.
    store = ResultsStore(tmp_path / "r.jsonl")
    store.append(row)
    assert store.completed_hashes() == set()


def test_execute_point_rows_are_deterministic():
    """Everything but the transport-only keys (wall times, worker pid) is a
    pure function of the config — the property that makes stores
    byte-identical."""
    import os

    from repro.experiments.executor import ELAPSED_KEY, STARTED_KEY, WORKER_KEY

    first = execute_point(SPEC.points()[0].config())
    second = execute_point(SPEC.points()[0].config())
    for row in (first, second):
        assert row.pop(ELAPSED_KEY) > 0.0
        assert row.pop(STARTED_KEY) > 0.0
        assert row.pop(WORKER_KEY) == os.getpid()
    assert first == second


def test_point_timeout_produces_a_retryable_error_row(tmp_path):
    """A hung/slow config becomes an error row naming the budget instead of
    a stuck worker, and resume retries it (its hash stays incomplete)."""
    slow = SweepSpec(
        name="timeout-test", presets=["int-heavy"], seeds=[0], ops=20_000
    )
    store = ResultsStore(tmp_path / "r.jsonl")
    summary = run_sweep(slow, store, workers=1, timeout_s=0.01)
    assert _counts(summary) == {"total": 1, "cached": 0, "executed": 1, "errors": 1}
    (row,) = store.rows()
    assert row["status"] == "error"
    assert "timeout" in row["error"] and "0.01" in row["error"]
    assert "_elapsed_s" not in row  # wall time never reaches the store
    assert store.completed_hashes() == set()  # retried on the next invocation


def test_spec_timeout_field_applies_and_cli_override_wins(tmp_path):
    spec = SweepSpec(
        name="spec-timeout", presets=["int-heavy"], seeds=[0], ops=20_000,
        timeout_s=0.01,
    )
    store = ResultsStore(tmp_path / "spec.jsonl")
    summary = run_sweep(spec, store, workers=1)  # spec field alone trips it
    assert summary.errors == 1
    generous = ResultsStore(tmp_path / "generous.jsonl")
    summary = run_sweep(spec, generous, workers=1, timeout_s=300.0)  # override
    assert _counts(summary) == {"total": 1, "cached": 0, "executed": 1, "errors": 0}


def test_timeout_applies_across_pool_workers(tmp_path):
    """SIGALRM-based budgets work inside multiprocessing workers too."""
    spec = SweepSpec(
        name="pool-timeout", presets=["int-heavy", "branchy"], seeds=[0],
        ops=20_000, timeout_s=0.01,
    )
    store = ResultsStore(tmp_path / "pool.jsonl")
    summary = run_sweep(spec, store, workers=2)
    assert summary.executed == 2 and summary.errors == 2
    assert all("timeout" in row["error"] for row in store.rows())


def test_resumed_sweep_runs_longest_points_first(tmp_path):
    """With a timings sidecar in place, execution order is longest-first."""
    store = ResultsStore(tmp_path / "r.jsonl")
    hashes = [point.config_hash() for point in SPEC.points()]
    # Fabricate a sidecar that ranks the spec's points in reverse spec order.
    store.save_timings({digest: float(i) for i, digest in enumerate(hashes)})
    order = []
    run_sweep(SPEC, store, workers=1,
              progress=lambda i, n, row: order.append(row["config_hash"]))
    assert order == list(reversed(hashes))
    # The sweep replaces the fabricated times with measured ones.
    timings = store.load_timings()
    assert set(timings) == set(hashes)
    assert all(value < 60.0 for value in timings.values())


def test_untimed_points_run_first_in_spec_order(tmp_path):
    """Unknown points lead (they may be the next straggler); known points
    follow longest-first."""
    from repro.experiments.runner import _schedule_pending

    pending = SPEC.points()
    hashes = [point.config_hash() for point in pending]
    timings = {hashes[0]: 1.0, hashes[2]: 5.0}
    ordered = [point.config_hash() for point in _schedule_pending(pending, timings)]
    assert ordered == [hashes[1], hashes[3], hashes[2], hashes[0]]
    # No sidecar: spec order untouched.
    assert _schedule_pending(pending, {}) == pending


def test_scheduling_never_changes_the_store_layout(tmp_path):
    """Store rows stay a pure function of the config: a reordered execution
    produces a byte-identical store once sorted by hash, and a fresh sweep
    (no sidecar) keeps the historical spec-order layout exactly."""
    plain = ResultsStore(tmp_path / "plain.jsonl")
    run_sweep(SPEC, plain, workers=1)
    scheduled = ResultsStore(tmp_path / "scheduled.jsonl")
    hashes = [point.config_hash() for point in SPEC.points()]
    scheduled.save_timings({digest: float(i) for i, digest in enumerate(hashes)})
    run_sweep(SPEC, scheduled, workers=1)
    def key(row):
        return row["config_hash"]

    assert sorted(plain.rows(), key=key) == sorted(scheduled.rows(), key=key)


def test_retries_reexecute_error_rows_to_an_identical_store(tmp_path, monkeypatch):
    """A transient failure (OOM-killed worker, flaky host) heals inside one
    invocation, and the healed store is byte-identical to one that never
    failed — success rows are pure functions of the config."""
    from repro.experiments import config_hash
    from repro.experiments import runner as runner_mod

    real = runner_mod.execute_point
    calls = {"n": 0}

    def flaky(config, timeout_s=None):
        calls["n"] += 1
        if calls["n"] == 1:  # first point, first attempt only
            return {
                "schema": config["schema"],
                "config_hash": config_hash(config),
                "config": config,
                "status": "error",
                "error": "synthetic transient crash",
            }
        return real(config, timeout_s)

    monkeypatch.setattr(runner_mod, "execute_point", flaky)
    store = ResultsStore(tmp_path / "flaky.jsonl")
    summary = run_sweep(SPEC, store, workers=1, retries=2, retry_backoff_s=0.0)
    assert _counts(summary) == {"total": 4, "cached": 0, "executed": 4, "errors": 0}
    assert summary.retried == 1
    monkeypatch.setattr(runner_mod, "execute_point", real)
    clean = ResultsStore(tmp_path / "clean.jsonl")
    run_sweep(SPEC, clean, workers=1)
    assert store.path.read_bytes() == clean.path.read_bytes()


def test_exhausted_retries_keep_the_error_row(tmp_path, monkeypatch):
    """A deterministic failure is not hidden: after ``retries`` attempts the
    error row is stored and the point stays incomplete for the next run."""
    from repro.experiments import config_hash
    from repro.experiments import runner as runner_mod

    attempts = {"n": 0}

    def broken(config, timeout_s=None):
        attempts["n"] += 1
        return {
            "schema": config["schema"],
            "config_hash": config_hash(config),
            "config": config,
            "status": "error",
            "error": "synthetic deterministic crash",
        }

    monkeypatch.setattr(runner_mod, "execute_point", broken)
    spec = SweepSpec(name="retry-test", presets=["int-heavy"], seeds=[0], ops=300)
    store = ResultsStore(tmp_path / "r.jsonl")
    summary = run_sweep(spec, store, workers=1, retries=3, retry_backoff_s=0.0)
    assert summary.errors == 1 and summary.retried == 3
    assert attempts["n"] == 4  # the original attempt plus three retries
    (row,) = store.rows()
    assert row["status"] == "error"
    assert store.completed_hashes() == set()


def test_run_sweep_validates_retry_arguments(tmp_path):
    import pytest

    store = ResultsStore(tmp_path / "r.jsonl")
    with pytest.raises(ValueError):
        run_sweep(SPEC, store, retries=-1)
    with pytest.raises(ValueError):
        run_sweep(SPEC, store, retry_backoff_s=-0.5)


def test_sweep_writes_a_timings_sidecar(tmp_path):
    store = ResultsStore(tmp_path / "r.jsonl")
    summary = run_sweep(SPEC, store, workers=1)
    assert summary.worker_utilization > 0.0
    assert store.timings_path.exists()
    timings = store.load_timings()
    assert set(timings) == {point.config_hash() for point in SPEC.points()}
    # A fully cached re-run executes nothing and leaves the sidecar alone.
    before = store.timings_path.read_bytes()
    again = run_sweep(SPEC, store, workers=1)
    assert again.worker_utilization == 0.0
    assert store.timings_path.read_bytes() == before


def test_run_experiment_rejects_telemetry_without_a_session():
    """Params that ask for interval telemetry used to run the sampler and
    throw its series away, while the result's params claimed it was
    taken; without a session to record it the run is refused."""
    with pytest.raises(ValueError, match="telemetry_interval"):
        run_experiment(preset("branchy"), num_ops=500, params=CoreParams(telemetry_interval=50))
    obs = ObsSession(telemetry_interval=50)
    result = run_experiment(
        preset("branchy"), num_ops=500, params=CoreParams(telemetry_interval=50), obs=obs
    )
    assert result["params"]["telemetry_interval"] == 50
    assert [label for label, _ in obs.telemetries] == ["unchecked", "checked"]
