"""Sharded runner: window planning, warm-start windows, exactness contract.

The load-bearing claim: ``--shards 1`` is bit-identical to the monolithic
path, on a short checked run and on a 100k-op big-core run, and
``--shards N`` merges to a complete result whose op accounting reconciles
with the monolithic budget.  On the big core, 4 shards must also keep the
merged IPC within 1% of the monolithic run, detect every fault, and (on a
host with 4 CPUs) run at least 2.5x faster than ``--shards 1``.
"""

import copy
import functools
import json
import os
import time
from pathlib import Path

import pytest

from repro.cli import main, run_experiment
from repro.core.core import SuperscalarCore
from repro.core.params import CheckerParams, CoreParams
from repro.obs import ObsSession, validate_schema
from repro.parallel import plan_shards, run_sharded_experiment
from repro.workloads import PRESETS, WrongPathGenerator, generate

BRANCHY = PRESETS["branchy"]
TRACE_SCHEMA = json.loads(
    (Path(__file__).parent / "trace_event.schema.json").read_text(encoding="utf-8")
)


# ------------------------------------------------------------- plan_shards


def test_plan_shards_partitions_the_budget():
    windows = plan_shards(10_001, 4, warmup=2_000)
    assert [w.length for w in windows] == [2501, 2500, 2500, 2500]
    assert windows[0].start == 0
    for prev, curr in zip(windows, windows[1:]):
        assert curr.start == prev.start + prev.length
    assert sum(w.length for w in windows) == 10_001


def test_plan_shards_clips_warmup_to_available_prefix():
    windows = plan_shards(4_000, 4, warmup=2_000)
    assert [w.warmup for w in windows] == [0, 1_000, 2_000, 2_000]
    assert [w.fetch_start for w in windows] == [0, 0, 0, 1_000]


def test_plan_shards_more_shards_than_ops():
    windows = plan_shards(3, 8, warmup=100)
    assert sum(w.length for w in windows) == 3
    assert [w.length for w in windows] == [1, 1, 1, 0, 0, 0, 0, 0]


def test_plan_shards_validates_inputs():
    with pytest.raises(ValueError):
        plan_shards(100, 0, warmup=0)
    with pytest.raises(ValueError):
        plan_shards(100, 2, warmup=-1)
    with pytest.raises(ValueError):
        plan_shards(-5, 2, warmup=0)


# -------------------------------------------------------------- run_window


def test_run_window_zero_warmup_equals_run():
    trace = generate(BRANCHY, 1_500, seed=0)
    params = CoreParams(model_wrong_path=False)
    plain = SuperscalarCore(params).run(trace)
    windowed = SuperscalarCore(params).run_window(trace, warmup_ops=0)
    assert windowed.to_dict() == plain.to_dict()


def test_run_window_measures_only_past_the_boundary():
    trace = generate(BRANCHY, 2_000, seed=0)
    params = CoreParams(model_wrong_path=False)
    stats = SuperscalarCore(params).run_window(trace, warmup_ops=500)
    full = SuperscalarCore(params).run(trace)
    # The boundary is commit-aligned: the warmup loop stops on the first
    # commit batch reaching 500, overshooting by at most commit_width.
    warmup_committed = full.committed - stats.committed
    assert 500 <= warmup_committed <= 500 + params.commit_width
    assert 0 < stats.cycles < full.cycles


@pytest.mark.parametrize(
    ("model", "seed"),
    [("transient", 6), ("transient", 7), ("intermittent", 3), ("stuck-fu", 4), ("address", 3)],
)
def test_run_window_counts_faults_live_at_the_boundary(model: str, seed: int):
    """A fault injected during warmup but resolved after the boundary is
    the window's: it counts as injected there, so outcomes still add up."""
    params = CoreParams(
        checker=CheckerParams(
            enabled=True, fault_rate=1e-2, fault_seed=seed + 1, fault_model=model
        )
    )
    core = SuperscalarCore(
        params, wrong_path_source=WrongPathGenerator(BRANCHY, seed=seed).iter_stream
    )
    stats = core.run_window(generate(BRANCHY, 4_000, seed=seed), warmup_ops=2_000)
    assert sum(stats.fault_outcomes.values()) == stats.faults_injected > 0


# ------------------------------------------------- run_sharded_experiment


#: The MEEK-style big core (arXiv:2504.01347): a 1,024-entry window with
#: 512-op wrong paths, on a 100k-op branchy trace.
BIG_CORE = dict(
    num_ops=100_000,
    seed=0,
    check=True,
    wrong_path_depth=512,
    params=CoreParams(window_size=1024, wrong_path_depth=512),
)
SHARDS = 4
SHARD_WARMUP = 5_000
#: The monolithic-vs-sharded inputs, fault-free unless they say otherwise.
INPUTS = {
    "branchy-3000": dict(num_ops=3_000, seed=0, check=True, fault_rate=1e-3),
    "big-core": dict(BIG_CORE, fault_rate=0.0),
}
#: Largest merged-IPC error 4 big-core shards may show against the
#: monolithic run, in either mode.  Measured fault-free: fault arrival
#: depends on the schedule, which a shard cannot replay, so recovery cost
#: stays out of the accuracy gate and detection is gated on its own.
IPC_TOLERANCE = 0.01
#: Least wall-clock speedup of 4 shards over ``--shards 1``.
MIN_SPEEDUP = 2.5


def _timed(name: str, shards: int) -> tuple[float, dict]:
    """(wall seconds, result) of one run of an input; 0 shards is the
    monolithic run."""
    started = time.perf_counter()
    if shards:
        result = run_sharded_experiment(
            BRANCHY, shards=shards, warmup=SHARD_WARMUP, **INPUTS[name]
        )
    else:
        result = run_experiment(BRANCHY, **INPUTS[name])
    return time.perf_counter() - started, result


@pytest.fixture(scope="module")
def first_run():
    """Each (input, shards)'s first run, made once and shared by the gates."""
    return functools.cache(_timed)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_shards_1_is_bit_identical_to_monolithic(name, first_run):
    _, mono = first_run(name, 0)
    _, sharded = first_run(name, 1)
    assert json.dumps(sharded, sort_keys=True) == json.dumps(mono, sort_keys=True)


def test_big_core_shards_merge_to_the_monolithic_ipc(first_run):
    _, mono = first_run("big-core", 0)
    _, merged = first_run("big-core", SHARDS)
    for mode in ("unchecked", "checked"):
        error = abs(merged[mode]["ipc"] - mono[mode]["ipc"]) / mono[mode]["ipc"]
        assert error <= IPC_TOLERANCE, mode


def test_big_core_shards_detect_every_fault():
    result = run_sharded_experiment(
        BRANCHY, shards=SHARDS, warmup=SHARD_WARMUP, fault_rate=1e-4, **BIG_CORE
    )
    assert result["checked"]["faults_injected"] > 0
    assert result["fault_coverage"] == 1.0


def test_big_core_shards_run_faster_than_one(first_run):
    cpus = os.cpu_count() or 1
    if cpus < SHARDS:
        pytest.skip(f"speedup ungated: {cpus} CPUs, fewer than {SHARDS} shards")
    wall_1 = min(first_run("big-core", 1)[0], _timed("big-core", 1)[0])
    wall_n = min(first_run("big-core", SHARDS)[0], _timed("big-core", SHARDS)[0])
    assert wall_1 / wall_n >= MIN_SPEEDUP


def test_multi_shard_run_reconciles_the_op_budget():
    result = run_sharded_experiment(
        BRANCHY,
        num_ops=6_000,
        seed=0,
        shards=3,
        warmup=500,
        check=True,
        fault_rate=0.0,
        workers=1,
    )
    sharding = result["sharding"]
    assert sharding["shards"] == 3
    assert sharding["retries"] == 0 and sharding["fallbacks"] == 0
    assert [w["start"] for w in sharding["windows"]] == [0, 2_000, 4_000]
    committed = result["unchecked"]["committed"]
    # Each shard's commit-aligned boundary may overshoot its warmup by up
    # to commit_width, shaving that many ops off the measured window.
    overshoot = 3 * CoreParams().commit_width
    assert 6_000 - overshoot <= committed <= 6_000
    assert result["unchecked"]["cycles"] > 0
    assert result["fault_coverage"] == 1.0
    assert "checked" in result and "slowdown" in result


def test_sharded_result_has_run_experiment_shape():
    mono = run_experiment(BRANCHY, num_ops=1_000, seed=1, check=True)
    sharded = run_sharded_experiment(
        BRANCHY, num_ops=1_000, seed=1, shards=2, warmup=100, check=True, workers=1
    )
    assert set(sharded) == set(mono) | {"sharding"}
    assert set(sharded["unchecked"]) == set(mono["unchecked"])
    assert set(sharded["checked"]) == set(mono["checked"])
    assert sharded["params"] == mono["params"]


@pytest.mark.parametrize("shards", [1, 2])
def test_sharded_run_rejects_a_telemetry_interval(shards):
    """run_experiment records a session's telemetry.  A sharded run used
    to drop it silently, and to fail a warm shard only after the others
    ran when the params asked for it; it refuses both up front."""
    with pytest.raises(ValueError, match="telemetry_interval"):
        run_sharded_experiment(
            BRANCHY, num_ops=2_000, shards=shards, obs=ObsSession(telemetry_interval=200)
        )
    with pytest.raises(ValueError, match="telemetry_interval"):
        run_sharded_experiment(
            BRANCHY, num_ops=2_000, shards=shards, params=CoreParams(telemetry_interval=200)
        )


def test_sharded_fault_detection_is_preserved():
    result = run_sharded_experiment(
        BRANCHY,
        num_ops=8_000,
        seed=0,
        shards=4,
        warmup=500,
        check=True,
        fault_rate=1e-3,
        workers=1,
    )
    checked = result["checked"]
    assert checked["faults_injected"] > 0
    assert (
        checked["faults_detected"] + checked["faults_squashed"]
        == checked["faults_injected"]
    )
    assert result["fault_coverage"] == 1.0


# ------------------------------------------------------ the pooled fan-out

#: A sharded run's host fields: everything else is a function of its inputs.
HOST_FIELDS = ("wall_s", "workers", "host_cpus")


def _without_host_fields(result: dict) -> dict:
    result = copy.deepcopy(result)
    sharding = result["sharding"]
    for key in HOST_FIELDS:
        del sharding[key]
    for window in sharding["windows"]:
        del window["wall_s"]
    return result


def test_pooled_shards_merge_exactly_as_in_process_ones():
    """A shard runs the same simulation in a pool worker as in this process."""
    kwargs = dict(num_ops=3_000, seed=2, shards=3, warmup=300, fault_rate=2e-3)
    in_process = run_sharded_experiment(BRANCHY, workers=1, **kwargs)
    pooled = run_sharded_experiment(BRANCHY, workers=3, **kwargs)
    assert pooled["sharding"]["workers"] == 3
    assert pooled["checked"]["faults_injected"] > 0
    assert _without_host_fields(pooled) == _without_host_fields(in_process)


def _recording_run_window(monkeypatch) -> list[tuple[str, list[dict], int]]:
    """Record each traced ``run_window`` made in this process: its tracer's
    label, its op rows and its total cycles (warmup included)."""
    real = SuperscalarCore.run_window
    windows = []

    def run_window(self, trace, warmup_ops, max_cycles=None):
        stats = real(self, trace, warmup_ops, max_cycles)
        windows.append((self.tracer.label, list(self.tracer.ops), self._now))
        return stats

    monkeypatch.setattr(SuperscalarCore, "run_window", run_window)
    return windows


def _traced_two_shards(tmp_path, workers: int) -> ObsSession:
    obs = ObsSession(trace_out=tmp_path / f"trace{workers}.json")
    run_sharded_experiment(
        BRANCHY, num_ops=3_000, shards=2, warmup=300, fault_rate=1e-3,
        workers=workers, obs=obs,
    )
    return obs


def test_traced_shards_get_one_lane_each_in_run_order(tmp_path, monkeypatch):
    """Each (mode, shard) gets its own tracer, whose op stamps are the
    shard's own shifted by the total cycles of the shards before it; a
    pool hosts the same lanes, and the timeline validates."""
    windows = _recording_run_window(monkeypatch)
    in_process = _traced_two_shards(tmp_path, workers=1)
    monkeypatch.undo()
    labels = ["unchecked.shard0", "unchecked.shard1", "checked.shard0", "checked.shard1"]
    assert [tracer.label for tracer in in_process.tracers] == labels
    # Shards run in order, each simulating its unchecked core, then its
    # checked one.
    assert [label for label, _, _ in windows] == ["unchecked", "checked"] * 2
    for mode in ("unchecked", "checked"):
        offset = 0
        for shard, (_, rows, cycles) in enumerate(w for w in windows if w[0] == mode):
            hosted = in_process.tracers[labels.index(f"{mode}.shard{shard}")]
            assert rows and len(hosted.ops) == len(rows)
            for local, shifted in zip(rows, hosted.ops):
                for key, value in local.items():
                    moved = key.endswith("_at") and value is not None
                    assert shifted[key] == (value + offset if moved else value)
            offset += cycles
    pooled = _traced_two_shards(tmp_path, workers=2)
    assert [tracer.label for tracer in pooled.tracers] == labels
    for hosted, same in zip(in_process.tracers, pooled.tracers):
        assert (same.ops, same.events) == (hosted.ops, hosted.events)
    pooled.finish()
    doc = json.loads((tmp_path / "trace2.json").read_text(encoding="utf-8"))
    assert validate_schema(doc, TRACE_SCHEMA) == []
    lanes = [e["args"]["name"] for e in doc["traceEvents"] if e["name"] == "process_name"]
    assert lanes == labels


# ---------------------------------------------------------- failed shards


def _failing_run_window(monkeypatch, fails) -> list[int]:
    """Make ``SuperscalarCore.run_window`` raise on each call for which
    ``fails(calls)`` holds; ``calls`` lists the ``warmup_ops`` of every
    call made in this process, the current one last.  A pool forked after
    the patch inherits it, with its own ``calls``."""
    real = SuperscalarCore.run_window
    calls = []

    def run_window(self, trace, warmup_ops, max_cycles=None):
        calls.append(warmup_ops)
        if fails(calls):
            raise MemoryError(f"synthetic failure at warmup_ops={warmup_ops}")
        return real(self, trace, warmup_ops, max_cycles)

    monkeypatch.setattr(SuperscalarCore, "run_window", run_window)
    return calls


def _two_shards(workers: int):
    """Two unchecked shards: shard 0 runs with no warmup, shard 1 with 100."""
    return run_sharded_experiment(
        BRANCHY, num_ops=1_200, shards=2, warmup=100, check=False, workers=workers
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failed_shard_is_rerun_here_and_merges_as_a_clean_run(monkeypatch, workers):
    """Shard 1's first attempt fails, in this process at 1 worker and in a
    pool worker at 2; the run re-runs it once, in this process."""
    clean = _two_shards(workers)
    here = os.getpid()

    def first_attempt_at_shard_1(calls):
        if workers == 1:  # this process makes both attempts
            return calls == [0, 100]
        return calls[-1] == 100 and os.getpid() != here

    calls = _failing_run_window(monkeypatch, first_attempt_at_shard_1)
    result = _two_shards(workers)
    assert calls == ([0, 100, 100] if workers == 1 else [100])
    assert result["sharding"]["retries"] == result["sharding"]["fallbacks"] == 1
    assert result["unchecked"] == clean["unchecked"]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_shard_that_fails_again_fails_the_run_naming_every_shard(monkeypatch, workers):
    calls = _failing_run_window(monkeypatch, lambda calls: True)
    with pytest.raises(RuntimeError) as excinfo:
        _two_shards(workers)
    # One re-run of each shard here, after a first attempt here or in a pool.
    assert calls == ([0, 100, 0, 100] if workers == 1 else [0, 100])
    message = str(excinfo.value)
    assert message.startswith("2 shard(s) failed")
    for warmup in (0, 100):
        assert f"MemoryError: synthetic failure at warmup_ops={warmup}" in message
    assert "shard 0: Traceback" in message and "shard 1: Traceback" in message


def test_a_single_shard_run_makes_one_attempt(monkeypatch):
    """``--shards 1`` is the monolithic run: a failure is not re-run."""
    calls = _failing_run_window(monkeypatch, lambda calls: True)
    with pytest.raises(RuntimeError, match="1 shard\\(s\\) failed"):
        run_sharded_experiment(BRANCHY, num_ops=1_000, shards=1, check=False)
    assert calls == [0]


# --------------------------------------------------------------------- CLI


def test_cli_sharded_run_reports_sharding(capsys):
    exit_code = main(
        ["run", "--preset", "branchy", "--ops", "2000", "--check",
         "--shards", "2", "--shard-warmup", "200", "--json"]
    )
    assert exit_code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["sharding"]["shards"] == 2
    assert result["sharding"]["warmup_ops"] == 200
    assert len(result["sharding"]["windows"]) == 2


def test_cli_sharded_text_report_mentions_sharding(capsys):
    main(["run", "--preset", "branchy", "--ops", "2000", "--shards", "2"])
    assert "sharding:" in capsys.readouterr().out


def test_cli_rejects_bad_shard_arguments(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--shards", "0"])
    with pytest.raises(SystemExit):
        main(["run", "--shards", "2", "--shard-warmup", "-1"])
    with pytest.raises(SystemExit):
        main(["run", "--shards", "2", "--telemetry-interval", "100"])
    # Shard knobs without shards would be dropped silently.
    for flag, value in (("--shard-warmup", "100"), ("--shard-workers", "3")):
        with pytest.raises(SystemExit):
            main(["run", "--shards", "1", flag, value])
        assert f"{flag} requires --shards > 1" in capsys.readouterr().err


def test_cli_trace_ops_requires_a_trace_output():
    with pytest.raises(SystemExit):
        main(["run", "--trace-ops", "0:100"])
    with pytest.raises(SystemExit):
        main(["run", "--op-trace-out", "x.jsonl", "--trace-ops", "100:50"])


def test_cli_trace_ops_filters_op_trace(tmp_path, capsys):
    out = tmp_path / "ops.jsonl"
    exit_code = main(
        ["run", "--preset", "int-heavy", "--ops", "1500",
         "--op-trace-out", str(out), "--trace-ops", "200:300"]
    )
    assert exit_code == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()][1:]
    assert rows
    assert all(200 <= row["seq"] < 300 for row in rows if not row["wrong_path"])
