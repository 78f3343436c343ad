"""Batched execution: shared traces and baselines, byte-identical stores.

Sweeps and campaigns run points that share inputs back to back in one
batch and compute those inputs once.  Every store must still equal the
store built by running the point executor on one config at a time and
appending its rows, at any worker count and across resume.
"""

import functools
import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import run_experiment
from repro.core.core import SuperscalarCore
from repro.core.params import CheckerParams, CoreParams, MemDepParams, RecoveryParams
from repro.experiments import (
    CampaignSpec,
    ResultsStore,
    SweepSpec,
    execute_campaign_point,
    execute_point,
    run_campaign,
    run_sweep,
)
from repro.experiments.executor import (
    ELAPSED_KEY,
    STARTED_KEY,
    WORKER_KEY,
    execute_batched,
    shared_input,
)
from repro.experiments import campaign
from repro.experiments.runner import _baseline_key
from repro.workloads import preset

#: Fault rate x slot policy varies only the checked core; the checkpoint
#: interval and the seed split the points into 4 baseline groups of 4.
SWEEP = SweepSpec(
    name="batch-test",
    presets=["int-heavy"],
    seeds=[0, 1],
    ops=300,
    fault_rates=[1e-3, 1e-2],
    slot_policies=["opportunistic", "reserved"],
    checkpoint_intervals=[0, 64],
)
GROUPS = len(SWEEP.seeds) * len(SWEEP.checkpoint_intervals)

CAMPAIGN = CampaignSpec(
    name="batch-campaign",
    presets=["int-heavy"],
    fault_models=["address", "checker"],
    trials=6,
    ops=400,
)


def _stored(row: dict) -> dict:
    """``row`` without its transport-only keys, as a store holds it."""
    for key in (ELAPSED_KEY, STARTED_KEY, WORKER_KEY):
        row.pop(key)
    return row


def _append(store: ResultsStore, row: dict) -> dict:
    store.append(_stored(row))
    return row


@pytest.fixture(scope="module")
def sweep_reference(tmp_path_factory) -> bytes:
    """The sweep store built one ``execute_point`` row at a time."""
    store = ResultsStore(tmp_path_factory.mktemp("sweep") / "reference.jsonl")
    for point in SWEEP.points():
        assert _append(store, execute_point(point.config()))["status"] == "ok"
    return store.path.read_bytes()


@pytest.fixture(scope="module")
def campaign_reference(tmp_path_factory) -> bytes:
    """The campaign store built one ``execute_campaign_point`` row at a time."""
    store = ResultsStore(tmp_path_factory.mktemp("campaign") / "reference.jsonl")
    eligible = {}
    for cell in CAMPAIGN.cells():
        row = _append(store, execute_campaign_point(CAMPAIGN.calibration_config(*cell)))
        eligible[cell] = row["result"]["eligible"]
    for cell in CAMPAIGN.cells():
        for trial in range(CAMPAIGN.trials):
            config = CAMPAIGN.trial_config(*cell, trial, eligible[cell])
            assert _append(store, execute_campaign_point(config))["status"] == "ok"
    return store.path.read_bytes()


def _truncated_copy(path, reference: bytes, keep: int) -> ResultsStore:
    store = ResultsStore(path)
    store.path.write_bytes(b"".join(reference.splitlines(keepends=True)[:keep]))
    return store


def test_checkpoint_intervals_split_the_baseline_groups():
    configs = [point.config() for point in SWEEP.points()]
    assert len({_baseline_key(config) for config in configs}) == GROUPS


@pytest.mark.parametrize("workers", [1, 3])
def test_sweep_store_equals_the_point_at_a_time_store(tmp_path, sweep_reference, workers):
    store = ResultsStore(tmp_path / "sweep.jsonl")
    summary = run_sweep(SWEEP, store, workers=workers)
    assert summary.executed == len(SWEEP.points()) and summary.errors == 0
    assert store.path.read_bytes() == sweep_reference


@pytest.mark.parametrize("workers", [1, 3])
def test_sweep_resumed_mid_group_equals_the_point_at_a_time_store(
    tmp_path, sweep_reference, workers
):
    keep = 5
    configs = [point.config() for point in SWEEP.points()]
    stored = {_baseline_key(config) for config in configs[:keep]}
    assert stored & {_baseline_key(config) for config in configs[keep:]}  # a split group
    store = _truncated_copy(tmp_path / "sweep.jsonl", sweep_reference, keep)
    summary = run_sweep(SWEEP, store, workers=workers)
    assert summary.cached == keep and summary.executed == len(configs) - keep
    assert store.path.read_bytes() == sweep_reference


@pytest.mark.parametrize("workers", [1, 3])
def test_campaign_store_equals_the_point_at_a_time_store(
    tmp_path, campaign_reference, workers
):
    store = ResultsStore(tmp_path / "campaign.jsonl")
    summary = run_campaign(CAMPAIGN, store, workers=workers)
    assert summary.errors == 0
    assert store.path.read_bytes() == campaign_reference
    resumed = _truncated_copy(tmp_path / "resumed.jsonl", campaign_reference, 7)
    summary = run_campaign(CAMPAIGN, resumed, workers=workers)
    assert summary.cached == 7 and summary.trials_executed == 2 * CAMPAIGN.trials - 5
    assert resumed.path.read_bytes() == campaign_reference


def test_a_sweep_runs_one_trace_and_one_baseline_per_group(tmp_path, monkeypatch):
    from repro.experiments import runner

    traces, runs = [], []
    generate, run = runner.generate, SuperscalarCore.run

    def counted_generate(*args, **kwargs):
        traces.append(args)
        return generate(*args, **kwargs)

    def counted_run(core, trace, *args, **kwargs):
        runs.append(core.params.checker.enabled)
        return run(core, trace, *args, **kwargs)

    monkeypatch.setattr(runner, "generate", counted_generate)
    monkeypatch.setattr(SuperscalarCore, "run", counted_run)
    run_sweep(SWEEP, ResultsStore(tmp_path / "sweep.jsonl"), workers=1)
    assert len(traces) == GROUPS
    assert runs.count(False) == GROUPS
    assert runs.count(True) == len(SWEEP.points())


def test_a_campaign_batch_generates_its_trace_once(tmp_path, monkeypatch):
    traces = []
    generate = campaign.generate

    def counted_generate(*args, **kwargs):
        traces.append(args)
        return generate(*args, **kwargs)

    monkeypatch.setattr(campaign, "generate", counted_generate)
    run_campaign(CAMPAIGN, ResultsStore(tmp_path / "campaign.jsonl"), workers=1)
    assert len(traces) == 2  # one batch for the calibrations, one for the trials


def _log_call(log_dir: Path, config: dict) -> None:
    with open(log_dir / f"{os.getpid()}.log", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(config) + "\n")


def _probe(log_dir: Path, config: dict, timeout_s: float | None) -> dict:
    """A point executor that logs each call to its process's file, in order."""
    _log_call(log_dir, config)
    return {"i": config["i"]}


def _campaign_probe(log_dir: Path, config: dict, timeout_s: float | None) -> dict:
    _log_call(log_dir, config)
    return execute_campaign_point(config, timeout_s)


def _calls(log_dir: Path) -> list[list[dict]]:
    """Every process's calls, in the order it made them."""
    return [
        [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        for log in sorted(log_dir.glob("*.log"))
    ]


#: Three share groups; the sites are distinct and out of config order.
PROBE_CONFIGS = [{"i": i, "group": i % 3, "site": 19 * i % 100} for i in range(60)]


@pytest.mark.parametrize("cut", [0, 25], ids=["fresh", "resumed-mid-group"])
@pytest.mark.parametrize("workers", [1, 3])
def test_batches_run_in_the_callers_order_and_rows_come_in_config_order(
    tmp_path, workers, cut
):
    configs = PROBE_CONFIGS[cut:]  # a resumed run passes what the store lacks
    rows = execute_batched(
        functools.partial(_probe, tmp_path),
        configs,
        lambda config: config["group"],
        workers,
        None,
        order=lambda config: config["site"],
    )
    assert [row["i"] for row in rows] == [config["i"] for config in configs]
    calls = _calls(tmp_path)
    assert sorted(c["i"] for process in calls for c in process) == [c["i"] for c in configs]
    for process in calls:
        for group in range(3):
            sites = [c["site"] for c in process if c["group"] == group]
            assert sites == sorted(sites)
    if workers == 1:
        # One batch: the groups back to back in order of first appearance.
        groups = list(dict.fromkeys(config["group"] for config in configs))
        assert [c["group"] for c in calls[0]] == sorted(
            (c["group"] for c in configs), key=groups.index
        )


@pytest.mark.parametrize("workers", [1, 3])
def test_a_campaign_runs_its_trials_by_model_and_site(
    tmp_path, monkeypatch, campaign_reference, workers
):
    monkeypatch.setattr(
        campaign, "execute_campaign_point", functools.partial(_campaign_probe, tmp_path)
    )
    store = _truncated_copy(tmp_path / "campaign.jsonl", campaign_reference, 7)
    run_campaign(CAMPAIGN, store, workers=workers)
    assert store.path.read_bytes() == campaign_reference
    for process in _calls(tmp_path):
        trials = [
            (c["fault_model"], c["force_fault_index"])
            for c in process
            if c["kind"] == "trial"
        ]
        assert trials == sorted(trials)
    if workers == 1:  # ... which is not the config order the rows come in
        (process,) = _calls(tmp_path)
        executed = [(c["fault_model"], c["trial"]) for c in process if c["kind"] == "trial"]
        assert executed != sorted(executed)


def test_every_unchecked_input_keys_the_shared_baseline():
    """Back to back in one batch, points that differ in any input the
    unchecked core reads each get their own trace and baseline."""
    base = SWEEP.points()[0]
    variants = [
        dict(),
        dict(checkpoint_interval=64),
        dict(checkpoint_interval=64, checkpoint_overhead=3),
        dict(memdep=True),
        dict(memdep=True, dcache_banks=2),
        dict(memdep=True, dcache_banks=2, store_alias_fraction=0.25),
        dict(wrong_path_depth=16),
        dict(wrong_path=False),
        dict(real_predictor=True),
        dict(issue_width=4),
        dict(fu_counts=(("FALU", 1), ("FMUL", 1), ("IALU", 4), ("IMUL", 1))),
        dict(seed=5),
        dict(ops=200),
    ]
    configs = [replace(base, **change).config() for change in variants]
    batched = list(execute_batched(execute_point, configs, lambda config: 0, 1, None))
    for config, row in zip(configs, batched):
        assert _stored(row) == _stored(execute_point(config)), config


def test_shared_input_computes_every_time_outside_a_batch():
    calls = []

    def compute() -> int:
        calls.append(None)
        return len(calls)

    assert [shared_input("trace", "key", compute) for _ in range(2)] == [1, 2]


@pytest.mark.parametrize("preset_name", ["int-heavy", "memory-bound"])
def test_checker_fields_do_not_reach_the_unchecked_baseline(preset_name):
    """What the baseline groups rely on: points that differ only in a
    checker field get identical unchecked stats from the per-point path."""
    machine = dict(
        memdep=MemDepParams(enabled=True),
        recovery=RecoveryParams(checkpoint_interval=64),
    )
    variants = [
        (0.0, CheckerParams()),
        (1e-2, CheckerParams()),
        (1e-2, CheckerParams(slot_policy="reserved", reserved_slots=3)),
        (1e-2, CheckerParams(fault_model="address")),
        (1e-2, CheckerParams(recovery_penalty=40)),
    ]
    results = [
        run_experiment(
            preset(preset_name),
            num_ops=600,
            seed=3,
            fault_rate=rate,
            params=CoreParams(checker=checker, **machine),
            dcache_banks=2,
            store_alias_fraction=0.25,
        )
        for rate, checker in variants
    ]
    assert all(result["unchecked"] == results[0]["unchecked"] for result in results)
    # The variants are live: the checked core does see them.
    assert len({repr(result["checked"]) for result in results}) > 1
