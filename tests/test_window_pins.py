"""Warm-start windows and shard merges, pinned by two sha256 digests.

Every ``CoreStats`` field crosses a warm-start boundary and a shard merge
by the rule it declares (``repro.core.stats``).  The merged result of a
sharded run can hide a wrong boundary rule (a dict reset to a fresh
default holds the same counts), so the windows are pinned on their own:

* ``WINDOW_SHA256``: ``SuperscalarCore.run_window(...).to_dict()`` of the
  checked core on each shape of :data:`WINDOWS`, serialized unsorted, so
  the key order of every dict is pinned too;
* ``MERGE_SHA256``: ``run_sharded_experiment(workers=1)`` on each run of
  :data:`SHARDED`, without the host-dependent ``sharding`` fields.

Each shape also asserts the rule it is there for, so a shape that stops
exercising it fails on its own.  ``PYTHONPATH=src python
tests/test_window_pins.py`` prints both digests of the tree it runs on.
Record new ones only for a change that declares a model change.
"""

import hashlib
import json

from repro.core.core import SuperscalarCore
from repro.core.params import CheckerParams, CoreParams, MemDepParams, RecoveryParams
from repro.experiments.runner import core_hierarchy
from repro.parallel import run_sharded_experiment
from repro.workloads import PRESETS, WrongPathGenerator, generate

WINDOW_SHA256 = "9ed30bfde3b451a296955afdc608ac7bd967a66fae715332088db493bdc54fed"
MERGE_SHA256 = "00311d26b00c47b09932aa8946413d42e68fb5f1381ec95a0ab7b814251868ae"


def _false_alarms(stats) -> int:
    return stats.recoveries_by_cause.get("checker_false_alarm", 0)


#: name -> (preset, ops, warmup, seed, checker model, fault rate,
#: checkpoint interval, memdep decay cycles or None, D-cache banks, the
#: rule the shape exercises).
WINDOWS = {
    # Keyed counts: all five outcome keys, false alarms in the window.
    "checker": (
        "int-heavy", 5_000, 1_500, 0, "checker", 5e-3, 32, None, 1,
        lambda s: _false_alarms(s) == 18 and len(s.fault_outcomes) == 5,
    ),
    # Keyed counts: a false-alarm key inserted during warm-up stays, at 0.
    "checker-warmup-only": (
        "int-heavy", 4_000, 2_000, 2, "checker", 3e-4, 32, None, 1,
        lambda s: "checker_false_alarm" in s.squashed_by_cause and _false_alarms(s) == 0,
    ),
    # Buckets and maxima: the rollback-distance histogram and maximum.
    "intermittent": (
        "branchy", 5_000, 1_500, 0, "intermittent", 5e-3, 16, None, 1,
        lambda s: s.rollback_distance_hist and s.rollback_distance_max > 0,
    ),
    # Store-set decays and the banked hierarchy's counters.
    "memdep-decay": (
        "memory-bound", 5_000, 1_500, 0, "transient", 2e-3, 64, 500, 4,
        lambda s: s.ssit_decays > 0 and s.memory["checker_bank_conflicts"] > 0,
    ),
    # Faults that bypass the checker: SDC outcomes, per-bank lists.
    "address": (
        "memory-bound", 5_000, 1_500, 0, "address", 5e-3, 0, None, 2,
        lambda s: s.fault_outcomes["sdc"] > 0 and len(s.memory["bank_conflicts_per_bank"]) == 2,
    ),
    # The detection-latency reservoir and the transient invariant.
    "transient": (
        "branchy", 5_000, 1_500, 0, "transient", 5e-3, 0, None, 1,
        lambda s: s.detection_latencies
        and s.faults_detected + s.faults_squashed == s.faults_injected,
    ),
}


def _window(name: str):
    preset, ops, warmup, seed, model, rate, interval, decay, banks, _ = WINDOWS[name]
    profile = PRESETS[preset]
    params = CoreParams(
        checker=CheckerParams(
            enabled=True, fault_rate=rate, fault_seed=seed + 1, fault_model=model
        ),
        memdep=MemDepParams(enabled=decay is not None, ssit_decay_cycles=decay or 0),
        recovery=RecoveryParams(checkpoint_interval=interval),
    )
    core = SuperscalarCore(
        params,
        hierarchy=core_hierarchy(banks),
        wrong_path_source=WrongPathGenerator(profile, seed=seed).iter_stream,
    )
    return core.run_window(generate(profile, ops, seed=seed), warmup)


#: Each run's ``run_sharded_experiment`` arguments.
SHARDED = [
    # Three shards: stuck-fu faults, memdep with decay, 4 banks, checkpoints.
    dict(
        preset="memory-bound",
        num_ops=6_000,
        shards=3,
        warmup=1_000,
        fault_rate=2e-3,
        dcache_banks=4,
        params=CoreParams(
            checker=CheckerParams(fault_model="stuck-fu"),
            memdep=MemDepParams(enabled=True, ssit_decay_cycles=500),
            recovery=RecoveryParams(checkpoint_interval=64),
        ),
    ),
    # Two shards: checker-model false alarms with checkpoints.
    dict(
        preset="int-heavy",
        num_ops=8_000,
        shards=2,
        warmup=1_500,
        fault_rate=5e-3,
        params=CoreParams(
            checker=CheckerParams(fault_model="checker"),
            recovery=RecoveryParams(checkpoint_interval=32),
        ),
    ),
]


def _sharded(run: dict) -> dict:
    kwargs = dict(run)
    result = run_sharded_experiment(PRESETS[kwargs.pop("preset")], workers=1, **kwargs)
    sharding = result["sharding"]
    for key in ("wall_s", "host_cpus", "workers"):
        del sharding[key]
    for window in sharding["windows"]:
        del window["wall_s"]
    return result


def _digest(rows: list) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def window_digest() -> str:
    rows = []
    for name, shape in WINDOWS.items():
        stats = _window(name)
        assert shape[-1](stats), f"window shape {name!r} no longer exercises its rule"
        rows.append(stats.to_dict())
    return _digest(rows)


def merge_digest() -> str:
    results = [_sharded(run) for run in SHARDED]
    decays = results[0]["checked"]["ssit_decays"]
    assert decays > 0 and results[0]["checked"]["faults_injected"] > 0
    checked = results[1]["checked"]
    assert checked["recoveries_by_cause"]["checker_false_alarm"] > 0
    assert sum(checked["fault_outcomes"].values()) == checked["faults_injected"]
    return _digest(results)


def test_warm_start_windows_are_pinned():
    assert window_digest() == WINDOW_SHA256


def test_shard_merges_are_pinned():
    assert merge_digest() == MERGE_SHA256


if __name__ == "__main__":
    print(f'WINDOW_SHA256 = "{window_digest()}"')
    print(f'MERGE_SHA256 = "{merge_digest()}"')
