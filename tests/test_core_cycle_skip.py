"""Cycle skipping is a pure wall-clock optimization: stats are identical.

The run loop may jump ``now`` over cycles that provably repeat the one
before: an empty ready queue, a fetch stage blocked on a full window or
LSQ or an exhausted wrong-path stream, or a replay-only cycle whose
refused memory retries are charged analytically.  These tests pin the
contract on five machine shapes and on seeded random draws across the
knob space, in both unchecked and
checked modes: ``CoreStats.to_dict()`` (memory snapshot included), the
MSHR target stalls and every retired op's replay count must be identical
with skipping on or off, no event may be left in the wheel for a cycle
the run has passed, and the skipping run must actually skip.  The
random draws also pin that a run stopped at any cycle boundary, captured
and resumed in a fresh core ends exactly as the uninterrupted run, that a
core run twice gives the same run twice, and that each draw's outputs
equal the digest recorded for it in ``tests/golden/knob_draws.json``.
"""

import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import CheckerParams, CoreParams, SuperscalarCore
from repro.core.params import SLOT_POLICIES, MemDepParams, RecoveryParams
from repro.faults.models import FAULT_MODELS
from repro.isa.opcodes import FUClass
from repro.memory.hierarchy import HierarchyParams, MemoryHierarchy
from repro.workloads import PRESETS, WrongPathGenerator, generate

NUM_OPS = 3_000
DRAWS = 24

#: sha256 of each random draw's outputs (see :func:`_knob_digest`).
KNOB_DIGESTS = Path(__file__).parent / "golden" / "knob_draws.json"

#: ``CoreParams`` fields a shape may set directly; absent keys keep the
#: Table 1 defaults.
CORE_KNOBS = (
    "fetch_width",
    "issue_width",
    "commit_width",
    "frontend_depth",
    "use_real_predictor",
    "model_icache",
    "fu_counts",
)

#: The machine shapes the contract is pinned on, each on a 3,000-op
#: trace: the paper's Table 1 machine; the MEEK-style big core
#: (arXiv:2504.01347), with a 1,024-entry window and deep wrong paths; the
#: memory-bound replay storm with the full memory-dependence subsystem, 4
#: D-cache banks and aliasing stores; the Table 1 machine with
#: verified-state checkpoints; and the big core measured behind a warm-up
#: prefix, as every shard after the first runs.  Absent keys take the
#: branchy preset, no memdep, one bank, no aliasing and no checkpoints.
SHAPES: dict[str, dict] = {
    "table1": {"window_size": 128, "wrong_path_depth": 64},
    "big-core": {"window_size": 1024, "wrong_path_depth": 512},
    "memdep": {
        "window_size": 128,
        "wrong_path_depth": 64,
        "preset": "memory-bound",
        "memdep": True,
        "dcache_banks": 4,
        "store_alias_fraction": 0.25,
    },
    "checkpoint": {
        "window_size": 128,
        "wrong_path_depth": 64,
        "checkpoint_interval": 64,
        "checkpoint_overhead": 1,
    },
    "sharded": {"window_size": 1024, "wrong_path_depth": 512, "warmup": 1_500},
}

#: Least skipped share of all cycles, per shape.  On the
#: memory-bound replay storm most cycles only retry refused accesses; those
#: are skipped too (about 0.8 of all cycles, against 0.04 when only empty
#: ready-queue cycles were).
SKIP_FLOOR = {"memdep": 0.6}


def _trace(shape: dict):
    profile = PRESETS[shape.get("preset", "branchy")]
    if shape.get("store_alias_fraction"):
        profile = replace(profile, store_alias_fraction=shape["store_alias_fraction"])
    return generate(profile, NUM_OPS, seed=shape.get("seed", 0))


def _core(shape: dict, cycle_skip: bool, checker: CheckerParams) -> SuperscalarCore:
    profile = PRESETS[shape.get("preset", "branchy")]
    depth = shape["wrong_path_depth"]
    params = CoreParams(
        window_size=shape["window_size"],
        model_wrong_path=depth > 0,
        wrong_path_depth=depth or 64,
        checker=checker,
        memdep=MemDepParams(
            enabled=bool(shape.get("memdep")),
            lsq_size=shape.get("lsq_size", 64),
            ssit_decay_cycles=shape.get("ssit_decay_cycles", 0),
        ),
        recovery=RecoveryParams(
            checkpoint_interval=shape.get("checkpoint_interval", 0),
            checkpoint_overhead=shape.get("checkpoint_overhead", 1),
        ),
        cycle_skip=cycle_skip,
        record_retired=True,
        **{key: shape[key] for key in CORE_KNOBS if key in shape},
    )
    hierarchy = MemoryHierarchy(
        HierarchyParams(
            dcache_banks=shape.get("dcache_banks", 1),
            mshr_entries=shape.get("mshr_entries", 32),
            **shape.get("latencies", {}),
        )
    )
    return SuperscalarCore(
        params,
        hierarchy=hierarchy,
        wrong_path_source=WrongPathGenerator(profile, seed=shape.get("seed", 0)).iter_stream,
    )


def _checker(shape: dict, fault_rate: float) -> CheckerParams:
    return CheckerParams(
        enabled=True,
        fault_rate=fault_rate,
        fault_seed=shape.get("seed", 0) + 1,
        fault_model=shape.get("fault_model", "transient"),
        slot_policy=shape.get("slot_policy", "opportunistic"),
    )


def _run(shape: dict, cycle_skip: bool, checked: bool):
    checker = _checker(shape, 1e-3) if checked else CheckerParams(enabled=False, fault_rate=0.0)
    core = _core(shape, cycle_skip, checker)
    return core, core.run_window(_trace(shape), shape.get("warmup", 0))


def _assert_identical(ticked_core, ticked, skipped_core, skipped) -> None:
    # The wheel invariant: every event was posted for a cycle still ahead,
    # so no bucket is left behind the run's last cycle.
    for core in (ticked_core, skipped_core):
        assert all(cycle >= core._now for cycle in core._wheel._due)
    assert skipped.to_dict() == ticked.to_dict()
    assert skipped.cycles == ticked.cycles
    # Outside to_dict: the MSHR merge-target stalls and per-op retries.
    assert (
        skipped_core.hierarchy.mshrs.target_stalls
        == ticked_core.hierarchy.mshrs.target_stalls
    )
    assert [op.replays for op in skipped_core.retired] == [
        op.replays for op in ticked_core.retired
    ]
    assert ticked.cycles_skipped == 0


@pytest.mark.parametrize("checked", [False, True], ids=["unchecked", "checked"])
@pytest.mark.parametrize("config", sorted(SHAPES))
def test_skip_is_stat_identical_on_bench_configs(config: str, checked: bool):
    shape = SHAPES[config]
    ticked_core, ticked = _run(shape, cycle_skip=False, checked=checked)
    skipped_core, skipped = _run(shape, cycle_skip=True, checked=checked)
    _assert_identical(ticked_core, ticked, skipped_core, skipped)
    # The contract is only interesting if cycles were actually skipped.
    assert skipped.cycles_skipped > 0
    assert skipped.cycles_skipped >= SKIP_FLOOR.get(config, 0.0) * skipped.cycles


def _draw(index: int) -> dict:
    """One seeded point of the knob space (wrong-path depth 0: not modelled).

    Keys are drawn in a fixed order, and new knobs are appended, so the
    earlier keys keep their values.
    """
    rng = random.Random(index)
    return {
        "seed": index,
        "preset": rng.choice(sorted(PRESETS)),
        "memdep": rng.random() < 0.75,
        "dcache_banks": rng.choice([1, 2, 4, 8]),
        "store_alias_fraction": rng.choice([0.0, 0.25, 0.6]),
        "window_size": rng.choice([32, 64, 128, 256]),
        "wrong_path_depth": rng.choice([0, 16, 64, 256]),
        "fault_model": rng.choice(FAULT_MODELS),
        "slot_policy": rng.choice(SLOT_POLICIES),
        "checkpoint_interval": rng.choice([0, 16, 64]),
        "ssit_decay_cycles": rng.choice([0, 500]),
        "lsq_size": rng.choice([8, 16, 64]),
        "mshr_entries": rng.choice([8, 16, 32]),
        "fetch_width": rng.choice([2, 4, 8]),
        "issue_width": rng.choice([4, 8]),
        "commit_width": rng.choice([2, 4, 8]),
        "frontend_depth": rng.choice([0, 0, 2, 5]),
        "use_real_predictor": rng.random() < 0.3,
        "model_icache": rng.random() < 0.8,
        "fu_counts": (
            {FUClass.IALU: 4, FUClass.IMUL: 1, FUClass.FALU: 1, FUClass.FMUL: 1}
            if rng.random() < 0.5
            else CoreParams().fu_counts
        ),
    }


@pytest.mark.parametrize("index", range(DRAWS))
def test_skip_is_stat_identical_on_random_configs(index: int):
    shape = _draw(index)
    checked = index % 2 == 1
    ticked_core, ticked = _run(shape, cycle_skip=False, checked=checked)
    skipped_core, skipped = _run(shape, cycle_skip=True, checked=checked)
    _assert_identical(ticked_core, ticked, skipped_core, skipped)


@pytest.mark.parametrize("index", range(DRAWS))
def test_resuming_a_captured_run_is_stat_identical_on_random_configs(index: int):
    """A fault-free checked run captured at a seeded cycle boundary and
    resumed in a fresh core ends exactly as the uninterrupted run."""
    shape = _draw(index)
    trace = _trace(shape)
    whole = _core(shape, True, _checker(shape, 0.0)).run(trace)
    boundary = random.Random(f"capture-{index}").randrange(1, whole.cycles)
    leader = _core(shape, True, _checker(shape, 0.0))
    leader.begin(trace)
    assert leader.advance(lambda: leader._now >= boundary)
    resumed = _core(shape, True, _checker(shape, 0.0))
    assert resumed.run(trace, start=leader.capture()).to_dict() == whole.to_dict()


@pytest.mark.parametrize("index", range(DRAWS))
def test_rerunning_the_same_core_is_stat_identical_on_random_configs(index: int):
    """A core run twice on the same trace gives the same run twice: no
    state of the first run (the hierarchy's in-flight misses and pending
    fills, the event wheel) leaks into the second."""
    shape = _draw(index)
    core, first = _run(shape, cycle_skip=True, checked=index % 2 == 1)
    second = core.run(_trace(shape))
    assert second.to_dict() == first.to_dict()
    assert second.cycles_skipped == first.cycles_skipped
    assert second.sched_events == first.sched_events


def _assert_every_fault_resolved(stats) -> None:
    """Each injected fault has one outcome: the outcomes sum to the
    injections under every model, and a transient fault's outcome is its
    detection or its squash."""
    assert sum(stats.fault_outcomes.values()) == stats.faults_injected
    if not stats.fault_model_enabled:
        assert stats.fault_outcomes["detected"] == stats.faults_detected
        assert stats.fault_outcomes["squashed"] == stats.faults_squashed
        assert stats.faults_detected + stats.faults_squashed == stats.faults_injected


def _knob_digest(index: int) -> str:
    """sha256 of draw ``index``'s unchecked and checked ``to_dict()``, of
    the skipped cycles and posted events that ``to_dict()`` leaves out, and
    of every retired op's replay count in both runs.  The checked run must
    also resolve every fault it injected."""
    shape = _draw(index)
    runs = []
    for checked in (False, True):
        core, stats = _run(shape, cycle_skip=True, checked=checked)
        if checked:
            _assert_every_fault_resolved(stats)
        runs.append(
            {
                "stats": stats.to_dict(),
                "cycles_skipped": stats.cycles_skipped,
                "sched_events": stats.sched_events,
                "replays": [op.replays for op in core.retired],
            }
        )
    return hashlib.sha256(json.dumps(runs, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("index", range(DRAWS))
def test_random_configs_match_their_pinned_digests(index: int):
    """Each draw's outputs equal the ones recorded in ``KNOB_DIGESTS``, so
    the knobs no golden cell varies (the three widths, front-end depth,
    the real predictor, the I-cache model, FU counts) are pinned too, and
    each draw's checked run resolves every fault it injected."""
    pinned = json.loads(KNOB_DIGESTS.read_text(encoding="utf-8"))
    assert _knob_digest(index) == pinned[index]


@pytest.mark.parametrize(
    ("seed", "warmup", "checked"), [(3, 1070, False), (6, 197, True)]
)
def test_warm_start_window_is_stat_identical(seed: int, warmup: int, checked: bool):
    """run_window's last warmup cycle never skips: a replay-only boundary
    cycle's repeats belong to the measured window, not to the warmup."""
    shape = {
        **SHAPES["memdep"],
        "mshr_entries": 8,
        "seed": seed,
        "warmup": warmup,
    }
    ticked_core, ticked = _run(shape, cycle_skip=False, checked=checked)
    skipped_core, skipped = _run(shape, cycle_skip=True, checked=checked)
    _assert_identical(ticked_core, ticked, skipped_core, skipped)


def test_the_smallest_accepted_latencies_complete_and_skip_identically():
    """An L1 hit at latency 1 wakes its consumers on the next cycle; with
    free L2 and memory a miss is as fast as a hit.  (At L1 latency 0, which
    ``HierarchyParams`` refuses, this run deadlocked.)"""
    shape = {
        **SHAPES["memdep"],
        "seed": 3,
        "latencies": {"l1_latency": 1, "l2_latency": 0, "mem_latency": 0},
    }
    for checked in (False, True):
        ticked_core, ticked = _run(shape, cycle_skip=False, checked=checked)
        skipped_core, skipped = _run(shape, cycle_skip=True, checked=checked)
        _assert_identical(ticked_core, ticked, skipped_core, skipped)
        assert skipped.committed == NUM_OPS and skipped.cycles_skipped > 0


def test_cycle_skip_default_on_and_serialized_only_when_off():
    assert CoreParams().cycle_skip
    assert "cycle_skip" not in CoreParams().to_dict()
    data = CoreParams(cycle_skip=False).to_dict()
    assert data["cycle_skip"] is False
    assert not CoreParams.from_dict(data).cycle_skip


if __name__ == "__main__":
    # Re-record the pinned digests, only for a change that declares a
    # model change: PYTHONPATH=src python tests/test_core_cycle_skip.py
    digests = [_knob_digest(index) for index in range(DRAWS)]
    KNOB_DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
