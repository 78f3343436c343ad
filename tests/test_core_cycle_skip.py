"""Cycle skipping is a pure wall-clock optimization: stats are identical.

The run loop may jump ``now`` over cycles that provably repeat the one
before: an empty ready queue, a fetch stage blocked on a full window or
LSQ or an exhausted wrong-path stream, or a replay-only cycle whose
refused memory retries are charged analytically.  These tests pin the
contract on shortened versions of the committed bench configurations and
on seeded random draws across the knob space, in both unchecked and
checked modes: ``CoreStats.to_dict()`` (memory snapshot included), the
MSHR target stalls and every retired op's replay count must be identical
with skipping on or off, and the skipping run must actually skip.  The
random draws also pin that a run stopped at any cycle boundary, captured
and resumed in a fresh core ends exactly as the uninterrupted run, and
that a core run twice gives the same run twice.
"""

import random
from dataclasses import replace

import pytest

from repro.bench import BENCH_CONFIGS
from repro.core import CheckerParams, CoreParams, SuperscalarCore
from repro.core.params import SLOT_POLICIES, MemDepParams, RecoveryParams
from repro.faults.models import FAULT_MODELS
from repro.memory.hierarchy import HierarchyParams, MemoryHierarchy
from repro.workloads import PRESETS, WrongPathGenerator, generate

NUM_OPS = 3_000
DRAWS = 24

#: Least skipped share of all cycles, per bench config.  On the
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
    )
    hierarchy = MemoryHierarchy(
        HierarchyParams(
            dcache_banks=shape.get("dcache_banks", 1),
            mshr_entries=shape.get("mshr_entries", 32),
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
@pytest.mark.parametrize("config", sorted(set(BENCH_CONFIGS) - {"ci-smoke"}))
def test_skip_is_stat_identical_on_bench_configs(config: str, checked: bool):
    shape = BENCH_CONFIGS[config]
    ticked_core, ticked = _run(shape, cycle_skip=False, checked=checked)
    skipped_core, skipped = _run(shape, cycle_skip=True, checked=checked)
    _assert_identical(ticked_core, ticked, skipped_core, skipped)
    # The contract is only interesting if cycles were actually skipped.
    assert skipped.cycles_skipped > 0
    assert skipped.cycles_skipped >= SKIP_FLOOR.get(config, 0.0) * skipped.cycles


def _draw(index: int) -> dict:
    """One seeded point of the knob space (wrong-path depth 0: not modelled)."""
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


@pytest.mark.parametrize(
    ("seed", "warmup", "checked"), [(3, 1070, False), (6, 197, True)]
)
def test_warm_start_window_is_stat_identical(seed: int, warmup: int, checked: bool):
    """run_window's last warmup cycle never skips: a replay-only boundary
    cycle's repeats belong to the measured window, not to the warmup."""
    shape = {
        **BENCH_CONFIGS["memdep"],
        "mshr_entries": 8,
        "seed": seed,
        "warmup": warmup,
    }
    ticked_core, ticked = _run(shape, cycle_skip=False, checked=checked)
    skipped_core, skipped = _run(shape, cycle_skip=True, checked=checked)
    _assert_identical(ticked_core, ticked, skipped_core, skipped)


def test_cycle_skip_default_on_and_serialized_only_when_off():
    assert CoreParams().cycle_skip
    assert "cycle_skip" not in CoreParams().to_dict()
    data = CoreParams(cycle_skip=False).to_dict()
    assert data["cycle_skip"] is False
    assert not CoreParams.from_dict(data).cycle_skip
