"""Fault-model / recovery interactions: every fault ends as one outcome.

Hand-written traces pin the scenarios the taxonomy must distinguish:
a fault flushed by an unrelated (or older-fault) squash is SQUASHED, a
checker-side fault on a clean op is a FALSE_ALARM that replays clean, a
silent fault overwritten unconsumed is MASKED, and a silent fault that
reaches memory or survives the run is SDC — resolved before ``run()``
returns, even when the faulty op is in the final commit group.
"""

import gc
import random

import pytest

from repro.core import CheckerParams, CoreParams, RecoveryParams, SuperscalarCore
from repro.core.dynop import DynOp
from repro.faults import FAULT_MODELS
from repro.isa import MicroOp, OpClass
from repro.workloads import PRESETS, generate

FULL_OUTCOMES = ("detected", "squashed", "masked", "sdc", "false_alarm")


def _checked_params(**checker_knobs) -> CoreParams:
    return CoreParams(
        model_wrong_path=False,
        checker=CheckerParams(enabled=True, fault_rate=0.0, **checker_knobs),
    )


def _silent_seed() -> int:
    """A fault seed whose first locus draw lands past the AGU (silent)."""
    return next(s for s in range(100) if random.Random(s).random() < 0.5)


def _visible_seed() -> int:
    return next(s for s in range(100) if random.Random(s).random() >= 0.5)


def _assert_invariant(stats) -> None:
    assert set(stats.fault_outcomes) == set(FULL_OUTCOMES)
    assert sum(stats.fault_outcomes.values()) == stats.faults_injected


# ------------------------------------------- older detection squashes younger


def test_fault_on_a_later_squashed_op_resolves_squashed_not_detected():
    """An intermittent burst corrupts two ops; detecting the older one
    squashes the younger *while still faulty*, so its corruption never
    reached architectural state and must not inflate detection counts."""
    params = _checked_params(
        fault_model="intermittent", fault_burst=2, force_fault_index=0
    )
    trace = [MicroOp(op=OpClass.IALU, dest=reg) for reg in range(1, 9)]
    core = SuperscalarCore(params)
    stats = core.run(trace)
    assert stats.faults_injected == 2
    assert stats.fault_outcomes == {
        "detected": 1, "squashed": 1, "masked": 0, "sdc": 0, "false_alarm": 0,
    }
    # The burst is spent and the forced index consumed: the replayed ops
    # re-execute clean and the whole trace commits.
    assert stats.committed == len(trace)
    assert stats.recoveries == 1
    _assert_invariant(stats)


# --------------------------------------- stuck FU across a checkpoint rollback


def test_stuck_fu_window_spanning_checkpoint_rollbacks_keeps_the_invariant():
    """A broken unit stays broken across rollback-based recoveries: the
    replayed ops can re-corrupt (or false-alarm) on the same unit until
    repair, and every one of those events still resolves exactly once."""
    params = CoreParams(
        model_wrong_path=False,
        recovery=RecoveryParams(checkpoint_interval=32),
        checker=CheckerParams(
            enabled=True,
            fault_rate=0.0,
            fault_model="stuck-fu",
            fault_repair_cycles=100,
            force_fault_index=0,
        ),
    )
    trace = generate(PRESETS["int-heavy"], 800, seed=0)
    core = SuperscalarCore(params)
    stats = core.run(trace)
    assert stats.checkpointing_enabled
    assert stats.faults_injected >= 1
    assert stats.fault_outcomes["detected"] >= 1
    assert stats.recoveries >= 1
    assert stats.committed == len(trace)
    _assert_invariant(stats)


# ----------------------------------------------------- checker-side false alarm


def test_checker_fault_false_alarm_recovers_and_replays_clean():
    params = _checked_params(fault_model="checker", force_fault_index=0)
    trace = [MicroOp(op=OpClass.IALU, dest=reg) for reg in range(1, 7)]
    core = SuperscalarCore(params)
    stats = core.run(trace)
    assert stats.faults_injected == 1
    assert stats.fault_outcomes == {
        "detected": 0, "squashed": 0, "masked": 0, "sdc": 0, "false_alarm": 1,
    }
    # The spurious miscompare is a recovery with its own cause — it is
    # availability loss, never a detection.
    assert stats.recoveries == 1
    assert stats.recoveries_by_cause["checker_false_alarm"] == 1
    assert stats.faults_detected == 0
    # The replayed check draws a fresh eligibility index past the forced
    # one, so the second pass is clean and everything commits.
    assert stats.committed == len(trace)
    _assert_invariant(stats)


# ------------------------------------------------------------ masking vs. SDC


def test_silent_fault_overwritten_before_any_consumer_is_masked():
    params = _checked_params(
        fault_model="address", force_fault_index=0, fault_seed=_silent_seed()
    )
    trace = [
        MicroOp(op=OpClass.LOAD, dest=1, addr=0x40),  # silent data-path fault
        MicroOp(op=OpClass.IALU, dest=1),  # overwrites r1, never read it
        MicroOp(op=OpClass.IALU, dest=2),
    ]
    stats = SuperscalarCore(params).run(trace)
    assert stats.faults_injected == 1
    assert stats.fault_outcomes["masked"] == 1
    assert stats.fault_outcomes["sdc"] == 0
    assert stats.committed == len(trace)
    _assert_invariant(stats)


def test_silent_fault_with_a_consumer_is_sdc_even_when_overwritten():
    params = _checked_params(
        fault_model="address", force_fault_index=0, fault_seed=_silent_seed()
    )
    trace = [
        MicroOp(op=OpClass.LOAD, dest=1, addr=0x40),  # silent data-path fault
        MicroOp(op=OpClass.IALU, dest=2, srcs=(1,)),  # consumes the bad value
        MicroOp(op=OpClass.IALU, dest=1),  # overwrite comes too late
    ]
    stats = SuperscalarCore(params).run(trace)
    assert stats.faults_injected == 1
    assert stats.fault_outcomes["sdc"] == 1
    assert stats.fault_outcomes["masked"] == 0
    _assert_invariant(stats)


# ------------------------------------------------------- final-commit-group op


def test_fault_in_the_final_commit_group_resolves_before_run_returns():
    """A silent fault on the last op has no younger commit to overwrite it
    and no consumer: only the end-of-run sweep can resolve it, and it
    must (as SDC) before ``run()`` hands the stats back."""
    params = _checked_params(
        fault_model="address", force_fault_index=0, fault_seed=_silent_seed()
    )
    trace = [
        MicroOp(op=OpClass.IALU, dest=1),
        MicroOp(op=OpClass.IALU, dest=2),
        MicroOp(op=OpClass.LOAD, dest=3, addr=0x40),  # last op, silent fault
    ]
    stats = SuperscalarCore(params).run(trace)
    assert stats.committed == len(trace)
    assert stats.faults_injected == 1
    assert stats.fault_outcomes["sdc"] == 1
    assert stats.recoveries == 0
    _assert_invariant(stats)


def test_agu_stage_address_fault_is_detected_like_a_transient():
    params = _checked_params(
        fault_model="address", force_fault_index=0, fault_seed=_visible_seed()
    )
    trace = [
        MicroOp(op=OpClass.IALU, dest=1),
        MicroOp(op=OpClass.LOAD, dest=2, addr=0x40),  # AGU fault: checker sees it
        MicroOp(op=OpClass.IALU, dest=3),
    ]
    stats = SuperscalarCore(params).run(trace)
    assert stats.faults_injected == 1
    assert stats.fault_outcomes["detected"] == 1
    assert stats.recoveries == 1
    assert stats.committed == len(trace)
    _assert_invariant(stats)


# ------------------------------------------------- one tracker, no op records


def _live_dynops() -> int:
    gc.collect()
    return sum(type(obj) is DynOp for obj in gc.get_objects())


@pytest.mark.parametrize("model", FAULT_MODELS)
def test_no_dynop_outlives_its_run(model: str):
    """The outcome tracker keeps no record of each fault: once ``run()``
    returns, the thousands of ops a high fault rate corrupts and squashes
    are garbage, under every model (the checker model at rate 0.5, since at
    1.0 no op ever commits)."""
    params = CoreParams(
        checker=CheckerParams(
            enabled=True,
            fault_model=model,
            fault_rate=0.5 if model == "checker" else 1.0,
            fault_seed=4,
        )
    )
    trace = generate(PRESETS["int-heavy"], 2_000, seed=3)
    before = _live_dynops()
    core = SuperscalarCore(params)
    stats = core.run(trace)
    _assert_invariant(stats)
    assert stats.faults_injected > 1_000
    # The core is still alive: only stale entries of its kernel queues
    # could hold ops, and never more than a window's worth.
    assert _live_dynops() - before <= core.params.window_size


@pytest.mark.parametrize("model", FAULT_MODELS)
def test_only_models_whose_faults_can_go_silent_get_the_per_op_hooks(model: str):
    """Every checked core resolves its faults through one tracker, but the
    issue and commit hooks run only where a fault can pass its check."""
    core = SuperscalarCore(_checked_params(fault_model=model))
    core.begin([])
    tracker = core.fault_injector.tracker
    assert tracker is not None
    silent = model in ("stuck-fu", "address", "checker")
    assert core._silent_tracker is (tracker if silent else None)
