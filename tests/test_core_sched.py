"""Scheduling kernel: event wheel, ready queues, deadlock diagnostics."""

import pytest

from repro.core import CheckerParams, CoreParams, SuperscalarCore
from repro.core.dynop import DynOp
from repro.core.sched import (
    EV_BRANCH_RESOLVE,
    EV_CHECK_DONE,
    EV_DEP_WAKE,
    EV_MEM_FILL,
    EV_MEM_VIOLATION,
    DeadlockError,
    EventWheel,
    ReadyQueue,
)
from repro.isa import MicroOp, OpClass
from repro.memory.hierarchy import HierarchyParams, MemoryHierarchy, _EV_MEM_FILL
from repro.workloads import generate, preset


def op_at(seq: int) -> DynOp:
    return DynOp(uop=MicroOp(op=OpClass.IALU, dest=1), seq=seq, fetched_at=0)


# ------------------------------------------------------------------ EventWheel


def test_event_kinds_are_distinct_and_hierarchy_mirror_matches():
    kinds = {EV_DEP_WAKE, EV_MEM_FILL, EV_CHECK_DONE, EV_BRANCH_RESOLVE, EV_MEM_VIOLATION}
    assert len(kinds) == 5
    # repro.memory.hierarchy cannot import the constant (package cycle) and
    # carries a literal mirror instead; they must never drift apart.
    assert _EV_MEM_FILL == EV_MEM_FILL


def test_wheel_delivers_exactly_the_due_cycle_in_posting_order():
    wheel = EventWheel()
    wheel.post(5, EV_DEP_WAKE, "a")
    wheel.post(3, EV_CHECK_DONE, "b")
    wheel.post(5, EV_MEM_FILL, "c")
    assert wheel.next_cycle() == 3
    assert len(wheel) == 3
    assert wheel.pop_due(4) is None  # nothing due at an eventless cycle
    assert wheel.pop_due(3) == [(EV_CHECK_DONE, "b")]
    assert wheel.pop_due(5) == [(EV_DEP_WAKE, "a"), (EV_MEM_FILL, "c")]
    assert wheel.pop_due(5) is None  # drained buckets do not re-deliver
    assert wheel.next_cycle() is None
    assert wheel.posted == 3


def test_wheel_next_cycle_follows_pops_and_posts():
    wheel = EventWheel()
    for cycle in (7, 3, 5):
        wheel.post(cycle, EV_DEP_WAKE, cycle)
    assert wheel.next_cycle() == 3
    wheel.pop_due(3)  # the head bucket
    assert wheel.next_cycle() == 5
    wheel.post(5, EV_CHECK_DONE, "again")  # into an existing bucket
    assert wheel.next_cycle() == 5
    assert wheel.pop_due(5) == [(EV_DEP_WAKE, 5), (EV_CHECK_DONE, "again")]
    assert wheel.next_cycle() == 7
    wheel.post(6, EV_DEP_WAKE, 6)
    assert wheel.next_cycle() == 6
    wheel.pop_due(7)  # ahead of the earlier bucket at 6
    assert wheel.next_cycle() == 6
    wheel.pop_due(6)
    assert wheel.next_cycle() is None


# ------------------------------------------------------------------ ReadyQueue


def test_ready_queue_pops_oldest_first_regardless_of_push_order():
    queue = ReadyQueue()
    ops = [op_at(9), op_at(2), op_at(5)]
    for op in ops:
        queue.push(op)
    assert [queue.pop_live().seq for _ in range(3)] == [2, 5, 9]
    assert queue.pop_live() is None


def test_ready_queue_lazily_drops_squashed_and_issued_entries():
    queue = ReadyQueue()
    squashed, issued, live = op_at(1), op_at(2), op_at(3)
    for op in (squashed, issued, live):
        queue.push(op)
    squashed.squashed = True
    issued.issued_at = 4
    assert queue.pop_live() is live
    assert queue.pop_live() is None


def test_ready_queue_tiebreak_handles_stale_same_seq_entries():
    """A squashed op and its re-fetched (same-seq) successor can coexist in
    the heap; comparison must not fall through to DynOp objects."""
    queue = ReadyQueue()
    old = op_at(7)
    queue.push(old)
    old.squashed = True
    fresh = op_at(7)
    queue.push(fresh)
    assert queue.pop_live() is fresh


# ------------------------------------------------------ hierarchy fill events


def test_deferred_fill_posts_a_wheel_event_and_arms_the_drain():
    wheel = EventWheel()
    hierarchy = MemoryHierarchy(HierarchyParams())
    hierarchy.attach_wheel(wheel)
    result = hierarchy.access(0x8000_0000, now=0)  # cold miss
    assert result.ok and result.level == "mem"
    events = wheel.pop_due(result.ready_at)
    assert (EV_MEM_FILL, hierarchy.l1d.line_addr(0x8000_0000)) in events
    # Deliver the event the way the core does, then the next access hits.
    hierarchy.fills_due()
    hit = hierarchy.access(0x8000_0000, now=result.ready_at)
    assert hit.level == "l1"


def test_without_a_wheel_fills_still_drain_on_access():
    hierarchy = MemoryHierarchy(HierarchyParams())
    result = hierarchy.access(0x8000_0000, now=0)
    hit = hierarchy.access(0x8000_0000, now=result.ready_at)
    assert hit.level == "l1"


# ------------------------------------------------------- deadlock diagnostics


def test_exceeding_max_cycles_raises_a_diagnostic_deadlock_error():
    trace = [MicroOp(op=OpClass.LOAD, dest=1, srcs=(0,), addr=0x8000_0000)]
    core = SuperscalarCore(CoreParams(model_icache=False))
    with pytest.raises(DeadlockError) as excinfo:
        core.run(trace, max_cycles=5)  # cold miss needs ~215 cycles
    message = str(excinfo.value)
    assert "deadlock" in message
    assert "seq=0" in message and "load" in message
    assert "executing until cycle" in message


def test_deadlock_report_explains_a_stalled_empty_window():
    """Fetch stuck behind a long I-miss with nothing in flight names the
    stall instead of an op."""
    trace = [MicroOp(op=OpClass.LOAD, dest=1, srcs=(0,), addr=0x8000_0000)]
    core = SuperscalarCore(CoreParams())  # I-cache on: fetch itself misses
    with pytest.raises(DeadlockError) as excinfo:
        core.run(trace, max_cycles=5)
    message = str(excinfo.value)
    assert "window empty but fetch stuck at trace index 0" in message
    assert "i-cache stall until" in message


def test_deadlock_report_names_a_false_alarm_replay_loop():
    """A checker that false-alarms on every check replays the oldest op
    forever: the report counts the commits and names the recovery cause,
    which the oldest op's state alone does not show."""
    params = CoreParams(
        checker=CheckerParams(
            enabled=True, fault_model="checker", fault_rate=1.0, fault_seed=4
        )
    )
    trace = generate(preset("int-heavy"), 200, seed=3)
    with pytest.raises(DeadlockError) as excinfo:
        SuperscalarCore(params).run(trace, max_cycles=2_000)
    message = str(excinfo.value)
    assert "committed 0 of 200 ops" in message
    assert "recoveries by cause: checker_false_alarm " in message


def test_deadlock_error_is_a_runtime_error_for_backward_compat():
    trace = [MicroOp(op=OpClass.IALU, dest=1) for _ in range(64)]
    core = SuperscalarCore(CoreParams())
    with pytest.raises(RuntimeError):
        core.run(trace, max_cycles=1)


def test_deadlock_report_names_unmet_dependencies():
    """White-box: a stuck unissued head lists its outstanding producers."""
    core = SuperscalarCore(CoreParams())
    core.run([], max_cycles=10)  # initialise run state
    producer = DynOp(uop=MicroOp(op=OpClass.IMUL, dest=2), seq=4, fetched_at=0)
    stuck = DynOp(
        uop=MicroOp(op=OpClass.IALU, dest=3, srcs=(2,)),
        seq=5,
        fetched_at=1,
        deps=(producer,),
    )
    core._window.append(stuck)
    report = core._deadlock_report(limit=10)
    assert "waiting to issue on unmet dependencies" in report
    assert "seq=4" in report and "imul" in report
    assert "never issued" in report
