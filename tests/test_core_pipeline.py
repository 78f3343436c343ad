"""Core pipeline integration: exact commit timing on hand-written traces.

The 10-op trace below has a known dependence structure; the expected commit
cycles are derived by hand from the pipeline semantics (fetch at cycle t ⇒
first issue opportunity at t+1; commit stage runs before issue within a
cycle; in-order commit).
"""

import pytest

from repro.core import CheckerParams, CoreParams, SuperscalarCore
from repro.isa import MicroOp, OpClass
from repro.isa.registers import REG_ZERO


def small_params(**overrides) -> CoreParams:
    defaults = dict(
        fetch_width=4,
        issue_width=4,
        commit_width=4,
        window_size=32,
        model_icache=False,
        record_retired=True,
    )
    defaults.update(overrides)
    return CoreParams(**defaults)


def ialu(dest, *srcs):
    return MicroOp(op=OpClass.IALU, dest=dest, srcs=srcs)


def imul(dest, *srcs):
    return MicroOp(op=OpClass.IMUL, dest=dest, srcs=srcs)


def ten_op_trace():
    return [
        ialu(1),  # 0: no deps
        ialu(2, 1),  # 1: dep 0
        imul(3, 1, 2),  # 2: dep 0,1 (3-cycle multiply)
        ialu(4),  # 3: no deps
        ialu(5, 4, 3),  # 4: dep 3,2
        MicroOp(op=OpClass.NOP),  # 5
        ialu(6, 5),  # 6: dep 4
        imul(7, 6, 6),  # 7: dep 6
        ialu(8, 7),  # 8: dep 7
        ialu(9, 8, 1),  # 9: dep 8,0
    ]


def test_ten_op_trace_commits_at_exact_cycles():
    core = SuperscalarCore(small_params())
    stats = core.run(ten_op_trace())
    committed_at = [op.committed_at for op in core.retired]
    #                 op:  0  1  2  3  4  5  6  7   8   9
    assert committed_at == [2, 3, 6, 6, 7, 7, 8, 11, 12, 13]
    assert stats.committed == 10
    assert stats.cycles == 14


def test_commit_is_in_order_even_when_execution_is_not():
    core = SuperscalarCore(small_params())
    core.run(ten_op_trace())
    # op3 finished at cycle 2 but sits behind the multiply until cycle 6.
    op2, op3 = core.retired[2], core.retired[3]
    assert op3.complete_at < op2.complete_at
    assert op3.committed_at == op2.committed_at
    seqs = [op.seq for op in core.retired]
    assert seqs == sorted(seqs)


def test_independent_ops_issue_in_parallel_up_to_issue_width():
    trace = [ialu(i) for i in range(1, 9)]  # 8 independent ops
    core = SuperscalarCore(small_params())
    stats = core.run(trace)
    # fetch 0-3 @0, issue @1; fetch 4-7 @1, issue @2; commits @2 and @3.
    assert [op.issued_at for op in core.retired] == [1, 1, 1, 1, 2, 2, 2, 2]
    assert stats.cycles == 4


@pytest.mark.parametrize("checked", [False, True], ids=["unchecked", "checked"])
@pytest.mark.parametrize(
    "srcs", [(1, REG_ZERO, 2), (2, REG_ZERO, 1)], ids=["slow-first", "slow-last"]
)
def test_three_source_op_waits_for_its_latest_producer(srcs: tuple, checked: bool):
    """An op with three sources, one of them the zero register, depends on
    exactly its two real producers: it issues when the later one completes,
    whichever source names it.  The trace generators never emit more than
    two sources."""
    trace = [
        imul(1),  # 0: completes at 4
        ialu(2),  # 1: completes at 2
        MicroOp(op=OpClass.IALU, dest=3, srcs=srcs),  # 2: deps 0, 1
    ]
    core = SuperscalarCore(small_params(checker=CheckerParams(enabled=checked)))
    core.run(trace)
    first, second, op = core.retired
    assert first.complete_at != second.complete_at
    assert op.issued_at == max(first.complete_at, second.complete_at)


def test_window_bound_throttles_fetch():
    trace = [ialu(i % 31 + 1) for i in range(10)]
    wide = SuperscalarCore(small_params()).run(list(trace))
    narrow = SuperscalarCore(small_params(window_size=4)).run(list(trace))
    assert narrow.committed == wide.committed == 10
    assert narrow.cycles > wide.cycles


def test_mispredicted_branch_stalls_fetch_until_resolution_plus_penalty():
    trace = [
        ialu(1),
        MicroOp(op=OpClass.BRANCH, srcs=(0,), taken=True, target=0x40, mispredicted=True),
        ialu(2),
        ialu(3),
    ]
    core = SuperscalarCore(small_params(mispredict_penalty=3))
    stats = core.run(trace)
    # Branch issues @1, resolves @2; fetch restarts at 2+3=5, so the two
    # post-branch ops are fetched @5, issue @6, commit @7.
    assert [op.committed_at for op in core.retired] == [2, 2, 7, 7]
    assert stats.branch_mispredicts == 1
    assert stats.cycles == 8


def test_correctly_predicted_branch_does_not_stall_fetch():
    trace = [
        ialu(1),
        MicroOp(op=OpClass.BRANCH, srcs=(0,), taken=True, target=0x40, mispredicted=False),
        ialu(2),
        ialu(3),
    ]
    stats = SuperscalarCore(small_params()).run(trace)
    assert stats.branch_mispredicts == 0
    assert stats.cycles == 3  # fetch @0, issue @1, commit @2


def test_unpipelined_divide_blocks_its_unit():
    # Two divides on a machine with a single IMUL unit: strictly serial.
    from repro.isa.opcodes import FUClass

    params = small_params(
        fu_counts={FUClass.IALU: 4, FUClass.IMUL: 1, FUClass.FALU: 1, FUClass.FMUL: 1}
    )
    trace = [
        MicroOp(op=OpClass.IDIV, dest=1),
        MicroOp(op=OpClass.IDIV, dest=2),
    ]
    core = SuperscalarCore(params)
    core.run(trace)
    first, second = core.retired
    assert first.issued_at == 1 and first.complete_at == 20
    assert second.issued_at == 20  # unit blocked until the first completes
    assert second.complete_at == 39


def test_independent_divides_co_issue_on_the_two_table1_units():
    trace = [
        MicroOp(op=OpClass.FDIV, dest=33),
        MicroOp(op=OpClass.FDIV, dest=34),
        MicroOp(op=OpClass.FDIV, dest=35),
    ]
    core = SuperscalarCore(small_params())  # default FUs: 2 FMUL units
    core.run(trace)
    first, second, third = core.retired
    assert first.issued_at == second.issued_at == 1  # both units taken
    assert third.issued_at == first.complete_at  # waits for a free unit
    from repro.memory.hierarchy import HierarchyParams

    cold_ready = (
        HierarchyParams().l1_latency
        + HierarchyParams().l2_latency
        + HierarchyParams().mem_latency
    )
    trace = [
        MicroOp(op=OpClass.LOAD, dest=1, srcs=(0,), addr=0x1000_0000),
        ialu(2, 1),
    ]
    core = SuperscalarCore(small_params())
    stats = core.run(trace)
    load, use = core.retired
    assert load.complete_at == 1 + cold_ready  # issued @1, cold miss
    assert use.issued_at == load.complete_at
    assert stats.cycles == use.complete_at + 1


def test_fetch_probes_the_icache_once_per_line_not_once_per_group():
    """Regression: only the first uop of a fetch group probed the I-cache,
    so a group crossing into an uncached line fetched it for free.  The
    second line here sits beyond the 4-line stream buffer, so it can only
    miss if the per-line probe actually happens."""
    far = 8 * 64  # 8 lines past the group's first line
    trace = [
        MicroOp(op=OpClass.IALU, dest=1, pc=0x40_0000),
        MicroOp(op=OpClass.IALU, dest=2, pc=0x40_0004),
        MicroOp(op=OpClass.IALU, dest=3, pc=0x40_0000 + far),
        MicroOp(op=OpClass.IALU, dest=4, pc=0x40_0004 + far),
    ]
    core = SuperscalarCore(small_params(model_icache=True))
    stats = core.run(trace)
    assert stats.committed == 4
    assert core.hierarchy.stats.ifetch_misses == 2  # was 1 before the fix


def test_refused_memory_issue_consumes_an_issue_slot():
    """Regression: a load bounced by the hierarchy burned no issue slot, so
    a replay storm advertised impossible slot availability to the checker."""
    from repro.memory.hierarchy import HierarchyParams, MemoryHierarchy

    hierarchy = MemoryHierarchy(HierarchyParams(dcache_ports=1))
    trace = [
        MicroOp(op=OpClass.LOAD, dest=i, srcs=(0,), addr=0x1000_0000 + 64 * 16 * i)
        for i in range(1, 5)
    ]
    core = SuperscalarCore(small_params(), hierarchy=hierarchy)
    stats = core.run(trace)
    assert stats.committed == 4
    # One load takes the single port per cycle; each bounced attempt that
    # cycle charges a slot: 3 + 2 + 1 refusals across the storm.
    assert stats.mem_replays == 6
    assert stats.replay_slots_used == 6
    assert stats.primary_slots_used == 4


def test_determinism_same_trace_same_stats():
    from repro.workloads import generate, preset

    trace = generate(preset("int-heavy"), 1500, seed=42)
    first = SuperscalarCore(CoreParams()).run(trace)
    second = SuperscalarCore(CoreParams()).run(trace)
    assert first.to_dict() == second.to_dict()
