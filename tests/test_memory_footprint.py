"""A core holds memory for its machine and its in-flight ops, not its trace.

Two structures used to grow with the trace: the cache sets (one
``OrderedDict`` per touched set, about 350 B per resident line) and the
core's map of branch outcomes (every branch ever fetched).  A set is now a
list of lines with one dirty set per cache (see :mod:`repro.memory.cache`),
and a branch's first outcome is dropped when the branch commits.
"""

import gc
import tracemalloc
from collections import Counter

import pytest

from repro.core import CheckerParams, CoreParams, SuperscalarCore
from repro.isa import OpClass
from repro.workloads import generate, preset

#: Bytes a resident cache line may cost, its set's share included.  About
#: 108 B on CPython 3.11 (lists and a dirty set); the per-set
#: ``OrderedDict`` layout cost 345 B.
BYTES_PER_LINE = 200


def test_a_memory_bound_core_holds_few_bytes_per_resident_line():
    """After 5,000 memory-bound ops, dropping every cache's contents frees
    fewer than ``BYTES_PER_LINE`` bytes per line that was resident."""
    trace = generate(preset("memory-bound"), 5_000, seed=0)
    core = SuperscalarCore(CoreParams())
    tracemalloc.start()
    try:
        core.run(trace)
        caches = (core.hierarchy.l1i, core.hierarchy.l1d, core.hierarchy.l2)
        lines = sum(len(lru) for cache in caches for lru in cache._sets if lru)
        dirty = sum(len(cache._dirty) for cache in caches)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        for cache in caches:
            cache.invalidate_all()
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert lines > 3_000 and dirty > 0
    assert freed < BYTES_PER_LINE * lines, f"{freed / lines:.0f} B per line"


def _correct_path_branches(core: SuperscalarCore) -> set[int]:
    return {
        op.seq for op in core._window if op.uop.op is OpClass.BRANCH and not op.wrong_path
    }


@pytest.mark.parametrize("real_predictor", [False, True], ids=["trace", "predictor"])
def test_a_branch_outcome_is_held_only_until_the_branch_commits(real_predictor: bool):
    """A checked branchy run with fault recoveries keeps each branch's first
    outcome only while the branch is uncommitted: never a committed one,
    never one more than a window past the commit frontier, none at the
    end.  A branch squashed and fetched again still finds its outcome, so
    every dynamic branch is counted once."""
    trace = generate(preset("branchy"), 3_000, seed=3)
    window = CoreParams().window_size

    def params(fault_rate: float) -> CoreParams:
        checker = CheckerParams(enabled=True, fault_rate=fault_rate, fault_seed=4)
        return CoreParams(use_real_predictor=real_predictor, checker=checker)

    core = SuperscalarCore(params(1e-2))
    fetches: Counter[int] = Counter()
    fetch_branch = core._fetch_branch

    def counting_fetch_branch(op):
        fetches[op.seq] += 1
        return fetch_branch(op)

    core._fetch_branch = counting_fetch_branch

    def frontier_holds() -> bool:
        committed = core.stats.committed
        assert all(committed <= seq < committed + window for seq in core._branch_outcome)
        return False

    stats = core.run(trace, stop=frontier_holds)
    assert stats.committed == len(trace) and stats.faults_detected > 0
    assert max(fetches.values()) > 1  # some branch was squashed and re-fetched
    assert stats.branches == len(fetches) == sum(uop.op is OpClass.BRANCH for uop in trace)
    assert core._branch_outcome == {}

    # A fault-free leader's captures hold exactly its window's branches.
    leader = SuperscalarCore(params(0.0))
    leader.begin(trace)
    for boundary in (400, 800, 1_200, 1_600):
        assert leader.advance(lambda: leader._now >= boundary)
        held = leader.capture().saved[0]["_branch_outcome"]
        assert held.keys() == _correct_path_branches(leader)
        assert held == leader._branch_outcome and len(held) <= window
    leader.advance()
    assert leader._branch_outcome == {}
