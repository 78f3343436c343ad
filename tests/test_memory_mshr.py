"""MSHR file: allocation, merging, refusals, and reclaim timing.

The MSHR policy (merge, refuse, allocate) lives in
``MemoryHierarchy.access``, so the policy tests drive it there; the
reclaim tests drive the file itself.
"""

import pytest

from repro.memory.hierarchy import HierarchyParams, MemoryHierarchy
from repro.memory.mshr import MSHRFile

LINE = 0x40
COLD = 0x1000_0000  # misses to memory
COLD_OTHER = 0x2000_0000


def _hierarchy(entries: int = 4, targets: int = 2) -> MemoryHierarchy:
    return MemoryHierarchy(HierarchyParams(mshr_entries=entries, mshr_targets=targets))


def _in_flight(mshrs: MSHRFile, now: int) -> dict[int, int]:
    """The misses still in flight at ``now``, as ``{line: ready_at}``."""
    mshrs._reclaim(now)
    return {line: miss.ready_at for line, miss in mshrs._misses.items()}


def test_first_request_allocates_new_entry():
    hierarchy = _hierarchy()
    result = hierarchy.access(COLD, now=0)
    assert result.ok and result.level == "mem"
    mshrs = hierarchy.mshrs
    assert mshrs.allocations == 1
    assert mshrs.outstanding(0) == 1
    assert mshrs.next_ready == result.ready_at


def test_second_request_merges_and_returns_existing_ready_cycle():
    hierarchy = _hierarchy()
    first = hierarchy.access(COLD, now=0)
    second = hierarchy.access(COLD + 8, now=5)  # same line, still in flight
    assert second.ok and second.level == "mshr"
    assert second.ready_at == first.ready_at  # the in-flight miss's completion
    assert hierarchy.mshrs.merges == 1
    assert hierarchy.mshrs.allocations == 1


def test_target_overflow_refuses_with_no_target():
    hierarchy = _hierarchy(targets=2)
    hierarchy.access(COLD, now=0)
    hierarchy.access(COLD, now=1)  # second target fills the entry
    refused = hierarchy.access(COLD, now=2)
    assert not refused.ok and refused.reason == "mshr_target"
    assert hierarchy.mshrs.target_stalls == 1


def test_full_file_refuses_with_no_mshr():
    hierarchy = _hierarchy(entries=1, targets=8)
    hierarchy.access(COLD, now=0)
    refused = hierarchy.access(COLD_OTHER, now=1)
    assert not refused.ok and refused.reason == "mshr"
    assert hierarchy.mshrs.full_stalls == 1


def test_reclaim_frees_entries_once_ready_cycle_passes():
    hierarchy = _hierarchy(entries=1, targets=8)
    ready = hierarchy.access(COLD, now=0).ready_at
    mshrs = hierarchy.mshrs
    assert mshrs.outstanding(ready - 1) == 1
    assert mshrs.outstanding(ready) == 0  # ready_at <= now reclaims
    assert hierarchy.access(COLD_OTHER, now=ready).level == "mem"
    assert mshrs.allocations == 2


def test_lookup_tracks_in_flight_misses_only():
    hierarchy = _hierarchy()
    ready = hierarchy.access(COLD, now=0).ready_at
    assert hierarchy.access(COLD, now=10).level == "mshr"  # in flight: merges
    assert hierarchy.access(COLD, now=ready).level == "l1"  # reclaimed, filled
    assert hierarchy.access(COLD_OTHER, now=ready).level == "mem"  # never missed
    assert hierarchy.mshrs.merges == 1


def test_flush_drops_all_state():
    mshrs = MSHRFile()
    mshrs._allocate(LINE, ready_at=50)
    mshrs.flush()
    assert mshrs.outstanding(0) == 0


@pytest.mark.parametrize("entries,targets", [(0, 8), (32, 0)])
def test_rejects_bad_bounds(entries, targets):
    with pytest.raises(ValueError):
        MSHRFile(entries=entries, targets_per_entry=targets)


def test_out_of_order_completions_reclaim_in_ready_order():
    mshrs = MSHRFile(entries=4, targets_per_entry=2)
    for line, ready in ((0x1, 300), (0x2, 100), (0x3, 200)):  # allocation order
        mshrs._allocate(line, ready)
    assert mshrs.next_ready == 100
    steps = [
        (99, 100, {0x1: 300, 0x2: 100, 0x3: 200}),
        (100, 200, {0x1: 300, 0x3: 200}),
        (250, 300, {0x1: 300}),
        (300, float("inf"), {}),
    ]
    for now, next_ready, in_flight in steps:
        assert mshrs.outstanding(now) == len(in_flight)
        assert mshrs.next_ready == next_ready
        assert _in_flight(mshrs, now) == in_flight


def test_a_copy_reclaims_independently_of_its_original():
    mshrs = MSHRFile(entries=4, targets_per_entry=2)
    mshrs._allocate(0x1, 100)
    mshrs._allocate(0x2, 200)
    clone = mshrs.copy()
    assert clone.outstanding(150) == 1 and clone.next_ready == 200
    assert mshrs.next_ready == 100 and _in_flight(mshrs, 50) == {0x1: 100, 0x2: 200}
    mshrs._allocate(0x3, 120)
    assert _in_flight(clone, 150) == {0x2: 200}
    assert mshrs.outstanding(110) == 2 and mshrs.next_ready == 120
    assert clone.outstanding(150) == 1  # the original's reclaim left it alone


def test_flush_empties_the_ready_heap():
    mshrs = MSHRFile()
    mshrs._allocate(LINE, 50)
    mshrs.flush()
    assert mshrs.next_ready == float("inf")
    # A new miss on the same line is not reclaimed at the dropped one's cycle.
    mshrs._allocate(LINE, 80)
    assert mshrs.outstanding(50) == 1
    assert mshrs.next_ready == 80
