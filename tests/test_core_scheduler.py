"""FU pool: per-cycle issue limits and unpipelined blocking."""

import pytest

from repro.core.sched import FUPool
from repro.isa.opcodes import FUClass


def test_pipelined_units_accept_one_issue_per_unit_per_cycle():
    pool = FUPool({FUClass.IALU: 2, FUClass.IMUL: 1, FUClass.FALU: 1, FUClass.FMUL: 1})
    pool.begin_cycle(0)
    assert pool.available(FUClass.IALU) == 2
    pool.acquire(FUClass.IALU)
    pool.acquire(FUClass.IALU)
    assert pool.available(FUClass.IALU) == 0
    pool.begin_cycle(1)
    assert pool.available(FUClass.IALU) == 2


def test_unpipelined_op_blocks_unit_across_cycles():
    pool = FUPool({FUClass.IALU: 1, FUClass.IMUL: 1, FUClass.FALU: 1, FUClass.FMUL: 1})
    pool.begin_cycle(0)
    pool.acquire(FUClass.IMUL, busy_until=19)
    pool.begin_cycle(5)
    assert pool.available(FUClass.IMUL) == 0
    pool.begin_cycle(19)  # busy_until <= now releases the unit
    assert pool.available(FUClass.IMUL) == 1


def test_unpipelined_op_occupies_exactly_one_unit_in_its_issue_cycle():
    """Two divides co-issue on a two-unit class, and a pipelined op can
    still use the second unit alongside one divide."""
    pool = FUPool({FUClass.IALU: 1, FUClass.IMUL: 1, FUClass.FALU: 1, FUClass.FMUL: 2})
    pool.begin_cycle(0)
    pool.acquire(FUClass.FMUL, busy_until=12)
    assert pool.available(FUClass.FMUL) == 1
    pool.acquire(FUClass.FMUL, busy_until=12)
    assert pool.available(FUClass.FMUL) == 0
    pool.begin_cycle(1)
    assert pool.available(FUClass.FMUL) == 0  # both still blocked
    pool.begin_cycle(12)
    assert pool.available(FUClass.FMUL) == 2


def test_acquire_without_availability_raises():
    pool = FUPool({FUClass.IALU: 1, FUClass.IMUL: 1, FUClass.FALU: 1, FUClass.FMUL: 1})
    pool.begin_cycle(0)
    pool.acquire(FUClass.IALU)
    with pytest.raises(RuntimeError):
        pool.acquire(FUClass.IALU)


def test_release_frees_a_blocked_unit_for_a_squashed_op():
    pool = FUPool({FUClass.IALU: 1, FUClass.IMUL: 1, FUClass.FALU: 1, FUClass.FMUL: 1})
    pool.begin_cycle(0)
    pool.acquire(FUClass.IMUL, busy_until=19)
    pool.begin_cycle(5)
    assert pool.available(FUClass.IMUL) == 0
    assert pool.release(FUClass.IMUL, 19) is True  # the divide was squashed
    assert pool.available(FUClass.IMUL) == 1
    pool.acquire(FUClass.IMUL, busy_until=24)  # a fresh op can take the unit


def test_release_of_an_expired_or_unknown_reservation_is_a_noop():
    pool = FUPool({FUClass.IALU: 1, FUClass.IMUL: 1, FUClass.FALU: 1, FUClass.FMUL: 1})
    pool.begin_cycle(0)
    pool.acquire(FUClass.IMUL, busy_until=10)
    pool.begin_cycle(10)  # reservation expired and was dropped
    assert pool.release(FUClass.IMUL, 10) is False
    assert pool.release(FUClass.IMUL, 42) is False
    assert pool.available(FUClass.IMUL) == 1


def test_release_removes_only_one_of_two_identical_reservations():
    pool = FUPool({FUClass.IALU: 1, FUClass.IMUL: 1, FUClass.FALU: 1, FUClass.FMUL: 2})
    pool.begin_cycle(0)
    pool.acquire(FUClass.FMUL, busy_until=12)
    pool.acquire(FUClass.FMUL, busy_until=12)
    pool.begin_cycle(1)
    assert pool.release(FUClass.FMUL, 12) is True
    assert pool.available(FUClass.FMUL) == 1  # the twin still blocks its unit


def test_utilization_reports_current_cycle_issues():
    pool = FUPool({FUClass.IALU: 4, FUClass.IMUL: 2, FUClass.FALU: 2, FUClass.FMUL: 2})
    pool.begin_cycle(0)
    pool.acquire(FUClass.IALU)
    pool.acquire(FUClass.IALU)
    pool.acquire(FUClass.FMUL)
    used = pool.utilization()
    assert used[FUClass.IALU] == 2 and used[FUClass.FMUL] == 1 and used[FUClass.IMUL] == 0
