"""Memory bus: bandwidth limiting and queue-delay accounting."""

import pytest

from repro.memory.bus import MemoryBus


def test_idle_bus_starts_transfer_immediately():
    bus = MemoryBus(cycles_per_transfer=4)
    assert bus.schedule(10) == 10
    assert bus.transfers == 1


def test_back_to_back_requests_queue_behind_each_other():
    bus = MemoryBus(cycles_per_transfer=4)
    assert bus.schedule(0) == 0
    assert bus.schedule(0) == 4
    assert bus.schedule(0) == 8


def test_late_request_after_drain_is_not_delayed():
    bus = MemoryBus(cycles_per_transfer=4)
    bus.schedule(0)
    assert bus.schedule(100) == 100


def test_queue_delay_accounting():
    bus = MemoryBus(cycles_per_transfer=4)
    bus.schedule(0)  # delay 0
    bus.schedule(0)  # delay 4
    bus.schedule(2)  # starts at 8, delay 6
    assert bus.total_queue_delay == 10
    assert bus.transfers == 3


def test_reset_clears_occupancy_and_counters():
    bus = MemoryBus(cycles_per_transfer=4)
    bus.schedule(0)
    bus.schedule(0)
    bus.reset()
    assert bus.transfers == 0
    assert bus.total_queue_delay == 0
    assert bus.schedule(0) == 0


def test_rejects_non_positive_transfer_time():
    with pytest.raises(ValueError):
        MemoryBus(cycles_per_transfer=0)
