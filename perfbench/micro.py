"""Isolated layer timings: one layer driven without the rest of the core.

* ``EventWheel.post`` / ``pop_due`` with a seeded synthetic event stream;
* ``ReadyQueue.push`` / ``pop_live`` with seeded pushes, pops and squashes;
* ``MemoryHierarchy.access`` replaying the (addr, cycle, is_store) stream
  captured from the workload's traced core run.

Each timing is the median of a few repeats, in host nanoseconds per
operation.
"""

from __future__ import annotations

import random
import statistics
import time

REPEATS = 5


def _median_ns(run, operations: int, prepare=lambda: None) -> float:
    """``run(prepare())`` timed ``REPEATS`` times; ``prepare`` is untimed."""
    samples = []
    for _ in range(REPEATS):
        inputs = prepare()
        started = time.perf_counter()
        run(inputs)
        samples.append((time.perf_counter() - started) / operations * 1e9)
    return statistics.median(samples)


def wheel_ns_per_event(seed: int, cycles: int = 50_000) -> float:
    """Post a seeded burst of future events each cycle, drain the due ones."""
    from repro.core.sched import EventWheel

    rng = random.Random(seed)
    schedule = [[(rng.randint(1, 40), rng.randrange(5)) for _ in range(rng.randrange(6))]
                for _ in range(cycles)]
    events = sum(len(burst) for burst in schedule)

    def run(_) -> None:
        wheel = EventWheel()
        post, pop = wheel.post, wheel.pop_due
        for now, burst in enumerate(schedule):
            for delay, kind in burst:
                post(now + delay, kind, None)
            pop(now)

    return _median_ns(run, events)


def readyq_ns_per_op(seed: int, ops: int = 100_000) -> float:
    """Push ops in near-program order, pop the oldest live one, squash some."""
    from repro.core.dynop import DynOp
    from repro.core.sched import ReadyQueue
    from repro.isa.instruction import MicroOp
    from repro.isa.opcodes import OpClass

    rng = random.Random(seed)
    uop = MicroOp(OpClass.IALU, dest=1, srcs=(), pc=0)
    plan = [(rng.random() < 0.5, rng.random() < 0.05) for _ in range(ops)]

    def prepare() -> list:
        return [DynOp(uop, seq, 0) for seq in range(ops)]

    def run(dynops: list) -> None:
        queue = ReadyQueue()
        push, pop = queue.push, queue.pop_live
        for op, (popped, squash) in zip(dynops, plan):
            op.squashed = squash
            push(op)
            if popped:
                live = pop()
                if live is not None:
                    live.issued_at = live.seq
        while pop() is not None:
            pass

    # every op is pushed once and leaves the heap once
    return _median_ns(run, 2 * ops, prepare)


def access_ns_isolated(stream: list[tuple[int, int, bool]], dcache_banks: int) -> float:
    """Replay captured accesses on a fresh hierarchy with a wheel attached;
    fills are delivered as the core delivers them (``fills_due``)."""
    from repro.core.sched import EventWheel
    from repro.memory.hierarchy import HierarchyParams, MemoryHierarchy

    if not stream:
        return 0.0

    def prepare() -> tuple:
        hierarchy = MemoryHierarchy(HierarchyParams(dcache_banks=dcache_banks))
        wheel = EventWheel()
        hierarchy.attach_wheel(wheel)
        return hierarchy, wheel

    def run(inputs: tuple) -> None:
        hierarchy, wheel = inputs
        access, fills_due = hierarchy.access, hierarchy.fills_due
        pop, next_cycle = wheel.pop_due, wheel.next_cycle
        for addr, now, is_store in stream:
            # only the hierarchy posts to this wheel, and only fills
            due = next_cycle()
            while due is not None and due <= now:
                pop(due)
                fills_due()
                due = next_cycle()
            access(addr, now, is_store)

    return _median_ns(run, len(stream), prepare)
