"""Memory hierarchy: latencies per level, ports, MSHR bounds, bus charging."""

import hashlib
import random

import pytest

from repro.core.sched import EV_MEM_FILL, EventWheel
from repro.memory.hierarchy import HierarchyParams, MemoryHierarchy

P = HierarchyParams()  # Table 1 defaults
COLD_A = 0x1000_0000
COLD_B = 0x2000_0000

#: Cycle a cold (L2-miss) access issued at cycle 0 completes:
#: L1 + L2 lookup latencies, then a full memory access off an idle bus.
COLD_READY = P.l1_latency + P.l2_latency + P.mem_latency


def test_cold_access_goes_to_memory():
    hierarchy = MemoryHierarchy()
    result = hierarchy.access(COLD_A, now=0)
    assert result.ok and result.level == "mem"
    assert result.ready_at == COLD_READY


def test_access_in_miss_shadow_merges_at_mshrs_with_same_ready_cycle():
    hierarchy = MemoryHierarchy()
    first = hierarchy.access(COLD_A, now=0)
    second = hierarchy.access(COLD_A + 8, now=1)  # same line, still in flight
    assert second.level == "mshr"
    assert second.ready_at == first.ready_at
    assert hierarchy.mshrs.merges == 1


def test_line_hits_in_l1_after_fill_arrives():
    hierarchy = MemoryHierarchy()
    hierarchy.access(COLD_A, now=0)
    later = COLD_READY + 10
    result = hierarchy.access(COLD_A, now=later)
    assert result.level == "l1"
    assert result.ready_at == later + P.l1_latency


def test_l1_eviction_falls_back_to_l2_latency():
    params = HierarchyParams(l1d_size=128, l1_ways=2)  # one-set L1D
    hierarchy = MemoryHierarchy(params)
    t = 0
    for addr in (COLD_A, COLD_A + 64, COLD_A + 128):  # 3 lines, 2 ways
        hierarchy.access(addr, now=t)
        t += 1000  # let each fill land before the next access
    result = hierarchy.access(COLD_A, now=t)  # evicted from L1, still in L2
    assert result.level == "l2"
    assert result.ready_at == t + P.l1_latency + P.l2_latency


def test_ports_exhaust_within_a_cycle_and_recover_next_cycle():
    hierarchy = MemoryHierarchy()
    base = COLD_READY + 50
    hierarchy.access(COLD_A, now=0)
    for i in range(P.dcache_ports):
        assert hierarchy.access(COLD_A, now=base + i * 0).ok  # same cycle hits
    refused = hierarchy.access(COLD_A, now=base)
    assert not refused.ok and refused.reason == "port"
    assert hierarchy.stats.port_conflicts == 1
    assert hierarchy.access(COLD_A, now=base + 1).ok


def test_mshr_file_exhaustion_refuses_without_losing_a_port():
    params = HierarchyParams(mshr_entries=1)
    hierarchy = MemoryHierarchy(params)
    hierarchy.access(COLD_A, now=0)
    refused = hierarchy.access(COLD_B, now=0)
    assert not refused.ok and refused.reason == "mshr"
    assert hierarchy._ports_used == 1  # only the NEW miss holds one


def test_mshr_target_overflow_refuses():
    params = HierarchyParams(mshr_targets=1)
    hierarchy = MemoryHierarchy(params)
    hierarchy.access(COLD_A, now=0)
    refused = hierarchy.access(COLD_A + 4, now=1)
    assert not refused.ok and refused.reason == "mshr_target"


def test_refused_replays_do_not_inflate_the_miss_rate():
    params = HierarchyParams(mshr_entries=1)
    hierarchy = MemoryHierarchy(params)
    hierarchy.access(COLD_A, now=0)
    misses_before = hierarchy.l1d.stats.misses
    for cycle in range(1, 6):
        hierarchy.access(COLD_B, now=cycle)  # refused every cycle
    assert hierarchy.l1d.stats.misses == misses_before


def test_parallel_cold_misses_serialize_on_the_bus():
    hierarchy = MemoryHierarchy()
    first = hierarchy.access(COLD_A, now=0)
    second = hierarchy.access(COLD_B, now=0)
    assert first.ready_at == COLD_READY
    assert second.ready_at == COLD_READY + P.bus_cycles_per_transfer
    assert hierarchy.bus.transfers == 2


def test_store_dirties_line_and_eviction_writes_back_to_l2():
    params = HierarchyParams(l1d_size=128, l1_ways=2)
    hierarchy = MemoryHierarchy(params)
    hierarchy.access(COLD_A, now=0, is_store=True)
    t = 1000
    for addr in (COLD_A + 64, COLD_A + 128):  # push the dirty line out
        hierarchy.access(addr, now=t)
        t += 1000
    hierarchy.access(COLD_A + 192, now=t)  # forces drain + another eviction
    assert hierarchy.l1d.stats.writebacks >= 1


def test_arrived_fills_apply_in_miss_allocation_order():
    """Two fills that arrive before the next access are applied in the
    order their misses were allocated, not the order they arrived: here
    that decides which line the set's next fill evicts."""
    hierarchy = MemoryHierarchy(HierarchyParams(l1d_size=128, l1_ways=2))  # one set
    first, second, third, fourth = (COLD_A + 64 * k for k in range(4))
    t = 0
    for addr in (second, third, fourth):  # `second` ends up in the L2 only
        hierarchy.access(addr, now=t)
        t += 1000
    assert hierarchy.access(first, now=t).level == "mem"  # allocated first
    assert hierarchy.access(second, now=t + 100).level == "l2"  # arrives first
    assert hierarchy.access(COLD_B, now=t + 300).level == "mem"  # drains both
    # Applied in allocation order, `second` is the set's most recent line,
    # so COLD_B's fill evicts `first`.
    assert hierarchy.access(second, now=t + 1000).level == "l1"
    assert hierarchy.access(first, now=t + 1001).level == "l2"


def test_a_new_miss_on_an_undelivered_fill_takes_over_its_record():
    """With a wheel attached a fill applies only once its arrival is
    delivered (``fills_due``).  A new miss on a line whose arrived fill
    was never delivered takes over that fill: the old arrival no longer
    applies it."""
    hierarchy = MemoryHierarchy()
    hierarchy.attach_wheel(EventWheel())
    first = hierarchy.access(COLD_A, now=0)
    again = hierarchy.access(COLD_A, now=first.ready_at + 10)
    assert again.level == "l2"  # the MSHR was freed, the L1D never filled
    hierarchy.fills_due()
    assert hierarchy.access(COLD_A, now=again.ready_at - 1).level == "mshr"


def test_ifetch_miss_stalls_but_prefetched_lines_hit():
    hierarchy = MemoryHierarchy()
    pc = 0x0040_0000
    first = hierarchy.ifetch(pc, now=0)
    assert first.level == "mem" and first.ready_at == COLD_READY
    # The stream buffer covered the next IFETCH_PREFETCH_LINES lines.
    for ahead in range(1, MemoryHierarchy.IFETCH_PREFETCH_LINES + 1):
        result = hierarchy.ifetch(pc + ahead * P.line_bytes, now=500 + ahead)
        assert result.level == "l1" and result.ready_at == 500 + ahead


def test_reset_restores_cold_state():
    hierarchy = MemoryHierarchy()
    hierarchy.access(COLD_A, now=0)
    hierarchy.reset()
    assert hierarchy.bus.transfers == 0
    result = hierarchy.access(COLD_A, now=0)
    assert result.level == "mem"


def test_snapshot_exposes_key_counters():
    hierarchy = MemoryHierarchy()
    hierarchy.access(COLD_A, now=0)
    snap = hierarchy.snapshot()
    assert snap["bus_transfers"] == 1
    assert 0.0 <= snap["l1d_miss_rate"] <= 1.0


@pytest.mark.parametrize(
    "field, value",
    [
        ("l1_ways", 0),  # a ZeroDivisionError inside Cache
        ("l2_ways", 0),
        ("dcache_ports", 0),  # a DeadlockError that blamed the issue slots
        ("dcache_banks", 0),
        ("l1_latency", -1),  # simulated without complaint
        ("l1_latency", 0),  # a hit's wake-ups went into a drained cycle
        ("l2_latency", -1),
        ("mem_latency", -1),
        # These failed only when a hierarchy was built, without the field.
        ("mshr_entries", 0),
        ("mshr_targets", 0),
        ("bus_cycles_per_transfer", 0),
        ("l2_size", 1000),  # not a whole number of sets
        ("line_bytes", 48),
        ("l1d_size", 3072),  # 24 sets: not a power of two
    ],
)
def test_unusable_hierarchy_params_fail_at_construction(field, value):
    with pytest.raises(ValueError, match=field):
        HierarchyParams(**{field: value})


# ------------------------------------------------------------ pinned stream

#: sha256 of everything the seeded stream below gets back from the four
#: hierarchies: each call's answer, each replay horizon, the final
#: snapshot, the raw counters behind it (:func:`_counters`) and the MSHR
#: counters.  Any change to what the hierarchy computes changes it.
STREAM_SHA256 = "bb3ac70fa104c507df2a85704ec0bfeb013d0f8a9a55368b6e49791f839db8f3"


def _stream(seed: int = 15, cycles: int = 1_500) -> list[tuple[int, list[tuple]]]:
    """A seeded call stream: per cycle, how many cycles a repeat of its
    refusals may skip, and its calls.

    Loads and stores go to a few hot lines, to lines that share one L1D
    set (evictions, writebacks, same-set fills arriving together) and to
    fresh cold lines.  Correct-path ifetches (with prefetch) walk a code
    region with jumps; wrong-path ones (without) land in the I-cache sets
    of the lines the stream buffer just brought in, evicting some.
    """
    rng = random.Random(seed)
    hot = [0x1000_0000 + 64 * k for k in range(6)]
    same_set = [0x2000_0000 + 32 * 1024 * k for k in range(6)]
    cold = 0x4000_0000
    pc = 0x0040_0000
    stream = []
    for _ in range(cycles):
        calls: list[tuple] = []
        for _ in range(rng.choice((0, 1, 2, 3, 4, 6, 8))):
            pick = rng.random()
            if pick < 0.55:
                kind = rng.random()
                if kind < 0.5:
                    addr = rng.choice(hot) + 8 * rng.randrange(8)
                elif kind < 0.75:
                    addr = rng.choice(same_set)
                else:
                    cold += 64
                    addr = cold
                calls.append(("access", addr, rng.random() < 0.3))
            elif pick < 0.75:
                calls.append(("probe", rng.choice(hot + same_set)))
            elif rng.random() < 0.75:
                jump = rng.random()
                if jump < 0.1:
                    pc = 0x0040_0000 + 64 * rng.randrange(64)
                elif jump < 0.15:
                    pc += 32 * 1024 * rng.choice((1, 2))
                else:
                    pc += 16
                calls.append(("ifetch", pc, True))
            else:
                ahead = 64 * rng.randint(1, 4) + 32 * 1024 * rng.randint(1, 3)
                calls.append(("ifetch", pc + ahead, False))
        stream.append((rng.randint(1, 4), calls))
    return stream


def _counters(hierarchy: MemoryHierarchy) -> dict:
    """The raw counters a snapshot derives its keys and rates from."""
    stats = hierarchy.stats
    counters = {
        "l1d_hits": hierarchy.l1d.stats.hits,
        "l1d_misses": hierarchy.l1d.stats.misses,
        "l2_hits": hierarchy.l2.stats.hits,
        "l2_misses": hierarchy.l2.stats.misses,
        "writebacks": hierarchy.l1d.stats.writebacks + hierarchy.l2.stats.writebacks,
        "mshr_merges": hierarchy.mshrs.merges,
        "mshr_full_stalls": hierarchy.mshrs.full_stalls,
        "port_conflicts": stats.port_conflicts,
        "bus_transfers": hierarchy.bus.transfers,
        "bus_queue_delay": hierarchy.bus.total_queue_delay,
        "ifetch_misses": stats.ifetch_misses,
    }
    if hierarchy.params.dcache_banks > 1:
        counters["bank_conflicts"] = list(stats.bank_conflicts)
        counters["checker_probes"] = stats.checker_probes
        counters["checker_port_conflicts"] = stats.checker_port_conflicts
        counters["checker_bank_conflicts"] = list(stats.checker_bank_conflicts)
    return counters


def _drive(hierarchy: MemoryHierarchy, stream) -> list:
    """Run ``stream`` the way the core would and record every answer."""
    wheel = EventWheel()
    hierarchy.attach_wheel(wheel)
    banked = hierarchy.params.dcache_banks > 1
    seen: list = []
    now = 0
    for repeat, calls in stream:
        events = wheel.pop_due(now)
        for kind, _ in events or ():
            if kind == EV_MEM_FILL:
                hierarchy.fills_due()
        asked = refused = 0
        for call in calls:
            if call[0] == "access":
                result = hierarchy.access(call[1], now, call[2])
            elif call[0] == "probe":
                if not banked:
                    continue
                granted = hierarchy.checker_probe(call[1], now)
                seen.append(("probe", granted))
                asked += 1
                refused += not granted
                continue
            else:
                result = hierarchy.ifetch(call[1], now, prefetch=call[2])
                seen.append(("ifetch", result.level, result.ready_at))
                continue
            seen.append((result.ok, result.reason, result.level, result.ready_at))
            asked += 1
            refused += not result.ok
        horizon = hierarchy.replay_horizon()
        seen.append(("horizon", horizon))
        if asked and refused == asked:
            # Repeat the refusals over cycles that cannot differ, as the
            # cycle-skipping core does.
            bound = horizon
            due = wheel.next_cycle()
            if due is not None and due < bound:
                bound = due
            cycles = min(repeat, bound - now - 1)
            if cycles > 0:
                hierarchy.repeat_refusals(now, cycles)
                seen.append(("repeat", cycles))
                now += cycles
        now += 1
    mshrs = hierarchy.mshrs
    seen.append(hierarchy.snapshot())
    seen.append(_counters(hierarchy))
    seen.append((mshrs.allocations, mshrs.merges, mshrs.full_stalls, mshrs.target_stalls))
    return seen


def test_seeded_stream_answers_are_pinned():
    """One seeded stream of ~5,000 calls through 1 and 4 banks, each with
    the Table 1 MSHR file and with 2 entries x 2 targets: every answer and
    final counter is pinned, so no restructuring of the hierarchy can
    change what it computes."""
    stream = _stream()
    assert 4_000 < sum(len(calls) for _, calls in stream) < 6_000
    digest = hashlib.sha256()
    for banks in (1, 4):
        for entries, targets in ((P.mshr_entries, P.mshr_targets), (2, 2)):
            params = HierarchyParams(
                dcache_banks=banks, mshr_entries=entries, mshr_targets=targets
            )
            digest.update(repr(_drive(MemoryHierarchy(params), stream)).encode())
    assert digest.hexdigest() == STREAM_SHA256


#: sha256 of every answer the seeded stream gets back from a 2-set L1I and
#: from the Table 1 L1I, plus each L1I set's lines in LRU order and its hit
#: and miss counts at the end.  With 2 sets the stream buffer's four fills
#: land in the probed line's own set, so fetching the same line again is
#: not always a hit that leaves the cache as it was.
IFETCH_SHA256 = "4089127ea624f4159f917ed008e6ec681bb0f293283ae43e894b57f339e4a826"


def test_seeded_ifetch_answers_are_pinned():
    stream = _stream()
    digest = hashlib.sha256()
    misses = []
    for params in (HierarchyParams(l1i_size=256), HierarchyParams()):
        hierarchy = MemoryHierarchy(params)
        seen = _drive(hierarchy, stream)
        l1i = hierarchy.l1i
        lines = [(index, list(lru)) for index, lru in enumerate(l1i._sets) if lru]
        digest.update(repr((seen, lines, l1i.stats.hits, l1i.stats.misses)).encode())
        misses.append(hierarchy.stats.ifetch_misses)
    assert hierarchy.l1i.num_sets > MemoryHierarchy.IFETCH_PREFETCH_LINES
    assert misses[0] > 2 * misses[1]  # the 2-set L1I thrashes
    assert digest.hexdigest() == IFETCH_SHA256


@pytest.mark.parametrize(
    ("params", "reason"),
    [
        (HierarchyParams(dcache_banks=4, mshr_entries=1), "mshr"),
        (HierarchyParams(dcache_banks=4, mshr_targets=1), "mshr_target"),
    ],
)
def test_an_mshr_refusal_keeps_its_bank_slot_for_the_cycle(params, reason):
    """The bank-slot rule: an access refused at the MSHRs gives back its
    port but not its bank slot, so a same-bank access behind it in the
    same cycle is refused ``bank`` even when it would hit in the L1D."""
    hierarchy = MemoryHierarchy(params)  # 4 ports over 4 banks: 1 slot each
    hot = COLD_A  # bank 0
    same_bank = COLD_A + 4 * P.line_bytes  # bank 0 as well
    hierarchy.access(hot, now=0)
    now = COLD_READY + 10  # hot's fill has landed
    if reason == "mshr":
        # Bank 1 takes the only MSHR; the bank-0 miss finds none.
        assert hierarchy.access(COLD_A + P.line_bytes, now=now).level == "mem"
        refused = hierarchy.access(same_bank, now=now)
    else:
        # A bank-0 miss in flight with its one target used up.
        assert hierarchy.access(same_bank, now=now).level == "mem"
        now += 1
        refused = hierarchy.access(same_bank + 8, now=now)
    assert not refused.ok and refused.reason == reason
    held = (hierarchy._port_cycle, hierarchy._ports_used)
    behind = hierarchy.access(hot, now=now)
    assert not behind.ok and behind.reason == "bank"
    assert (hierarchy._port_cycle, hierarchy._ports_used) == held  # neither holds a port
    assert hierarchy.access(hot, now=now + 1).level == "l1"
