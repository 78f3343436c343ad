"""Timing-oriented memory hierarchy tying caches, MSHRs, and the bus together.

The hierarchy answers the core's question "if this access issues at cycle
``now``, when does its value arrive — and may it issue at all?".  Structural
refusals (all data-cache ports busy this cycle, the access's D-cache bank
saturated, MSHR file full, merge-target overflow) come back as a non-OK
:class:`AccessResult` and the core replays the access on a later cycle,
exactly the throttle that bounds memory-level parallelism in the paper's
experiments.  A refusal leaves the caches, the MSHRs and the bus alone and
holds no port.  Besides its refusal counter it changes one thing: an
access refused at the MSHRs keeps the bank slot it claimed until the cycle
ends (see ``HierarchyParams.dcache_banks``).  Port and bank use restart
every cycle, so cycles that only repeat earlier refusals can be counted
without being re-run (:meth:`MemoryHierarchy.repeat_refusals`).

State updates are *eager*: a miss installs its line immediately while the
returned ready cycle carries the timing, which keeps the model single-pass
and deterministic.  The exception is the L1D, whose fills are deferred
until the miss response arrives; with a scheduling kernel attached (see
:meth:`MemoryHierarchy.attach_wheel`) each deferred fill posts an
``EV_MEM_FILL`` wheel event for its arrival cycle instead of being polled
on every access, and the drain runs only once a response is actually due.
Fills are still *applied* at the first data access on or after arrival —
identical observable timing to the polled model, verified by the
golden-equivalence suite.

Layout the hot paths rely on.  :meth:`MemoryHierarchy.access` and
:meth:`MemoryHierarchy.ifetch` probe the caches and the MSHR file in their
own bodies, reading and updating these internals in place:

* the caches' line lists and dirty sets, as :mod:`repro.memory.cache`
  lays them out.  An L1D or L1I hit moves its line to the end of its set
  unless it is there already, and a store hit adds its line to
  ``l1d._dirty``; a prefetch probe of the L1I or L2 reads a set without
  reordering it.  Every fill goes through :meth:`Cache.fill`.
* ``MSHRFile._misses`` maps a line to its in-flight miss, and
  ``_ready_heap`` holds the misses again as ``(ready_at, line)``,
  earliest first: a reclaim pops the finished ones.
* ``_pending_fills`` maps a line to its deferred L1D fill,
  ``[ready_at, byte_addr, dirty]``; a store merging onto the miss sets
  its dirty flag.

Counters — the caches', the MSHR file's, the bus's and
:class:`HierarchyStats` — are running totals, all zeroed by
:meth:`MemoryHierarchy.reset_counters`: :meth:`MemoryHierarchy.reset` calls
it between independent runs, and a warm-start window calls it alone at its
boundary, keeping the warm caches.  So :meth:`MemoryHierarchy.snapshot`
always reports the traffic since the last zeroing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.memory.bus import MemoryBus
from repro.memory.cache import LINE_BYTES, Cache, CacheStats, set_count
from repro.memory.mshr import MSHRFile
from repro.util import BUILT, check_fields, knob, run_state, start_run

#: Mirror of :data:`repro.core.sched.EV_MEM_FILL` (importing it here would
#: cycle: repro.core.core imports this module).  Pinned equal by a test.
_EV_MEM_FILL = 1


@dataclass(slots=True)
class HierarchyParams:
    """Table 1 memory-system configuration.

    Attributes:
        l1i_size / l1d_size: Split 64KB L1 instruction / data caches.
        l1_ways: L1 associativity (2-way).
        l1_latency: L1 hit latency in cycles (3).  At least 1: a hit that
            completed in its issue cycle would post its consumers' wake-ups
            into the cycle the core has already drained.
        l2_size / l2_ways / l2_latency: Unified 2MB 4-way L2, 12-cycle hits.
        mem_latency: Main-memory access latency (200 cycles).
        line_bytes: Cache line size everywhere (64 bytes).
        dcache_ports: Data-cache ports shared by all loads/stores per cycle.
        dcache_banks: Line-interleaved L1D banks.  1 (the default) models a
            fully-ported cache — the legacy behaviour.  With more banks,
            each bank serves at most ``max(1, dcache_ports // dcache_banks)``
            accesses per cycle, so same-bank accesses conflict even when
            ports remain — and checker re-accesses (see
            ``MemoryHierarchy.checker_probe``) contend with the primary
            path for the same bank slots.  An access refused at the MSHRs
            (file full or targets full) keeps its bank slot for the cycle,
            so a same-bank access behind it is refused ``bank``, even an
            L1 hit.
        mshr_entries / mshr_targets: MSHR file bounds (32 entries, 8 targets).
        bus_cycles_per_transfer: Line occupancy of the memory bus.

    Each cache's size must be a power of two times its ways times
    ``line_bytes``, itself a power of two (:func:`~repro.memory.cache.set_count`).
    """

    l1i_size: int = 64 * 1024
    l1d_size: int = 64 * 1024
    l1_ways: int = knob(2, lo=1)
    l1_latency: int = knob(3, lo=1)
    l2_size: int = 2 * 1024 * 1024
    l2_ways: int = knob(4, lo=1)
    l2_latency: int = knob(12, lo=0)
    mem_latency: int = knob(200, lo=0)
    line_bytes: int = LINE_BYTES
    dcache_ports: int = knob(4, lo=1)
    dcache_banks: int = knob(1, lo=1)
    mshr_entries: int = knob(32, lo=1)
    mshr_targets: int = knob(8, lo=1)
    bus_cycles_per_transfer: int = knob(4, lo=1)

    def __post_init__(self) -> None:
        check_fields(self)
        for name, ways in (
            ("l1i_size", self.l1_ways),
            ("l1d_size", self.l1_ways),
            ("l2_size", self.l2_ways),
        ):
            set_count(getattr(self, name), ways, self.line_bytes, name)


@dataclass(slots=True)
class AccessResult:
    """Answer to one data access.

    Results are read-only: callers must not change one.  Every refusal
    with the same ``reason`` returns the same shared object.

    Attributes:
        ok: False when the access could not issue this cycle and must be
            replayed (see ``reason``).
        ready_at: Cycle the value is available (meaningless when not ok).
        level: Hierarchy level that serviced the access: ``"l1"``, ``"l2"``,
            ``"mem"``, or ``"mshr"`` for a hit on an in-flight miss.
        reason: Refusal reason when not ok: ``"port"``, ``"bank"``,
            ``"mshr"``, or ``"mshr_target"``.
    """

    ok: bool
    ready_at: int = 0
    level: str = "l1"
    reason: str | None = None


#: The shared refusals, one per reason.  A refusal carries no cycle.
REFUSED_PORT = AccessResult(ok=False, reason="port")
REFUSED_BANK = AccessResult(ok=False, reason="bank")
REFUSED_MSHR = AccessResult(ok=False, reason="mshr")
REFUSED_MSHR_TARGET = AccessResult(ok=False, reason="mshr_target")


@dataclass(slots=True)
class HierarchyStats:
    """Aggregate counters the caches/MSHR/bus do not track themselves."""

    port_conflicts: int = 0
    ifetch_misses: int = 0
    # --- banking (sized by MemoryHierarchy; all-zero when dcache_banks=1) ---
    #: Primary accesses refused because their bank was saturated this cycle.
    bank_conflicts: list[int] = field(default_factory=list)
    #: Checker re-access attempts (see ``MemoryHierarchy.checker_probe``).
    checker_probes: int = 0
    #: Checker probes refused at the port level (all ports busy).
    checker_port_conflicts: int = 0
    #: Checker probes refused because their bank was saturated this cycle.
    checker_bank_conflicts: list[int] = field(default_factory=list)


HierarchyStats.RUN_STATE = run_state(value=" ".join(f.name for f in fields(HierarchyStats)))


class MemoryHierarchy:
    """Split L1 I/D + unified L2 + bandwidth-limited main memory.

    The data path enforces per-cycle port limits and MSHR bounds; the
    instruction path models miss timing only (fetch is one access per
    cycle per group, so I-cache ports are never the bottleneck here).
    """

    #: The hierarchy's run state (see :func:`repro.util.run_state`).  The
    #: caches, MSHRs, bus and stats are built once and emptied by :meth:`reset`.
    RUN_STATE = run_state(
        derived="params _nbanks _bank_ports _ports _l1_latency _line_shift _wheel",
        subsystem="bus stats",
        value={
            "l1i": BUILT,
            "l1d": BUILT,
            "l2": BUILT,
            "mshrs": BUILT,
            "_port_cycle": -1,
            "_ports_used": 0,
            "_bank_cycle": -1,
            "_banks_used": lambda hierarchy: [0] * hierarchy._nbanks,
            # line -> [ready_at, byte_addr, dirty]; L1D fills are applied
            # only once the miss response arrives, so accesses in the
            # shadow of an outstanding miss merge at the MSHRs instead of
            # hitting early.
            "_pending_fills": dict,
            # With a wheel attached, each deferred fill posts an
            # EV_MEM_FILL event and `_fills_armed` flips only when a
            # response is due, replacing the per-access poll.
            "_fills_armed": False,
            # The refusals handed out during cycle `_refusal_cycle`, as
            # (reason, bank) pairs: what repeat_refusals charges again.
            "_refusal_cycle": -1,
            "_refusals": list,
        },
    )

    def __init__(self, params: HierarchyParams | None = None):
        self.params = params or HierarchyParams()
        p = self.params
        self._nbanks = p.dcache_banks
        #: Per-bank per-cycle access capacity under line interleaving.
        self._bank_ports = max(1, p.dcache_ports // p.dcache_banks)
        self.l1i = Cache(p.l1i_size, p.l1_ways, p.line_bytes, name="l1i")
        self.l1d = Cache(p.l1d_size, p.l1_ways, p.line_bytes, name="l1d")
        self.l2 = Cache(p.l2_size, p.l2_ways, p.line_bytes, name="l2")
        self.mshrs = MSHRFile(entries=p.mshr_entries, targets_per_entry=p.mshr_targets)
        self.bus = MemoryBus(cycles_per_transfer=p.bus_cycles_per_transfer)
        self.stats = self._fresh_stats()
        # Params the access path reads on every call.
        self._ports = p.dcache_ports
        self._l1_latency = p.l1_latency
        self._line_shift = p.line_bytes.bit_length() - 1
        # Scheduling-kernel hookup (see attach_wheel).
        self._wheel = None
        start_run(self)

    def attach_wheel(self, wheel) -> None:
        """Route deferred-fill arrivals through ``wheel`` (an
        :class:`~repro.core.sched.EventWheel`) instead of per-access polls.

        The core re-attaches its fresh wheel every run; events posted to a
        previous run's wheel die with it.
        """
        self._wheel = wheel
        self._fills_armed = False

    def fills_due(self) -> None:
        """EV_MEM_FILL delivery: a miss response has arrived.

        Arms the drain; the fill is applied at the next data access, which
        is exactly when the polled model would have applied it (the L1D is
        only observable through accesses).
        """
        self._fills_armed = True

    def _drain_fills(self, now: int) -> None:
        if not self._pending_fills:
            return
        arrived = [line for line, (ready, _, _) in self._pending_fills.items() if ready <= now]
        for line in arrived:
            _, addr, dirty = self._pending_fills.pop(line)
            evicted = self.l1d.fill(addr, dirty=dirty)
            if evicted is not None and evicted.dirty:
                self._fill_l2(evicted.line_addr * self.l1d.line_bytes, now, dirty=True)

    def _fresh_stats(self) -> HierarchyStats:
        stats = HierarchyStats()
        stats.bank_conflicts = [0] * self._nbanks
        stats.checker_bank_conflicts = [0] * self._nbanks
        return stats

    # ---------------------------------------------------------- ports and banks

    def checker_probe(self, addr: int, now: int) -> bool:
        """One checker re-access attempt at ``addr``; True if it may proceed.

        The core wires this into the :class:`~repro.core.checker.Checker`
        only when banking is modelled (``dcache_banks > 1``).  A successful
        probe consumes a real port and bank slot, so checker traffic
        genuinely contends with the primary path; a refusal holds neither,
        stalls the in-order check pipeline for the cycle and is counted
        per bank.
        """
        stats = self.stats
        stats.checker_probes += 1
        if now != self._port_cycle:
            self._port_cycle = now
            self._ports_used = 0
        if self._ports_used >= self._ports:
            stats.port_conflicts += 1
            stats.checker_port_conflicts += 1
            self._log_refusal(now, "checker_port")
            return False
        if now != self._bank_cycle:
            self._bank_cycle = now
            self._banks_used = [0] * self._nbanks
        bank = (addr >> self._line_shift) % self._nbanks
        if self._banks_used[bank] >= self._bank_ports:
            stats.checker_bank_conflicts[bank] += 1
            self._log_refusal(now, "checker_bank", bank)
            return False
        self._banks_used[bank] += 1
        self._ports_used += 1
        return True

    # ---------------------------------------------------------- repeat refusals

    def _log_refusal(self, now: int, reason: str, bank: int = -1) -> None:
        if now != self._refusal_cycle:
            self._refusal_cycle = now
            self._refusals = []
        self._refusals.append((reason, bank))

    def replay_horizon(self) -> float:
        """First cycle at which a refused request may be answered differently.

        Port and bank use restart every cycle, and a refused request
        changes no other state.  So the requests refused at one cycle, made
        again in the same order on a later cycle, are refused again the
        same way — until an arrived fill is applied to the L1D or an
        in-flight miss completes and frees its MSHR.  Returns ``-inf``
        while an arrived fill waits for the next access to apply it, and
        ``inf`` when no miss is in flight.
        """
        if self._fills_armed:
            return float("-inf")
        return self.mshrs.next_ready

    def repeat_refusals(self, now: int, cycles: int) -> None:
        """Count ``cycles`` more cycles that each repeat cycle ``now``'s refusals.

        The cycle-skipping core calls this after proving (see
        :meth:`replay_horizon`) that every data access and checker probe
        refused at ``now`` would be refused the same way on each of the
        next ``cycles`` cycles, instead of making each request again.
        Every refusal counter is bumped exactly as the repeats would have.
        """
        if now != self._refusal_cycle:
            return
        stats = self.stats
        mshrs = self.mshrs
        for reason, bank in self._refusals:
            if reason == "port":
                stats.port_conflicts += cycles
            elif reason == "bank":
                stats.bank_conflicts[bank] += cycles
            elif reason == "mshr":
                mshrs.full_stalls += cycles
            elif reason == "mshr_target":
                mshrs.target_stalls += cycles
            elif reason == "checker_port":
                stats.checker_probes += cycles
                stats.checker_port_conflicts += cycles
                stats.port_conflicts += cycles
            else:  # "checker_bank"
                stats.checker_probes += cycles
                stats.checker_bank_conflicts[bank] += cycles

    # ------------------------------------------------------------- data path

    def access(self, addr: int, now: int, is_store: bool = False) -> AccessResult:
        """Issue a load/store to byte ``addr`` at cycle ``now``.

        Hits cost the L1 latency.  Misses consult the MSHR file: a hit on an
        in-flight miss merges (``level == "mshr"``); otherwise a fresh MSHR
        is allocated and the line fetched from L2 or memory, installing it
        into both levels.  A refused access (``ok=False``) holds no port,
        but one refused at the MSHRs keeps its bank slot for the cycle, so
        a same-bank access behind it is refused ``bank``.

        This method is the MSHR policy's one owner: it reads and updates
        the :class:`~repro.memory.mshr.MSHRFile`'s misses and counters
        itself.  It is also the core's hottest memory call, so its body
        does all of it — port, bank, L1D set, MSHR entry — without helper
        calls, and a refusal calls nothing but the refusal log.
        """
        if self._wheel is None:
            self._drain_fills(now)
        elif self._fills_armed:
            self._drain_fills(now)
            self._fills_armed = False
        if now != self._port_cycle:
            self._port_cycle = now
            self._ports_used = 0
        if self._ports_used >= self._ports:
            self.stats.port_conflicts += 1
            self._log_refusal(now, "port")
            return REFUSED_PORT
        # Only a served access claims its port: a refusal holds none.
        line = addr >> self._line_shift
        if self._nbanks > 1:
            if now != self._bank_cycle:
                self._bank_cycle = now
                self._banks_used = [0] * self._nbanks
            bank = line % self._nbanks
            if self._banks_used[bank] >= self._bank_ports:
                self.stats.bank_conflicts[bank] += 1
                self._log_refusal(now, "bank", bank)
                return REFUSED_BANK
            # Kept even if the MSHRs refuse the access below.
            self._banks_used[bank] += 1
        l1d = self.l1d
        # Cache.lookup's hit path, inlined (see repro.memory.cache).
        cache_set = l1d._sets[line & l1d._set_mask]
        if cache_set is not None and line in cache_set:
            if cache_set[-1] != line:
                cache_set.remove(line)
                cache_set.append(line)
            if is_store:
                l1d._dirty.add(line)
            l1d.stats.hits += 1
            self._ports_used += 1
            return AccessResult(True, now + self._l1_latency, "l1")

        mshrs = self.mshrs
        heap = mshrs._ready_heap
        if heap and heap[0][0] <= now:
            mshrs._reclaim(now)
        miss = mshrs._misses.get(line)
        if miss is not None:
            if miss.targets >= mshrs.targets_per_entry:
                mshrs.target_stalls += 1
                self._log_refusal(now, "mshr_target")
                return REFUSED_MSHR_TARGET
            miss.targets += 1
            mshrs.merges += 1
            l1d.stats.misses += 1
            self._ports_used += 1
            if is_store:
                fill = self._pending_fills.get(line)
                if fill is not None:
                    fill[2] = True
            # Merging never beats an L1 hit: data arriving with the fill
            # still crosses the L1 access path.
            ready = miss.ready_at
            l1_ready = now + self._l1_latency
            return AccessResult(True, ready if ready > l1_ready else l1_ready, "mshr")
        if len(mshrs._misses) >= mshrs.entries:
            mshrs.full_stalls += 1
            self._log_refusal(now, "mshr")
            return REFUSED_MSHR

        l1d.stats.misses += 1
        self._ports_used += 1
        ready, level = self._fetch_line(addr, now)
        mshrs._allocate(line, ready)
        self._pending_fills[line] = [ready, addr, is_store]
        if self._wheel is not None:
            self._wheel.post(ready, _EV_MEM_FILL, line)
        return AccessResult(True, ready, level)

    def _fetch_line(self, addr: int, now: int) -> tuple[int, str]:
        """Bring ``addr``'s line from L2 or memory; returns (ready, level)."""
        p = self.params
        if self.l2.lookup(addr):
            return now + p.l1_latency + p.l2_latency, "l2"
        start = self.bus.schedule(now + p.l1_latency + p.l2_latency)
        self._fill_l2(addr, start)
        return start + p.mem_latency, "mem"

    # ------------------------------------------------------ instruction path

    #: Sequential lines brought in behind every fetch-group access.  The
    #: stream buffer is modelled as ideal (prefetches complete before the
    #: demand access that would need them), so only discontinuous fetches —
    #: the first access and branch targets beyond the prefetch distance —
    #: can stall the front end.
    IFETCH_PREFETCH_LINES = 4

    def ifetch(self, pc: int, now: int, prefetch: bool = True) -> AccessResult:
        """Fetch-group access to the I-cache at ``pc``.

        Hits are free from the core's point of view (fetch is pipelined);
        the core stalls only on the returned ready cycle of a miss.
        ``prefetch=False`` skips the stream buffer: the ideal-prefetch
        assumption holds for the demand (correct-path) stream only, so
        wrong-path probes fill their own lines but must not prefetch the
        correct path's future lines for free.

        Called once per fetched cache line, so, like :meth:`access`, it
        probes the L1I set and each prefetched line's L1I and L2 sets in
        its own body; only a miss or a prefetch fill calls out.
        """
        shift = self._line_shift
        line = pc >> shift
        l1i = self.l1i
        l1i_sets = l1i._sets
        l1i_mask = l1i._set_mask
        cache_set = l1i_sets[line & l1i_mask]
        if cache_set is not None and line in cache_set:
            if cache_set[-1] != line:
                cache_set.remove(line)
                cache_set.append(line)
            l1i.stats.hits += 1
            result = AccessResult(True, now, "l1")
        else:
            l1i.stats.misses += 1
            self.stats.ifetch_misses += 1
            ready, level = self._fetch_line(pc, now)
            l1i.fill(pc)
            result = AccessResult(True, ready, level)
        if not prefetch:
            return result
        l2 = self.l2
        for ahead in range(1, self.IFETCH_PREFETCH_LINES + 1):
            next_line = line + ahead
            cache_set = l1i_sets[next_line & l1i_mask]
            if cache_set is None or next_line not in cache_set:
                next_pc = next_line << shift
                cache_set = l2._sets[next_line & l2._set_mask]
                if cache_set is None or next_line not in cache_set:
                    start = self.bus.schedule(now)  # prefetches consume bandwidth
                    self._fill_l2(next_pc, start)
                l1i.fill(next_pc)
        return result

    def _fill_l2(self, addr: int, now: int, dirty: bool = False) -> None:
        """Install a line into L2, charging the bus for any dirty victim."""
        evicted = self.l2.fill(addr, dirty=dirty)
        if evicted is not None and evicted.dirty:
            self.bus.schedule(now)

    # ----------------------------------------------------------------- admin

    def reset(self) -> None:
        """Drop all cached state and counters (between independent runs)."""
        for cache in (self.l1i, self.l1d, self.l2):
            cache.invalidate_all()
        self.mshrs.flush()
        self.bus.reset()
        self.reset_counters()
        start_run(self)

    def reset_counters(self) -> None:
        """Zero every counter and keep all other state: a warm-start
        window's boundary, after which :meth:`snapshot` reports only the
        window's traffic."""
        for cache in (self.l1i, self.l1d, self.l2):
            cache.stats = CacheStats()
        mshrs = self.mshrs
        mshrs.allocations = mshrs.merges = mshrs.full_stalls = mshrs.target_stalls = 0
        self.bus.transfers = self.bus.total_queue_delay = 0
        self.stats = self._fresh_stats()

    def snapshot(self) -> dict[str, float]:
        """Flat stats dict for reports.

        Banking keys appear only when ``dcache_banks > 1``: the snapshot is
        embedded (``mem_``-prefixed) in every result row, and legacy
        single-bank rows must stay byte-identical.
        """
        l1d = self.l1d.stats
        l2 = self.l2.stats
        l1d_accesses = l1d.hits + l1d.misses
        l2_accesses = l2.hits + l2.misses
        bus = self.bus
        stats = self.stats
        data: dict[str, float] = {
            "l1d_miss_rate": l1d.misses / l1d_accesses if l1d_accesses else 0.0,
            "l1d_accesses": l1d_accesses,
            "l2_miss_rate": l2.misses / l2_accesses if l2_accesses else 0.0,
            "writebacks": l1d.writebacks + l2.writebacks,
            "mshr_merges": self.mshrs.merges,
            "mshr_full_stalls": self.mshrs.full_stalls,
            "port_conflicts": stats.port_conflicts,
            "bus_transfers": bus.transfers,
            "bus_avg_queue_delay": (
                bus.total_queue_delay / bus.transfers if bus.transfers else 0.0
            ),
            "ifetch_misses": stats.ifetch_misses,
        }
        if self._nbanks > 1:
            data["dcache_banks"] = self._nbanks
            data["bank_conflicts"] = sum(stats.bank_conflicts)
            data["bank_conflicts_per_bank"] = list(stats.bank_conflicts)
            data["checker_probes"] = stats.checker_probes
            data["checker_port_conflicts"] = stats.checker_port_conflicts
            data["checker_bank_conflicts"] = sum(stats.checker_bank_conflicts)
            data["checker_bank_conflicts_per_bank"] = list(stats.checker_bank_conflicts)
        return data
