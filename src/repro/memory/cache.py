"""Set-associative cache with LRU replacement.

The cache tracks tags only (the simulator is trace driven; data values are
not modelled in the cache).  Writes are write-back / write-allocate: a
store miss allocates the line and marks it dirty, and evicting a dirty
line reports a writeback so the hierarchy can charge bus bandwidth.

Layout ``MemoryHierarchy.access`` and ``ifetch`` rely on: they probe sets
and apply L1 hits in place instead of calling :meth:`Cache.lookup`, and
leave every fill to :meth:`Cache.fill`.

* ``Cache._sets[line & _set_mask]`` is ``None`` until the set's first
  fill, then a plain list of line addresses (``addr >> _line_shift``) in
  LRU order, oldest first.  A set is never empty once built, so its last
  entry is its most recent line.  A hit moves its line to the end (a hit
  on the last entry moves nothing).  A fill of a resident line does the
  same; any other fill appends, first dropping entry 0 from a full set.
* ``Cache._dirty`` is the set of the cache's dirty lines, each of them
  resident.  A store hit and a dirty fill add the line (a fill of a
  resident line ORs its flag in); evicting a line removes it, so a later
  clean refill of that line is clean.
"""

from __future__ import annotations

import copy
from array import array
from dataclasses import dataclass, replace

from repro.util import require_power_of_two

#: Table 1 cache-line size, shared by every cache level and by the
#: workload generator's hot-set / cold-miss address striding.
LINE_BYTES = 64


def set_count(size_bytes: int, ways: int, line_bytes: int, name: str) -> int:
    """The set count of a ``size_bytes`` cache of ``ways`` ways.

    Raises:
        ValueError: naming ``name`` unless ``line_bytes`` is a power of two
            and the set count a positive one (sets are indexed by a mask).
    """
    require_power_of_two(line_bytes, "line_bytes")
    sets, rest = divmod(size_bytes, ways * line_bytes)
    if rest or sets <= 0 or sets & (sets - 1):
        raise ValueError(
            f"{name} must be a power of two times ways * line_bytes "
            f"({ways} * {line_bytes}), got {size_bytes}"
        )
    return sets


@dataclass(slots=True)
class CacheStats:
    """Hit/miss/writeback counters for one cache."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        """Total number of lookups."""
        return self.hits + self.misses


@dataclass(slots=True)
class EvictedLine:
    """Description of a line pushed out by a fill."""

    line_addr: int
    dirty: bool


class Cache:
    """A set-associative, LRU, write-back/write-allocate cache model.

    Args:
        size_bytes: Total capacity.
        ways: Associativity.
        line_bytes: Line size (Table 1: 64 bytes).
        name: Label used in stats dumps.
    """

    def __init__(
        self, size_bytes: int, ways: int, line_bytes: int = LINE_BYTES, name: str = "cache"
    ):
        self.name = name
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = set_count(size_bytes, ways, line_bytes, f"{name} size")
        self._line_shift = line_bytes.bit_length() - 1
        self._set_mask = self.num_sets - 1
        # Each set is a list of line addresses in LRU order (oldest first;
        # see the module docstring).  A set's list is created by its first
        # fill, so building or invalidating a cache costs one list, not one
        # per set (a run of a few thousand ops touches a small fraction of
        # a 2 MB L2).
        self._sets: list[list[int] | None] = [None] * self.num_sets
        #: Indices of the sets created so far, so a copy skips the rest
        #: (an array: a list would keep an int object alive per index).
        self._filled = array("I")
        #: The dirty lines, every one of them resident.
        self._dirty: set[int] = set()
        self.stats = CacheStats()

    def line_addr(self, addr: int) -> int:
        """Return the line-aligned address containing byte ``addr``."""
        return addr >> self._line_shift

    def lookup(self, addr: int, is_store: bool = False) -> bool:
        """Probe the cache; returns True on hit.

        A store hit marks the line dirty.  Misses do **not** allocate; call
        :meth:`fill` when the miss response arrives (or immediately, for
        atomic-latency modelling).
        """
        line = self.line_addr(addr)
        cache_set = self._sets[line & self._set_mask]
        if cache_set is not None and line in cache_set:
            if cache_set[-1] != line:
                cache_set.remove(line)
                cache_set.append(line)
            if is_store:
                self._dirty.add(line)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def fill(self, addr: int, dirty: bool = False) -> EvictedLine | None:
        """Install the line containing ``addr``; returns any evicted line.

        Filling a line that is already present refreshes its LRU position
        (and merges the dirty flag) rather than evicting.
        """
        line = self.line_addr(addr)
        if dirty:
            self._dirty.add(line)
        index = line & self._set_mask
        cache_set = self._sets[index]
        if cache_set is None:
            self._sets[index] = [line]
            self._filled.append(index)
            return None
        if line in cache_set:
            if cache_set[-1] != line:
                cache_set.remove(line)
                cache_set.append(line)
            return None
        evicted = None
        if len(cache_set) >= self.ways:
            victim = cache_set.pop(0)
            victim_dirty = victim in self._dirty
            if victim_dirty:
                self._dirty.remove(victim)
                self.stats.writebacks += 1
            evicted = EvictedLine(line_addr=victim, dirty=victim_dirty)
        cache_set.append(line)
        return evicted

    def contains(self, addr: int) -> bool:
        """Non-destructive presence check (no LRU update, no stats)."""
        line = self.line_addr(addr)
        cache_set = self._sets[line & self._set_mask]
        return cache_set is not None and line in cache_set

    def invalidate_all(self) -> None:
        """Drop every line (used between independent simulation regions)."""
        self._sets = [None] * self.num_sets
        self._filled = array("I")
        self._dirty = set()

    def copy(self) -> "Cache":
        """An independent copy: contents, LRU order, dirty lines and counters."""
        clone = copy.copy(self)
        sets = clone._sets = self._sets.copy()
        for index in self._filled:
            sets[index] = sets[index][:]
        clone._filled = self._filled[:]
        clone._dirty = self._dirty.copy()
        clone.stats = replace(self.stats)
        return clone
