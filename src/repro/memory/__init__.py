"""Memory hierarchy substrate.

Implements the Table 1 memory system: 64KB 2-way split L1 I/D caches with
64-byte lines and 3-cycle hits, a unified 2MB 4-way L2 with 12-cycle hits,
200-cycle main memory behind a bandwidth-limited bus, a 32-entry 8-target
MSHR file, and 4 data-cache ports.

The hierarchy is *timing oriented*: the cores ask "if this load issues at
cycle ``now``, when does its value arrive, and may it issue at all?" and
the hierarchy answers with a latency (or an MSHR/port structural refusal),
updating cache and MSHR state as a side effect.
"""

from repro.memory.bus import MemoryBus
from repro.memory.cache import Cache, CacheStats
from repro.memory.hierarchy import AccessResult, HierarchyParams, MemoryHierarchy
from repro.memory.mshr import MSHRFile

__all__ = [
    "AccessResult",
    "Cache",
    "CacheStats",
    "HierarchyParams",
    "MSHRFile",
    "MemoryBus",
    "MemoryHierarchy",
]
