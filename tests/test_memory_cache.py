"""Cache model: LRU order, dirty writebacks, and fill semantics."""

import random
from collections import OrderedDict

import pytest

from repro.memory.cache import Cache, CacheStats, EvictedLine


def one_set_cache(ways: int = 2) -> Cache:
    """A cache with a single set so every line contends for the same ways."""
    return Cache(size_bytes=ways * 64, ways=ways, line_bytes=64)


# Line-aligned addresses; with one set they all collide.
A, B, C, D = 0x000, 0x040, 0x080, 0x0C0


def test_miss_then_fill_then_hit():
    cache = one_set_cache()
    assert cache.lookup(A) is False
    assert cache.fill(A) is None
    assert cache.lookup(A) is True
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_lru_evicts_oldest_line_first():
    cache = one_set_cache(ways=2)
    cache.fill(A)
    cache.fill(B)
    evicted = cache.fill(C)
    assert evicted is not None and evicted.line_addr == cache.line_addr(A)
    assert not cache.contains(A) and cache.contains(B) and cache.contains(C)


def test_lookup_hit_refreshes_lru_position():
    cache = one_set_cache(ways=2)
    cache.fill(A)
    cache.fill(B)
    cache.lookup(A)  # A becomes MRU, B is now the victim
    evicted = cache.fill(C)
    assert evicted.line_addr == cache.line_addr(B)
    assert cache.contains(A)


def test_eviction_order_tracks_successive_fills():
    cache = one_set_cache(ways=2)
    cache.fill(A)
    cache.fill(B)
    first = cache.fill(C)  # evicts A
    second = cache.fill(D)  # evicts B
    assert [first.line_addr, second.line_addr] == [cache.line_addr(A), cache.line_addr(B)]


def test_store_hit_marks_line_dirty_and_eviction_reports_writeback():
    cache = one_set_cache(ways=2)
    cache.fill(A)
    cache.lookup(A, is_store=True)
    cache.fill(B)
    evicted = cache.fill(C)  # evicts dirty A
    assert evicted.dirty is True
    assert cache.stats.writebacks == 1


def test_clean_eviction_is_not_a_writeback():
    cache = one_set_cache(ways=2)
    cache.fill(A)
    cache.fill(B)
    evicted = cache.fill(C)
    assert evicted.dirty is False
    assert cache.stats.writebacks == 0


def test_fill_on_present_line_refreshes_without_eviction_and_merges_dirty():
    cache = one_set_cache(ways=2)
    cache.fill(A)
    cache.fill(B)
    assert cache.fill(A, dirty=True) is None  # refresh, no eviction
    evicted = cache.fill(C)  # B is LRU now
    assert evicted.line_addr == cache.line_addr(B)
    evicted = cache.fill(D)  # evicts A, which merged the dirty flag
    assert evicted.dirty is True


def test_a_dirty_victim_refilled_clean_is_clean():
    cache = one_set_cache(ways=2)
    cache.fill(A, dirty=True)
    cache.fill(B)
    assert cache.fill(C).dirty is True  # A leaves, written back
    cache.fill(A)  # evicts B; A comes back clean
    evicted = cache.fill(D)  # evicts C
    assert (evicted.line_addr, evicted.dirty) == (cache.line_addr(C), False)
    evicted = cache.fill(B)  # evicts A
    assert (evicted.line_addr, evicted.dirty) == (cache.line_addr(A), False)
    assert cache.stats.writebacks == 1


def test_a_clean_fill_of_a_dirty_resident_line_keeps_it_dirty():
    cache = one_set_cache(ways=2)
    cache.fill(A)
    cache.lookup(A, is_store=True)
    cache.fill(B)
    assert cache.fill(A) is None  # ORs in clean, refreshes A's position
    evicted = cache.fill(C)  # B is LRU now
    assert (evicted.line_addr, evicted.dirty) == (cache.line_addr(B), False)
    evicted = cache.fill(D)
    assert (evicted.line_addr, evicted.dirty) == (cache.line_addr(A), True)


def test_a_copy_shares_no_set_and_no_dirty_line_with_its_source():
    cache = Cache(size_bytes=2 * 64, ways=1, line_bytes=64)  # A, C | B, D
    cache.fill(A, dirty=True)
    cache.fill(B)
    clone = cache.copy()
    built = [index for index, lines in enumerate(cache._sets) if lines is not None]
    assert built == [0, 1]
    assert all(clone._sets[index] is not cache._sets[index] for index in built)
    assert clone._dirty is not cache._dirty
    assert _contents(clone) == _contents(cache)
    # The source moves on; the copy keeps its contents, LRU order and stats.
    before = _contents(clone)
    assert cache.fill(C).dirty is True  # evicts A
    cache.lookup(B, is_store=True)
    assert cache.fill(D).dirty is True  # evicts B
    assert _contents(clone) == before
    assert clone.stats == CacheStats()
    assert clone.fill(C).dirty is True  # A is still dirty in the copy


def test_store_miss_does_not_allocate():
    cache = one_set_cache()
    assert cache.lookup(A, is_store=True) is False
    assert not cache.contains(A)


def test_invalidate_all_clears_lines_but_not_stats():
    cache = one_set_cache()
    cache.fill(A)
    cache.lookup(A)
    cache.invalidate_all()
    assert not cache.contains(A)
    assert cache.stats.hits == 1


def test_miss_rate():
    cache = one_set_cache()
    assert cache.stats.accesses == 0
    cache.lookup(A)
    cache.fill(A)
    cache.lookup(A)
    assert cache.stats.misses / cache.stats.accesses == 0.5


@pytest.mark.parametrize(
    "size,ways,line",
    [(100, 2, 64), (128, 2, 48), (384, 2, 64)],  # indivisible / bad line / 3 sets
)
def test_rejects_bad_geometry(size, ways, line):
    with pytest.raises(ValueError):
        Cache(size_bytes=size, ways=ways, line_bytes=line)


# --------------------------------------------- lazy sets vs the eager cache


class EagerCache:
    """The cache as it stood before sets were built lazily: one LRU map per
    set, all created up front and cleared one by one.  The reference the
    lazy cache must match call for call."""

    def __init__(self, size_bytes: int, ways: int, line_bytes: int = 64):
        self.ways = ways
        self.num_sets = size_bytes // (ways * line_bytes)
        self._line_shift = line_bytes.bit_length() - 1
        self._sets = [OrderedDict() for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def _set_for(self, line: int) -> OrderedDict:
        return self._sets[line & (self.num_sets - 1)]

    def lookup(self, addr: int, is_store: bool = False) -> bool:
        line = addr >> self._line_shift
        cache_set = self._set_for(line)
        if line in cache_set:
            cache_set.move_to_end(line)
            if is_store:
                cache_set[line] = True
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def fill(self, addr: int, dirty: bool = False) -> EvictedLine | None:
        line = addr >> self._line_shift
        cache_set = self._set_for(line)
        if line in cache_set:
            cache_set[line] = cache_set[line] or dirty
            cache_set.move_to_end(line)
            return None
        evicted = None
        if len(cache_set) >= self.ways:
            victim_line, victim_dirty = cache_set.popitem(last=False)
            if victim_dirty:
                self.stats.writebacks += 1
            evicted = EvictedLine(line_addr=victim_line, dirty=victim_dirty)
        cache_set[line] = dirty
        return evicted

    def contains(self, addr: int) -> bool:
        line = addr >> self._line_shift
        return line in self._set_for(line)

    def invalidate_all(self) -> None:
        for cache_set in self._sets:
            cache_set.clear()


def _contents(cache) -> list[list[tuple[int, bool]]]:
    """Each set's (line, dirty) pairs in LRU order, oldest first."""
    if isinstance(cache, EagerCache):
        return [list(lines.items()) for lines in cache._sets]
    dirty = cache._dirty
    resident = [lines or [] for lines in cache._sets]
    # Only a resident line can be dirty.
    assert dirty <= {line for lines in resident for line in lines}
    return [[(line, line in dirty) for line in lines] for lines in resident]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "size,ways", [(64 * 1024, 2), (2 * 1024 * 1024, 4)], ids=["l1", "l2"]
)
def test_lazy_sets_match_the_eager_cache_call_for_call(size, ways, seed):
    """A seeded stream of lookups, fills, presence checks and invalidations
    gets the same answers, evictions, writebacks and stats from both."""
    rng = random.Random(seed)
    lazy, eager = Cache(size, ways), EagerCache(size, ways)
    assert lazy.num_sets == eager.num_sets
    # A few hot sets with more lines than ways force evictions; the rest
    # of the stream scatters over the whole index range.
    hot_sets = [0, lazy.num_sets - 1] + [rng.randrange(lazy.num_sets) for _ in range(4)]

    def address() -> int:
        if rng.random() < 0.8:
            line = rng.randrange(3 * ways) * lazy.num_sets + rng.choice(hot_sets)
        else:
            line = rng.randrange(64 * lazy.num_sets)
        return (line << 6) | rng.randrange(64)

    evictions = writebacks = 0
    for _ in range(6000):
        roll = rng.random()
        if roll < 0.4:
            addr, is_store = address(), rng.random() < 0.3
            assert lazy.lookup(addr, is_store) == eager.lookup(addr, is_store)
        elif roll < 0.8:
            addr, dirty = address(), rng.random() < 0.3
            got, want = lazy.fill(addr, dirty), eager.fill(addr, dirty)
            assert got == want
            evictions += want is not None
            writebacks += want is not None and want.dirty
        elif roll < 0.995:
            addr = address()
            assert lazy.contains(addr) == eager.contains(addr)
        else:
            lazy.invalidate_all()
            eager.invalidate_all()
        assert lazy.stats == eager.stats
    assert _contents(lazy) == _contents(eager)
    # The stream really exercised replacement and dirty victims.
    assert evictions > 100 and writebacks > 10
    assert lazy.stats.writebacks == writebacks
