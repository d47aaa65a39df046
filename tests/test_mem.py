"""Memory hierarchy: cache behaviour (vs a reference model), addressing
disciplines, latency accounting, DRAM banking."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheAddressing, CacheConfig, default_config
from repro.mem.cache import Cache
from repro.mem.dram import DRAM
from repro.mem.hierarchy import MemoryHierarchy


def _small_cache(assoc=2, sets=4, block=32):
    return Cache(CacheConfig("t", size_bytes=assoc * sets * block,
                             assoc=assoc, block_bytes=block, hit_latency=1))


class TestCache:
    def test_cold_miss_then_hit(self):
        cache = _small_cache()
        assert not cache.access(0x1000, 0x1000).hit
        assert cache.access(0x1000, 0x1000).hit

    def test_same_block_offsets_hit(self):
        cache = _small_cache()
        cache.access(0x1000, 0x1000)
        assert cache.access(0x101C, 0x101C).hit

    def test_lru_within_set(self):
        cache = _small_cache(assoc=2, sets=1, block=32)
        cache.access(0x0, 0x0)
        cache.access(0x20, 0x20)
        cache.access(0x0, 0x0)  # 0x20 is now LRU
        cache.access(0x40, 0x40)  # evicts 0x20
        assert cache.probe(0x0, 0x0)
        assert not cache.probe(0x20, 0x20)

    def test_dirty_victim_reports_writeback(self):
        cache = _small_cache(assoc=1, sets=1, block=32)
        cache.access(0x0, 0x0, write=True)
        result = cache.access(0x20, 0x20)
        assert result.writeback_pa == 0x0

    def test_clean_victim_no_writeback(self):
        cache = _small_cache(assoc=1, sets=1, block=32)
        cache.access(0x0, 0x0)
        assert cache.access(0x20, 0x20).writeback_pa is None

    def test_split_index_tag(self):
        """VI-PT style: index by one address, tag by another."""
        cache = _small_cache()
        cache.access(0x1000, 0x9000, pa_block=0x9000)
        assert cache.access(0x1000, 0x9000).hit
        # same index, different physical tag: miss
        assert not cache.access(0x1000, 0xA000).hit

    def test_writeback_uses_physical_block(self):
        cache = _small_cache(assoc=1, sets=1, block=32)
        cache.access(0x0, 0x5000, write=True, pa_block=0x5000)
        result = cache.access(0x40, 0x6000, pa_block=0x6000)
        assert result.writeback_pa == 0x5000

    def test_probe_of_an_unfilled_set_creates_nothing(self):
        cache = _small_cache(assoc=2, sets=4, block=32)
        cache.access(0x0, 0x0)  # fills set 0 only
        assert not cache.probe(0x20, 0x20)  # set 1, never filled
        assert 0x20 not in cache
        assert cache._sets[1:] == [None, None, None]
        assert cache.probe(0x0, 0x0)
        assert cache.stats.accesses == 1

    def test_partly_filled_cache_counts_and_flushes(self):
        cache = _small_cache(assoc=2, sets=4, block=32)
        cache.access(0x0, 0x0, write=True)  # set 0
        cache.access(0x80, 0x80)  # set 0, second way
        cache.access(0x40, 0x40, write=True)  # set 2
        assert [len(s or ()) for s in cache._sets] == [2, 0, 1, 0]
        assert cache._sets[1] is None and cache._sets[3] is None
        assert not cache.access(0x60, 0x60).hit  # set 3, first fill
        assert cache.probe(0x60, 0x60)
        assert [len(s or ()) for s in cache._sets] == [2, 0, 1, 1]
        assert cache.stats.misses == 4 and cache.stats.hits == 0

    @given(st.lists(st.tuples(st.integers(0, 16), st.booleans()),
                    min_size=1, max_size=300))
    @settings(max_examples=40)
    def test_matches_reference_model(self, ops):
        """Direct-mapped cache vs a dict-based reference."""
        block = 32
        sets = 4
        cache = Cache(CacheConfig("t", size_bytes=sets * block, assoc=1,
                                  block_bytes=block, hit_latency=1))
        reference = {}
        for block_id, write in ops:
            addr = block_id * block
            set_index = block_id % sets
            expected_hit = reference.get(set_index) == block_id
            result = cache.access(addr, addr, write=write)
            assert result.hit == expected_hit
            reference[set_index] = block_id
        assert cache.stats.accesses == len(ops)


class TestAddressing:
    """The paper's Section 2 table, one (discipline, index/tag) case at a
    time: which address, virtual or physical, indexes and tags the iL1."""

    #: discipline -> (index is physical, tag is physical)
    TABLE = {CacheAddressing.VIVT: (False, False),
             CacheAddressing.VIPT: (False, True),
             CacheAddressing.PIPT: (True, True)}

    def test_pairs(self):
        for addressing, (index, tag) in self.TABLE.items():
            assert addressing.index_is_physical is index, addressing
            assert addressing.tag_is_physical is tag, addressing

    def test_translation_requirements(self):
        """PI-PT translates before indexing; VI-PT and PI-PT translate to
        declare a hit; VI-VT translates on a miss only."""
        before_index = {a for a in CacheAddressing if a.index_is_physical}
        for_hit = {a for a in CacheAddressing if a.tag_is_physical}
        assert before_index == {CacheAddressing.PIPT}
        assert for_hit == {CacheAddressing.VIPT, CacheAddressing.PIPT}
        assert set(CacheAddressing) - for_hit == {CacheAddressing.VIVT}

    def test_hierarchy_routes_by_the_table(self):
        """A fetch fills the iL1 line the table names, and only it: of
        the four (index, tag) pairs drawn from va and pa, exactly one
        probes as resident."""
        va, pa = 0x400000, 0x9020  # different iL1 sets and tags
        for addressing, (index, tag) in self.TABLE.items():
            hier = MemoryHierarchy(default_config(addressing).mem)
            hier.fetch(va, pa)
            resident = {(i, t) for i in (va, pa) for t in (va, pa)
                        if hier.il1.probe(i, t)}
            assert resident == {(pa if index else va,
                                 pa if tag else va)}, addressing


class TestHierarchy:
    def _hier(self, addressing=CacheAddressing.VIPT):
        return MemoryHierarchy(default_config(addressing).mem)

    def test_il1_hit_latency(self):
        hier = self._hier()
        hier.fetch(0x400000, 0x9000)
        outcome = hier.fetch(0x400000, 0x9000)
        assert outcome.il1_hit and outcome.latency == 1

    def test_l2_hit_latency(self):
        hier = self._hier()
        hier.fetch(0x400000, 0x9000)  # fills L2 and iL1
        # evict from iL1 by an index-conflicting line (8KB direct mapped)
        hier.fetch(0x400000 + 8192, 0x9000 + 8192)
        outcome = hier.fetch(0x400000, 0x9000)
        assert not outcome.il1_hit and outcome.l2_hit
        assert outcome.latency == 1 + 10

    def test_dram_latency_on_cold_miss(self):
        hier = self._hier()
        outcome = hier.fetch(0x400000, 0x9000)
        assert not outcome.l2_hit
        assert outcome.latency >= 1 + 10 + 100

    def test_data_write_allocate(self):
        hier = self._hier()
        hier.data(0x10000000, 0x7000, write=True)
        outcome = hier.data(0x10000000, 0x7000, write=False)
        assert outcome.dl1_hit

    def test_vivt_hit_ignores_physical(self):
        hier = self._hier(CacheAddressing.VIVT)
        hier.fetch(0x400000, 0x9000)
        # same VA, absurd PA: still a VI-VT hit
        outcome = hier.fetch(0x400000, 0xFFFF000)
        assert outcome.il1_hit

    def test_pipt_conflicts_differ_from_vipt(self):
        """Two VAs conflicting virtually but not physically: PI-PT keeps
        both resident, VI-PT (virtual index) evicts."""
        va1, va2 = 0x400000, 0x400000 + 8192
        pa1, pa2 = 0x10000, 0x10000 + 4096  # different iL1 sets physically
        vipt = self._hier(CacheAddressing.VIPT)
        vipt.fetch(va1, pa1)
        vipt.fetch(va2, pa2)
        assert not vipt.fetch(va1, pa1).il1_hit  # evicted (same v-index)
        pipt = self._hier(CacheAddressing.PIPT)
        pipt.fetch(va1, pa1)
        pipt.fetch(va2, pa2)
        assert pipt.fetch(va1, pa1).il1_hit  # different p-index: resident

    def test_reset_stats(self):
        hier = self._hier()
        hier.fetch(0x400000, 0x9000)
        hier.reset_stats()
        assert hier.il1.stats.accesses == 0


class TestDRAM:
    def test_fixed_latency(self):
        dram = DRAM(latency=100, banks=4)
        assert dram.access(0x0) == 100

    def test_bank_conflict_penalty(self):
        dram = DRAM(latency=100, banks=4)
        dram.access(0x0)
        assert dram.access(0x40) == 100 + DRAM.BANK_CONFLICT_PENALTY
        assert dram.stats.bank_conflicts == 1

    def test_different_banks_no_penalty(self):
        dram = DRAM(latency=100, banks=4)
        dram.access(0x0)
        assert dram.access(32 * 1024 * 1024) == 100
