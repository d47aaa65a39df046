"""Virtual memory: page table, TLBs (vs a reference model), address
space."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import FULL_ASSOC, TLBConfig, TwoLevelTLBConfig
from repro.cpu.functional import Executor
from repro.errors import MemoryFault, ProtectionFault
from repro.isa.assembler import Assembler, link
from repro.isa.program import DATA_BASE
from repro.vm.os_model import AddressSpace
from repro.vm.page_table import PageTable, Protection
from repro.vm.tlb import TLB, TwoLevelTLB


def _code_table() -> PageTable:
    """A page table with code pages 0-7 mapped RX, as an address space
    premaps a program's text: iTLB refills only read it."""
    table = PageTable(4096)
    for vpn in range(8):
        table.map_page(vpn, Protection.RX)
    return table


def _tiny_program():
    asm = Assembler()
    asm.label("main")
    asm.nop()
    asm.halt()
    asm.data_words("d", [1, 2, 3])
    return link(asm.module)


class TestPageTable:
    def test_demand_allocation(self):
        table = PageTable(4096)
        pte = table.translate(10, prot=Protection.READ)
        assert pte.vpn == 10
        assert 10 in table

    def test_frames_unique(self):
        table = PageTable(4096)
        frames = {table.translate(v, prot=Protection.READ).pfn
                  for v in range(200)}
        assert len(frames) == 200

    def test_mapping_not_identity(self):
        table = PageTable(4096)
        pfns = [table.translate(v, prot=Protection.READ).pfn
                for v in range(32)]
        assert pfns != list(range(32))

    def test_deterministic_per_asid(self):
        a = PageTable(4096, asid=1)
        b = PageTable(4096, asid=1)
        c = PageTable(4096, asid=2)
        pa = [a.translate(v, prot=Protection.READ).pfn for v in range(16)]
        pb = [b.translate(v, prot=Protection.READ).pfn for v in range(16)]
        pc = [c.translate(v, prot=Protection.READ).pfn for v in range(16)]
        assert pa == pb
        assert pa != pc

    def test_protection_fault(self):
        table = PageTable(4096)
        table.map_page(5, Protection.READ)
        with pytest.raises(ProtectionFault):
            table.translate(5, prot=Protection.WRITE)

    def test_unmapped_without_allocate(self):
        table = PageTable(4096)
        with pytest.raises(MemoryFault):
            table.translate(7, prot=Protection.READ, allocate=False)



class TestTLB:
    def test_miss_then_hit(self):
        tlb = TLB(TLBConfig(entries=4))
        assert tlb.access(1) is None
        tlb.fill(1, 100)
        assert tlb.access(1) == (100, Protection.RWX)
        assert tlb.stats.misses == 1 and tlb.stats.hits == 1

    def test_lru_eviction_order(self):
        tlb = TLB(TLBConfig(entries=2))
        tlb.fill(1, 10)
        tlb.fill(2, 20)
        tlb.access(1)  # 2 becomes LRU
        victim = tlb.fill(3, 30)
        assert victim == 2
        assert 1 in tlb and 3 in tlb and 2 not in tlb

    def test_set_associative_indexing(self):
        tlb = TLB(TLBConfig(entries=16, assoc=2))
        # vpns 0 and 8 share set 0 (8 sets); a third evicts LRU
        tlb.fill(0, 1)
        tlb.fill(8, 2)
        tlb.fill(16, 3)
        assert 0 not in tlb
        assert 8 in tlb and 16 in tlb

    def test_one_entry_tlb(self):
        tlb = TLB(TLBConfig(entries=1))
        tlb.fill(1, 10)
        tlb.fill(2, 20)
        assert 1 not in tlb and 2 in tlb

    def test_translate_refills_from_page_table(self):
        table = _code_table()
        tlb = TLB(TLBConfig(entries=4))
        pfn, hit = tlb.translate(5, table)
        assert not hit
        pfn2, hit2 = tlb.translate(5, table)
        assert hit2 and pfn2 == pfn

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=200))
    @settings(max_examples=40)
    def test_matches_reference_lru_model(self, vpns):
        """A fully-associative TLB must behave exactly like an LRU dict."""
        tlb = TLB(TLBConfig(entries=4))
        reference: list = []  # most recent last
        for vpn in vpns:
            hit = tlb.access(vpn) is not None
            ref_hit = vpn in reference
            assert hit == ref_hit
            if ref_hit:
                reference.remove(vpn)
            else:
                tlb.fill(vpn, vpn + 1000)
                if len(reference) == 4:
                    reference.pop(0)
            reference.append(vpn)
        assert sorted(tlb.resident_vpns()) == sorted(reference)


class TestReplay:
    """``replay`` is ``translate`` applied to a column of lookups, for
    every iTLB organization and however the column is chunked."""

    @staticmethod
    def _build(config):
        if isinstance(config, TwoLevelTLBConfig):
            return TwoLevelTLB(config)
        return TLB(config)

    @classmethod
    def _one_by_one(cls, config, vpns):
        tlb, table = cls._build(config), _code_table()
        misses = sum(not tlb.translate(vpn, table)[1] for vpn in vpns)
        return tlb, misses

    @staticmethod
    def _state(tlb):
        """Every stats object and every level's contents in LRU order."""
        levels = ([tlb.level1, tlb.level2] if isinstance(tlb, TwoLevelTLB)
                  else [tlb])
        return (tlb.stats, [level.stats for level in levels],
                [[list(s.items()) for s in level._sets]
                 for level in levels])

    @given(st.lists(st.integers(0, 7), max_size=200),
           st.sampled_from([TLBConfig(entries=1), TLBConfig(entries=4),
                            TLBConfig(entries=4, assoc=2),
                            TLBConfig(entries=8, assoc=4),
                            TwoLevelTLBConfig(level1=TLBConfig(entries=1),
                                              level2=TLBConfig(entries=4),
                                              serial=True),
                            TwoLevelTLBConfig(
                                level1=TLBConfig(entries=2),
                                level2=TLBConfig(entries=4, assoc=2),
                                serial=False)]),
           st.lists(st.integers(1, 9), min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_matches_translate_one_by_one(self, vpns, config, chunks):
        reference, ref_misses = self._one_by_one(config, vpns)
        tlb, frames = self._build(config), {}
        misses = start = index = 0
        # in chunks cycling through ``chunks``: one lookup at a time, as
        # the out-of-order engine replays after each decision, or a
        # window at a time, as the fast engine does
        while start < len(vpns):
            size = chunks[index % len(chunks)]
            misses += tlb.replay(vpns[start:start + size], frames,
                                 _code_table())
            start += size
            index += 1
        assert misses == ref_misses
        assert self._state(tlb) == self._state(reference)

    def test_repeats_are_hits_that_keep_lru_order(self):
        tlb = TLB(TLBConfig(entries=2))
        misses = tlb.replay([1, 2, 2, 2, 1, 1, 3], {}, _code_table())
        assert misses == 3
        assert tlb.stats.accesses == 7 and tlb.stats.hits == 4
        assert tlb.resident_vpns() == [1, 3]  # 2 was least recent

    def test_frames_walk_each_page_once(self):
        table = _code_table()
        frames = {}
        for entries in (1, 2):
            TLB(TLBConfig(entries=entries)).replay([1, 2, 1, 2], frames,
                                                   table)
        assert frames == {vpn: (table.lookup(vpn).pfn, Protection.RX)
                          for vpn in (1, 2)}


class TestRefillNeverMaps:
    """An iTLB refill only reads the page table: a deferred refill that
    mapped a frame would reorder the data side's frame allocation."""

    @pytest.mark.parametrize("refill", [
        lambda table: TLB(TLBConfig(entries=4)).translate(9, table),
        lambda table: TLB(TLBConfig(entries=4)).replay([9], {}, table),
        lambda table: TwoLevelTLB(TwoLevelTLBConfig(
            level1=TLBConfig(entries=1),
            level2=TLBConfig(entries=8))).translate(9, table),
    ], ids=["translate", "replay", "two-level"])
    def test_unmapped_refill_raises_and_leaves_table(self, refill):
        table = _code_table()
        before = sorted((pte.vpn, pte.pfn) for pte in table.entries())
        with pytest.raises(MemoryFault):
            refill(table)
        assert 9 not in table and table.faults == 0
        assert sorted((pte.vpn, pte.pfn)
                      for pte in table.entries()) == before


class TestTwoLevelTLB:
    def _cfg(self, serial=True):
        return TwoLevelTLBConfig(level1=TLBConfig(entries=1),
                                 level2=TLBConfig(entries=8),
                                 serial=serial)

    @staticmethod
    def _translate(tlb, vpn, table):
        """Translate ``vpn``; return whether it hit, the (level-1,
        level-2) probes it made and the level-2 latency it exposed, all
        read from the levels' own statistics."""
        def state():
            return (tlb.level1.stats.accesses, tlb.level2.stats.accesses,
                    tlb.latency(0))  # no walk cost: level-2 cycles only
        before = state()
        _, hit = tlb.translate(vpn, table)
        l1, l2, extra = (now - then for now, then in zip(state(), before))
        return hit, (l1, l2), extra

    def test_serial_l2_probe_only_on_l1_miss(self):
        table = _code_table()
        tlb = TwoLevelTLB(self._cfg())
        # full miss: probes both, walks
        _, probes, _ = self._translate(tlb, 1, table)
        assert probes == (1, 1)
        _, probes, extra = self._translate(tlb, 1, table)  # L1 hit
        assert probes == (1, 0)
        assert extra == 0

    def test_l2_hit_after_l1_eviction(self):
        table = _code_table()
        tlb = TwoLevelTLB(self._cfg())
        tlb.translate(1, table)
        tlb.translate(2, table)  # evicts 1 from the 1-entry L1
        hit, probes, extra = self._translate(tlb, 1, table)
        assert hit
        assert probes == (1, 1)
        assert extra == 1

    def test_parallel_probes_both_always(self):
        table = _code_table()
        tlb = TwoLevelTLB(self._cfg(serial=False))
        tlb.translate(1, table)
        _, probes, extra = self._translate(tlb, 1, table)
        assert probes == (1, 1)
        assert extra == 0

    def test_combined_stats_count_walks(self):
        table = _code_table()
        tlb = TwoLevelTLB(self._cfg())
        for vpn in range(4):
            tlb.translate(vpn, table)
        assert tlb.stats.misses == 4
        tlb.translate(3, table)
        assert tlb.stats.misses == 4


class TestAddressSpaceAndOS:
    """The one address space a run executes in (no OS events are
    modelled), and the executor's accesses to its data memory."""

    @staticmethod
    def _execute(*body):
        """Run ``main: body...; halt`` in a fresh address space, with
        ``r8`` holding the data segment's base address."""
        asm = Assembler()
        asm.label("main")
        asm.li(8, DATA_BASE)
        for emit in body:
            emit(asm)
        asm.halt()
        asm.data_words("d", [1, 2, 3])
        program = link(asm.module)
        space = AddressSpace(program)
        executor = Executor(program, space)
        executor.run(100)
        return executor, space

    def test_text_premapped_executable(self):
        space = AddressSpace(_tiny_program())
        table = space.page_table
        vpn = space.program.entry >> table.page_shift
        pte = table.translate(vpn, prot=Protection.EXEC, allocate=False)
        assert pte.pfn != vpn  # non-identity mapping

    def test_data_initialized(self):
        space = AddressSpace(_tiny_program())
        base = space.program.labels["d"]
        assert space.memory[base + 4] == 2

    def test_store_load_roundtrip(self):
        executor, space = self._execute(
            lambda asm: asm.li(9, 0xDEADBEEF),
            lambda asm: asm.sw(9, 8, 0x100),
            lambda asm: asm.lw(10, 8, 0x100))
        assert space.memory[DATA_BASE + 0x100] == 0xDEADBEEF
        assert executor.regs[10] == 0xDEADBEEF

    def test_misaligned_access_faults(self):
        with pytest.raises(MemoryFault):
            self._execute(lambda asm: asm.lw(9, 8, 2))
