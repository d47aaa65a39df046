"""The full memory hierarchy: split L1, unified PI-PT L2, DRAM.

The hierarchy is *timing- and behaviour-only*: it answers hit/miss and
latency questions.  Translation is deliberately **not** performed here —
who translates, when, and at what energy cost is exactly the paper's
subject, and it lives in :mod:`repro.core` and the engines.  Callers pass
both the virtual and physical address of each access; the configured iL1
addressing discipline picks which one indexes and which one tags.

Latency accounting:

* iL1/dL1 hit: L1 hit latency;
* L1 miss, L2 hit: L1 latency + L2 latency;
* L2 miss: the above + a DRAM access;
* dirty victims are written back to L2 (and DRAM on an L2 miss) off the
  critical path — they cost energy/bandwidth, not latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import MemoryConfig
from repro.mem.cache import Cache
from repro.mem.dram import DRAM


@dataclass(slots=True)
class FetchOutcome:
    """Result of one instruction-fetch memory access (translation-free
    part: the engines add iTLB stalls on top, per scheme).  Slotted:
    allocated once per block-leading fetch."""

    il1_hit: bool
    l2_hit: bool  #: meaningful only when il1_hit is False
    latency: int


@dataclass(slots=True)
class DataOutcome:
    """Result of one data access.  Slotted: allocated once per
    block-leading data access."""

    dl1_hit: bool
    l2_hit: bool
    latency: int


class MemoryHierarchy:
    """iL1 + dL1 + unified L2 + DRAM."""

    def __init__(self, config: MemoryConfig) -> None:
        self.config = config
        self.il1 = Cache(config.il1)
        self.dl1 = Cache(config.dl1)
        self.l2 = Cache(config.l2)
        self.dram = DRAM(config.dram_latency, config.dram_banks)
        # the discipline's address routing (CacheAddressing), resolved
        # once, and shared hit outcomes: instruction fetch and data hits
        # are the hot path, and both engines only *read* the returned
        # records
        self._il1_index_virtual = not config.il1_addressing.index_is_physical
        self._il1_tag_virtual = not config.il1_addressing.tag_is_physical
        self._il1_hit = FetchOutcome(il1_hit=True, l2_hit=True,
                                     latency=config.il1.hit_latency)
        self._dl1_hit = DataOutcome(dl1_hit=True, l2_hit=True,
                                    latency=config.dl1.hit_latency)

    # -- instruction side -----------------------------------------------------

    def fetch(self, va: int, pa: int) -> FetchOutcome:
        """One instruction fetch at virtual address ``va`` whose physical
        address is ``pa``."""
        index_addr = va if self._il1_index_virtual else pa
        tag_addr = va if self._il1_tag_virtual else pa
        block = (pa >> self.il1.block_shift) << self.il1.block_shift
        result = self.il1.access(index_addr, tag_addr, pa_block=block)
        if result.hit:
            return self._il1_hit
        latency = self.config.il1.hit_latency
        l2_result = self.l2.access(pa, pa)
        if l2_result.hit:
            latency += self.config.l2.hit_latency
            return FetchOutcome(il1_hit=False, l2_hit=True, latency=latency)
        latency += self.config.l2.hit_latency + self.dram.access(pa)
        if l2_result.writeback_pa is not None:
            self.dram.access(l2_result.writeback_pa)
        return FetchOutcome(il1_hit=False, l2_hit=False, latency=latency)

    # -- data side ----------------------------------------------------------

    def data(self, va: int, pa: int, write: bool) -> DataOutcome:
        """One data access (dL1 is always VI-PT-equivalent here: the dTLB
        is looked up in parallel, which the paper leaves unoptimized)."""
        block = (pa >> self.dl1.block_shift) << self.dl1.block_shift
        result = self.dl1.access(va, pa, write=write, pa_block=block)
        if result.hit:
            return self._dl1_hit
        latency = self.config.dl1.hit_latency
        l2_result = self.l2.access(pa, pa)
        if result.writeback_pa is not None:
            wb = self.l2.access(result.writeback_pa, result.writeback_pa,
                                write=True)
            if wb.writeback_pa is not None:
                self.dram.access(wb.writeback_pa)
        if l2_result.hit:
            latency += self.config.l2.hit_latency
            return DataOutcome(dl1_hit=False, l2_hit=True, latency=latency)
        latency += self.config.l2.hit_latency + self.dram.access(pa)
        if l2_result.writeback_pa is not None:
            self.dram.access(l2_result.writeback_pa)
        return DataOutcome(dl1_hit=False, l2_hit=False, latency=latency)

    # -- maintenance --------------------------------------------------------

    def reset_stats(self) -> None:
        self.il1.stats.reset()
        self.dl1.stats.reset()
        self.l2.stats.reset()
        self.dram.stats.reset()
