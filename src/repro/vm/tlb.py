"""Translation lookaside buffers.

Two organizations are modelled, matching the paper's evaluation space:

* :class:`TLB` — a monolithic TLB, fully associative or set-associative,
  LRU replacement (paper Tables 6/7 sweep 1, 8-FA, 16-2way, 32-FA for the
  iTLB and use 128-FA for the dTLB);
* :class:`TwoLevelTLB` — the Section 4.3.2 organization: a small level-1
  backed by a larger level-2, probed serially (level-2 only on a level-1
  miss, one extra cycle, the paper's optimistic assumption) or in parallel
  (both probed every access; better latency, strictly worse energy).

Both replay a column of lookups (``replay``) and keep every count in
their own statistics; level 2's stats are the probe count, which
:mod:`repro.energy` charges at level 2's own CACTI-derived cost.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.config import TLBConfig, TwoLevelTLBConfig
from repro.vm.page_table import PTE, PageTable, Protection


@dataclass
class TLBStats:
    """Access counters for one translation structure."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    #: always 0: nothing invalidates or flushes a TLB (one address
    #: space, no OS events), but result bytes, the golden files and the
    #: benchmark digests hash every field of :meth:`to_dict`
    invalidations: int = 0
    flushes: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.flushes = 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TLBStats":
        return cls(**data)


class TLB:
    """A monolithic LRU TLB.

    ``config.assoc == FULL_ASSOC`` (0) or >= entries gives a single
    fully-associative set; otherwise VPNs are distributed across
    ``entries/assoc`` sets by their low bits, each set maintaining LRU
    order.  Entries map VPN -> (PFN, protection).
    """

    def __init__(self, config: TLBConfig, name: str = "tlb") -> None:
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        self.ways = (config.entries if config.is_fully_associative
                     else config.assoc)
        self._sets: List[OrderedDict[int, Tuple[int, Protection]]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self._set_mask = self.num_sets - 1
        self.stats = TLBStats()

    # -- core operations -----------------------------------------------------

    def probe(self, vpn: int) -> Optional[Tuple[int, Protection]]:
        """Content check without touching stats or LRU state."""
        return self._sets[vpn & self._set_mask].get(vpn)

    def access(self, vpn: int) -> Optional[Tuple[int, Protection]]:
        """Look up ``vpn``; returns (pfn, prot) on a hit, None on a miss.
        Counts one access and updates recency."""
        self.stats.accesses += 1
        entry_set = self._sets[vpn & self._set_mask]
        entry = entry_set.get(vpn)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        entry_set.move_to_end(vpn)
        return entry

    def fill(self, vpn: int, pfn: int, prot: Protection = Protection.RWX
             ) -> Optional[int]:
        """Insert a translation, evicting LRU if the set is full.  Returns
        the evicted VPN, if any."""
        entry_set = self._sets[vpn & self._set_mask]
        victim = None
        if vpn not in entry_set and len(entry_set) >= self.ways:
            victim, _ = entry_set.popitem(last=False)
        entry_set[vpn] = (pfn, prot)
        entry_set.move_to_end(vpn)
        return victim

    def translate(self, vpn: int, page_table: PageTable,
                  prot: Protection = Protection.EXEC
                  ) -> Tuple[int, bool]:
        """Full lookup path: probe, refill from the page table on a miss.
        Returns (pfn, hit).  A refill never maps a page (see
        :func:`refill`)."""
        entry = self.access(vpn)
        if entry is not None:
            return entry[0], True
        pte = refill(page_table, vpn, prot)
        self.fill(vpn, pte.pfn, pte.prot)
        return pte.pfn, False

    def replay(self, vpns: Iterable[int],
               frames: Dict[int, Tuple[int, Protection]],
               page_table: PageTable) -> int:
        """Translate a column of instruction-side lookups in order, as
        :meth:`translate` would one by one; returns the misses.

        A VPN equal to the previous one re-touches the most recent
        entry of its set: a guaranteed hit that leaves LRU order as it
        is, so it is counted and skipped.  Refills resolve through
        ``frames`` (VPN -> (PFN, protection)), which callers share
        across TLBs so each page is walked once."""
        sets = self._sets
        set_mask = self._set_mask
        ways = self.ways
        lookups = misses = 0
        last = None
        for vpn in vpns:
            lookups += 1
            if vpn == last:
                continue
            last = vpn
            entry_set = sets[vpn & set_mask]
            if vpn in entry_set:
                entry_set.move_to_end(vpn)
                continue
            misses += 1
            entry = frames.get(vpn)
            if entry is None:
                pte = refill(page_table, vpn, Protection.EXEC)
                entry = frames[vpn] = (pte.pfn, pte.prot)
            if len(entry_set) >= ways:
                entry_set.popitem(last=False)
            entry_set[vpn] = entry
        stats = self.stats
        stats.accesses += lookups
        stats.hits += lookups - misses
        stats.misses += misses
        return misses

    def repeat_hits(self, count: int) -> None:
        """Count ``count`` re-touches of the entry the previous access
        left most recent: guaranteed hits that leave LRU order as it
        is, so the sets are not walked."""
        self.stats.accesses += count
        self.stats.hits += count

    def reset_stats(self) -> None:
        """Zero the statistics; the contents stay warm."""
        self.stats.reset()

    #: a monolithic TLB has no level 2 to probe
    l2_probes = 0

    def latency(self, miss_penalty: int) -> int:
        """Cycles the lookups counted in :attr:`stats` exposed: one
        ``miss_penalty`` walk per miss."""
        return self.stats.misses * miss_penalty

    # -- introspection ------------------------------------------------------

    def resident_vpns(self) -> List[int]:
        return [vpn for s in self._sets for vpn in s]

    def __contains__(self, vpn: int) -> bool:
        return self.probe(vpn) is not None


class TwoLevelTLB:
    """The paper's two-level iTLB (Section 4.3.2).

    Serial mode: probe L1; on a miss probe L2 (one extra cycle); on an L2
    miss walk the page table and fill both levels.  Parallel mode: both
    levels are probed (and charged energy) on every access, so only the
    miss-penalty timing differs.

    Level 2's own ``stats.accesses`` are the level-2 probes the energy
    accounting charges.
    """

    def __init__(self, config: TwoLevelTLBConfig, name: str = "itlb2") -> None:
        self.config = config
        self.name = name
        self.level1 = TLB(config.level1, name=f"{name}.l1")
        self.level2 = TLB(config.level2, name=f"{name}.l2")
        self.stats = TLBStats()  #: combined view: miss == full miss (walk)

    def translate(self, vpn: int, page_table: PageTable,
                  prot: Protection = Protection.EXEC
                  ) -> Tuple[int, bool]:
        """Returns (pfn, hit) where hit means "no page walk was needed"."""
        self.stats.accesses += 1
        if self.config.serial:
            return self._translate_serial(vpn, page_table, prot)
        return self._translate_parallel(vpn, page_table, prot)

    def _translate_serial(self, vpn: int, page_table: PageTable,
                          prot: Protection) -> Tuple[int, bool]:
        entry = self.level1.access(vpn)
        if entry is not None:
            self.stats.hits += 1
            return entry[0], True
        entry = self.level2.access(vpn)
        if entry is not None:
            self.level1.fill(vpn, entry[0], entry[1])
            self.stats.hits += 1
            return entry[0], True
        self.stats.misses += 1
        pte = refill(page_table, vpn, prot)
        self.level2.fill(vpn, pte.pfn, pte.prot)
        self.level1.fill(vpn, pte.pfn, pte.prot)
        return pte.pfn, False

    def _translate_parallel(self, vpn: int, page_table: PageTable,
                            prot: Protection) -> Tuple[int, bool]:
        hit1 = self.level1.access(vpn)
        hit2 = self.level2.access(vpn)
        if hit1 is not None:
            self.stats.hits += 1
            return hit1[0], True
        if hit2 is not None:
            self.stats.hits += 1
            self.level1.fill(vpn, hit2[0], hit2[1])
            return hit2[0], True
        self.stats.misses += 1
        pte = refill(page_table, vpn, prot)
        self.level2.fill(vpn, pte.pfn, pte.prot)
        self.level1.fill(vpn, pte.pfn, pte.prot)
        return pte.pfn, False

    def replay(self, vpns: Iterable[int],
               frames: Dict[int, Tuple[int, Protection]],
               page_table: PageTable) -> int:
        """:meth:`TLB.replay` for two levels: any access may probe level
        2, so entries translate one by one (``frames`` goes unused)."""
        translate = self.translate
        misses = 0
        for vpn in vpns:
            if not translate(vpn, page_table)[1]:
                misses += 1
        return misses

    def repeat_hits(self, count: int) -> None:
        """Count ``count`` re-touches of the entry the previous access
        left most recent, as hits in level 1.

        Model gap, pinned as is: a parallel design probes level 2 on
        every access too, but these bulk hits charge level 1 only, so
        a parallel two-level Base (Figure 6) is under-counted in
        ``l2_probes`` and its energy understated (docs/performance.md,
        "Single-pass config grids")."""
        self.stats.accesses += count
        self.stats.hits += count
        self.level1.stats.accesses += count
        self.level1.stats.hits += count

    def reset_stats(self) -> None:
        """Zero every level's statistics; the contents stay warm."""
        self.stats.reset()
        self.level1.stats.reset()
        self.level2.stats.reset()

    @property
    def l2_probes(self) -> int:
        """Level-2 probes since the last reset: level 2's accesses."""
        return self.level2.stats.accesses

    def latency(self, miss_penalty: int) -> int:
        """Cycles the lookups counted in :attr:`stats` exposed: one
        ``miss_penalty`` walk per miss, plus ``l2_extra_latency`` per
        level-2 probe in serial mode (a parallel probe hides it)."""
        cycles = self.stats.misses * miss_penalty
        if self.config.serial:
            cycles += self.l2_probes * self.config.l2_extra_latency
        return cycles


AnyTLB = Union[TLB, TwoLevelTLB]


def refill(page_table: PageTable, vpn: int, prot: Protection) -> PTE:
    """The page-table side of an iTLB miss.

    Instruction pages are all mapped up front (the address space
    premaps every code page RX), so a refill only reads the table: it
    never maps a page.  A lookup of an unmapped page raises
    :class:`~repro.errors.MemoryFault` and leaves the table as it was;
    were it to allocate, a refill replayed after the pass would
    reorder the data side's demand-allocated frames."""
    return page_table.translate(vpn, prot=prot, allocate=False)


def build_itlb(mono: TLBConfig,
               two_level: Optional[TwoLevelTLBConfig] = None,
               name: str = "itlb") -> AnyTLB:
    """Factory: a two-level iTLB when configured, else a monolithic one."""
    if two_level is not None:
        return TwoLevelTLB(two_level, name=name)
    return TLB(mono, name=name)
