"""Data-side CFR (paper Section 5, future work).

The concluding remarks: "we are currently examining similar approaches for
data references."  The instruction-side trick does not transplant directly
— data streams interleave many pages — so the natural first step is an
HoA-style register (or a small file of them) in front of the dTLB: compare
the data VPN against the register(s); on a match, skip the dTLB.

:class:`DataCFR` implements a ``registers``-entry LRU file (1 register =
the exact instruction-side analogue).  The extensions experiment measures
how much dTLB energy this saves on each workload and at what comparator
cost, reproducing the paper's proposed follow-on study.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.vm.page_table import PageTable, Protection
from repro.vm.tlb import TLB


@dataclass
class DataCFRCounters:
    references: int = 0
    register_hits: int = 0
    dtlb_lookups: int = 0
    dtlb_misses: int = 0
    comparator_ops: int = 0

    @property
    def hit_rate(self) -> float:
        return self.register_hits / self.references if self.references else 0.0


class DataCFR:
    """A small fully-associative file of current-frame registers for data
    references, checked before the dTLB."""

    def __init__(self, dtlb: TLB, page_table: PageTable, page_shift: int,
                 registers: int = 1) -> None:
        if registers < 1:
            raise ValueError("DataCFR needs at least one register")
        self.dtlb = dtlb
        self.page_table = page_table
        self.page_shift = page_shift
        self.registers = registers
        self._file: OrderedDict[int, int] = OrderedDict()
        self.counters = DataCFRCounters()

    def translate(self, vaddr: int, write: bool) -> int:
        """Translate a data reference, preferring the register file.
        Returns the physical frame number."""
        counters = self.counters
        counters.references += 1
        counters.comparator_ops += self.registers
        vpn = vaddr >> self.page_shift
        pfn = self._file.get(vpn)
        if pfn is not None:
            counters.register_hits += 1
            self._file.move_to_end(vpn)
            return pfn
        counters.dtlb_lookups += 1
        prot = Protection.WRITE if write else Protection.READ
        entry = self.dtlb.access(vpn)
        if entry is None:
            counters.dtlb_misses += 1
            pte = self.page_table.translate(vpn, prot=prot)
            self.dtlb.fill(vpn, pte.pfn, pte.prot)
            pfn = pte.pfn
        else:
            pfn = entry[0]
        if len(self._file) >= self.registers:
            self._file.popitem(last=False)
        self._file[vpn] = pfn
        return pfn
