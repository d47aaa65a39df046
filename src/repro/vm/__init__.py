"""Virtual memory substrate: page tables, TLBs, and an address space.

The paper assumes an ordinary demand-paged OS.  The pieces modelled here are
the ones its mechanisms interact with:

* a page table with a deterministic (but non-identity) virtual-to-physical
  mapping, so physically-addressed structures see genuinely different
  addresses than virtually-addressed ones;
* LRU TLBs, fully- or set-associative, including the paper's two-level
  iTLB organizations (Section 4.3.2);
* one address space per run, its code and static data premapped.

Scope: one address space and no OS events.  Section 3.2's OS duties
around the CFR (pin, invalidate, save/restore) are not modelled: no
table depends on them.
"""

from repro.vm.page_table import PageTable, Protection, PTE
from repro.vm.tlb import TLB, TLBStats, TwoLevelTLB, build_itlb
from repro.vm.os_model import AddressSpace

__all__ = [
    "AddressSpace",
    "PTE",
    "PageTable",
    "Protection",
    "TLB",
    "TLBStats",
    "TwoLevelTLB",
    "build_itlb",
]
