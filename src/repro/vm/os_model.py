"""The address space a program runs in.

Scope: one address space and no OS events.  The OS duties of Section
3.2 (pin the CFR's page, invalidate the CFR on eviction, save and
restore it on a context switch) are not modelled, because no table
depends on them: code pages are mapped once and never move.

:class:`AddressSpace` bundles a page table with the memory image of a
program (text is fetched from the decoded :class:`~repro.isa.program.Program`
directly; data lives in a sparse word store).
"""

from __future__ import annotations

from typing import Dict

from repro.isa.program import Program, STACK_TOP
from repro.vm.page_table import PageTable, Protection


class AddressSpace:
    """One process: a page table plus a sparse data memory image.

    Data memory is keyed by *virtual* word address; physical frame numbers
    matter only to the physically-addressed hardware structures, which get
    them via the page table / TLBs.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self.page_table = PageTable(program.page_bytes)
        #: sparse data memory, keyed by word-aligned virtual address.  Public
        #: because the executors inline accesses to it in their hot loops.
        self.memory: Dict[int, int] = dict(program.data_words)
        self._premap_segments()

    def _premap_segments(self) -> None:
        """Eagerly map text and static data (the paper skips past program
        startup; cold soft faults would only add noise)."""
        shift = self.page_table.page_shift
        first = self.program.text_base >> shift
        last = (self.program.text_end - 1) >> shift
        for vpn in range(first, last + 1):
            self.page_table.map_page(vpn, Protection.RX)
        if self.program.data_size:
            first = self.program.data_base >> shift
            last = (self.program.data_base + self.program.data_size - 1) >> shift
            for vpn in range(first, last + 1):
                self.page_table.map_page(vpn, Protection.RW)
        # one initial stack page
        self.page_table.map_page((STACK_TOP - 4) >> shift, Protection.RW)
