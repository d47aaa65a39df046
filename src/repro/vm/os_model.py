"""A minimal OS model: address spaces and the CFR-related OS duties.

Paper Section 3.2 gives the OS three jobs around the Current Frame
Register: (1) keep the page whose translation sits in the CFR resident
(pinning), (2) invalidate the CFR if that page must nevertheless be evicted
or remapped, and (3) save/restore the CFR across context switches like any
other piece of register context.  :class:`OSModel` implements all three and
exposes hooks the simulators call.

:class:`AddressSpace` bundles a page table with the memory image of a
program (text is fetched from the decoded :class:`~repro.isa.program.Program`
directly; data lives in a sparse word store).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import MemoryFault
from repro.isa.program import Program, STACK_TOP
from repro.vm.page_table import PageTable, Protection


class AddressSpace:
    """One process: a page table plus a sparse data memory image.

    Data memory is keyed by *virtual* word address; physical frame numbers
    matter only to the physically-addressed hardware structures, which get
    them via the page table / TLBs.
    """

    def __init__(self, program: Program, asid: int = 0,
                 dram_bytes: int = 128 * 1024 * 1024) -> None:
        self.program = program
        self.asid = asid
        self.page_table = PageTable(program.page_bytes, dram_bytes, asid=asid)
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

    # -- data access --------------------------------------------------------

    def load_word(self, vaddr: int) -> int:
        if vaddr & 3:
            raise MemoryFault(vaddr, "misaligned load")
        return self.memory.get(vaddr, 0)

    def store_word(self, vaddr: int, value: int) -> None:
        if vaddr & 3:
            raise MemoryFault(vaddr, "misaligned store")
        self.memory[vaddr] = value & 0xFFFFFFFF

    def vpn_of(self, vaddr: int) -> int:
        return vaddr >> self.page_table.page_shift

    def translate_fetch(self, vaddr: int) -> int:
        pte = self.page_table.translate(self.vpn_of(vaddr),
                                        prot=Protection.EXEC, allocate=False)
        offset_mask = self.page_table.page_bytes - 1
        return (pte.pfn << self.page_table.page_shift) | (vaddr & offset_mask)


@dataclass
class SavedContext:
    """Register context the OS saves at a context switch.  The CFR travels
    with it (paper: 'the CFR can be treated as yet another register whose
    context is saved and restored')."""

    asid: int
    cfr_vpn: int
    cfr_pfn: int
    cfr_valid: bool


class OSModel:
    """OS duties around address translation and the CFR.

    ``cfr_invalidate_hooks`` are called whenever the OS takes an action
    that makes CFR contents stale (page unmap/remap of the pinned page,
    context switch to a different address space); the scheme models in
    :mod:`repro.core` register themselves here.
    """

    def __init__(self, address_space: AddressSpace,
                 context_switch_interval: int = 0) -> None:
        self.address_space = address_space
        self.context_switch_interval = context_switch_interval
        self.cfr_invalidate_hooks: List[Callable[[], None]] = []
        self.tlb_flush_hooks: List[Callable[[], None]] = []
        self.context_switches = 0
        self._pinned_vpn: Optional[int] = None
        self._saved: Dict[int, SavedContext] = {}

    # -- CFR support (paper Section 3.2) ------------------------------------

    def register_cfr_invalidate_hook(self, hook: Callable[[], None]) -> None:
        self.cfr_invalidate_hooks.append(hook)

    def register_tlb_flush_hook(self, hook: Callable[[], None]) -> None:
        self.tlb_flush_hooks.append(hook)

    def pin_cfr_page(self, vpn: int) -> None:
        """Keep the page whose translation sits in the CFR resident.  The
        previously pinned page (if any) is released."""
        table = self.address_space.page_table
        if self._pinned_vpn is not None and self._pinned_vpn in table:
            table.pin(self._pinned_vpn, False)
        if vpn in table:
            table.pin(vpn, True)
            self._pinned_vpn = vpn
        else:
            self._pinned_vpn = None

    def evict_page(self, vpn: int) -> None:
        """Evict/remap a page.  If it is the CFR's page, unpin first and
        invalidate the CFR — the OS-sanctioned path of Section 3.2."""
        table = self.address_space.page_table
        if vpn == self._pinned_vpn:
            table.pin(vpn, False)
            self._pinned_vpn = None
            self._fire_cfr_invalidate()
        table.remap_page(vpn)
        self._fire_tlb_flush()

    def _fire_cfr_invalidate(self) -> None:
        for hook in self.cfr_invalidate_hooks:
            hook()

    def _fire_tlb_flush(self) -> None:
        for hook in self.tlb_flush_hooks:
            hook()

    # -- context switches -------------------------------------------------

    def context_switch(self, save: SavedContext) -> Optional[SavedContext]:
        """Record a switch: CFR context is saved with the rest of the
        process state and the incoming process's context (if previously
        saved) is returned for restore.  TLBs are flushed (single-ASID
        hardware, as the paper's StrongARM-era machines)."""
        self.context_switches += 1
        self._saved[save.asid] = save
        self._fire_tlb_flush()
        self._fire_cfr_invalidate()
        incoming = (save.asid + 1) % max(len(self._saved), 1)
        return self._saved.get(incoming)

    def due_for_context_switch(self, retired_instructions: int) -> bool:
        interval = self.context_switch_interval
        return bool(interval) and retired_instructions % interval == 0
