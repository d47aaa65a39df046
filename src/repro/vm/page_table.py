"""Page table and physical frame allocation.

Frames are handed out by a deterministic pseudo-random permutation of the
physical frame space, seeded per address space.  This matters: with an
identity mapping, physically-indexed and virtually-indexed caches would
behave identically and the PI-PT experiments (paper Section 4.5) would be
vacuous.  A hashed allocation gives each page a stable but "shuffled" frame,
the way a long-running OS free list would.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntFlag
from typing import Dict, Iterator, Optional

from repro.errors import MemoryFault, ProtectionFault


class Protection(IntFlag):
    """Page protection bits, carried into TLB entries and the CFR."""

    NONE = 0
    READ = 1
    WRITE = 2
    EXEC = 4
    RW = READ | WRITE
    RX = READ | EXEC
    RWX = READ | WRITE | EXEC


@dataclass
class PTE:
    """A page-table entry."""

    vpn: int
    pfn: int
    prot: Protection


def _mix(value: int) -> int:
    """Cheap 32-bit integer hash (xorshift-multiply) used for frame
    allocation; full-period enough for our frame counts."""
    value = (value ^ (value >> 16)) * 0x45D9F3B & 0xFFFFFFFF
    value = (value ^ (value >> 16)) * 0x45D9F3B & 0xFFFFFFFF
    return value ^ (value >> 16)


class PageTable:
    """Per-address-space page table with demand allocation.

    The physical memory is ``dram_bytes`` split into frames of
    ``page_bytes``.  Frame allocation walks a hashed probe sequence so the
    VPN->PFN mapping is deterministic for a given ``asid`` seed yet
    uncorrelated with the virtual layout.
    """

    def __init__(self, page_bytes: int, dram_bytes: int = 128 * 1024 * 1024,
                 asid: int = 0) -> None:
        if page_bytes & (page_bytes - 1):
            raise ValueError("page size must be a power of two")
        self.page_bytes = page_bytes
        self.page_shift = page_bytes.bit_length() - 1
        self.num_frames = dram_bytes // page_bytes
        self.asid = asid
        self._entries: Dict[int, PTE] = {}
        self._used_frames: set[int] = set()
        self.faults = 0  #: demand-allocation (soft) fault count

    # -- lookup ------------------------------------------------------------

    def lookup(self, vpn: int) -> Optional[PTE]:
        """Return the PTE for ``vpn`` or None if unmapped."""
        return self._entries.get(vpn)

    def translate(self, vpn: int, *, prot: Protection,
                  allocate: bool = True,
                  default_prot: Protection = Protection.RWX) -> PTE:
        """Translate ``vpn``, demand-allocating when permitted.

        Raises :class:`MemoryFault` for an unmapped page when
        ``allocate=False`` and :class:`ProtectionFault` when the page lacks
        the requested permission.
        """
        entry = self._entries.get(vpn)
        if entry is None:
            if not allocate:
                raise MemoryFault(vpn << self.page_shift, "unmapped page")
            entry = self.map_page(vpn, default_prot)
            self.faults += 1
        if prot and not (entry.prot & prot):
            raise ProtectionFault(vpn << self.page_shift, prot.name or str(prot))
        return entry

    # -- mapping -------------------------------------------------------------

    def map_page(self, vpn: int, prot: Protection,
                 pfn: Optional[int] = None) -> PTE:
        """Map ``vpn`` to a frame (allocated if not given)."""
        if vpn in self._entries:
            raise MemoryFault(vpn << self.page_shift, "page already mapped")
        if pfn is None:
            pfn = self._allocate_frame(vpn)
        elif pfn in self._used_frames:
            raise MemoryFault(vpn << self.page_shift, f"frame {pfn} in use")
        entry = PTE(vpn=vpn, pfn=pfn, prot=prot)
        self._entries[vpn] = entry
        self._used_frames.add(pfn)
        return entry

    def _allocate_frame(self, vpn: int) -> int:
        probe = _mix((vpn << 8) ^ _mix(self.asid + 0x9E3779B9))
        for attempt in range(self.num_frames):
            pfn = (probe + attempt) % self.num_frames
            if pfn not in self._used_frames:
                return pfn
        raise MemoryFault(vpn << self.page_shift, "out of physical frames")

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._entries

    def entries(self) -> Iterator[PTE]:
        return iter(self._entries.values())
