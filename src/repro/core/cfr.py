"""The Current Frame Register (paper Section 3.1).

    < Virtual Page Number, Physical Frame Number, Protection/Other Bits >

The CFR holds the translation of the page currently being executed.  It is
not architecturally visible to user code.  The model runs one address space
and no OS events, so of Section 3.2's OS access (read, write, invalidate,
save/restore on a context switch) none is modelled: no table depends on it.
The owning policy counts the fills (``SchemeCounters.cfr_writes``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.vm.page_table import Protection


@dataclass
class CFR:
    """One Current Frame Register."""

    vpn: int = -1
    pfn: int = -1
    prot: Protection = Protection.NONE
    valid: bool = False

    def load(self, vpn: int, pfn: int, prot: Protection) -> None:
        """Hardware fill after an iTLB lookup (moves the matching entry's
        frame number and protection bits into the register)."""
        self.vpn = vpn
        self.pfn = pfn
        self.prot = prot
        self.valid = True

    def matches(self, vpn: int) -> bool:
        """The HoA comparator: does the fetch VPN equal the CFR's VPN?"""
        return self.valid and self.vpn == vpn
