"""Cache and memory substrate.

Implements the paper's memory hierarchy (Table 1): a split L1 (8KB
direct-mapped iL1, 8KB 2-way dL1, 32-byte blocks), a 1MB 2-way unified L2
with 128-byte blocks, and a 128MB banked DRAM.  The hierarchy routes each
iL1 access by one of the three disciplines the paper studies (Section 2),
VI-VT, VI-PT or PI-PT, as :class:`~repro.config.CacheAddressing` states
them.  The L2 is
always physically indexed and tagged.
"""

from repro.mem.cache import AccessResult, Cache, CacheStats
from repro.mem.dram import DRAM
from repro.mem.hierarchy import FetchOutcome, DataOutcome, MemoryHierarchy

__all__ = [
    "AccessResult",
    "Cache",
    "CacheStats",
    "DRAM",
    "DataOutcome",
    "FetchOutcome",
    "MemoryHierarchy",
]
