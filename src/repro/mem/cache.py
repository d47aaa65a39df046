"""A set-associative write-back cache model.

The model is behavioural (hit/miss/victim tracking), not data-carrying:
instruction bytes live in the decoded program and data words in the address
space, so cache lines store only their tags and writeback addresses.

Index and tag are supplied as *separate addresses* so one model covers all
three iL1 disciplines: VI-VT passes (va, va), VI-PT passes (va, pa), PI-PT
passes (pa, pa).  Tags are stored at full block-number granularity, which is
what VI-PT/VI-VT hardware effectively does once the paper's writeback
problem is handled by keeping each line's physical block address alongside
the tag (Section 5, discussion of VI-VT drawbacks) — our lines do exactly
that via ``pa_block``.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional

from repro.config import CacheConfig


@dataclass
class CacheStats:
    """Counters for one cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    evictions: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.evictions = 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CacheStats":
        return cls(**data)


@dataclass(slots=True)
class AccessResult:
    """Outcome of one cache access.  Slotted, and treated as immutable:
    the hit and clean-miss cases are served from shared module-level
    instances so the engines' hot paths allocate nothing."""

    hit: bool
    #: physical block address (block-aligned byte address) of a dirty victim
    #: that must be written back, or None
    writeback_pa: Optional[int] = None


#: shared results for the two allocation-free outcomes (callers only read)
_HIT_RESULT = AccessResult(hit=True)
_CLEAN_MISS_RESULT = AccessResult(hit=False)


class _Line:
    """One resident cache line."""

    __slots__ = ("pa_block", "dirty")

    def __init__(self, pa_block: int, dirty: bool) -> None:
        self.pa_block = pa_block
        self.dirty = dirty


class Cache:
    """LRU set-associative write-back, write-allocate cache."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.name = config.name
        self.block_shift = config.block_bytes.bit_length() - 1
        self.num_sets = config.num_sets
        self._set_mask = self.num_sets - 1
        self.ways = config.assoc
        #: each set's lines, built when the set is first filled: every
        #: engine pass builds its caches anew and fills only some sets
        #: of a large one
        self._sets: List[Optional[OrderedDict[int, _Line]]] = \
            [None] * self.num_sets
        self.stats = CacheStats()

    # -- addressing helpers -------------------------------------------------

    def set_index(self, index_addr: int) -> int:
        return (index_addr >> self.block_shift) & self._set_mask

    def tag_of(self, tag_addr: int) -> int:
        return tag_addr >> self.block_shift

    # -- operations ----------------------------------------------------------

    def probe(self, index_addr: int, tag_addr: int) -> bool:
        """Hit check with no state change (no stats, no LRU update)."""
        entry_set = self._sets[self.set_index(index_addr)]
        return entry_set is not None and self.tag_of(tag_addr) in entry_set

    def access(self, index_addr: int, tag_addr: int, *,
               write: bool = False,
               pa_block: Optional[int] = None) -> AccessResult:
        """Perform one access.

        On a miss the block is allocated (write-allocate); a dirty victim's
        physical block address is reported for writeback.  ``pa_block``
        defaults to the tag address's block (correct whenever the tag is
        physical; VI-VT callers must pass the real physical block).
        """
        stats = self.stats
        stats.accesses += 1
        shift = self.block_shift
        index = (index_addr >> shift) & self._set_mask
        entry_set = self._sets[index]
        if entry_set is None:
            entry_set = self._sets[index] = OrderedDict()
        tag = tag_addr >> shift
        line = entry_set.get(tag)
        if line is not None:
            stats.hits += 1
            entry_set.move_to_end(tag)
            if write:
                line.dirty = True
            return _HIT_RESULT

        stats.misses += 1
        writeback_pa: Optional[int] = None
        if len(entry_set) >= self.ways:
            _, victim = entry_set.popitem(last=False)
            stats.evictions += 1
            if victim.dirty:
                stats.writebacks += 1
                writeback_pa = victim.pa_block
        if pa_block is None:
            pa_block = (tag_addr >> shift) << shift
        entry_set[tag] = _Line(pa_block, dirty=write)
        if writeback_pa is None:
            return _CLEAN_MISS_RESULT
        return AccessResult(hit=False, writeback_pa=writeback_pa)

    # -- introspection ------------------------------------------------------

    def __contains__(self, addr: int) -> bool:
        """Membership by a same-index-and-tag address (PI-PT style)."""
        return self.probe(addr, addr)
