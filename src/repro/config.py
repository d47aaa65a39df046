"""Machine and simulation configuration.

The dataclasses here mirror Table 1 of the paper (the *default
configuration*): a 4-wide out-of-order core with a 64-entry RUU and 32-entry
LSQ, 8KB direct-mapped iL1, 8KB 2-way dL1, 1MB 2-way unified L2, a 32-entry
fully-associative iTLB, a 128-entry fully-associative dTLB, 4KB pages, a
bimodal branch predictor with a 1024-entry 2-way BTB and a 7-cycle
misprediction penalty.

:func:`default_config` returns exactly that machine.  The experiment harness
derives every sweep (Tables 6-8, Figure 6, sensitivity studies) from it via
:func:`dataclasses.replace`-style helpers on :class:`MachineConfig`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional

from repro.errors import ConfigError

# ---------------------------------------------------------------------------
# Enumerations
# ---------------------------------------------------------------------------


class CacheAddressing(str, Enum):
    """How the iL1 cache is indexed and tagged (paper Section 2).

    A cache access needs an *index* address (selects the set) and a *tag*
    address (matched against resident tags).  Each discipline draws them
    from the virtual or the physical address:

    ============  =========  =======
    discipline    index      tag
    ============  =========  =======
    VI-VT         virtual    virtual
    VI-PT         virtual    physical
    PI-PT         physical   physical
    ============  =========  =======

    :class:`~repro.mem.hierarchy.MemoryHierarchy` routes iL1 accesses by
    :attr:`index_is_physical` and :attr:`tag_is_physical`; the engines in
    :mod:`repro.cpu` charge the timing that follows.  PI-PT must translate
    before indexing, so the iTLB is on the fetch critical path (the paper
    puts no page-offset-only limit on iL1 geometry).  VI-PT needs the
    physical tag for a hit, so it translates on every access, in parallel
    with indexing.  VI-VT translates only after a miss, to reach the L2.

    The L2 cache is always PI-PT, as in the paper.  PI-VT exists in the
    taxonomy but is not modelled (the paper excludes it as well).
    """

    VIVT = "vi-vt"  #: virtually indexed, virtually tagged
    VIPT = "vi-pt"  #: virtually indexed, physically tagged
    PIPT = "pi-pt"  #: physically indexed, physically tagged

    @property
    def index_is_physical(self) -> bool:
        return self is CacheAddressing.PIPT

    @property
    def tag_is_physical(self) -> bool:
        return self in (CacheAddressing.PIPT, CacheAddressing.VIPT)


class SchemeName(str, Enum):
    """The iTLB access policies evaluated in the paper (Section 3.3)."""

    BASE = "base"  #: unoptimized: iTLB consulted whenever a translation is due
    HOA = "hoa"  #: hardware-only: VPN comparator against the CFR every fetch
    SOCA = "soca"  #: software-only conservative: lookup after every branch
    SOLA = "sola"  #: software-only less conservative: in-page bit suppresses lookups
    IA = "ia"  #: integrated: BTB target page compared against the CFR
    OPT = "opt"  #: oracle: lookup exactly on actual page changes

    @property
    def needs_instrumented_binary(self) -> bool:
        """SoCA/SoLA/IA run the compiler-instrumented binary (boundary
        branches + in-page bits); Base/HoA/OPT run the original binary."""
        return self in (SchemeName.SOCA, SchemeName.SOLA, SchemeName.IA)


ALL_SCHEMES = tuple(SchemeName)


# ---------------------------------------------------------------------------
# Component configurations
# ---------------------------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    assoc: int
    block_bytes: int
    hit_latency: int

    def __post_init__(self) -> None:
        _require(_is_pow2(self.size_bytes), f"{self.name}: size must be a power of two")
        _require(_is_pow2(self.block_bytes), f"{self.name}: block must be a power of two")
        _require(self.assoc >= 1, f"{self.name}: associativity must be >= 1")
        _require(
            self.size_bytes % (self.block_bytes * self.assoc) == 0,
            f"{self.name}: size must be a multiple of block*assoc",
        )
        _require(self.hit_latency >= 1, f"{self.name}: latency must be >= 1")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.block_bytes * self.assoc)

    @property
    def num_blocks(self) -> int:
        return self.size_bytes // self.block_bytes

    def describe(self) -> str:
        way = "direct-mapped" if self.assoc == 1 else f"{self.assoc}-way"
        return (
            f"{self.size_bytes // 1024}KB, {way}, {self.block_bytes} byte blocks, "
            f"{self.hit_latency} cycle latency"
        )


FULL_ASSOC = 0
"""Sentinel associativity meaning fully associative (used by TLB configs)."""


@dataclass(frozen=True)
class TLBConfig:
    """Geometry of a single-level TLB.

    ``assoc=FULL_ASSOC`` (0) means fully associative.  A 1-entry TLB is
    modelled as a tagged register with a single comparator, matching the
    paper's discussion of degenerate iTLBs.
    """

    entries: int
    assoc: int = FULL_ASSOC
    miss_penalty: int = 50
    hit_latency: int = 1

    def __post_init__(self) -> None:
        _require(self.entries >= 1, "TLB must have at least one entry")
        _require(self.assoc >= 0, "TLB associativity must be >= 0 (0 = fully assoc)")
        if self.assoc:
            _require(
                self.entries % self.assoc == 0,
                "TLB entries must be a multiple of associativity",
            )
        _require(self.miss_penalty >= 0, "TLB miss penalty must be >= 0")

    @property
    def is_fully_associative(self) -> bool:
        return self.assoc == FULL_ASSOC or self.assoc >= self.entries

    @property
    def num_sets(self) -> int:
        if self.is_fully_associative:
            return 1
        return self.entries // self.assoc

    def describe(self) -> str:
        if self.entries == 1:
            shape = "1 entry"
        elif self.is_fully_associative:
            shape = f"{self.entries} entries, full-associative"
        else:
            shape = f"{self.entries} entries, {self.assoc}-way"
        return f"{shape}, {self.miss_penalty} cycle miss penalty"


@dataclass(frozen=True)
class TwoLevelTLBConfig:
    """A two-level iTLB (paper Section 4.3.2).

    ``serial=True`` probes the second level only on a first-level miss (the
    power-efficient option the paper reports); ``serial=False`` probes both
    in parallel (evaluated by the paper but dropped for its poor energy).
    The paper optimistically charges a single extra cycle for the level-2
    lookup, which ``l2_extra_latency`` mirrors.
    """

    level1: TLBConfig
    level2: TLBConfig
    serial: bool = True
    l2_extra_latency: int = 1

    def __post_init__(self) -> None:
        _require(
            self.level2.entries >= self.level1.entries,
            "level-2 TLB should not be smaller than level-1",
        )
        _require(self.l2_extra_latency >= 0, "l2_extra_latency must be >= 0")

    def describe(self) -> str:
        mode = "serial" if self.serial else "parallel"
        return f"L1[{self.level1.describe()}] + L2[{self.level2.describe()}], {mode}"


@dataclass(frozen=True)
class BranchPredictorConfig:
    """Bimodal predictor + BTB (paper Table 1: 'Bimodal with 4 states').

    Table 1 does not mention a return-address stack, but the paper ran
    SimpleScalar's ``sim-outorder``, whose bimodal predictor includes an
    8-entry RAS by default — and the paper's Table 5 accuracies (up to
    97.4% on call-heavy vortex) are only reachable with one.  The default
    follows SimpleScalar; set ``ras_entries=0`` for a RAS-less predictor.
    """

    kind: str = "bimodal"  #: 'bimodal', 'gshare' or 'taken'/'nottaken' (static)
    table_entries: int = 2048
    counter_bits: int = 2
    btb_entries: int = 1024
    btb_assoc: int = 2
    mispredict_penalty: int = 7
    ras_entries: int = 8  #: return-address stack (SimpleScalar default)
    history_bits: int = 8  #: used by gshare only

    def __post_init__(self) -> None:
        _require(self.kind in ("bimodal", "gshare", "taken", "nottaken"),
                 f"unknown predictor kind '{self.kind}'")
        _require(_is_pow2(self.table_entries), "predictor table must be a power of two")
        _require(_is_pow2(self.btb_entries), "BTB entries must be a power of two")
        _require(self.btb_assoc >= 1, "BTB associativity must be >= 1")
        _require(self.counter_bits >= 1, "counter bits must be >= 1")
        _require(self.mispredict_penalty >= 0, "mispredict penalty must be >= 0")


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core parameters (paper Table 1, 'Processor Core')."""

    ruu_size: int = 64
    lsq_size: int = 32
    fetch_queue_size: int = 8
    fetch_width: int = 4
    decode_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    int_alus: int = 4
    int_mult_div: int = 1
    fp_alus: int = 4
    fp_mult_div: int = 1

    def __post_init__(self) -> None:
        for name in ("ruu_size", "lsq_size", "fetch_queue_size", "fetch_width",
                     "decode_width", "issue_width", "commit_width", "int_alus",
                     "int_mult_div", "fp_alus", "fp_mult_div"):
            _require(getattr(self, name) >= 1, f"{name} must be >= 1")

    def unit_counts(self) -> Dict[int, int]:
        """Functional units per ``InstrKind`` code, for both timing
        engines; a kind not listed has no structural limit.  Multiply
        and divide get separate pools (sharing one would move every
        pinned number); loads and stores each have two cache ports."""
        return {0: self.int_alus, 1: self.int_mult_div,
                2: self.int_mult_div, 3: self.fp_alus,
                4: self.fp_mult_div, 5: self.fp_mult_div, 6: 2, 7: 2}


@dataclass(frozen=True)
class MemoryConfig:
    """Memory hierarchy (paper Table 1, 'Memory Hierarchy')."""

    il1: CacheConfig
    dl1: CacheConfig
    l2: CacheConfig
    il1_addressing: CacheAddressing = CacheAddressing.VIPT
    page_bytes: int = 4096
    dram_latency: int = 100
    dram_banks: int = 4

    def __post_init__(self) -> None:
        _require(_is_pow2(self.page_bytes), "page size must be a power of two")
        _require(self.page_bytes >= 256, "page size must be >= 256 bytes")
        _require(self.dram_latency >= 1, "DRAM latency must be >= 1")
        _require(self.dram_banks >= 1, "DRAM banks must be >= 1")

    @property
    def page_shift(self) -> int:
        return self.page_bytes.bit_length() - 1


@dataclass(frozen=True)
class EnergyConfig:
    """Knobs for the CACTI-like energy model (0.1 micron defaults).

    ``charge_cfr_reads`` controls whether CFR register reads are charged to
    the iTLB energy budget.  The paper's accounting charges only iTLB
    accesses/misses (plus the HoA comparator), so the default is ``False``;
    the extensions experiment flips it to quantify the omission.
    """

    technology: str = "100nm"
    vpn_bits: int = 20
    pfn_bits: int = 20
    protection_bits: int = 4
    charge_cfr_reads: bool = False
    charge_btb_compare: bool = False


@dataclass(frozen=True)
class MachineConfig:
    """A complete simulated machine."""

    core: CoreConfig
    mem: MemoryConfig
    itlb: TLBConfig
    dtlb: TLBConfig
    branch: BranchPredictorConfig
    energy: EnergyConfig
    itlb_two_level: Optional[TwoLevelTLBConfig] = None

    def __post_init__(self) -> None:
        # A VI-VT iL1 whose index needs frame-number bits is fine (virtual
        # index), but PI-PT semantics require translation before indexing
        # regardless of geometry; no extra constraints needed here.
        _require(self.mem.il1.block_bytes <= self.mem.page_bytes,
                 "iL1 block must not exceed a page")

    # -- convenience ---------------------------------------------------

    @property
    def page_bytes(self) -> int:
        return self.mem.page_bytes

    @property
    def il1_addressing(self) -> CacheAddressing:
        return self.mem.il1_addressing

    def with_il1_addressing(self, addressing: CacheAddressing) -> "MachineConfig":
        mem = dataclasses.replace(self.mem, il1_addressing=addressing)
        return dataclasses.replace(self, mem=mem)

    def with_itlb(self, itlb: TLBConfig) -> "MachineConfig":
        return dataclasses.replace(self, itlb=itlb, itlb_two_level=None)

    def with_two_level_itlb(self, cfg: TwoLevelTLBConfig) -> "MachineConfig":
        return dataclasses.replace(self, itlb_two_level=cfg)

    def with_page_bytes(self, page_bytes: int) -> "MachineConfig":
        mem = dataclasses.replace(self.mem, page_bytes=page_bytes)
        return dataclasses.replace(self, mem=mem)

    def with_il1(self, il1: CacheConfig) -> "MachineConfig":
        mem = dataclasses.replace(self.mem, il1=il1)
        return dataclasses.replace(self, mem=mem)

    def with_branch(self, branch: BranchPredictorConfig) -> "MachineConfig":
        return dataclasses.replace(self, branch=branch)

    def grid_invariants(self) -> dict:
        """The part of the machine that must match across grid members.

        A multi-config single-pass run (``repro.cpu.grid``) shares the
        decoded stream, predictor training, caches, and dTLB between
        members, so everything that shapes those — core, memory (including
        page size and iL1 addressing), dTLB, branch — must be identical;
        only the fields in :data:`GRID_MEMBER_FIELDS` (iTLB geometry and
        energy accounting) may vary per member.
        """
        data = self.to_dict()
        for field in GRID_MEMBER_FIELDS:
            data.pop(field, None)
        return data

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-JSON view of the machine (inverse of :meth:`from_dict`).

        Every leaf is a JSON-native type, so the result can be hashed for
        content addressing (``repro.runner.JobSpec``) or persisted by the
        result store and reconstructed in another process.
        """
        data = dataclasses.asdict(self)
        data["mem"]["il1_addressing"] = self.mem.il1_addressing.value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "MachineConfig":
        """Rebuild a machine from :meth:`to_dict` output (re-validating
        every component along the way)."""
        mem = dict(data["mem"])
        mem["il1"] = CacheConfig(**mem["il1"])
        mem["dl1"] = CacheConfig(**mem["dl1"])
        mem["l2"] = CacheConfig(**mem["l2"])
        mem["il1_addressing"] = CacheAddressing(mem["il1_addressing"])
        two = data.get("itlb_two_level")
        return cls(
            core=CoreConfig(**data["core"]),
            mem=MemoryConfig(**mem),
            itlb=TLBConfig(**data["itlb"]),
            dtlb=TLBConfig(**data["dtlb"]),
            branch=BranchPredictorConfig(**data["branch"]),
            energy=EnergyConfig(**data["energy"]),
            itlb_two_level=None if two is None else TwoLevelTLBConfig(
                level1=TLBConfig(**two["level1"]),
                level2=TLBConfig(**two["level2"]),
                serial=two["serial"],
                l2_extra_latency=two["l2_extra_latency"],
            ),
        )

    def describe(self) -> str:
        """Render a Table 1 style description of this machine."""
        lines = [
            "Processor Core",
            f"  RUU Size            {self.core.ruu_size} instructions",
            f"  LSQ Size            {self.core.lsq_size} instructions",
            f"  Fetch Queue Size    {self.core.fetch_queue_size} instructions",
            f"  Fetch Width         {self.core.fetch_width} instructions/cycle",
            f"  Decode Width        {self.core.decode_width} instructions/cycle",
            f"  Issue Width         {self.core.issue_width} instructions/cycle",
            f"  Commit Width        {self.core.commit_width} instructions/cycle",
            "Memory Hierarchy",
            f"  iL1                 {self.mem.il1.describe()} ({self.mem.il1_addressing.value})",
            f"  dL1                 {self.mem.dl1.describe()}",
            f"  L2                  {self.mem.l2.describe()} (pi-pt)",
            f"  iTLB                {self.itlb.describe()}",
            f"  dTLB                {self.dtlb.describe()}",
            f"  Page Size           {self.mem.page_bytes // 1024}KB",
            f"  DRAM                {self.mem.dram_latency} cycle latency, "
            f"{self.mem.dram_banks} banks",
            "Branch Logic",
            f"  Predictor           {self.branch.kind} "
            f"({self.branch.counter_bits}-bit counters)",
            f"  BTB                 {self.branch.btb_entries} entry, "
            f"{self.branch.btb_assoc}-way",
            f"  Mispred. penalty    {self.branch.mispredict_penalty} cycles",
        ]
        if self.itlb_two_level is not None:
            lines.insert(12, f"  iTLB (two-level)    {self.itlb_two_level.describe()}")
        return "\n".join(lines)


#: :meth:`MachineConfig.to_dict` keys a grid member may vary.  Everything
#: else shapes the shared stream (caches, predictor, dTLB, page size) and
#: must be identical across the members of one multi-config pass.
GRID_MEMBER_FIELDS: tuple[str, ...] = ("itlb", "itlb_two_level", "energy")


# ---------------------------------------------------------------------------
# Canonical configurations
# ---------------------------------------------------------------------------


def default_config(
    il1_addressing: CacheAddressing = CacheAddressing.VIPT,
) -> MachineConfig:
    """The paper's default configuration (Table 1)."""
    return MachineConfig(
        core=CoreConfig(),
        mem=MemoryConfig(
            il1=CacheConfig("iL1", size_bytes=8 * 1024, assoc=1,
                            block_bytes=32, hit_latency=1),
            dl1=CacheConfig("dL1", size_bytes=8 * 1024, assoc=2,
                            block_bytes=32, hit_latency=1),
            l2=CacheConfig("L2", size_bytes=1024 * 1024, assoc=2,
                           block_bytes=128, hit_latency=10),
            il1_addressing=il1_addressing,
            page_bytes=4096,
            dram_latency=100,
            dram_banks=4,
        ),
        itlb=TLBConfig(entries=32, assoc=FULL_ASSOC, miss_penalty=50),
        dtlb=TLBConfig(entries=128, assoc=FULL_ASSOC, miss_penalty=50),
        branch=BranchPredictorConfig(),
        energy=EnergyConfig(),
    )


#: The four monolithic iTLB design points swept in Tables 6 and 7.
ITLB_SWEEP: tuple[TLBConfig, ...] = (
    TLBConfig(entries=1),
    TLBConfig(entries=8, assoc=FULL_ASSOC),
    TLBConfig(entries=16, assoc=2),
    TLBConfig(entries=32, assoc=FULL_ASSOC),
)


def itlb_sweep_label(cfg: TLBConfig) -> str:
    """Short label used in Tables 6/7 for a swept iTLB configuration."""
    if cfg.entries == 1:
        return "1"
    if cfg.is_fully_associative:
        return f"{cfg.entries},FA"
    return f"{cfg.entries},{cfg.assoc}w"


#: Figure 6's two-level configurations: (i) 1 + 32-FA, (ii) 32-FA + 96-FA.
TWO_LEVEL_SWEEP: tuple[TwoLevelTLBConfig, ...] = (
    TwoLevelTLBConfig(level1=TLBConfig(entries=1),
                      level2=TLBConfig(entries=32, assoc=FULL_ASSOC)),
    TwoLevelTLBConfig(level1=TLBConfig(entries=32, assoc=FULL_ASSOC),
                      level2=TLBConfig(entries=96, assoc=FULL_ASSOC)),
)

#: The monolithic IA baselines Figure 6 normalizes against, matched by index
#: to ``TWO_LEVEL_SWEEP`` (32-entry and 128-entry fully associative).
TWO_LEVEL_MONOLITHIC_BASELINES: tuple[TLBConfig, ...] = (
    TLBConfig(entries=32, assoc=FULL_ASSOC),
    TLBConfig(entries=128, assoc=FULL_ASSOC),
)
