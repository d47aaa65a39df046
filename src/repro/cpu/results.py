"""Result records produced by the engines.

One engine pass over one (program, machine config) pair yields an
:class:`EngineResult`: shared microarchitectural statistics (caches,
predictor, dTLB — identical for every scheme, as the paper notes the
schemes never change iL1/L2 behaviour) plus one :class:`SchemeResult` per
evaluated iTLB policy.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.config import CacheAddressing, MachineConfig, SchemeName
from repro.core.schemes import ITLBPolicy, SchemeCounters
from repro.energy.accounting import EnergyBreakdown
from repro.mem.cache import CacheStats
from repro.branch.predictor import PredictorStats
from repro.vm.tlb import AnyTLB, TLBStats


@dataclass
class SharedStats:
    """Scheme-independent statistics of one pass."""

    instructions: int = 0  #: retired instructions, boundary branches included
    useful_instructions: int = 0  #: excluding compiler boundary branches
    boundary_instructions: int = 0
    fetch_groups: int = 0
    base_cycles: int = 0  #: pipeline cycles before scheme-specific stalls
    dynamic_branches: int = 0
    taken_branches: int = 0
    #: actual page transitions of the fetch stream, split as in Table 2
    page_crossings_branch: int = 0
    page_crossings_boundary: int = 0
    loads: int = 0
    stores: int = 0
    dtlb_miss_cycles: int = 0
    il1: CacheStats = field(default_factory=CacheStats)
    dl1: CacheStats = field(default_factory=CacheStats)
    l2: CacheStats = field(default_factory=CacheStats)
    dtlb: TLBStats = field(default_factory=TLBStats)
    predictor: PredictorStats = field(default_factory=PredictorStats)

    @property
    def page_crossings(self) -> int:
        return self.page_crossings_branch + self.page_crossings_boundary

    @property
    def branch_fraction(self) -> float:
        return (self.dynamic_branches / self.instructions
                if self.instructions else 0.0)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SharedStats":
        data = dict(data)
        data["il1"] = CacheStats.from_dict(data["il1"])
        data["dl1"] = CacheStats.from_dict(data["dl1"])
        data["l2"] = CacheStats.from_dict(data["l2"])
        data["dtlb"] = TLBStats.from_dict(data["dtlb"])
        data["predictor"] = PredictorStats.from_dict(data["predictor"])
        return cls(**data)


@dataclass
class SchemeResult:
    """One iTLB policy's outcome in one pass."""

    scheme: SchemeName
    counters: SchemeCounters
    itlb_stats: TLBStats
    extra_cycles: int  #: translation stalls unique to this scheme
    cycles: int  #: base_cycles + extra_cycles
    energy: Optional[EnergyBreakdown] = None  #: filled by the simulator facade

    @property
    def lookups(self) -> int:
        return self.counters.lookups

    @property
    def itlb_misses(self) -> int:
        return self.counters.misses

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme.value,
            "counters": self.counters.to_dict(),
            "itlb_stats": self.itlb_stats.to_dict(),
            "extra_cycles": self.extra_cycles,
            "cycles": self.cycles,
            "energy": (None if self.energy is None
                       else self.energy.to_dict()),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SchemeResult":
        energy = data["energy"]
        return cls(
            scheme=SchemeName(data["scheme"]),
            counters=SchemeCounters.from_dict(data["counters"]),
            itlb_stats=TLBStats.from_dict(data["itlb_stats"]),
            extra_cycles=data["extra_cycles"],
            cycles=data["cycles"],
            energy=None if energy is None
            else EnergyBreakdown.from_dict(energy),
        )


def scheme_result(policy: ITLBPolicy, itlb: AnyTLB, *, extra_cycles: int,
                  cycles: int) -> SchemeResult:
    """One scheme's result from the policy that decided its lookups and
    the iTLB that translated them: decision counters from the policy;
    ``misses``, ``l2_probes`` and the statistics from the iTLB."""
    return SchemeResult(
        scheme=policy.name,
        counters=dataclasses.replace(policy.counters,
                                     misses=itlb.stats.misses,
                                     l2_probes=itlb.l2_probes),
        itlb_stats=itlb.stats,
        extra_cycles=extra_cycles,
        cycles=cycles,
    )


@dataclass
class EngineResult:
    """Everything one engine pass produced."""

    program_name: str
    config: MachineConfig
    addressing: CacheAddressing
    shared: SharedStats
    schemes: Dict[SchemeName, SchemeResult]
    engine: str = "fast"

    def scheme(self, name: SchemeName) -> SchemeResult:
        return self.schemes[name]

    @property
    def ipc(self) -> float:
        if not self.shared.base_cycles:
            return 0.0
        return self.shared.instructions / self.shared.base_cycles

    def to_dict(self) -> dict:
        return {
            "program_name": self.program_name,
            "config": self.config.to_dict(),
            "addressing": self.addressing.value,
            "shared": self.shared.to_dict(),
            "schemes": {name.value: scheme.to_dict()
                        for name, scheme in self.schemes.items()},
            "engine": self.engine,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EngineResult":
        return cls(
            program_name=data["program_name"],
            config=MachineConfig.from_dict(data["config"]),
            addressing=CacheAddressing(data["addressing"]),
            shared=SharedStats.from_dict(data["shared"]),
            schemes={SchemeName(name): SchemeResult.from_dict(scheme)
                     for name, scheme in data["schemes"].items()},
            engine=data["engine"],
        )


def summarize_result(result: EngineResult) -> str:
    """Human-readable one-pass summary (used by examples and the CLI)."""
    shared = result.shared
    lines = [
        f"program        {result.program_name} ({result.addressing.value} iL1, "
        f"{result.engine} engine)",
        f"instructions   {shared.instructions:,} "
        f"({shared.boundary_instructions:,} boundary overhead)",
        f"base cycles    {shared.base_cycles:,} (IPC {result.ipc:.2f})",
        f"branches       {shared.dynamic_branches:,} "
        f"({100.0 * shared.branch_fraction:.1f}% of instructions, "
        f"predictor accuracy {100.0 * shared.predictor.accuracy:.2f}%)",
        f"iL1 miss rate  {shared.il1.miss_rate:.4f}   "
        f"dL1 miss rate {shared.dl1.miss_rate:.4f}   "
        f"L2 miss rate {shared.l2.miss_rate:.4f}",
        f"page crossings {shared.page_crossings:,} "
        f"(BOUNDARY {shared.page_crossings_boundary:,} / "
        f"BRANCH {shared.page_crossings_branch:,})",
    ]
    for name, scheme in result.schemes.items():
        energy = (f"{scheme.energy.total_mj:.6f} mJ"
                  if scheme.energy is not None else "n/a")
        lines.append(
            f"  {name.value:<5} lookups {scheme.lookups:>10,}  "
            f"misses {scheme.itlb_misses:>7,}  cycles {scheme.cycles:>12,}  "
            f"energy {energy}"
        )
    return "\n".join(lines)
