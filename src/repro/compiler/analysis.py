"""Static branch analysis (the compile-time half of the paper's Table 4).

A control instruction is *analyzable* when its target is encoded in the
instruction (direct conditional branches, direct jumps, direct calls —
"branch targets given as immediate operands or as PC relative operands").
Register-indirect jumps and calls are not.  For analyzable branches the
pass decides whether the taken target lies in the branch's own page —
exactly the check SoLA's in-page bit encodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.isa.instructions import Instruction
from repro.isa.program import Program


@dataclass(frozen=True)
class BranchClass:
    """Classification of one static control instruction."""

    instr: Instruction
    analyzable: bool
    in_page: Optional[bool]  #: None when not analyzable


def classify_branch(instr: Instruction, page_bytes: int) -> BranchClass:
    """Classify a single control instruction."""
    if not instr.is_control:
        raise ValueError(f"{instr.op.mnemonic} at {instr.address:#x} "
                         "is not a control instruction")
    if not instr.op.is_analyzable_control or instr.target is None:
        return BranchClass(instr, analyzable=False, in_page=None)
    in_page = (instr.address // page_bytes) == (instr.target // page_bytes)
    return BranchClass(instr, analyzable=True, in_page=in_page)


@dataclass
class StaticBranchStats:
    """Aggregate static statistics over one program (Table 4, left half)."""

    total: int = 0
    analyzable: int = 0
    in_page: int = 0
    crossing: int = 0
    classes: List[BranchClass] = field(default_factory=list)

    @property
    def analyzable_fraction(self) -> float:
        return self.analyzable / self.total if self.total else 0.0

    @property
    def in_page_fraction(self) -> float:
        """Fraction of *analyzable* branches staying on their page."""
        return self.in_page / self.analyzable if self.analyzable else 0.0

    @property
    def crossing_fraction(self) -> float:
        return self.crossing / self.analyzable if self.analyzable else 0.0

    def row(self) -> dict:
        """Table 4-style row (static half)."""
        return {
            "total": self.total,
            "analyzable": self.analyzable,
            "analyzable_pct": 100.0 * self.analyzable_fraction,
            "page_crossings": self.crossing,
            "crossing_pct": 100.0 * self.crossing_fraction,
            "in_page": self.in_page,
            "in_page_pct": 100.0 * self.in_page_fraction,
        }


def analyze_program(program: Program,
                    include_boundary: bool = False) -> StaticBranchStats:
    """Classify every control instruction in ``program``.

    Compiler-inserted boundary branches are excluded by default: they are
    instrumentation, not program branches, and the paper's Table 4 counts
    source-code branches.
    """
    stats = StaticBranchStats()
    for instr in program.instructions:
        if not instr.is_control:
            continue
        if instr.is_boundary_branch and not include_boundary:
            continue
        cls = classify_branch(instr, program.page_bytes)
        stats.classes.append(cls)
        stats.total += 1
        if cls.analyzable:
            stats.analyzable += 1
            if cls.in_page:
                stats.in_page += 1
            else:
                stats.crossing += 1
    return stats
