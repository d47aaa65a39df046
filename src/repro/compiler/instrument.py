"""Producing the binaries each scheme runs.

Base/HoA/OPT execute the *plain* binary (:func:`link_plain`).  SoCA, SoLA,
and IA execute the *instrumented* binary (:func:`instrument_module`):

1. the linker places an unconditional branch in the last slot of every
   code page, targeting the next page's first instruction (Section 3.3.2's
   BOUNDARY fix), and
2. this pass sets the in-page bit on every statically-analyzable control
   instruction whose taken target stays on its own page (Section 3.3.3's
   SoLA support).

The bit must be computed *after* final layout — inserting boundary
branches shifts addresses, which can move a branch or its target across a
page boundary — which is why marking operates on the linked program.
"""

from __future__ import annotations

from repro.errors import LayoutError
from repro.isa.assembler import Module, link
from repro.isa.program import DATA_BASE, Program, TEXT_BASE
from repro.compiler.analysis import classify_branch
from repro.isa.instructions import CONTROL_KINDS


def mark_inpage_hints(program: Program) -> int:
    """Set ``inpage_hint`` on qualifying branches; returns how many were
    marked.  Boundary branches always cross pages and must never qualify."""
    marked = 0
    for instr in program.instructions:
        if instr.kind_code not in CONTROL_KINDS:  # IntEnums hash as ints
            continue
        cls = classify_branch(instr, program.page_bytes)
        hint = bool(cls.analyzable and cls.in_page)
        if hint and instr.is_boundary_branch:
            raise LayoutError(
                f"boundary branch at {instr.address:#x} classified in-page"
            )
        instr.inpage_hint = hint
        marked += hint
    return marked


def link_plain(module: Module, *, page_bytes: int = 4096,
               text_base: int = TEXT_BASE, data_base: int = DATA_BASE,
               name: str = "a.out") -> Program:
    """The uninstrumented binary (Base/HoA/OPT)."""
    return link(module, text_base=text_base, data_base=data_base,
                page_bytes=page_bytes, boundary_branches=False, name=name)


def instrument_module(module: Module, *, page_bytes: int = 4096,
                      text_base: int = TEXT_BASE, data_base: int = DATA_BASE,
                      name: str = "a.out") -> Program:
    """The instrumented binary (SoCA/SoLA/IA): boundary branches inserted
    at link time, then in-page bits marked on the final layout."""
    program = link(module, text_base=text_base, data_base=data_base,
                   page_bytes=page_bytes, boundary_branches=True,
                   name=f"{name}+instr")
    mark_inpage_hints(program)
    return program
