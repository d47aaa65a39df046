"""A small RISC instruction set used by the simulated machine.

The paper's experiments ran Alpha/PISA SPEC2000 binaries under SimpleScalar.
Those binaries cannot be executed here, so the reproduction defines its own
fixed-width RISC ISA with the properties every result in the paper depends
on:

* fixed 4-byte instructions aligned so none crosses a page boundary,
* PC-relative conditional branches and direct jumps/calls whose targets are
  statically analyzable (the SoLA scheme's "analyzable" class),
* register-indirect jumps and calls whose targets are *not* statically
  analyzable,
* a one-bit *in-page hint* in every control-flow instruction, the compiler
  support the paper's SoLA scheme requires.

Programs are written against :class:`~repro.isa.assembler.Assembler`, linked
into a laid-out :class:`~repro.isa.program.Program`, and executed by the
engines in :mod:`repro.cpu`.
"""

from repro.isa.instructions import (
    Instruction,
    InstrKind,
    Opcode,
    decode,
    encode,
)
from repro.isa.registers import (
    FP_REG_COUNT,
    INT_REG_COUNT,
    REG_A0,
    REG_GP,
    REG_RA,
    REG_SP,
    REG_ZERO,
    reg_name,
)
from repro.isa.program import Program, TEXT_BASE, DATA_BASE
from repro.isa.assembler import (
    Assembler,
    Module,
    link,
    place_boundary_branches,
)

__all__ = [
    "Assembler",
    "DATA_BASE",
    "FP_REG_COUNT",
    "INT_REG_COUNT",
    "Instruction",
    "InstrKind",
    "Module",
    "Opcode",
    "Program",
    "REG_A0",
    "REG_GP",
    "REG_RA",
    "REG_SP",
    "REG_ZERO",
    "TEXT_BASE",
    "decode",
    "encode",
    "link",
    "place_boundary_branches",
    "reg_name",
]
