"""Architectural state and instruction semantics.

:class:`Executor` is the single source of truth for what instructions *do*:
both engines drive their timing models off the stream of
:class:`StepResult` records it produces — the detailed engine by
stepping it, the fast engine through :func:`committed_stream` — so
architectural behaviour can never diverge between them.

Integer registers hold unsigned 32-bit values (``0 .. 2**32-1``); signed
operators (``slt``, ``blt``, ``bge``, ``div``) reinterpret on the fly.
``r0`` reads as zero and ignores writes.  Floating-point registers hold
Python floats (the paper's workloads only need FP for realism of the
instruction mix, not for bit-exact IEEE behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ExecutionError, MemoryFault
from repro.isa.instructions import Instruction, InstrKind, Opcode
from repro.isa.program import Program, STACK_TOP
from repro.isa.registers import REG_RA, REG_SP
from repro.vm.os_model import AddressSpace

_MASK = 0xFFFFFFFF


def _signed(value: int) -> int:
    """Reinterpret an unsigned 32-bit value as signed."""
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


@dataclass(slots=True)
class StepResult:
    """Everything the timing models need to know about one retired
    instruction.  Slotted: one instance is allocated per retired
    instruction on the scalar engines' hot path."""

    pc: int
    instr: Instruction
    next_pc: int
    taken: bool  #: meaningful for control instructions only
    mem_addr: Optional[int]  #: virtual address of a load/store, else None
    is_store: bool


class Executor:
    """Architectural interpreter for one program in one address space."""

    def __init__(self, program: Program, space: AddressSpace) -> None:
        self.program = program
        self.space = space
        self.regs: List[int] = [0] * 32
        self.fregs: List[float] = [0.0] * 32
        self.regs[REG_SP] = STACK_TOP - 16
        self.pc = program.entry
        self.retired = 0
        self.halted = False
        # hot-loop locals
        self._instructions = program.instructions
        self._text_base = program.text_base
        self._text_len = len(program.instructions)

    # -- execution -------------------------------------------------------------

    def fetch_instruction(self, pc: Optional[int] = None) -> Instruction:
        """Architectural fetch (raises on a bad PC)."""
        if pc is None:
            pc = self.pc
        index = (pc - self._text_base) >> 2
        if pc & 3 or not 0 <= index < self._text_len:
            raise MemoryFault(pc, "instruction fetch outside text segment")
        return self._instructions[index]

    def step(self) -> StepResult:
        """Execute one instruction and advance the PC."""
        if self.halted:
            raise ExecutionError("stepping a halted executor")
        pc = self.pc
        instr = self.fetch_instruction(pc)
        op = instr.op
        kind = instr.kind_code
        regs = self.regs
        next_pc = pc + 4
        taken = False
        mem_addr: Optional[int] = None
        is_store = False

        if kind == 0:  # INT_ALU
            rs_val = regs[instr.rs] if instr.rs else 0
            if op is Opcode.ADDI:
                value = rs_val + instr.imm
            elif op is Opcode.ADD:
                value = rs_val + (regs[instr.rt] if instr.rt else 0)
            elif op is Opcode.SUB:
                value = rs_val - (regs[instr.rt] if instr.rt else 0)
            elif op is Opcode.AND:
                value = rs_val & (regs[instr.rt] if instr.rt else 0)
            elif op is Opcode.OR:
                value = rs_val | (regs[instr.rt] if instr.rt else 0)
            elif op is Opcode.XOR:
                value = rs_val ^ (regs[instr.rt] if instr.rt else 0)
            elif op is Opcode.SLL:
                value = rs_val << ((regs[instr.rt] if instr.rt else 0) & 31)
            elif op is Opcode.SRL:
                value = rs_val >> ((regs[instr.rt] if instr.rt else 0) & 31)
            elif op is Opcode.SLT:
                rt_val = regs[instr.rt] if instr.rt else 0
                value = 1 if _signed(rs_val) < _signed(rt_val) else 0
            elif op is Opcode.ANDI:
                value = rs_val & (instr.imm & _MASK)
            elif op is Opcode.ORI:
                value = rs_val | (instr.imm & 0xFFFF)
            elif op is Opcode.XORI:
                value = rs_val ^ (instr.imm & 0xFFFF)
            elif op is Opcode.SLTI:
                value = 1 if _signed(rs_val) < instr.imm else 0
            elif op is Opcode.SLLI:
                value = rs_val << (instr.imm & 31)
            elif op is Opcode.SRLI:
                value = rs_val >> (instr.imm & 31)
            elif op is Opcode.LUI:
                value = (instr.imm & 0xFFFF) << 16
            else:  # pragma: no cover
                raise ExecutionError(f"unhandled ALU opcode {op}")
            if instr.rd:
                regs[instr.rd] = value & _MASK
        elif kind == 6:  # LOAD
            base = regs[instr.rs] if instr.rs else 0
            mem_addr = (base + instr.imm) & _MASK
            if mem_addr & 3:
                raise MemoryFault(mem_addr, "misaligned load")
            if op is Opcode.LW:
                if instr.rd:
                    regs[instr.rd] = self.space.memory.get(mem_addr, 0)
            else:  # FLW: words reinterpreted as scaled floats
                self.fregs[instr.rd] = float(
                    _signed(self.space.memory.get(mem_addr, 0)))
        elif kind == 7:  # STORE
            base = regs[instr.rs] if instr.rs else 0
            mem_addr = (base + instr.imm) & _MASK
            if mem_addr & 3:
                raise MemoryFault(mem_addr, "misaligned store")
            is_store = True
            if op is Opcode.SW:
                self.space.memory[mem_addr] = (regs[instr.rd]
                                               if instr.rd else 0)
            else:  # FSW
                self.space.memory[mem_addr] = int(self.fregs[instr.rd]) & _MASK
        elif kind == 8:  # COND_BRANCH
            rs_val = regs[instr.rs] if instr.rs else 0
            rt_val = regs[instr.rt] if instr.rt else 0
            if op is Opcode.BEQ:
                taken = rs_val == rt_val
            elif op is Opcode.BNE:
                taken = rs_val != rt_val
            elif op is Opcode.BLT:
                taken = _signed(rs_val) < _signed(rt_val)
            else:  # BGE
                taken = _signed(rs_val) >= _signed(rt_val)
            if taken:
                next_pc = instr.target
        elif kind == 9:  # JUMP
            taken = True
            next_pc = instr.target
        elif kind == 10:  # CALL
            taken = True
            regs[REG_RA] = (pc + 4) & _MASK
            next_pc = instr.target
        elif kind == 11:  # INDIRECT_JUMP
            taken = True
            next_pc = regs[instr.rs] if instr.rs else 0
        elif kind == 12:  # INDIRECT_CALL
            taken = True
            target = regs[instr.rs] if instr.rs else 0
            regs[REG_RA] = (pc + 4) & _MASK
            next_pc = target
        elif kind == 1:  # INT_MULT
            rs_val = regs[instr.rs] if instr.rs else 0
            rt_val = regs[instr.rt] if instr.rt else 0
            if instr.rd:
                regs[instr.rd] = (rs_val * rt_val) & _MASK
        elif kind == 2:  # INT_DIV
            rs_val = _signed(regs[instr.rs] if instr.rs else 0)
            rt_val = _signed(regs[instr.rt] if instr.rt else 0)
            if rt_val == 0:
                value = 0  # architectural choice: divide-by-zero yields 0
            else:
                value = int(rs_val / rt_val)  # trunc toward zero
            if instr.rd:
                regs[instr.rd] = value & _MASK
        elif kind in (3, 4, 5):  # FP
            fregs = self.fregs
            if op is Opcode.FADD:
                fregs[instr.rd] = fregs[instr.rs] + fregs[instr.rt]
            elif op is Opcode.FSUB:
                fregs[instr.rd] = fregs[instr.rs] - fregs[instr.rt]
            elif op is Opcode.FMUL:
                fregs[instr.rd] = fregs[instr.rs] * fregs[instr.rt]
            elif op is Opcode.FDIV:
                divisor = fregs[instr.rt]
                fregs[instr.rd] = (fregs[instr.rs] / divisor
                                   if divisor else 0.0)
            elif op is Opcode.FMOV:
                fregs[instr.rd] = fregs[instr.rs]
            elif op is Opcode.CVTIF:
                fregs[instr.rd] = float(_signed(regs[instr.rs]
                                                if instr.rs else 0))
            elif op is Opcode.CVTFI:
                if instr.rd:
                    regs[instr.rd] = int(fregs[instr.rs]) & _MASK
        elif kind == 13:  # NOP
            pass
        elif kind == 14:  # HALT
            self.halted = True
            next_pc = pc
        else:  # pragma: no cover
            raise ExecutionError(f"unhandled kind {kind}")

        self.pc = next_pc
        self.retired += 1
        return StepResult(pc=pc, instr=instr, next_pc=next_pc, taken=taken,
                          mem_addr=mem_addr, is_store=is_store)

    def run(self, max_instructions: int) -> int:
        """Pure functional run (no timing): returns instructions retired."""
        start = self.retired
        while not self.halted and self.retired - start < max_instructions:
            self.step()
        return self.retired - start


def committed_stream(program: Program, budget: int):
    """Execute ``program`` until ``budget`` useful (non-boundary)
    instructions have retired, or it halts, and return the committed
    stream as an in-memory :class:`~repro.trace.format.TraceSegment` —
    the same steps a trace recorded over that window holds."""
    from repro.trace.format import MemorySink, program_meta
    sink = MemorySink()
    sink.begin_segment(program_meta(
        program, "instrumented" if program.instrumented else "plain"))
    write = sink.write_step
    executor = Executor(program, AddressSpace(program))
    step = executor.step
    useful = 0
    while useful < budget and not executor.halted:
        result = step()
        write(result)
        if not result.instr.is_boundary_branch:
            useful += 1
    return sink.segments[0]
