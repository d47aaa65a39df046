"""Symbolic assembly and the linker.

:class:`Assembler` is a builder API producing a :class:`Module` — a stream of
labels, symbolic instructions, and data definitions with no addresses
assigned.  :func:`link` lays a module out at fixed bases and resolves labels,
optionally inserting the paper's page-boundary branches (Section 3.3.2):
when enabled, the last instruction slot of every code page is occupied by an
unconditional jump to the first slot of the next page, so sequential
execution never falls across a page boundary without executing a branch.

Keeping programs symbolic until link time is what lets one workload be
linked twice — once plain (for Base/HoA/OPT) and once instrumented (for
SoCA/SoLA/IA) — exactly as the paper compares un/instrumented binaries.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import AssemblyError, LayoutError
from repro.isa.instructions import Instruction, InstrKind, Opcode
from repro.isa.program import DATA_BASE, Program, TEXT_BASE

_B_OFF_LIMIT = (1 << 14) - 1  # 15-bit signed word offset
_COND_BRANCH = int(InstrKind.COND_BRANCH)

TargetRef = Union[str, int]


@dataclass
class SymInstr:
    """A not-yet-linked instruction.  ``target`` may be a label name."""

    op: Opcode
    rd: int = 0
    rs: int = 0
    rt: int = 0
    imm: int = 0
    target: Optional[TargetRef] = None
    label: str = ""


@dataclass
class DataItem:
    """A data definition: ``words`` initialized values plus ``zero_words``
    of zero-initialized space, bound to ``name``.

    A word may be a label name (str); the linker substitutes the label's
    final address, which is how jump/call tables stay correct across plain
    and instrumented layouts.
    """

    name: str
    words: Sequence[Union[int, str]]
    zero_words: int = 0

    @property
    def size_bytes(self) -> int:
        return 4 * (len(self.words) + self.zero_words)


@dataclass
class Module:
    """A compilation unit awaiting layout."""

    text: List[Union[str, SymInstr]] = field(default_factory=list)
    data: List[DataItem] = field(default_factory=list)
    entry_label: str = "main"

    @property
    def instruction_count(self) -> int:
        return sum(1 for item in self.text if isinstance(item, SymInstr))


class Assembler:
    """Fluent builder for :class:`Module` objects.

    Example::

        asm = Assembler()
        asm.label("main")
        asm.addi(t0, zero, 10)
        asm.label("loop")
        asm.addi(t0, t0, -1)
        asm.bne(t0, zero, "loop")
        asm.halt()
        program = link(asm.module)
    """

    def __init__(self, entry_label: str = "main") -> None:
        self.module = Module(entry_label=entry_label)
        self._current_label = ""

    # -- structure ---------------------------------------------------------

    def label(self, name: str) -> "Assembler":
        if not name:
            raise AssemblyError("label name must be non-empty")
        self.module.text.append(name)
        self._current_label = name
        return self

    def emit(self, sym: SymInstr) -> "Assembler":
        sym.label = self._current_label
        self.module.text.append(sym)
        return self

    def _r(self, op: Opcode, rd: int, rs: int, rt: int = 0) -> "Assembler":
        return self.emit(SymInstr(op, rd=rd, rs=rs, rt=rt))

    def _i(self, op: Opcode, rd: int, rs: int, imm: int) -> "Assembler":
        return self.emit(SymInstr(op, rd=rd, rs=rs, imm=imm))

    # -- integer ALU --------------------------------------------------------

    def add(self, rd: int, rs: int, rt: int) -> "Assembler":
        return self._r(Opcode.ADD, rd, rs, rt)

    def sub(self, rd: int, rs: int, rt: int) -> "Assembler":
        return self._r(Opcode.SUB, rd, rs, rt)

    def mul(self, rd: int, rs: int, rt: int) -> "Assembler":
        return self._r(Opcode.MUL, rd, rs, rt)

    def div(self, rd: int, rs: int, rt: int) -> "Assembler":
        return self._r(Opcode.DIV, rd, rs, rt)

    def and_(self, rd: int, rs: int, rt: int) -> "Assembler":
        return self._r(Opcode.AND, rd, rs, rt)

    def or_(self, rd: int, rs: int, rt: int) -> "Assembler":
        return self._r(Opcode.OR, rd, rs, rt)

    def xor(self, rd: int, rs: int, rt: int) -> "Assembler":
        return self._r(Opcode.XOR, rd, rs, rt)

    def sll(self, rd: int, rs: int, rt: int) -> "Assembler":
        return self._r(Opcode.SLL, rd, rs, rt)

    def srl(self, rd: int, rs: int, rt: int) -> "Assembler":
        return self._r(Opcode.SRL, rd, rs, rt)

    def slt(self, rd: int, rs: int, rt: int) -> "Assembler":
        return self._r(Opcode.SLT, rd, rs, rt)

    def addi(self, rd: int, rs: int, imm: int) -> "Assembler":
        return self._i(Opcode.ADDI, rd, rs, imm)

    def andi(self, rd: int, rs: int, imm: int) -> "Assembler":
        return self._i(Opcode.ANDI, rd, rs, imm)

    def ori(self, rd: int, rs: int, imm: int) -> "Assembler":
        return self._i(Opcode.ORI, rd, rs, imm)

    def xori(self, rd: int, rs: int, imm: int) -> "Assembler":
        return self._i(Opcode.XORI, rd, rs, imm)

    def slti(self, rd: int, rs: int, imm: int) -> "Assembler":
        return self._i(Opcode.SLTI, rd, rs, imm)

    def slli(self, rd: int, rs: int, imm: int) -> "Assembler":
        return self._i(Opcode.SLLI, rd, rs, imm)

    def srli(self, rd: int, rs: int, imm: int) -> "Assembler":
        return self._i(Opcode.SRLI, rd, rs, imm)

    def lui(self, rd: int, imm: int) -> "Assembler":
        return self._i(Opcode.LUI, rd, 0, imm)

    def li(self, rd: int, value: int) -> "Assembler":
        """Load a full 32-bit constant (expands to LUI+ORI when needed)."""
        if -32768 <= value <= 32767:
            return self.addi(rd, 0, value)
        upper = (value >> 16) & 0xFFFF
        lower = value & 0xFFFF
        self.lui(rd, upper)
        if lower:
            self.ori(rd, rd, lower)
        return self

    def nop(self) -> "Assembler":
        return self.emit(SymInstr(Opcode.NOP))

    # -- floating point -------------------------------------------------------

    def fadd(self, fd: int, fs: int, ft: int) -> "Assembler":
        return self._r(Opcode.FADD, fd, fs, ft)

    def fsub(self, fd: int, fs: int, ft: int) -> "Assembler":
        return self._r(Opcode.FSUB, fd, fs, ft)

    def fmul(self, fd: int, fs: int, ft: int) -> "Assembler":
        return self._r(Opcode.FMUL, fd, fs, ft)

    def fdiv(self, fd: int, fs: int, ft: int) -> "Assembler":
        return self._r(Opcode.FDIV, fd, fs, ft)

    def fmov(self, fd: int, fs: int) -> "Assembler":
        return self._r(Opcode.FMOV, fd, fs)

    def cvt_i_f(self, fd: int, rs: int) -> "Assembler":
        return self._r(Opcode.CVTIF, fd, rs)

    def cvt_f_i(self, rd: int, fs: int) -> "Assembler":
        return self._r(Opcode.CVTFI, rd, fs)

    # -- memory ------------------------------------------------------------

    def lw(self, rd: int, rs: int, offset: int = 0) -> "Assembler":
        return self._i(Opcode.LW, rd, rs, offset)

    def sw(self, rt: int, rs: int, offset: int = 0) -> "Assembler":
        # stored value travels in the rd slot for uniform encoding
        return self._i(Opcode.SW, rt, rs, offset)

    def flw(self, fd: int, rs: int, offset: int = 0) -> "Assembler":
        return self._i(Opcode.FLW, fd, rs, offset)

    def fsw(self, ft: int, rs: int, offset: int = 0) -> "Assembler":
        return self._i(Opcode.FSW, ft, rs, offset)

    # -- control flow --------------------------------------------------------

    def beq(self, rs: int, rt: int, target: TargetRef) -> "Assembler":
        return self.emit(SymInstr(Opcode.BEQ, rs=rs, rt=rt, target=target))

    def bne(self, rs: int, rt: int, target: TargetRef) -> "Assembler":
        return self.emit(SymInstr(Opcode.BNE, rs=rs, rt=rt, target=target))

    def blt(self, rs: int, rt: int, target: TargetRef) -> "Assembler":
        return self.emit(SymInstr(Opcode.BLT, rs=rs, rt=rt, target=target))

    def bge(self, rs: int, rt: int, target: TargetRef) -> "Assembler":
        return self.emit(SymInstr(Opcode.BGE, rs=rs, rt=rt, target=target))

    def j(self, target: TargetRef) -> "Assembler":
        return self.emit(SymInstr(Opcode.J, target=target))

    def jal(self, target: TargetRef) -> "Assembler":
        return self.emit(SymInstr(Opcode.JAL, target=target))

    def jr(self, rs: int) -> "Assembler":
        return self.emit(SymInstr(Opcode.JR, rs=rs))

    def jalr(self, rs: int) -> "Assembler":
        return self.emit(SymInstr(Opcode.JALR, rs=rs))

    def halt(self) -> "Assembler":
        return self.emit(SymInstr(Opcode.HALT))

    # -- data -----------------------------------------------------------------

    def data_words(self, name: str,
                   values: Sequence[Union[int, str]]) -> "Assembler":
        """Initialized words; a ``str`` entry is a label whose final
        address the linker substitutes (jump/call tables)."""
        self.module.data.append(DataItem(name, list(values)))
        return self

    def data_space(self, name: str, num_words: int) -> "Assembler":
        self.module.data.append(DataItem(name, [], zero_words=num_words))
        return self


# ---------------------------------------------------------------------------
# Linking
# ---------------------------------------------------------------------------


@contextmanager
def collector_paused() -> Iterator[None]:
    """Suspend the cyclic garbage collector for the block (reference
    counting still frees everything that becomes unreachable)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def link(
    module: Module,
    *,
    text_base: int = TEXT_BASE,
    data_base: int = DATA_BASE,
    page_bytes: int = 4096,
    boundary_branches: bool = False,
    name: str = "a.out",
) -> Program:
    """Lay out ``module`` and resolve every label.

    With ``boundary_branches=True`` the linker reproduces the paper's
    compiler support for the BOUNDARY case: whenever layout reaches the last
    instruction slot of a page, it first materializes an unconditional
    ``J`` targeting the next address, then continues placement there.
    """
    if text_base % page_bytes:
        raise LayoutError("text base must be page aligned")
    if text_base % 4 or data_base % 4:
        raise LayoutError("segment bases must be word aligned")

    labels: Dict[str, int] = {}
    placed: List[Instruction] = []
    #: (placed instruction, symbolic target) for every control transfer,
    #: resolved once all labels are bound
    unresolved: List[Tuple[Instruction, TargetRef]] = []
    cursor = text_base
    pending_labels: List[str] = []
    boundary_count = 0
    #: address of the next page's last slot, where a boundary branch
    #: goes (never reached without boundary branches)
    page_end = text_base + page_bytes - 4 if boundary_branches else -1

    # placement allocates one Instruction per slot and no reference
    # cycles; with the cyclic collector running, those allocations set
    # off full-heap scans that cost more than the placement itself
    with collector_paused():
        for item in module.text:
            if isinstance(item, str):
                if item in labels or item in pending_labels:
                    raise AssemblyError(f"duplicate label '{item}'")
                pending_labels.append(item)
                continue
            if cursor == page_end:
                placed.append(Instruction(Opcode.J, 0, 0, 0, 0, cursor + 4,
                                          False, True, cursor, "<boundary>"))
                cursor += 4
                boundary_count += 1
                page_end += page_bytes
            if pending_labels:
                for lbl in pending_labels:
                    labels[lbl] = cursor
                pending_labels.clear()
            instr = Instruction(item.op, item.rd, item.rs, item.rt,
                                item.imm, None, False, False, cursor,
                                item.label)
            placed.append(instr)
            if item.target is not None:
                unresolved.append((instr, item.target))
            cursor += 4

    # trailing labels bind to the end of text (valid only as data refs)
    for lbl in pending_labels:
        labels[lbl] = cursor

    # data layout (text labels are final here, so label-valued words can
    # be resolved to addresses)
    data_words: Dict[int, int] = {}
    dcursor = data_base
    for ditem in module.data:
        if ditem.name in labels:
            raise AssemblyError(f"duplicate symbol '{ditem.name}'")
        labels[ditem.name] = dcursor
        for value in ditem.words:
            if isinstance(value, str):
                if value not in labels:
                    raise AssemblyError(
                        f"data item '{ditem.name}' references undefined "
                        f"label '{value}'"
                    )
                value = labels[value]
            data_words[dcursor] = value & 0xFFFFFFFF
            dcursor += 4
        dcursor += 4 * ditem.zero_words

    # resolve control-flow targets
    for instr, ref in unresolved:
        if isinstance(ref, str):
            target = labels.get(ref)
            if target is None:
                raise AssemblyError(f"undefined label '{ref}'")
        else:
            target = ref
        if instr.kind_code == _COND_BRANCH:
            off_words = (target - (instr.address + 4)) // 4
            if abs(off_words) > _B_OFF_LIMIT:
                raise AssemblyError(
                    f"branch at {instr.address:#x} to '{ref}' out of "
                    f"range ({off_words} words)"
                )
        instr.target = target

    if module.entry_label in labels:
        entry = labels[module.entry_label]
    elif placed:
        entry = placed[0].address
    else:
        raise LayoutError("cannot link an empty module")

    program = Program(
        text_base=text_base,
        instructions=placed,
        labels=labels,
        data_base=data_base,
        data_words=data_words,
        data_size=max(dcursor - data_base, 0),
        entry=entry,
        page_bytes=page_bytes,
        instrumented=boundary_branches,
        boundary_branch_count=boundary_count,
        name=name,
    )
    program.validate()
    return program
