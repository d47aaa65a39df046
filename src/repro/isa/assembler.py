"""Symbolic assembly and the linker.

:class:`Assembler` is a builder API producing a :class:`Module` — a stream of
labels, symbolic instructions, and data definitions with no addresses
assigned.  :func:`link` lays a module out at fixed bases and resolves
labels.  :func:`place_boundary_branches` turns a linked plain layout into
the one with the paper's page-boundary branches (Section 3.3.2): the last
instruction slot of every code page is occupied by an unconditional jump
to the first slot of the next page, so sequential execution never falls
across a page boundary without executing a branch.

A workload is placed once, plain (for Base/HoA/OPT), and each
instrumented layout (for SoCA/SoLA/IA, one per page size) is derived
from it — exactly as the paper compares un/instrumented binaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import AssemblyError, LayoutError
from repro.isa.instructions import Instruction, InstrKind, Opcode
from repro.isa.program import DATA_BASE, Program, TEXT_BASE

_B_OFF_LIMIT = (1 << 14) - 1  # 15-bit signed word offset
_COND_BRANCH = int(InstrKind.COND_BRANCH)
_NOP = Opcode.NOP

TargetRef = Union[str, int]


@dataclass(slots=True)
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

    def nop(self, count: int = 1) -> "Assembler":
        """``count`` NOP words (none when ``count`` is 0).  They are one
        operand-free :class:`SymInstr` repeated ``count`` times in the
        text, so a long padding run costs one object; the linker places
        the repeats as one shared NOP."""
        sym = SymInstr(Opcode.NOP, label=self._current_label)
        self.module.text += [sym] * count
        return self

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


def link(
    module: Module,
    *,
    text_base: int = TEXT_BASE,
    data_base: int = DATA_BASE,
    page_bytes: int = 4096,
    name: str = "a.out",
) -> Program:
    """Lay out ``module`` and resolve every label: the plain layout.
    The paper's compiler support for the BOUNDARY case is
    :func:`place_boundary_branches` applied to the result."""
    if text_base % page_bytes:
        raise LayoutError("text base must be page aligned")
    if text_base % 4 or data_base % 4:
        raise LayoutError("segment bases must be word aligned")

    labels: Dict[str, int] = {}
    placed: List[Instruction] = []
    #: (index of the placed instruction, symbolic target) for every
    #: control transfer, resolved once all labels are bound
    unresolved: List[Tuple[int, TargetRef]] = []
    cursor = text_base
    pending_labels: List[str] = []
    nops: Dict[str, Instruction] = {}
    #: the operand-free NOP item placed last and its shared instruction;
    #: an immediate repeat of that item (a padding run) places it again
    last: Optional[SymInstr] = None
    last_nop: Optional[Instruction] = None

    for item in module.text:
        if item is last:
            placed.append(last_nop)
            cursor += 4
            continue
        if isinstance(item, str):
            if item in labels or item in pending_labels:
                raise AssemblyError(f"duplicate label '{item}'")
            pending_labels.append(item)
            last = None
            continue
        if pending_labels:
            for lbl in pending_labels:
                labels[lbl] = cursor
            pending_labels.clear()
        if item.target is not None:
            unresolved.append((len(placed), item.target))
        elif item.op is _NOP and not (item.rd or item.rs or item.rt
                                      or item.imm):
            # an instruction carries no address, so a block's NOP
            # padding can be one object (most text words are NOPs)
            nop = nops.get(item.label)
            if nop is None:
                nop = nops[item.label] = Instruction(
                    _NOP, 0, 0, 0, 0, None, False, False, item.label)
            placed.append(nop)
            cursor += 4
            last, last_nop = item, nop
            continue
        placed.append(Instruction(item.op, item.rd, item.rs, item.rt,
                                  item.imm, None, False, False,
                                  item.label))
        cursor += 4

    # trailing labels bind to the end of text (valid only as data refs)
    for lbl in pending_labels:
        labels[lbl] = cursor

    # data layout (text labels are final here, so label-valued words can
    # be resolved to addresses)
    data_words: Dict[int, int] = {}
    code_words: List[int] = []
    data_names = set()
    dcursor = data_base
    for ditem in module.data:
        if ditem.name in labels:
            raise AssemblyError(f"duplicate symbol '{ditem.name}'")
        labels[ditem.name] = dcursor
        data_names.add(ditem.name)
        for value in ditem.words:
            if isinstance(value, str):
                if value not in labels:
                    raise AssemblyError(
                        f"data item '{ditem.name}' references undefined "
                        f"label '{value}'"
                    )
                if value not in data_names:
                    code_words.append(dcursor)
                value = labels[value]
            data_words[dcursor] = value & 0xFFFFFFFF
            dcursor += 4
        dcursor += 4 * ditem.zero_words

    # resolve control-flow targets
    for index, ref in unresolved:
        if isinstance(ref, str):
            target = labels.get(ref)
            if target is None:
                raise AssemblyError(f"undefined label '{ref}'")
        else:
            target = ref
        instr = placed[index]
        if instr.kind_code == _COND_BRANCH:
            _check_branch_range(text_base + 4 * index, target, f"'{ref}'")
        instr.target = target

    if module.entry_label in labels:
        entry = labels[module.entry_label]
    elif placed:
        entry = text_base
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
        name=name,
        code_words=tuple(code_words),
    )
    program.validate()
    return program


def _check_branch_range(address: int, target: int, what: str) -> None:
    """A conditional branch encodes its target as a 15-bit word offset."""
    off_words = (target - (address + 4)) // 4
    if abs(off_words) > _B_OFF_LIMIT:
        raise AssemblyError(
            f"branch at {address:#x} to {what} out of "
            f"range ({off_words} words)"
        )


def place_boundary_branches(plain: Program, *, page_bytes: int,
                            name: Optional[str] = None) -> Program:
    """``plain``'s layout with the paper's page-boundary branches
    (Section 3.3.2): the last slot of every code page holds an
    unconditional ``J`` to the next page's first slot, so sequential
    execution never falls across a page end without a branch.

    Plain word ``k`` moves to word ``k + k // (W - 1)``, ``W`` being the
    words per page.  The result is built from ``plain`` instead of a
    second placement: each page's run of plain instructions is shared as
    it is (an instruction carries no address), and only what holds a
    text address is rewritten — every direct control word (a copy with
    its target moved), the text labels, the entry point and the
    label-valued data words (:attr:`Program.code_words`).  Conditional
    branch ranges, :meth:`Program.validate` and the boundary invariant
    are checked on the result, whose :attr:`Program.source` is
    ``plain``."""
    if plain.instrumented:
        raise LayoutError(f"{plain.name} already has boundary branches")
    base = plain.text_base
    if base % page_bytes:
        raise LayoutError("text base must be page aligned")
    per_page = page_bytes // 4 - 1
    if per_page < 1:
        raise LayoutError(f"a {page_bytes}-byte page has no slot besides "
                          "its boundary branch")
    source = plain.instructions
    count = len(source)
    placed: List[Instruction] = []
    for start in range(0, count, per_page):
        placed += source[start:start + per_page]
        if start + per_page < count:
            cursor = base + 4 * len(placed)
            placed.append(Instruction(Opcode.J, 0, 0, 0, 0, cursor + 4,
                                      False, True, "<boundary>"))
    text_end = base + 4 * len(placed)
    if base <= plain.data_base + plain.data_size \
            and plain.data_base <= text_end:
        raise LayoutError(
            f"{plain.name}: the data segment at {plain.data_base:#x} "
            "overlaps the instrumented text")

    def moved(address: int) -> int:
        """Where the plain text address ``address`` lands (the end of
        text stays the end of text)."""
        index = (address - base) >> 2
        if index >= count:
            return text_end
        return base + 4 * (index + index // per_page)

    for index, instr in enumerate(source):
        target = instr.target
        if target is None:
            continue
        if instr.is_boundary_branch:
            raise LayoutError(
                f"{plain.name} already has a boundary branch at "
                f"{base + 4 * index:#x}")
        slot = index + index // per_page
        target = moved(target)
        if instr.kind_code == _COND_BRANCH:
            _check_branch_range(base + 4 * slot, target,
                                f"{target:#x} (plain {instr.target:#x})")
        placed[slot] = Instruction(instr.op, instr.rd, instr.rs, instr.rt,
                                   instr.imm, target, False, False,
                                   instr.label)

    plain_end = plain.text_end
    labels = {label: moved(address) if base <= address <= plain_end
              else address
              for label, address in plain.labels.items()}
    data_words = dict(plain.data_words)
    for address in plain.code_words:
        data_words[address] = moved(data_words[address])
    program = Program(
        text_base=base,
        instructions=placed,
        labels=labels,
        data_base=plain.data_base,
        data_words=data_words,
        data_size=plain.data_size,
        entry=moved(plain.entry),
        page_bytes=page_bytes,
        instrumented=True,
        boundary_branch_count=len(placed) - count,
        name=plain.name if name is None else name,
        code_words=plain.code_words,
    )
    program.validate()
    program.source = plain
    return program
