"""Instruction definitions, classification metadata, and binary encoding.

Every instruction occupies exactly four bytes and is four-byte aligned, so a
single instruction never crosses a page boundary — the alignment assumption
the paper makes when defining the BOUNDARY case (Section 3.3.2).

Control-flow instructions carry a one-bit *in-page hint* (``inpage_hint``).
The hint is dead in the base binary; the SoLA compiler pass
(:mod:`repro.compiler.instrument`) sets it on statically-analyzable branches
whose taken target lies in the branch's own page, and the SoLA iTLB policy
suppresses the post-branch lookup when it is set.  This mirrors the paper's
"extra bit in branch instructions to differentiate between in-page branches
and the others".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Optional, Tuple

from repro.errors import AssemblyError
from repro.isa.registers import REG_RA


class InstrKind(IntEnum):
    """Coarse classification used by the pipeline and scheme models."""

    INT_ALU = 0
    INT_MULT = 1
    INT_DIV = 2
    FP_ALU = 3
    FP_MULT = 4
    FP_DIV = 5
    LOAD = 6
    STORE = 7
    COND_BRANCH = 8
    JUMP = 9  #: direct unconditional jump
    CALL = 10  #: direct call (writes the return-address register)
    INDIRECT_JUMP = 11  #: register-indirect jump (statically unanalyzable)
    INDIRECT_CALL = 12  #: register-indirect call (statically unanalyzable)
    NOP = 13
    HALT = 14


#: Kinds that transfer control (the paper's BRANCH case covers all of them).
CONTROL_KINDS = frozenset(
    {
        InstrKind.COND_BRANCH,
        InstrKind.JUMP,
        InstrKind.CALL,
        InstrKind.INDIRECT_JUMP,
        InstrKind.INDIRECT_CALL,
    }
)

#: Control kinds whose target is encoded in the instruction itself and can
#: therefore be classified at compile time (SoLA's "analyzable" branches).
ANALYZABLE_KINDS = frozenset(
    {InstrKind.COND_BRANCH, InstrKind.JUMP, InstrKind.CALL}
)

#: Kinds that always redirect fetch when executed.
UNCONDITIONAL_KINDS = frozenset(
    {InstrKind.JUMP, InstrKind.CALL, InstrKind.INDIRECT_JUMP, InstrKind.INDIRECT_CALL}
)


class Opcode(Enum):
    """All opcodes, with (mnemonic, kind, execute latency)."""

    # integer register-register
    ADD = ("add", InstrKind.INT_ALU, 1)
    SUB = ("sub", InstrKind.INT_ALU, 1)
    MUL = ("mul", InstrKind.INT_MULT, 3)
    DIV = ("div", InstrKind.INT_DIV, 20)
    AND = ("and", InstrKind.INT_ALU, 1)
    OR = ("or", InstrKind.INT_ALU, 1)
    XOR = ("xor", InstrKind.INT_ALU, 1)
    SLL = ("sll", InstrKind.INT_ALU, 1)
    SRL = ("srl", InstrKind.INT_ALU, 1)
    SLT = ("slt", InstrKind.INT_ALU, 1)
    # integer register-immediate
    ADDI = ("addi", InstrKind.INT_ALU, 1)
    ANDI = ("andi", InstrKind.INT_ALU, 1)
    ORI = ("ori", InstrKind.INT_ALU, 1)
    XORI = ("xori", InstrKind.INT_ALU, 1)
    SLTI = ("slti", InstrKind.INT_ALU, 1)
    SLLI = ("slli", InstrKind.INT_ALU, 1)
    SRLI = ("srli", InstrKind.INT_ALU, 1)
    LUI = ("lui", InstrKind.INT_ALU, 1)
    # floating point (registers f0..f31)
    FADD = ("fadd", InstrKind.FP_ALU, 2)
    FSUB = ("fsub", InstrKind.FP_ALU, 2)
    FMUL = ("fmul", InstrKind.FP_MULT, 4)
    FDIV = ("fdiv", InstrKind.FP_DIV, 12)
    FMOV = ("fmov", InstrKind.FP_ALU, 1)
    CVTIF = ("cvt.i.f", InstrKind.FP_ALU, 2)  #: int reg -> fp reg
    CVTFI = ("cvt.f.i", InstrKind.FP_ALU, 2)  #: fp reg -> int reg (truncate)
    # memory
    LW = ("lw", InstrKind.LOAD, 1)
    SW = ("sw", InstrKind.STORE, 1)
    FLW = ("flw", InstrKind.LOAD, 1)
    FSW = ("fsw", InstrKind.STORE, 1)
    # control flow
    BEQ = ("beq", InstrKind.COND_BRANCH, 1)
    BNE = ("bne", InstrKind.COND_BRANCH, 1)
    BLT = ("blt", InstrKind.COND_BRANCH, 1)
    BGE = ("bge", InstrKind.COND_BRANCH, 1)
    J = ("j", InstrKind.JUMP, 1)
    JAL = ("jal", InstrKind.CALL, 1)
    JR = ("jr", InstrKind.INDIRECT_JUMP, 1)
    JALR = ("jalr", InstrKind.INDIRECT_CALL, 1)
    # misc
    NOP = ("nop", InstrKind.NOP, 1)
    HALT = ("halt", InstrKind.HALT, 1)

    def __init__(self, mnemonic: str, kind: InstrKind, latency: int) -> None:
        self.mnemonic = mnemonic
        self.kind = kind
        #: ``int(kind)``, what every :class:`Instruction` copies
        self.kind_code = int(kind)
        self.latency = latency

    @property
    def is_control(self) -> bool:
        return self.kind in CONTROL_KINDS

    @property
    def is_analyzable_control(self) -> bool:
        return self.kind in ANALYZABLE_KINDS

    @property
    def is_unconditional(self) -> bool:
        return self.kind in UNCONDITIONAL_KINDS


@dataclass(slots=True, init=False)
class Instruction:
    """One decoded instruction.

    ``target`` holds the absolute byte address of the taken destination for
    direct control flow; it is ``None`` for indirect control flow and for
    non-control instructions.  ``inpage_hint`` and ``is_boundary_branch``
    are written by the compiler passes; both default to ``False`` in
    uninstrumented binaries.

    An instruction does not know its own address: in a
    :class:`~repro.isa.program.Program` it sits at ``text_base + 4 *
    index``, and the pc travels with each executed step and trace
    record.  Only ``target`` is an address, so an instruction without
    one means the same thing at any position, and an instrumented image
    shares every such instruction of its plain image.

    The class is slotted: workloads materialize hundreds of thousands of
    instances, and the engines read their fields on every retired
    instruction, so the per-instance ``__dict__`` was both memory and
    lookup overhead.  ``__init__`` is written out: the linker builds one
    instance per text word, and copying the opcode's precomputed
    ``kind_code`` and ``latency`` costs no ``__post_init__`` call.
    """

    op: Opcode
    rd: int = 0
    rs: int = 0
    rt: int = 0
    imm: int = 0
    target: Optional[int] = None
    inpage_hint: bool = False
    is_boundary_branch: bool = False
    #: source-level label of this instruction's basic block, for diagnostics
    label: str = ""
    #: precomputed ``int(op.kind)`` — the executors dispatch on a plain int
    #: instead of an enum attribute chain in their hot loops
    kind_code: int = field(init=False, default=-1)
    #: precomputed ``op.latency`` — the timing models charge it per retired
    #: instruction, and the enum attribute chain was measurable there
    latency: int = field(init=False, default=1)

    def __init__(self, op: Opcode, rd: int = 0, rs: int = 0, rt: int = 0,
                 imm: int = 0, target: Optional[int] = None,
                 inpage_hint: bool = False, is_boundary_branch: bool = False,
                 label: str = "") -> None:
        self.op = op
        self.rd = rd
        self.rs = rs
        self.rt = rt
        self.imm = imm
        self.target = target
        self.inpage_hint = inpage_hint
        self.is_boundary_branch = is_boundary_branch
        self.label = label
        self.kind_code = op.kind_code
        self.latency = op.latency

    # -- classification shortcuts (hot paths read these a lot) ----------

    @property
    def kind(self) -> InstrKind:
        return self.op.kind

    @property
    def is_control(self) -> bool:
        return self.op.is_control

    @property
    def is_mem(self) -> bool:
        return self.op.kind in (InstrKind.LOAD, InstrKind.STORE)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.op.mnemonic]
        if self.target is not None:
            parts.append(f"-> {self.target:#x}")
        if self.inpage_hint:
            parts.append("[in-page]")
        if self.is_boundary_branch:
            parts.append("[boundary]")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# Register slots: which registers an instruction's timing reads and writes
# ---------------------------------------------------------------------------

_FP_SLOT = 32  #: slot of FP register ``f0``; integer ``r`` is slot ``r``
_SINK_SLOT = 64  #: the destination of an instruction that writes nothing
REGISTER_SLOTS = 65  #: size of the namespace :func:`register_slots` uses


def register_slots(instr: Instruction) -> Tuple[int, int, int, int]:
    """``(src1, src2, src3, dst)``: the register slots ``instr`` waits
    on and the one it writes, in one namespace for both files.

    Integer register ``r`` is slot ``r`` and FP register ``f`` is slot
    ``32 + f``.  Slot 0 (``r0``, never written) is the source of an
    operand that reads nothing; slot 64, a write sink, is the
    destination of an instruction that writes nothing.  FP ops read and
    write the FP file, except that ``CVTIF`` reads the integer file and
    ``CVTFI`` writes it.  A store waits on its value register unless
    that register is 0 (``FSW``'s is an FP register), and ``FLW`` fills
    the FP file.  Integer writes to ``r0`` are dropped; ``f0`` is a
    real register.  Calls write ``ra``."""
    op = instr.op
    kind = instr.kind_code
    rd = instr.rd
    if 3 <= kind <= 5:  # FP ops
        src1 = instr.rs if op is Opcode.CVTIF else _FP_SLOT + instr.rs
        dst = (rd or _SINK_SLOT) if op is Opcode.CVTFI else _FP_SLOT + rd
        return src1, _FP_SLOT + instr.rt, 0, dst
    src3, dst = 0, _SINK_SLOT
    if kind == InstrKind.STORE and rd:
        src3 = _FP_SLOT + rd if op is Opcode.FSW else rd
    elif kind == InstrKind.LOAD and op is Opcode.FLW:
        dst = _FP_SLOT + rd
    elif kind <= InstrKind.LOAD:  # integer ops and LW
        dst = rd or _SINK_SLOT
    elif kind in (InstrKind.CALL, InstrKind.INDIRECT_CALL):
        dst = REG_RA
    return instr.rs, instr.rt, src3, dst


# ---------------------------------------------------------------------------
# Binary encoding
# ---------------------------------------------------------------------------
#
# Layout (32 bits):
#   R-type:  op(6) rd(5) rs(5) rt(5) unused(11)
#   I-type:  op(6) rd(5) rs(5) imm(16, signed)
#   B-type:  op(6) rs(5) rt(5) hint(1) off(15, signed, in words)
#   J-type:  op(6) hint(1) word_addr(25)   (absolute word address / 4)
#
# The 1-bit hint in B/J types is the SoLA in-page bit.  The encoding exists
# so binaries can round-trip through a flat word image; the simulators run
# on decoded Instruction objects.

_R_TYPE = frozenset({Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.AND,
                     Opcode.OR, Opcode.XOR, Opcode.SLL, Opcode.SRL, Opcode.SLT,
                     Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV,
                     Opcode.FMOV, Opcode.CVTIF, Opcode.CVTFI,
                     Opcode.JR, Opcode.JALR, Opcode.NOP, Opcode.HALT})
_I_TYPE = frozenset({Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI,
                     Opcode.SLTI, Opcode.SLLI, Opcode.SRLI, Opcode.LUI,
                     Opcode.LW, Opcode.SW, Opcode.FLW, Opcode.FSW})
#: I-type opcodes whose immediate the executor masks to ``imm & 0xFFFF``
#: (ANDI sign-extends, so it is not one of them)
_LOW_HALF_IMM = frozenset({Opcode.LUI, Opcode.ORI, Opcode.XORI})
_B_TYPE = frozenset({Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE})
_J_TYPE = frozenset({Opcode.J, Opcode.JAL})

_OPCODE_NUM = {op: i for i, op in enumerate(Opcode)}
_NUM_OPCODE = {i: op for op, i in _OPCODE_NUM.items()}

_B_OFF_BITS = 15
_B_OFF_MAX = (1 << (_B_OFF_BITS - 1)) - 1
_J_ADDR_BITS = 25


def _check_field(value: int, bits: int, what: str, signed: bool = False) -> int:
    if signed:
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    else:
        lo, hi = 0, (1 << bits) - 1
    if not lo <= value <= hi:
        raise AssemblyError(f"{what} {value} does not fit in {bits} bits")
    return value & ((1 << bits) - 1)


def encode(instr: Instruction, address: Optional[int] = None) -> int:
    """Encode ``instr`` to a 32-bit word.  A conditional branch encodes
    its target relative to its own ``address``, so it needs one."""
    opnum = _OPCODE_NUM[instr.op] << 26
    op = instr.op
    if op in _R_TYPE:
        return (opnum | _check_field(instr.rd, 5, "rd") << 21
                | _check_field(instr.rs, 5, "rs") << 16
                | _check_field(instr.rt, 5, "rt") << 11)
    if op in _I_TYPE:
        # the executor reads only the low 16 bits of these immediates,
        # so the unsigned form (an ``li`` upper/lower half) fits too
        signed = not (op in _LOW_HALF_IMM and instr.imm >= 0)
        return (opnum | _check_field(instr.rd, 5, "rd") << 21
                | _check_field(instr.rs, 5, "rs") << 16
                | _check_field(instr.imm, 16, "imm", signed=signed))
    if op in _B_TYPE:
        if instr.target is None or address is None:
            raise AssemblyError(f"cannot encode unlinked branch {instr}")
        off_words = (instr.target - address - 4) // 4
        return (opnum | _check_field(instr.rs, 5, "rs") << 21
                | _check_field(instr.rt, 5, "rt") << 16
                | (1 if instr.inpage_hint else 0) << 15
                | _check_field(off_words, _B_OFF_BITS, "branch offset", signed=True))
    if op in _J_TYPE:
        if instr.target is None:
            raise AssemblyError(f"cannot encode unlinked jump {instr}")
        return (opnum | (1 if instr.inpage_hint else 0) << 25
                | _check_field(instr.target // 4, _J_ADDR_BITS, "jump target"))
    raise AssemblyError(f"unencodable opcode {op}")


def decode(word: int, address: int) -> Instruction:
    """Decode a 32-bit word fetched from ``address`` back to an
    :class:`Instruction`.  Inverse of :func:`encode`."""
    opnum = (word >> 26) & 0x3F
    if opnum not in _NUM_OPCODE:
        raise AssemblyError(f"bad opcode number {opnum} at {address:#x}")
    op = _NUM_OPCODE[opnum]
    if op in _R_TYPE:
        return Instruction(op, rd=(word >> 21) & 0x1F, rs=(word >> 16) & 0x1F,
                           rt=(word >> 11) & 0x1F)
    if op in _I_TYPE:
        imm = word & 0xFFFF
        if imm >= 1 << 15:
            imm -= 1 << 16
        return Instruction(op, rd=(word >> 21) & 0x1F, rs=(word >> 16) & 0x1F,
                           imm=imm)
    if op in _B_TYPE:
        off = word & ((1 << _B_OFF_BITS) - 1)
        if off >= 1 << (_B_OFF_BITS - 1):
            off -= 1 << _B_OFF_BITS
        return Instruction(op, rs=(word >> 21) & 0x1F, rt=(word >> 16) & 0x1F,
                           inpage_hint=bool((word >> 15) & 1),
                           target=address + 4 + 4 * off)
    if op in _J_TYPE:
        return Instruction(op, inpage_hint=bool((word >> 25) & 1),
                           target=(word & ((1 << _J_ADDR_BITS) - 1)) * 4)
    raise AssemblyError(f"undecodable opcode {op}")  # pragma: no cover
