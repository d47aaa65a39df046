"""Register file definitions and ABI names.

The machine has 32 integer registers (``r0`` hardwired to zero) and 32
floating-point registers.  The ABI follows MIPS conventions loosely; only
the aliases the workload generator and examples rely on are defined.
"""

from __future__ import annotations

INT_REG_COUNT = 32
FP_REG_COUNT = 32

REG_ZERO = 0  #: hardwired zero
REG_AT = 1  #: assembler temporary
REG_V0 = 2  #: return value
REG_A0 = 4  #: first argument
REG_A1 = 5
REG_A2 = 6
REG_A3 = 7
REG_T0 = 8  #: caller-saved temporaries t0..t7 -> r8..r15
REG_S0 = 16  #: callee-saved s0..s7 -> r16..r23
REG_T8 = 24
REG_T9 = 25
REG_GP = 28  #: global pointer (base of the data segment)
REG_SP = 29  #: stack pointer
REG_FP = 30  #: frame pointer
REG_RA = 31  #: return address (written by jal/jalr)

_ALIASES = {
    0: "zero", 1: "at", 2: "v0", 3: "v1",
    4: "a0", 5: "a1", 6: "a2", 7: "a3",
    8: "t0", 9: "t1", 10: "t2", 11: "t3",
    12: "t4", 13: "t5", 14: "t6", 15: "t7",
    16: "s0", 17: "s1", 18: "s2", 19: "s3",
    20: "s4", 21: "s5", 22: "s6", 23: "s7",
    24: "t8", 25: "t9", 26: "k0", 27: "k1",
    28: "gp", 29: "sp", 30: "fp", 31: "ra",
}


def reg_name(index: int, fp: bool = False) -> str:
    """Human-readable name for a register index.

    >>> reg_name(31)
    'ra'
    >>> reg_name(2, fp=True)
    'f2'
    """
    if fp:
        if not 0 <= index < FP_REG_COUNT:
            raise ValueError(f"bad fp register index {index}")
        return f"f{index}"
    if not 0 <= index < INT_REG_COUNT:
        raise ValueError(f"bad register index {index}")
    return _ALIASES[index]


def temp_regs() -> tuple[int, ...]:
    """Caller-saved scratch registers available to generated code."""
    return tuple(range(REG_T0, REG_T0 + 8)) + (REG_T8, REG_T9)

