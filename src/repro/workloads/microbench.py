"""Hand-written microbenchmarks for tests and examples.

Each builder returns an unlinked :class:`~repro.isa.assembler.Module` so
callers can link it plain or instrumented, at any page size.
"""

from __future__ import annotations

from repro.isa.assembler import Assembler, Module
from repro.isa.registers import REG_GP, REG_RA, REG_ZERO
from repro.isa.program import DATA_BASE

_T0, _T1, _T2 = 8, 9, 10
_S0, _S1 = 16, 17


def counted_loop(iterations: int = 100, body_len: int = 4) -> Module:
    """A single counted loop: the simplest stable instruction stream.
    Ends with HALT, so it terminates on its own."""
    asm = Assembler()
    asm.label("main")
    asm.addi(_S0, REG_ZERO, iterations)
    asm.label("loop")
    for i in range(body_len):
        asm.addi(_T0, _T0, i + 1)
    asm.addi(_S0, _S0, -1)
    asm.bne(_S0, REG_ZERO, "loop")
    asm.halt()
    return asm.module


def page_ping_pong(pages: int = 2, pad_instructions: int = 900,
                   iterations: int = 50) -> Module:
    """Alternates control between ``pages`` code regions placed one page
    apart (via padding), so every hop is a BRANCH page crossing.  The
    canonical worst case for per-branch lookup schemes and the best case
    for page-change-only schemes is the same stream here, which makes the
    expected lookup counts easy to derive in tests."""
    asm = Assembler()
    asm.label("main")
    asm.addi(_S0, REG_ZERO, iterations)
    asm.label("hop_0")
    asm.addi(_T0, _T0, 1)
    asm.j("hop_1" if pages > 1 else "check")
    for page in range(1, pages):
        asm.nop(pad_instructions)
        asm.label(f"hop_{page}")
        asm.addi(_T0, _T0, 1)
        nxt = f"hop_{page + 1}" if page + 1 < pages else "check"
        asm.j(nxt)
    asm.nop(pad_instructions)
    asm.label("check")
    asm.addi(_S0, _S0, -1)
    asm.bne(_S0, REG_ZERO, "hop_0")
    asm.halt()
    return asm.module


def straight_line(instructions: int = 3000, iterations: int = 20) -> Module:
    """A long straight-line body repeated in a loop: sequential execution
    crosses several page boundaries per iteration (pure BOUNDARY case)."""
    asm = Assembler()
    asm.label("main")
    asm.addi(_S0, REG_ZERO, iterations)
    asm.label("top")
    for i in range(instructions):
        asm.addi(_T0, _T0, (i & 7) + 1)
    asm.addi(_S0, _S0, -1)
    asm.bne(_S0, REG_ZERO, "top")
    asm.halt()
    return asm.module


def call_return(depth_calls: int = 64, callee_len: int = 12) -> Module:
    """A loop of direct calls to a small callee: exercises jal/jr, the
    return path's BTB behaviour, and cross-page call crossings."""
    asm = Assembler()
    asm.label("main")
    asm.addi(_S0, REG_ZERO, depth_calls)
    asm.label("loop")
    asm.jal("callee")
    asm.addi(_S0, _S0, -1)
    asm.bne(_S0, REG_ZERO, "loop")
    asm.halt()
    asm.label("callee")
    for i in range(callee_len):
        asm.addi(_T1, _T1, i + 1)
    asm.jr(REG_RA)
    return asm.module


def memory_walker(words: int = 4096, iterations: int = 8,
                  stride_words: int = 1) -> Module:
    """Streams through a data array with a fixed stride: drives dL1/dTLB
    behaviour deterministically (used by dTLB/dCFR tests)."""
    asm = Assembler()
    asm.label("main")
    asm.lui(REG_GP, DATA_BASE >> 16)
    asm.addi(_S1, REG_ZERO, iterations)
    asm.label("outer")
    asm.addi(_S0, REG_ZERO, words // stride_words)
    asm.or_(_T1, REG_GP, REG_ZERO)
    asm.label("inner")
    asm.lw(_T0, _T1, 0)
    asm.addi(_T0, _T0, 1)
    asm.sw(_T0, _T1, 0)
    asm.addi(_T1, _T1, 4 * stride_words)
    asm.addi(_S0, _S0, -1)
    asm.bne(_S0, REG_ZERO, "inner")
    asm.addi(_S1, _S1, -1)
    asm.bne(_S1, REG_ZERO, "outer")
    asm.halt()
    asm.data_space("walk_array", words)
    return asm.module


def taken_pattern(pattern: str = "TTNTTN", iterations: int = 200) -> Module:
    """A conditional branch following a fixed taken/not-taken pattern
    (driven by a rotating counter), for predictor unit tests."""
    period = len(pattern)
    taken_mask = sum(1 << i for i, c in enumerate(pattern) if c == "T")
    asm = Assembler()
    asm.label("main")
    asm.addi(_S0, REG_ZERO, iterations)
    asm.li(_S1, taken_mask)
    asm.addi(_T2, REG_ZERO, 0)  # phase counter
    asm.label("loop")
    # t0 = (mask >> phase) & 1
    asm.srl(_T0, _S1, _T2)
    asm.andi(_T0, _T0, 1)
    asm.bne(_T0, REG_ZERO, "was_taken")
    asm.addi(_T1, _T1, 1)
    asm.label("was_taken")
    # phase = (phase + 1) % period
    asm.addi(_T2, _T2, 1)
    asm.slti(_T0, _T2, period)
    asm.bne(_T0, REG_ZERO, "no_wrap")
    asm.addi(_T2, REG_ZERO, 0)
    asm.label("no_wrap")
    asm.addi(_S0, _S0, -1)
    asm.bne(_S0, REG_ZERO, "loop")
    asm.halt()
    return asm.module
