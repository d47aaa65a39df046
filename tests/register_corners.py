"""A looped program that executes every register-file corner of the
timing model, registered as a workload for the engine pins.

No registry image reaches these corners: none executes ``CVTIF``,
``CVTFI``, ``FLW`` or ``FMOV``, and only an imported fixture reaches
``FSW``.  Each corner below is followed by a chain of long-latency
consumers, so a wrong register rule moves the chain's completion past
what in-order commit would hide:

* ``div`` into ``r0`` (an integer write to ``r0`` is dropped), then a
  read of ``r0``;
* ``fdiv`` into ``f0`` and an ``fadd`` reading ``f0`` (``f0`` is a real
  register);
* ``cvt.f.i`` into ``r0`` (an FP op writing the integer file; ``r0``
  goes nowhere) and ``cvt.f.i`` into ``t2``;
* ``cvt.i.f`` from an integer register written by a ``div``;
* ``fsw`` of ``f0`` (a store of register 0 waits on nothing) and of
  ``f5``, ``sw`` of an integer register;
* ``flw`` (a load filling the FP file) and ``fmov``;
* a ``jal`` whose callee reads ``ra`` before returning through it;
* every eighth pass, an ``flw`` and an ``fsw`` of fresh data blocks,
  which miss the caches, with an FP chain between them.

In-order commit still hides some rules from the digests: a call's
``ra`` is ready before the callee can issue, and in the fast engine a
store delays only its own commit.  The per-static check
(``test_stream_layout.py``) covers every rule.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.isa.assembler import Assembler, Module
from repro.isa.program import DATA_BASE
from repro.isa.registers import REG_GP, REG_RA, REG_ZERO
from repro.workloads.registry import register, resolve, unregister
from repro.workloads.synthetic import SyntheticWorkload, WorkloadProfile

#: the registry name the engine pins use
NAME = "corner.registers"

_T0, _T1, _T2, _T3, _T4, _T5, _T6 = 8, 9, 10, 11, 12, 13, 14
_S0, _S1 = 16, 17


def corner_program(iterations: int = 200) -> Module:
    """The corner loop; ends with HALT after ``iterations`` passes."""
    asm = Assembler()
    asm.label("main")
    asm.lui(REG_GP, DATA_BASE >> 16)
    asm.addi(_S0, REG_ZERO, iterations)
    asm.addi(_S1, REG_ZERO, 7)
    asm.addi(_T0, REG_ZERO, 3)
    asm.sw(_T0, REG_GP, 0)
    asm.or_(_T5, REG_GP, REG_ZERO)
    asm.label("loop")
    # an integer write to r0 is dropped: the add does not wait on it
    asm.div(REG_ZERO, _S0, _S1)
    asm.add(_T1, REG_ZERO, REG_ZERO)
    asm.mul(_T1, _T1, _S1)
    asm.mul(_T1, _T1, _S1)
    asm.div(_T1, _T1, _S1)
    # f0 is a real register: the fadd waits on the fdiv
    asm.fdiv(0, 1, 2)
    asm.fadd(3, 0, 0)
    asm.fmul(3, 3, 3)
    # a store of register 0 waits on nothing, even for fsw of f0
    asm.fsw(0, REG_GP, 4)
    # cvt.f.i writes the integer file; into r0 it goes nowhere
    asm.cvt_f_i(REG_ZERO, 3)
    asm.add(_T2, REG_ZERO, _S1)
    asm.mul(_T2, _T2, _T2)
    asm.div(_T2, _T2, _S1)
    asm.cvt_f_i(_T2, 3)
    asm.mul(_T2, _T2, _T2)
    # cvt.i.f reads the integer file
    asm.div(_T3, _S0, _S1)
    asm.cvt_i_f(4, _T3)
    asm.fdiv(4, 4, 4)
    asm.fmul(4, 4, 4)
    # flw fills the FP file, fmov copies within it
    asm.flw(5, REG_GP, 0)
    asm.fmov(6, 5)
    asm.fdiv(6, 6, 6)
    asm.fsw(5, REG_GP, 8)
    # every eighth pass, a fresh data block: the flw and the fsw miss
    asm.andi(_T6, _S0, 7)
    asm.bne(_T6, REG_ZERO, "hit")
    asm.addi(_T5, _T5, 256)
    asm.flw(7, _T5, 0)
    asm.fmov(8, 7)
    asm.fdiv(8, 8, 8)
    asm.fdiv(8, 8, 8)
    asm.fsw(8, _T5, 128)
    asm.label("hit")
    asm.sw(_T3, REG_GP, 12)
    asm.lw(_T4, REG_GP, 12)
    asm.mul(_T4, _T4, _T4)
    # a call writes ra, and the callee reads it
    asm.jal("callee")
    asm.addi(_S0, _S0, -1)
    asm.bne(_S0, REG_ZERO, "loop")
    asm.halt()
    asm.label("callee")
    asm.add(_T4, REG_RA, REG_ZERO)
    asm.mul(_T4, _T4, _S1)
    asm.jr(REG_RA)
    asm.data_space("corners", 2048)
    return asm.module


def _build() -> SyntheticWorkload:
    module = corner_program()
    return SyntheticWorkload(profile=WorkloadProfile(name=NAME),
                             module=module, chunks=[],
                             data_items=list(module.data), call_graph={})


@contextmanager
def corner_workload() -> Iterator[SyntheticWorkload]:
    """The corner program, registered under :data:`NAME` for the
    duration."""
    register(NAME, _build, replace=True)
    try:
        yield resolve(NAME)
    finally:
        unregister(NAME)
