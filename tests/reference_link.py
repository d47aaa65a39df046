"""The linker's boundary-inserting placement loop, kept as a test-only
reference.

:func:`repro.isa.assembler.place_boundary_branches` derives an
instrumented image from the plain one.  Before it did, the linker placed
the instrumented image word by word, putting an unconditional ``J`` in
a page's last slot whenever placement reached it.  :func:`reference_link`
is that loop, so tests can compare the derived image with a placed one
field for field, on any module (``tests/golden/linked_programs.json``
pins only the stand-ins at two page sizes).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.compiler.instrument import mark_inpage_hints
from repro.errors import AssemblyError, LayoutError
from repro.isa.assembler import Module, TargetRef
from repro.isa.instructions import Instruction, InstrKind, Opcode
from repro.isa.program import DATA_BASE, Program, TEXT_BASE

_B_OFF_LIMIT = (1 << 14) - 1


def reference_link(module: Module, *, page_bytes: int,
                   text_base: int = TEXT_BASE, data_base: int = DATA_BASE,
                   name: str = "a.out") -> Program:
    """``module``'s instrumented binary, placed word by word with a
    boundary branch at every page end it reaches, in-page bits marked."""
    labels: Dict[str, int] = {}
    placed: List[Instruction] = []
    unresolved: List[Tuple[int, TargetRef]] = []
    cursor = text_base
    pending: List[str] = []
    boundaries = 0
    page_end = text_base + page_bytes - 4
    for item in module.text:
        if isinstance(item, str):
            if item in labels or item in pending:
                raise AssemblyError(f"duplicate label '{item}'")
            pending.append(item)
            continue
        if cursor == page_end:
            placed.append(Instruction(Opcode.J, target=cursor + 4,
                                      is_boundary_branch=True,
                                      label="<boundary>"))
            cursor += 4
            boundaries += 1
            page_end += page_bytes
        for label in pending:
            labels[label] = cursor
        pending.clear()
        if item.target is not None:
            unresolved.append((len(placed), item.target))
        placed.append(Instruction(item.op, rd=item.rd, rs=item.rs,
                                  rt=item.rt, imm=item.imm,
                                  label=item.label))
        cursor += 4
    for label in pending:
        labels[label] = cursor

    data_words: Dict[int, int] = {}
    dcursor = data_base
    for ditem in module.data:
        labels[ditem.name] = dcursor
        for value in ditem.words:
            if isinstance(value, str):
                value = labels[value]
            data_words[dcursor] = value & 0xFFFFFFFF
            dcursor += 4
        dcursor += 4 * ditem.zero_words

    for index, ref in unresolved:
        target = labels[ref] if isinstance(ref, str) else ref
        instr = placed[index]
        address = text_base + 4 * index
        if instr.kind_code == int(InstrKind.COND_BRANCH):
            off_words = (target - (address + 4)) // 4
            if abs(off_words) > _B_OFF_LIMIT:
                raise AssemblyError(f"branch at {address:#x} to '{ref}' "
                                    f"out of range ({off_words} words)")
        instr.target = target

    if not placed:
        raise LayoutError("cannot link an empty module")
    program = Program(
        text_base=text_base, instructions=placed, labels=labels,
        data_base=data_base, data_words=data_words,
        data_size=max(dcursor - data_base, 0),
        entry=labels.get(module.entry_label, text_base),
        page_bytes=page_bytes, instrumented=True,
        boundary_branch_count=boundaries, name=f"{name}+instr")
    program.validate()
    mark_inpage_hints(program)
    return program
