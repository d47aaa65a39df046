"""Producing the binaries each scheme runs, and their committed streams.

Base/HoA/OPT execute the *plain* binary (:func:`link_plain`).  SoCA, SoLA,
and IA execute the *instrumented* binary (:func:`instrument_program`),
derived from the plain one:

1. an unconditional branch goes in the last slot of every code page,
   targeting the next page's first instruction (Section 3.3.2's BOUNDARY
   fix, :func:`~repro.isa.assembler.place_boundary_branches`), and
2. this pass sets the in-page bit on every statically-analyzable control
   instruction whose taken target stays on its own page (Section 3.3.3's
   SoLA support).

The bit must be computed *after* final layout — inserting boundary
branches shifts addresses, which can move a branch or its target across a
page boundary — which is why marking operates on the laid-out program.

The instrumented binary runs the same computation as the plain one, so
its committed stream is the plain stream remapped (:func:`derive_stream`):
the fast engine never executes an instrumented binary.
"""

from __future__ import annotations

from array import array

from repro.errors import LayoutError, TraceError
from repro.isa.assembler import Module, link, place_boundary_branches
from repro.isa.program import DATA_BASE, Program, TEXT_BASE
from repro.compiler.analysis import classify_branch
from repro.isa.instructions import CONTROL_KINDS
from repro.trace.format import TraceSegment, program_meta


def mark_inpage_hints(program: Program) -> int:
    """Set ``inpage_hint`` on qualifying branches; returns how many were
    marked.  Boundary branches always cross pages and must never qualify."""
    marked = 0
    text_base = program.text_base
    for index, instr in enumerate(program.instructions):
        if instr.kind_code not in CONTROL_KINDS:  # IntEnums hash as ints
            continue
        cls = classify_branch(instr, text_base + 4 * index,
                              program.page_bytes)
        hint = bool(cls.analyzable and cls.in_page)
        if hint and instr.is_boundary_branch:
            raise LayoutError(
                f"boundary branch at {cls.pc:#x} classified in-page"
            )
        if instr.inpage_hint != hint:
            # only direct control words are written, and those are
            # the instrumented image's own copies
            instr.inpage_hint = hint
        marked += hint
    return marked


def link_plain(module: Module, *, page_bytes: int = 4096,
               text_base: int = TEXT_BASE, data_base: int = DATA_BASE,
               name: str = "a.out") -> Program:
    """The uninstrumented binary (Base/HoA/OPT)."""
    return link(module, text_base=text_base, data_base=data_base,
                page_bytes=page_bytes, name=name)


def instrument_program(plain: Program, *, page_bytes: int) -> Program:
    """The instrumented binary (SoCA/SoLA/IA) of the plain binary
    ``plain``, for ``page_bytes`` pages: boundary branches placed, then
    in-page bits marked on the final layout.  It shares every
    instruction of ``plain`` that holds no text address, and its
    committed stream is derived from ``plain``'s."""
    program = place_boundary_branches(plain, page_bytes=page_bytes,
                                      name=f"{plain.name}+instr")
    mark_inpage_hints(program)
    return program


def instrument_module(module: Module, *, page_bytes: int = 4096,
                      text_base: int = TEXT_BASE, data_base: int = DATA_BASE,
                      name: str = "a.out") -> Program:
    """:func:`instrument_program` of ``module``'s plain binary."""
    return instrument_program(
        link_plain(module, page_bytes=page_bytes, text_base=text_base,
                   data_base=data_base, name=name),
        page_bytes=page_bytes)


#: what a plain static asks of the stream remap (see derive_stream)
_KEEP, _FALL, _COND, _MEM, _MEM_FALL, _INDIRECT = range(6)


def derive_stream(program: Program, plain_stream: TraceSegment,
                  budget: int) -> TraceSegment:
    """The committed stream of the instrumented ``program`` over its
    first ``budget`` useful instructions, derived from ``plain_stream``
    (the committed stream of ``program.source``) instead of executed.

    Plain word ``k`` sits at instrumented word ``k + k // (W - 1)``.
    Every step keeps its static (now at the moved pc) and its payload,
    and three things change:

    * a boundary step follows each step that falls through a page's
      last real slot — unless the window ends first, as an executed
      stream would;
    * an indirect target moves with the word it names.  A return
      address that the move puts right after a boundary slot is the
      boundary slot itself (the call's successor in the instrumented
      layout), so the boundary step follows the return;
    * nothing else: loads, stores and branch directions do not depend
      on the layout as long as code addresses are used only as jump
      targets (the contract of :meth:`Program.stream`).

    The statics come out in first-execution order, as
    :func:`~repro.cpu.functional.committed_stream` interns them for an
    execution.  Raises :class:`TraceError` for a step the remap cannot
    map — an indirect target that is not a plain instruction start, a
    return address that is also a label-valued data word at a page end,
    a load or store inside the text segment — naming the step and its
    plain pc.
    """
    plain = program.source
    if plain is None:
        raise LayoutError(f"{program.name}: no plain layout to derive "
                          "its stream from")
    base = program.text_base
    per_page = program.page_bytes // 4 - 1
    plain_instrs = plain.instructions
    plain_end = plain.text_end
    text_end = program.text_end
    placed = program.instructions
    code_values = {plain.data_words[address]
                   for address in plain.code_words}

    # what each plain static asks of the remap, and where it moved
    statics = plain_stream.instructions
    slots = []
    acts = []
    for instr, pc in zip(statics, plain_stream.pcs):
        index = (pc - base) >> 2
        slots.append(index + index // per_page)
        falls = (index % per_page == per_page - 1
                 and index + 1 < len(plain_instrs))
        kind = instr.kind_code
        if kind == 11 or kind == 12:  # INDIRECT_JUMP / INDIRECT_CALL
            acts.append(_INDIRECT)
        elif kind == 6 or kind == 7:  # LOAD / STORE
            acts.append(_MEM_FALL if falls else _MEM)
        elif kind == 8:  # COND_BRANCH
            acts.append(_COND if falls else _KEEP)
        elif kind in (9, 10, 14):  # JUMP / CALL / HALT
            acts.append(_KEEP)
        else:
            acts.append(_FALL if falls else _KEEP)

    def failure(step: int, static: int, what: str) -> TraceError:
        instr = statics[static]
        return TraceError(
            f"{program.name}: cannot derive step {step:,} "
            f"({instr.op.mnemonic} at plain pc "
            f"{plain_stream.pcs[static]:#x}) from the plain stream: "
            f"{what}")

    instrs = []
    pcs = []
    derived = [-1] * len(statics)
    boundaries = {}
    index = array("q")
    aux = array("q")
    add_index = index.append
    add_aux = aux.append
    count = min(plain_stream.steps, budget)
    last = count - 1
    for step, static, payload in zip(range(count), plain_stream.index,
                                     plain_stream.aux):
        new = derived[static]
        if new < 0:
            new = derived[static] = len(instrs)
            slot = slots[static]
            instrs.append(placed[slot])
            pcs.append(base + 4 * slot)
        add_index(new)
        act = acts[static]
        if act == _KEEP:
            add_aux(payload)
            continue
        if act == _MEM or act == _MEM_FALL:
            if base <= payload < text_end:
                raise failure(step, static, f"it accesses {payload:#x}, "
                              "inside the text segment")
            add_aux(payload)
            if act == _MEM:
                continue
            boundary = slots[static] + 1
        elif act == _FALL:
            add_aux(payload)
            boundary = slots[static] + 1
        elif act == _COND:
            add_aux(payload)
            if payload:
                continue
            boundary = slots[static] + 1
        else:  # _INDIRECT: the payload is the plain target
            word = (payload - base) >> 2
            if payload & 3 or not base <= payload < plain_end:
                raise failure(step, static, f"its target {payload:#x} is "
                              "not a plain instruction start")
            slot = word + word // per_page
            if not (word % per_page == 0 and word
                    and plain_instrs[word - 1].kind_code in (10, 12)):
                add_aux(base + 4 * slot)
                continue
            # the word after a call, moved past a boundary slot: as a
            # return address it is that slot; as a label it is not
            if payload in code_values:
                raise failure(step, static, f"its target {payload:#x} is "
                              "both a return address and a label-valued "
                              "data word")
            boundary = slot - 1
            add_aux(base + 4 * boundary)
        if step == last:
            break  # the window ends before the boundary step
        new = boundaries.get(boundary)
        if new is None:
            new = boundaries[boundary] = len(instrs)
            instrs.append(placed[boundary])
            pcs.append(base + 4 * boundary)
        add_index(new)
        add_aux(-1)
    return TraceSegment(meta=program_meta(program, "instrumented"),
                        instructions=instrs, pcs=pcs, index=index, aux=aux)
