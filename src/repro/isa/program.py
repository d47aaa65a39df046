"""Laid-out programs: the unit the simulators execute.

A :class:`Program` is the result of linking a symbolic
:class:`~repro.isa.assembler.Module` at fixed base addresses.  It knows its
page size, whether the page-boundary instrumentation was applied, and holds
the decoded instruction stream as a flat list for O(1) fetch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.errors import LayoutError, MemoryFault
from repro.isa.instructions import Instruction

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.format import TraceSegment

TEXT_BASE = 0x0040_0000
DATA_BASE = 0x1000_0000
STACK_TOP = 0x7FFF_F000


class _StreamMemo:
    """A program's memoized committed stream and the useful-instruction
    budget it was built for; shared by the page-size copies of a plain
    layout (:meth:`Program.with_page_bytes`)."""

    __slots__ = ("segment", "budget")

    def __init__(self) -> None:
        self.segment: Optional["TraceSegment"] = None
        self.budget = 0


@dataclass
class Program:
    """An executable image.

    Attributes:
        text_base: byte address of the first instruction.
        instructions: decoded instructions; ``instructions[i]`` lives at
            ``text_base + 4*i`` (instructions carry no address of their
            own, so layouts may share them).
        labels: symbol table (label -> absolute byte address).
        data_base: byte address of the data segment.
        data_words: initial contents of the data segment, keyed by byte
            address (word aligned).
        data_size: size of the data segment in bytes (zero-initialized
            space included).
        entry: address execution starts at.
        page_bytes: page size the program was linked for.
        instrumented: True when boundary branches were inserted at link
            time (the binary SoCA/SoLA/IA run).
        boundary_branch_count: number of inserted boundary branches.
        code_words: data addresses whose initial word is a text label's
            address (jump and call tables): the words a relayout of the
            text rewrites.
    """

    text_base: int
    instructions: List[Instruction]
    labels: Dict[str, int]
    data_base: int
    data_words: Dict[int, int]
    data_size: int
    entry: int
    page_bytes: int
    instrumented: bool = False
    boundary_branch_count: int = 0
    name: str = "a.out"
    code_words: Tuple[int, ...] = ()
    #: the plain program an instrumented layout was derived from
    #: (:func:`repro.isa.assembler.place_boundary_branches`); its stream
    #: is what this program's stream is derived from
    source: Optional["Program"] = field(
        default=None, init=False, repr=False, compare=False)
    #: the memoized committed stream (see :meth:`stream`)
    _stream: _StreamMemo = field(default_factory=_StreamMemo, init=False,
                                 repr=False, compare=False)

    # -- geometry --------------------------------------------------------

    @property
    def text_size(self) -> int:
        return 4 * len(self.instructions)

    @property
    def text_end(self) -> int:
        return self.text_base + self.text_size

    @property
    def num_text_pages(self) -> int:
        if not self.instructions:
            return 0
        first = self.text_base // self.page_bytes
        last = (self.text_end - 1) // self.page_bytes
        return last - first + 1

    # -- access ------------------------------------------------------------

    def fetch(self, pc: int) -> Instruction:
        """Return the instruction at ``pc`` or raise :class:`MemoryFault`."""
        index = (pc - self.text_base) >> 2
        if pc & 3 or not 0 <= index < len(self.instructions):
            raise MemoryFault(pc, "instruction fetch outside text segment")
        return self.instructions[index]

    def contains_text(self, address: int) -> bool:
        return self.text_base <= address < self.text_end and address % 4 == 0

    def make_executor(self, space):
        """An architectural interpreter for this program in ``space``
        (what the detailed engine steps, wrong paths included)."""
        from repro.cpu.functional import Executor
        return Executor(self, space)

    def stream(self, budget: int) -> "TraceSegment":
        """The committed stream of this program's first ``budget`` useful
        (non-boundary) instructions, as an in-memory
        :class:`~repro.trace.format.TraceSegment`.

        The stream depends on nothing but the program and the window, so
        it is built once and kept for the largest budget asked so far: a
        shorter window replays a prefix of it.  A program shared by the
        jobs of a sweep (see :func:`repro.workloads.synthetic.link_slot`)
        therefore builds it once per sweep, and it goes when the program
        does.

        A plain program executes functionally
        (:func:`~repro.cpu.functional.committed_stream`).  An
        instrumented layout derived from a plain one (:attr:`source`)
        does not execute: its stream is the plain stream with every pc
        moved to its instrumented slot, a boundary step wherever the
        flow falls through a page end, and indirect targets moved
        (:func:`repro.compiler.instrument.derive_stream`).  That holds
        under one contract: **a program may use a code address only as
        a jump target** — it reaches a register only from a label-valued
        data word or as a call's return address, and is never loaded
        from, stored to, computed with or hard-coded.  A step the
        derivation cannot map raises :class:`~repro.errors.TraceError`;
        it never returns a partial stream.

        Each build emits a debug ``program.stream`` event (``binary``,
        ``derived``, ``steps``, ``seconds``)."""
        memo = self._stream
        if memo.segment is None or memo.budget < budget:
            from repro.telemetry import emit
            if self.source is None:
                from repro.cpu.functional import committed_stream
                started = time.perf_counter()
                segment = committed_stream(self, budget)
            else:
                from repro.compiler.instrument import derive_stream
                plain = self.source.stream(budget)
                started = time.perf_counter()
                segment = derive_stream(self, plain, budget)
            emit("program.stream", level="debug", program=self.name,
                 binary="instrumented" if self.instrumented else "plain",
                 derived=self.source is not None, steps=segment.steps,
                 seconds=round(time.perf_counter() - started, 6))
            memo.segment = segment
            memo.budget = budget
        return memo.segment

    def window_source(self, budget: int):
        """:meth:`stream` as a window source of
        :class:`~repro.trace.format.SegmentColumns` windows — what the
        fast engine consumes.  An instrumented program's stream is
        derived from its plain program's, which holds only while **a
        program uses a code address only as a jump target** (see
        :meth:`stream`); a step that breaks it raises instead.
        :class:`repro.trace.replay.ReplayProgram` overrides this to hand
        out its recorded stream instead."""
        return self.stream(budget).window_source()

    def with_page_bytes(self, page_bytes: int) -> "Program":
        """This plain layout at another page size.

        Without boundary branches nothing the linker places depends on
        the page size, so the copy shares this program's instruction
        list, labels, data image and memoized stream; only
        :attr:`page_bytes` differs.  Engines only read a program, so the
        sharing is safe.  An instrumented layout depends on the page
        size: derive it from the plain one at that size instead
        (:func:`repro.compiler.instrument.instrument_program`)."""
        if self.instrumented:
            raise LayoutError("an instrumented layout depends on the page "
                              "size: instrument the plain layout at that "
                              "size instead")
        if self.text_base % page_bytes:
            raise LayoutError("text base must be page aligned")
        program = replace(self, page_bytes=page_bytes)
        program._stream = self._stream
        return program

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    # -- reporting -----------------------------------------------------------

    def static_control_instructions(self) -> List[Instruction]:
        """All control-flow instructions, in address order (Table 4's
        'static' population)."""
        return [i for i in self.instructions if i.is_control]

    def summary(self) -> str:
        branches = len(self.static_control_instructions())
        return (
            f"{self.name}: {len(self.instructions)} instructions "
            f"({self.text_size // 1024}KB text, {self.num_text_pages} pages), "
            f"{branches} static control instructions, "
            f"{'instrumented' if self.instrumented else 'base'} binary"
        )

    def validate(self) -> None:
        """Structural sanity checks; raises :class:`LayoutError` on failure."""
        text_base, text_end = self.text_base, self.text_end
        for index, instr in enumerate(self.instructions):
            target = instr.target
            if target is not None and not (
                    text_base <= target < text_end and target % 4 == 0):
                raise LayoutError(
                    f"{instr.op.mnemonic} at {text_base + 4 * index:#x} "
                    f"targets {target:#x} outside the text segment"
                )
        if not self.contains_text(self.entry):
            raise LayoutError(f"entry point {self.entry:#x} outside text segment")
        if self.instrumented:
            self._validate_boundary_invariant()

    def _validate_boundary_invariant(self) -> None:
        """In an instrumented binary, the last slot of every *fully covered*
        code page must hold an unconditional boundary branch targeting the
        next page's first instruction (the paper's BOUNDARY fix).

        Visits the page-end slots by stride, then scans for stray boundary
        branches before the first bad page end, so the error raised is
        the one at the lowest address."""
        instructions = self.instructions
        text_base = self.text_base
        last = len(instructions) - 1  # its successor is past text_end
        page_bytes = self.page_bytes
        last_slot = page_bytes - 4
        # index of the first page-end slot (none when text_base is not
        # word aligned)
        first = (last if text_base % 4
                 else (last_slot - text_base) % page_bytes // 4)
        error = None
        for index in range(first, last, page_bytes // 4):
            instr = instructions[index]
            address = text_base + 4 * index
            if not instr.is_boundary_branch:
                error = (index, LayoutError(
                    f"instrumented binary: page-end slot {address:#x} "
                    f"is {instr.op.mnemonic}, not a boundary branch"
                ))
                break
            if instr.target != address + 4:
                error = (index, LayoutError(
                    f"boundary branch at {address:#x} targets "
                    f"{instr.target:#x}, expected {address + 4:#x}"
                ))
                break
        end = last if error is None else error[0]
        for index, instr in enumerate(instructions[:end]):
            if (instr.is_boundary_branch
                    and (text_base + 4 * index) % page_bytes != last_slot):
                raise LayoutError(
                    f"boundary branch at {text_base + 4 * index:#x} is not "
                    "at a page end"
                )
        if error is not None:
            raise error[1]
