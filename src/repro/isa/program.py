"""Laid-out programs: the unit the simulators execute.

A :class:`Program` is the result of linking a symbolic
:class:`~repro.isa.assembler.Module` at fixed base addresses.  It knows its
page size, whether the page-boundary instrumentation was applied, and holds
the decoded instruction stream as a flat list for O(1) fetch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from repro.errors import LayoutError, MemoryFault
from repro.isa.instructions import Instruction

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.format import TraceSegment

TEXT_BASE = 0x0040_0000
DATA_BASE = 0x1000_0000
STACK_TOP = 0x7FFF_F000


@dataclass
class Program:
    """An executable image.

    Attributes:
        text_base: byte address of the first instruction.
        instructions: decoded instructions; ``instructions[i]`` lives at
            ``text_base + 4*i``.
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
    #: the memoized committed stream (see :meth:`window_source`) and the
    #: useful-instruction budget it was executed for
    _stream: Optional["TraceSegment"] = field(
        default=None, init=False, repr=False, compare=False)
    _stream_budget: int = field(
        default=0, init=False, repr=False, compare=False)

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

    def window_source(self, budget: int):
        """The committed stream of this program's first ``budget`` useful
        instructions, as a window source of
        :class:`~repro.trace.format.SegmentColumns` windows — what the
        fast engine consumes.

        The stream depends on nothing but the program and the window, so
        the program executes functionally once and keeps the stream for
        the largest budget asked so far: a shorter window replays a
        prefix of it.  A program shared by the jobs of a sweep (see
        :func:`repro.workloads.synthetic.link_slot`) therefore executes
        once per sweep, and its stream goes when the program does.
        :class:`repro.trace.replay.ReplayProgram` overrides this to hand
        out its recorded stream instead."""
        if self._stream is None or self._stream_budget < budget:
            from repro.cpu.functional import committed_stream
            self._stream = committed_stream(self, budget)
            self._stream_budget = budget
        return self._stream.window_source()

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
        for i, instr in enumerate(self.instructions):
            expected = self.text_base + 4 * i
            if instr.address != expected:
                raise LayoutError(
                    f"instruction {i} has address {instr.address:#x}, "
                    f"expected {expected:#x}"
                )
            if instr.target is not None and not self.contains_text(instr.target):
                raise LayoutError(
                    f"{instr.op.mnemonic} at {instr.address:#x} targets "
                    f"{instr.target:#x} outside the text segment"
                )
        if not self.contains_text(self.entry):
            raise LayoutError(f"entry point {self.entry:#x} outside text segment")
        if self.instrumented:
            self._validate_boundary_invariant()

    def _validate_boundary_invariant(self) -> None:
        """In an instrumented binary, the last slot of every *fully covered*
        code page must hold an unconditional boundary branch targeting the
        next page's first instruction (the paper's BOUNDARY fix)."""
        last_slot_offset = self.page_bytes - 4
        for instr in self.instructions:
            at_page_end = (instr.address % self.page_bytes) == last_slot_offset
            next_addr = instr.address + 4
            if at_page_end and next_addr < self.text_end:
                if not instr.is_boundary_branch:
                    raise LayoutError(
                        f"instrumented binary: page-end slot {instr.address:#x} "
                        f"is {instr.op.mnemonic}, not a boundary branch"
                    )
                if instr.target != next_addr:
                    raise LayoutError(
                        f"boundary branch at {instr.address:#x} targets "
                        f"{instr.target:#x}, expected {next_addr:#x}"
                    )
            elif instr.is_boundary_branch and next_addr < self.text_end:
                raise LayoutError(
                    f"boundary branch at {instr.address:#x} is not at a page end"
                )
