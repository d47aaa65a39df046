"""The versioned binary trace format and its streaming reader/writer.

A trace file captures the *committed* instruction stream of one workload
exactly as the engines consumed it, so replaying it reproduces every
counter and energy bit for bit.  The layout (all integers little-endian):

```
file      := preamble segment* TAG_END_TRACE
preamble  := magic(8) version(u16) flags(u16) hlen(u32) header(hlen bytes)
segment   := TAG_SEGMENT mlen(u32) meta(mlen bytes) item* TAG_END_SEGMENT
item      := TAG_STATIC static | TAG_STEP step
static    := address(u32) op(u8) rd(u8) rs(u8) rt(u8) imm(i32)
             target(u32, 0xFFFFFFFF = none) flags(u8)
step      := index(u32) aux
aux       := taken(u8)      -- conditional branches
           | next_pc(u32)   -- indirect jumps/calls
           | mem_addr(u32)  -- loads/stores
           | ''             -- everything else
```

``header`` and ``meta`` are UTF-8 JSON.  The header records how the
trace was made (workload name, instruction window, page size); each
segment's meta records which binary it captures (``plain`` or
``instrumented``) and the program geometry replay needs to rebuild the
address space (text/data extents, entry point — frame allocation is
deterministic given those, see :mod:`repro.vm.page_table`).

Static entries define the distinct instructions of the stream, one per
pc, in first-execution order; step records reference them by index,
carrying only the dynamic facts the instruction itself cannot supply.  A
static's ``address`` is the pc it executed at: instructions carry no
address of their own, so writers intern by the pc each step brings.
``op`` is the declaration index in :class:`~repro.isa.instructions.Opcode`
— reordering that enum is a format break and requires a
:data:`TRACE_VERSION` bump (the golden-trace regression test pins this).

Files whose name ends in ``.gz`` are written gzip-compressed (with a
zeroed mtime, so identical streams produce identical bytes — the
property :attr:`JobSpec.workload_digest` content-addressing relies on);
the reader sniffs the gzip (or xz) magic instead of trusting the suffix.  Every
read-side failure — bad magic, unsupported version, truncation, corrupt
gzip, dangling step index — raises :class:`~repro.errors.TraceError`.

Versioning rules: ``TRACE_VERSION`` is bumped whenever the preamble,
tag set, record layouts, or opcode numbering change incompatibly; the
reader rejects every version it was not built for.  Additive metadata
(new header/meta JSON keys) is *not* a version bump — readers ignore
keys they do not know.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import lzma
import os
import struct
import time
import zlib
from array import array
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import TraceError
from repro.isa.instructions import (
    ANALYZABLE_KINDS,
    Instruction,
    Opcode,
    register_slots,
)

MAGIC = b"RITLBTRC"
TRACE_VERSION = 1

TAG_SEGMENT = 0x01
TAG_STATIC = 0x02
TAG_STEP = 0x03
TAG_END_SEGMENT = 0x04
TAG_END_TRACE = 0x05

_PREAMBLE = struct.Struct("<8sHHI")
_STATIC = struct.Struct("<IBBBBiIB")
_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_NO_TARGET = 0xFFFFFFFF

_GZIP_MAGIC = b"\x1f\x8b"
_XZ_MAGIC = b"\xfd7zXZ\x00"

_STATIC_FLAG_INPAGE = 0x01
_STATIC_FLAG_BOUNDARY = 0x02

#: opcode <-> wire number (enum declaration order; part of the format)
_OP_TO_NUM: Dict[Opcode, int] = {op: i for i, op in enumerate(Opcode)}
_NUM_TO_OP: Dict[int, Opcode] = {i: op for op, i in _OP_TO_NUM.items()}

#: aux payload discriminator, derived from the static entry's kind
AUX_NONE, AUX_TAKEN, AUX_NEXT_PC, AUX_MEM_ADDR = 0, 1, 2, 3


def aux_kind(kind_code: int) -> int:
    """Which dynamic payload a step record of this instruction kind
    carries (the record layout is derived, not stored)."""
    if kind_code == 8:  # COND_BRANCH
        return AUX_TAKEN
    if kind_code in (11, 12):  # INDIRECT_JUMP / INDIRECT_CALL
        return AUX_NEXT_PC
    if kind_code in (6, 7):  # LOAD / STORE
        return AUX_MEM_ADDR
    return AUX_NONE


def program_meta(program, binary: str) -> dict:
    """The segment metadata replay needs: which binary this is, plus the
    program geometry that makes :class:`~repro.vm.os_model.AddressSpace`
    construction (and therefore frame allocation) deterministic."""
    return {
        "binary": binary,
        "name": program.name,
        "text_base": program.text_base,
        "text_words": len(program.instructions),
        "data_base": program.data_base,
        "data_size": program.data_size,
        "entry": program.entry,
        "page_bytes": program.page_bytes,
        "instrumented": program.instrumented,
        "boundary_branch_count": program.boundary_branch_count,
    }


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


#: uncompressed bytes a :class:`TraceWriter` gathers before it hands
#: them to its file: one ``GzipFile.write`` per mebibyte, not two or
#: three per step
_WRITE_CHUNK = 1 << 20

#: a step record's fixed head: the tag and the static index
_STEP_HEAD = struct.Struct("<BI")


class TraceWriter:
    """Streaming trace writer (one pass, bounded memory).

    Use as a context manager; :meth:`begin_segment` opens a segment for
    each binary pass.  Steps arrive one at a time (:meth:`write_record`,
    the importers' path) or as the leading steps of a
    :class:`SegmentColumns` window (:meth:`write_columns`, recording's
    path).  Either way an instruction is interned into the
    segment's static table the first time its pc executes, so a static
    always precedes its first step.

    Items are encoded into one in-memory buffer, handed to the (gzip or
    raw) file once it passes :data:`_WRITE_CHUNK` bytes (checked after
    each record and after each window) and at :meth:`close`;
    :meth:`abort` drops it with the partial file.
    Deflate output does not depend on how its input is chunked, so the
    file holds the bytes item-by-item writes would give.
    """

    def __init__(self, path: Union[str, Path], *, header: dict) -> None:
        self.path = Path(path)
        try:
            raw = open(self.path, "wb")
        except OSError as exc:
            raise TraceError(
                f"cannot write trace {self.path}: {exc}") from exc
        if self.path.name.endswith(".gz"):
            # zeroed mtime + no filename: identical streams -> identical
            # bytes, so re-recording an unchanged workload keeps its
            # content digest (and every cache key derived from it)
            self._fh = gzip.GzipFile(filename="", mode="wb", fileobj=raw,
                                     mtime=0)
            self._raw = raw
        else:
            self._fh = raw
            self._raw = None
        self._buf = bytearray()
        self._handed = 0
        self._in_segment = False
        self._intern: Dict[int, int] = {}
        self._statics = 0
        # write_columns: per source static index, its step head (None
        # until first seen) and its aux kind
        self._heads: List[Optional[bytes]] = []
        self._aux_kinds: List[int] = []
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        self._buf += _PREAMBLE.pack(MAGIC, TRACE_VERSION, 0,
                                    len(header_bytes))
        self._buf += header_bytes

    @property
    def bytes_written(self) -> int:
        """Uncompressed bytes of every item written so far."""
        return self._handed + len(self._buf)

    def _hand_off(self) -> None:
        self._fh.write(self._buf)
        self._handed += len(self._buf)
        self._buf = bytearray()

    # -- segments ------------------------------------------------------

    def begin_segment(self, meta: dict) -> None:
        if self._in_segment:
            self.end_segment()
        meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
        self._buf += _U8.pack(TAG_SEGMENT)
        self._buf += _U32.pack(len(meta_bytes))
        self._buf += meta_bytes
        self._in_segment = True
        self._intern = {}
        self._statics = 0
        self._heads = []
        self._aux_kinds = []

    def end_segment(self) -> None:
        if self._in_segment:
            self._buf += _U8.pack(TAG_END_SEGMENT)
            self._in_segment = False

    # -- records -------------------------------------------------------

    def _check_segment(self) -> None:
        if not self._in_segment:
            raise TraceError("step written outside a segment "
                             "(call begin_segment first)")

    def _index_of(self, pc: int, instr: Instruction) -> int:
        """The segment's static index of ``pc``, interning ``instr`` at
        it the first time."""
        index = self._intern.get(pc)
        if index is not None:
            return index
        index = self._statics
        flags = ((_STATIC_FLAG_INPAGE if instr.inpage_hint else 0)
                 | (_STATIC_FLAG_BOUNDARY if instr.is_boundary_branch else 0))
        target = _NO_TARGET if instr.target is None else instr.target
        self._buf += _U8.pack(TAG_STATIC)
        self._buf += _STATIC.pack(pc, _OP_TO_NUM[instr.op],
                                  instr.rd, instr.rs, instr.rt,
                                  instr.imm, target, flags)
        self._intern[pc] = index
        self._statics = index + 1
        return index

    def write_record(self, pc: int, instr: Instruction, aux: int) -> None:
        """Append one step record: ``instr``, executed at ``pc``, with
        its dynamic payload ``aux``: the taken flag, the indirect
        target, the memory address, or ``-1``, as :func:`aux_kind` of
        its kind selects (see docs/trace-format.md)."""
        self._check_segment()
        index = self._index_of(pc, instr)
        buf = self._buf
        buf += _STEP_HEAD.pack(TAG_STEP, index)
        kind = aux_kind(instr.kind_code)
        if kind == AUX_TAKEN:
            buf.append(1 if aux else 0)
        elif kind != AUX_NONE:
            buf += _U32.pack(aux)
        if len(buf) >= _WRITE_CHUNK:
            self._hand_off()

    def write_columns(self, cols: "SegmentColumns",
                      instructions: List[Instruction], stop: int) -> None:
        """Append steps ``[0, stop)`` of ``cols``, one window of a stream
        whose static ``i`` is ``instructions[i]`` — every window written
        into one segment must index the same (growing) list, as a window
        source's ``instructions`` does.

        Each source static maps once to its step head and aux kind, so
        a step costs a list lookup and one or two buffer appends."""
        self._check_segment()
        heads = self._heads
        aux_kinds = self._aux_kinds
        missing = len(instructions) - len(heads)
        if missing > 0:
            heads.extend([None] * missing)
            aux_kinds.extend([AUX_NONE] * missing)
        pcs = cols.tables.pc
        pack = _U32.pack
        buf = self._buf
        for _, idx, aux in zip(range(stop), cols.index, cols.aux):
            head = heads[idx]
            if head is None:
                instr = instructions[idx]
                head = heads[idx] = _STEP_HEAD.pack(
                    TAG_STEP, self._index_of(pcs[idx], instr))
                aux_kinds[idx] = aux_kind(instr.kind_code)
            buf += head
            kind = aux_kinds[idx]
            if kind == AUX_NONE:
                continue
            if kind == AUX_TAKEN:
                buf.append(1 if aux else 0)
            else:
                buf += pack(aux)
        if len(buf) >= _WRITE_CHUNK:
            self._hand_off()

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        if self._fh is None:
            return
        self.end_segment()
        self._buf += _U8.pack(TAG_END_TRACE)
        self._hand_off()
        self._fh.close()
        if self._raw is not None:
            self._raw.close()
        self._fh = None

    def abort(self) -> None:
        """Discard the output: drop the buffer, close without
        finalizing and delete the partial file.  A recording that died
        mid-run must not leave a well-formed-looking trace whose header
        promises a window it never captured."""
        if self._fh is None:
            return
        self._buf = bytearray()
        try:
            self._fh.close()
        except OSError:
            pass
        if self._raw is not None:
            try:
                self._raw.close()
            except OSError:
                pass
        self._fh = None
        try:
            self.path.unlink()
        except OSError:
            pass

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


class MemorySink:
    """Builds :class:`TraceSegment` objects in memory, mirroring the
    :class:`TraceWriter` surface (``begin_segment`` / ``write_record``),
    so an importer is sink-agnostic."""

    def __init__(self) -> None:
        self.segments: List["TraceSegment"] = []
        self._intern: Dict[int, int] = {}

    def begin_segment(self, meta: dict) -> None:
        self.segments.append(TraceSegment(meta=meta))
        self._intern = {}

    def write_record(self, pc: int, instr: Instruction, aux: int) -> None:
        segment = self.segments[-1]
        index = self._intern.get(pc)
        if index is None:
            index = len(segment.instructions)
            segment.instructions.append(instr)
            segment.pcs.append(pc)
            self._intern[pc] = index
        segment.index.append(index)
        segment.aux.append(aux)


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


#: kind codes whose steps carry no event the engines must react to — no
#: control transfer, no memory access, no halt.  The fast engine retires
#: the plain steps that follow a step within its iL1 block in bulk, and
#: times them in the same loop as that step.
PLAIN_KINDS = frozenset({0, 1, 2, 3, 4, 5, 13})

#: decoded footprint of one step: its ``index`` and ``aux`` slots (8
#: bytes each) plus its byte of the plain/event map.  Window budgets
#: (``REPRO_TRACE_WINDOW``) are stated in these bytes because the
#: decoded window is what occupies memory during an engine pass.
COLUMN_BYTES_PER_STEP = 17


class _StaticTables:
    """Per-static lookup tables, grown incrementally.

    The engines read ten facts per interned instruction: its pc, kind,
    register slots (:func:`~repro.isa.instructions.register_slots`:
    three sources and a destination), latency, whether it is a boundary
    branch, its taken target, and whether its steps are events.  The pc
    comes from the static's record, the rest from its instruction.  An
    in-memory segment builds them once for the whole segment; a
    windowed decode appends as new statics arrive — statics always
    precede their first referencing step, so tables extended through
    the end of a window cover every step in it.  Tables only ever
    append, so a window built against an earlier length stays valid.
    """

    __slots__ = ("pc", "kind", "src1", "src2", "src3", "dst", "lat",
                 "boundary", "target", "event")

    def __init__(self) -> None:
        self.pc: List[int] = []
        self.kind: List[int] = []
        self.src1: List[int] = []
        self.src2: List[int] = []
        self.src3: List[int] = []
        self.dst: List[int] = []
        self.lat: List[int] = []
        self.boundary = bytearray()  #: 1 for a page-boundary branch
        self.target: List[int] = []
        #: 1 for a static whose kind is not in :data:`PLAIN_KINDS`
        self.event = bytearray()

    def extend(self, instrs: List[Instruction], pcs: List[int]) -> None:
        """Ingest every static past the already-tabled prefix:
        ``instrs[i]``, executed at ``pcs[i]``."""
        known = len(self.pc)
        self.pc += pcs[known:]
        slots = (self.src1, self.src2, self.src3, self.dst)
        for instr in instrs[known:]:
            kind = instr.kind_code
            self.kind.append(kind)
            self.event.append(kind not in PLAIN_KINDS)
            for table, slot in zip(slots, register_slots(instr)):
                table.append(slot)
            self.lat.append(instr.latency)
            self.boundary.append(instr.is_boundary_branch)
            self.target.append(
                -1 if instr.target is None else instr.target)


class SegmentColumns:
    """A segment's dynamic stream, or one window of it, as the engines
    read it.

    Per step it holds only what the static instruction cannot supply:

    ``index``   the step's static-table index
    ``aux``     the step's recorded payload: taken flag (conditional
                branches), next pc (indirect control), memory address
                (loads/stores), else ``-1``
    ``events``  one byte per step, 1 when its kind is not in
                :data:`PLAIN_KINDS` (a control transfer, memory access
                or HALT the engine must react to), else 0

    ``index`` and ``aux`` are the arrays the decoder (or a
    :class:`MemorySink`) filled, adopted as they are.  Every other fact
    of step ``i`` is read through its index from ``tables``: its pc is
    ``tables.pc[index[i]]``, and likewise its kind, register slots,
    latency, boundary bit and taken target.  Its
    successor matters only at control steps: ``aux`` for indirect
    control, the target for a taken branch, ``pc + 4`` otherwise.  The
    plain steps that follow step ``i`` — what the fast engine retires
    with it, without per-step event checks, up to its iL1 block's end —
    end at ``events.find(1, i + 1)``, or at ``steps`` when no event
    follows.  In a window they are cut short at the window end; the
    next window's first step goes through the engine's head, which
    times it exactly as the widened span would have, so the cut is
    invisible in the results (the streaming bit-identity suite pins
    this).

    A view is immutable once built and safe to share across engines
    (and, via the trace LRU, across jobs in one process).
    """

    __slots__ = ("tables", "index", "aux", "events", "steps")

    def __init__(self, tables: _StaticTables, index: array,
                 aux: array) -> None:
        self.tables = tables
        self.index = index
        self.aux = aux
        self.events = bytes(map(tables.event.__getitem__, index))
        self.steps = len(index)

    def nbytes(self) -> int:
        """Bytes of the view's per-step data: its two arrays and its
        event map."""
        return (self.index.itemsize * len(self.index)
                + self.aux.itemsize * len(self.aux) + len(self.events))


def trace_exhausted(steps: int) -> TraceError:
    """The error for a window that runs past the end of a stream."""
    return TraceError(
        f"trace exhausted after {steps:,} steps; the requested "
        "simulation window (warmup + instructions) is longer than the "
        "recorded one — re-record with a larger window")


def iter_steps(source) -> Iterator[Tuple[int, Instruction, int]]:
    """Every step of a window source's stream as ``(pc, instruction,
    aux)``, window after window.  Raises :func:`trace_exhausted` past
    the end, so a consumer stops at its own budget or at a HALT."""
    instrs = source.instructions
    steps = 0
    while True:
        cols = source.next_window()
        if cols is None:
            raise trace_exhausted(steps)
        pcs = cols.tables.pc
        for index, aux in zip(cols.index, cols.aux):
            yield pcs[index], instrs[index], aux
        steps += cols.steps


def committed_steps(program, skip: int, count: int
                    ) -> Iterator[Tuple[int, Instruction, int]]:
    """Steps ``skip`` to ``skip + count - 1`` of ``program``'s committed
    stream (see :meth:`~repro.isa.program.Program.window_source`) as
    ``(pc, instruction, aux)``, ending early after a HALT — the
    functional view the experiments read besides the engine (Table 4's
    dynamic branch classes, the data-side CFR)."""
    if count <= 0:
        return
    end = skip + count
    source = program.window_source(end)
    try:
        for position, (pc, instr, aux) in enumerate(iter_steps(source), 1):
            if position > skip:
                yield pc, instr, aux
            if position == end or instr.kind_code == 14:  # HALT
                return
    finally:
        source.close()


class _MemoryWindowSource:
    """An in-memory segment's window source: its memoized view,
    handed out as one window."""

    __slots__ = ("instructions", "_segment")

    def __init__(self, segment: "TraceSegment") -> None:
        self.instructions = segment.instructions
        self._segment: Optional[TraceSegment] = segment

    def next_window(self) -> Optional[SegmentColumns]:
        segment, self._segment = self._segment, None
        return None if segment is None else segment.columns()

    def close(self) -> None:
        self._segment = None


@dataclass
class TraceSegment:
    """One binary pass of a trace.

    An in-memory segment (decoded eagerly, executed live, derived, or
    imported) holds its interned statics with their pcs and its stream
    as the ``index``/``aux`` arrays the decoder or a :class:`MemorySink`
    filled; its :meth:`columns` view is built from them on first use.  A
    file-backed segment (``window_steps`` > 0) holds only its position
    in the file and decodes its stream in windows of that many steps,
    per consumer.
    """

    meta: dict
    #: interned static instructions, in first-execution order
    instructions: List[Instruction] = field(default_factory=list)
    #: the pc each static executed at (``instructions[i]`` at ``pcs[i]``)
    pcs: List[int] = field(default_factory=list)
    #: dynamic stream: static index and aux payload (-1 when none) of
    #: every step
    index: array = field(default_factory=lambda: array("q"))
    aux: array = field(default_factory=lambda: array("q"))
    #: file-backed segments: the file, the decompressed offset of this
    #: segment's record in it (a window source seeks there) and the
    #: window budget in steps
    path: Optional[Path] = None
    offset: int = 0
    window_steps: int = 0
    #: memoized stream view (built on first :meth:`columns` call)
    _columns: Optional[SegmentColumns] = field(
        default=None, repr=False, compare=False)

    @property
    def binary(self) -> str:
        return self.meta.get("binary", "plain")

    @property
    def page_bytes(self) -> int:
        return self.meta["page_bytes"]

    @property
    def steps(self) -> int:
        """Steps held in memory (0 for a file-backed segment)."""
        return len(self.index)

    def columns(self) -> SegmentColumns:
        """The stream view of an in-memory segment: its own ``index``
        and ``aux`` arrays, its static tables and its event map.

        Built on first use and memoized on the segment, so every engine
        pass (and every sweep job sharing this segment through the trace
        LRU) reuses one view."""
        if self._columns is None:
            tables = _StaticTables()
            tables.extend(self.instructions, self.pcs)
            self._columns = SegmentColumns(tables, self.index, self.aux)
        return self._columns

    def window_source(self):
        """The uniform decode seam: every engine consumes a segment as a
        sequence of :class:`SegmentColumns` windows — one memoized
        window for an in-memory segment, bounded windows decoded on
        demand for a file-backed one."""
        if self.window_steps:
            return _StreamWindowSource(self.path, self.offset, self.meta,
                                       self.window_steps)
        return _MemoryWindowSource(self)

    def describe(self) -> str:
        if self.window_steps:
            body = f"streaming decode, {self.window_steps:,}-step windows"
        else:
            body = (f"{self.steps:,} steps over "
                    f"{len(self.instructions):,} distinct instructions")
        return (f"{self.binary}: {body} ({self.meta.get('name', '?')}, "
                f"{self.page_bytes}-byte pages)")


@dataclass
class TraceFile:
    """A trace: creation header plus one segment per binary."""

    path: Path
    header: dict
    segments: List[TraceSegment]
    #: the window budget, in steps, of a trace opened for windowed
    #: decode (its segments are file-backed); 0 when decoded eagerly
    window_steps: int = 0

    @property
    def workload_name(self) -> str:
        return self.header.get("workload", str(self.path))

    def segment_for(self, *, instrumented: bool,
                    page_bytes: int) -> TraceSegment:
        wanted = "instrumented" if instrumented else "plain"
        for segment in self.segments:
            if (segment.binary == wanted
                    and segment.page_bytes == page_bytes):
                return segment
        have = ", ".join(
            f"{s.binary}@{s.page_bytes}B" for s in self.segments) or "none"
        raise TraceError(
            f"{self.path}: no {wanted} segment for {page_bytes}-byte pages "
            f"(trace contains: {have}); re-record the trace for this "
            "configuration")


def open_sniffed(path: Union[str, Path]) -> BinaryIO:
    """Open ``path`` for binary reading, decompressing gzip or xz
    content — sniffed from its magic bytes, not trusted to the suffix.
    Closing the returned file closes the underlying one.  Raises
    :class:`OSError`; callers name the failure in their own terms."""
    with open(path, "rb") as probe:
        head = probe.read(len(_XZ_MAGIC))
    if head[:2] == _GZIP_MAGIC:
        return gzip.open(path, "rb")  # type: ignore[return-value]
    if head == _XZ_MAGIC:
        return lzma.open(path, "rb")  # type: ignore[return-value]
    return open(path, "rb")


#: decompressed bytes read per refill of a reader's buffer, and the
#: largest segment item (a tagged static entry): the item parser tops
#: the buffer up whenever less than one such item remains unread
_CHUNK_BYTES = 1 << 16
_MAX_ITEM = 1 + _STATIC.size

#: the step limit of a whole-segment parse
_NO_LIMIT = 1 << 62


class _StreamReader:
    """A trace file open for forward reading through a byte buffer, with
    truncation and corruption mapped to :class:`TraceError`.  Reads and
    checks the preamble on open."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        try:
            self._fh = open_sniffed(self.path)
        except OSError as exc:
            raise TraceError(f"cannot open trace {path}: {exc}") from exc
        #: unread bytes are ``buf[pos:]``; ``buf[0]`` is at decompressed
        #: offset ``base``
        self.buf = b""
        self.pos = 0
        self.base = 0
        try:
            self.header = self._read_preamble()
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        self._fh.close()

    def top_up(self, count: int, what: str) -> None:
        """Buffer at least ``count`` unread bytes, or every byte left."""
        self.base += self.pos
        chunks = [self.buf[self.pos:]]
        have = len(chunks[0])
        while have < count:
            try:
                data = self._fh.read(max(_CHUNK_BYTES, count - have))
            except (OSError, EOFError, zlib.error, lzma.LZMAError) as exc:
                raise TraceError(
                    f"{self.path}: corrupt trace stream while reading "
                    f"{what} ({exc})") from exc
            if not data:
                break
            chunks.append(data)
            have += len(data)
        self.buf = b"".join(chunks)
        self.pos = 0

    def tell(self) -> int:
        """The decompressed offset of the next unread byte."""
        return self.base + self.pos

    def seek(self, offset: int) -> None:
        """Make decompressed ``offset`` the next unread byte, by the
        file's own seek (a compressed file decompresses up to it at C
        speed).  An offset past the end leaves nothing to read."""
        try:
            self._fh.seek(offset)
        except (OSError, EOFError, zlib.error, lzma.LZMAError) as exc:
            raise TraceError(
                f"{self.path}: corrupt trace stream while seeking to "
                f"byte {offset} ({exc})") from exc
        self.buf = b""
        self.pos = 0
        self.base = offset

    def exact(self, count: int, what: str) -> bytes:
        if len(self.buf) - self.pos < count:
            self.top_up(count, what)
        data = self.buf[self.pos:self.pos + count]
        if len(data) != count:
            raise TraceError(
                f"{self.path}: truncated trace (wanted {count} bytes of "
                f"{what}, got {len(data)})")
        self.pos += count
        return data

    def json(self, length: int, what: str) -> dict:
        raw = self.exact(length, what)
        try:
            value = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TraceError(
                f"{self.path}: corrupt {what} block ({exc})") from exc
        if not isinstance(value, dict):
            raise TraceError(f"{self.path}: {what} block is not an object")
        return value

    def _read_preamble(self) -> dict:
        magic, version, _flags, hlen = _PREAMBLE.unpack(
            self.exact(_PREAMBLE.size, "preamble"))
        if magic != MAGIC:
            raise TraceError(
                f"{self.path}: not a repro trace (bad magic {magic!r})")
        if version != TRACE_VERSION:
            raise TraceError(
                f"{self.path}: unsupported trace version {version} "
                f"(this build reads version {TRACE_VERSION})")
        return self.json(hlen, "header")

    def next_segment_meta(self) -> Optional[dict]:
        """Consume the next ``TAG_SEGMENT`` and return its meta, or
        ``None`` once ``TAG_END_TRACE`` is reached."""
        tag = self.exact(1, "record tag")[0]
        if tag == TAG_END_TRACE:
            return None
        if tag != TAG_SEGMENT:
            raise TraceError(
                f"{self.path}: record tag {tag:#x} outside a segment")
        (mlen,) = _U32.unpack(self.exact(4, "segment meta size"))
        return self.json(mlen, "segment meta")


def _static_op(fields: tuple, path: Path) -> Opcode:
    """The opcode of an unpacked static entry, checked: a known opcode
    number, registers below 32 (a higher one would read as the other
    file's), and a taken target on every direct control instruction."""
    address, opnum, rd, rs, rt, _imm, target, _flags = fields
    op = _NUM_TO_OP.get(opnum)
    if op is None:
        raise TraceError(f"{path}: unknown opcode number {opnum}")
    if max(rd, rs, rt) > 31:
        raise TraceError(f"{path}: register number past 31 at {address:#010x}")
    if op.kind in ANALYZABLE_KINDS and target == _NO_TARGET:
        # direct control flow must carry its taken target or replay
        # would produce a None next_pc deep inside the engine
        raise TraceError(
            f"{path}: direct control instruction "
            f"({op.mnemonic}) at {address:#010x} has no target")
    return op


def _parse_items(reader: _StreamReader, kinds: List[int], limit: int,
                 instrs: Optional[List[Instruction]] = None,
                 pcs: Optional[List[int]] = None,
                 index: Optional[array] = None,
                 aux: Optional[array] = None) -> int:
    """Parse the current segment's items until ``limit`` steps or its end
    tag; returns the step count (fewer than ``limit`` means the end tag
    was consumed).

    The one reading of a segment body.  Given ``instrs``, ``pcs``,
    ``index`` and ``aux`` it decodes: statics become
    :class:`Instruction`\\ s beside their pcs and each step appends its
    static index and aux payload — a whole segment
    with no limit, one window with the window's.  Without them it skips
    (the segment index scan and :meth:`TraceReader.info`):
    statics are checked but never built and steps are sized but not
    kept.  ``kinds`` holds the aux payload kind of every static seen so
    far in the segment, carried from window to window.
    """
    path = reader.path
    keep = instrs is not None
    if keep:
        add_index = index.append
        add_aux = aux.append
    unpack_u32 = _U32.unpack_from
    known = len(kinds)
    buf = reader.buf
    pos = reader.pos
    end = len(buf)
    steps = 0
    try:
        while steps < limit:
            if end - pos < _MAX_ITEM:
                reader.pos = pos
                reader.top_up(_MAX_ITEM, "segment items")
                buf = reader.buf
                pos = 0
                end = len(buf)
            tag = buf[pos]
            if tag == TAG_STEP:
                (static,) = unpack_u32(buf, pos + 1)
                if static >= known:
                    raise TraceError(
                        f"{path}: step references static entry "
                        f"{static} before its definition")
                kind = kinds[static]
                if kind == AUX_NONE:
                    value = -1
                    pos += 5
                elif kind == AUX_TAKEN:
                    value = buf[pos + 5]
                    pos += 6
                else:
                    (value,) = unpack_u32(buf, pos + 5)
                    pos += 9
                if keep:
                    add_index(static)
                    add_aux(value)
                steps += 1
            elif tag == TAG_STATIC:
                fields = _STATIC.unpack_from(buf, pos + 1)
                pos += _MAX_ITEM
                op = _static_op(fields, path)
                kinds.append(aux_kind(int(op.kind)))
                known += 1
                if keep:
                    address, _, rd, rs, rt, imm, target, flags = fields
                    instrs.append(Instruction(
                        op, rd=rd, rs=rs, rt=rt, imm=imm,
                        target=None if target == _NO_TARGET else target,
                        inpage_hint=bool(flags & _STATIC_FLAG_INPAGE),
                        is_boundary_branch=bool(
                            flags & _STATIC_FLAG_BOUNDARY)))
                    pcs.append(address)
            elif tag == TAG_END_SEGMENT:
                pos += 1
                break
            elif tag in (TAG_SEGMENT, TAG_END_TRACE):
                raise TraceError(f"{path}: unterminated segment")
            else:
                raise TraceError(f"{path}: unknown record tag {tag:#x}")
    except (IndexError, struct.error):
        # the buffer holds every byte left, and the item runs past them
        raise TraceError(
            f"{path}: truncated trace (the stream ends inside a "
            "segment)") from None
    reader.pos = pos
    return steps


def _read_trace(path: Union[str, Path], window_steps: int) -> TraceFile:
    """Read ``path`` in one forward pass: every segment decoded into
    memory, or — given a window budget — skipped over and kept as a
    file-backed segment at its offset (the segment index of a windowed
    decode)."""
    reader = _StreamReader(path)
    try:
        segments: List[TraceSegment] = []
        while True:
            offset = reader.tell()
            meta = reader.next_segment_meta()
            if meta is None:
                return TraceFile(reader.path, reader.header, segments,
                                 window_steps)
            if window_steps:
                segment = TraceSegment(meta, path=reader.path,
                                       offset=offset,
                                       window_steps=window_steps)
                _parse_items(reader, [], _NO_LIMIT)
            else:
                segment = TraceSegment(meta)
                _parse_items(reader, [], _NO_LIMIT, segment.instructions,
                             segment.pcs, segment.index, segment.aux)
            segments.append(segment)
    finally:
        reader.close()


class TraceReader:
    """Parse a trace file; :meth:`read` decodes everything, and
    :meth:`info` summarizes it."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def read(self) -> TraceFile:
        """Decode the whole trace into memory, in one forward pass."""
        return _read_trace(self.path, 0)

    def info(self) -> dict:
        """Header plus per-segment step/static counts, from the skip
        scan: no instruction is built and no stream is kept, so memory
        stays constant however long the trace."""
        reader = _StreamReader(self.path)
        segments = []
        try:
            while (meta := reader.next_segment_meta()) is not None:
                kinds: List[int] = []  # one entry per static
                steps = _parse_items(reader, kinds, _NO_LIMIT)
                segments.append({
                    "binary": TraceSegment(meta).binary,
                    "steps": steps,
                    "distinct_instructions": len(kinds),
                    "meta": meta,
                })
        finally:
            reader.close()
        return {
            "path": str(self.path),
            "version": TRACE_VERSION,
            "header": reader.header,
            "digest": file_digest(self.path),
            "segments": segments,
        }


class _StreamWindowSource:
    """Decodes one file-backed segment's stream in windows of at most
    ``window_steps`` steps.

    Each source owns its reader, interned-instruction and pc lists, and
    static tables — two sources over the same segment (say, the plain and
    instrumented passes of one job, or a retry) never share mutable
    state.  ``instructions`` grows in place as statics arrive, so an
    engine may bind it once: indices in earlier windows stay valid
    forever.

    The source seeks to the segment's ``offset`` from the index walk and
    parses nothing before it; the segment record it finds there must
    carry the indexed ``meta``, or the file changed since the walk.
    """

    def __init__(self, path: Union[str, Path], offset: int, meta: dict,
                 window_steps: int) -> None:
        self.instructions: List[Instruction] = []
        #: the pc of each of ``instructions``, from its static record
        self.pcs: List[int] = []
        self._kinds: List[int] = []
        self._tables = _StaticTables()
        self._window_steps = window_steps
        self._base = 0
        self._exhausted = False
        self._reader = reader = _StreamReader(path)
        try:
            try:
                reader.seek(offset)
                found = reader.next_segment_meta()
            except TraceError:
                found = None
            if found != meta:
                raise TraceError(
                    f"{reader.path}: the segment indexed at byte {offset} "
                    "disappeared between the index scan and the decode — "
                    "was the file rewritten mid-run?")
        except BaseException:
            reader.close()
            raise

    def close(self) -> None:
        self._exhausted = True
        self._reader.close()

    def next_window(self) -> Optional[SegmentColumns]:
        """Decode up to the window budget of steps; ``None``
        once the segment is exhausted (the file handle closes with
        it)."""
        if self._exhausted:
            return None
        from repro.telemetry import emit, note_stream_window
        started = time.perf_counter()
        index = array("q")
        aux = array("q")
        steps = _parse_items(self._reader, self._kinds, self._window_steps,
                             self.instructions, self.pcs, index, aux)
        if steps < self._window_steps:
            self.close()
        if not steps:
            return None
        self._tables.extend(self.instructions, self.pcs)
        window = SegmentColumns(self._tables, index, aux)
        nbytes = window.nbytes()
        note_stream_window(nbytes, time.perf_counter() - started)
        emit("trace.stream_window", level="debug",
             path=str(self._reader.path), base=self._base, steps=steps,
             bytes=nbytes)
        self._base += steps
        return window


# ---------------------------------------------------------------------------
# Content addressing
# ---------------------------------------------------------------------------

#: (realpath, size, mtime_ns) -> sha256; re-hashing is skipped while the
#: stat signature is unchanged, so JobSpec construction stays cheap in
#: wide sweeps over one trace
_DIGESTS: Dict[Tuple[str, int, int], str] = {}


def file_digest(path: Union[str, Path]) -> str:
    """SHA-256 of the trace file's bytes (the identity JobSpec hashes
    into its cache key, so editing a trace invalidates its results)."""
    real = os.path.realpath(str(path))
    try:
        stat = os.stat(real)
    except OSError as exc:
        raise TraceError(f"cannot stat trace {path}: {exc}") from exc
    signature = (real, stat.st_size, stat.st_mtime_ns)
    cached = _DIGESTS.get(signature)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    try:
        with open(real, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    value = digest.hexdigest()
    _DIGESTS[signature] = value
    return value


# ---------------------------------------------------------------------------
# Decode policy (eager vs streaming)
# ---------------------------------------------------------------------------

#: traces whose file is at or below this size always decode eagerly
#: when no explicit window is forced: the decoded stream of a small
#: trace cost less than re-parsing it per engine pass, and the LRU
#: makes the decode free across a sweep's jobs
STREAM_THRESHOLD_BYTES = 16 << 20

#: window byte budget used when a trace auto-streams (file larger than
#: the threshold, no ``REPRO_TRACE_WINDOW`` override)
DEFAULT_WINDOW_BYTES = 32 << 20


def parse_byte_size(raw) -> Optional[int]:
    """``"64m"`` / ``"512k"`` / ``"1g"`` / plain integers → bytes.
    ``None`` for unset, unparsable, or non-positive values — a
    misspelled environment variable must not fail every sweep."""
    if raw is None:
        return None
    text = str(raw).strip().lower()
    if not text:
        return None
    scale = 1
    if text[-1] in "kmg":
        scale = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}[text[-1]]
        text = text[:-1]
    try:
        value = int(text)
    except ValueError:
        return None
    return value * scale if value > 0 else None


def trace_window_bytes() -> Optional[int]:
    """The forced streaming window: ``$REPRO_TRACE_WINDOW`` parsed as a
    byte size (``k``/``m``/``g`` suffixes accepted).  ``None`` when
    unset — the size-threshold policy decides.  Pool and queue workers
    inherit the parent's environment, so one export (or the CLI's
    ``--trace-window``) sizes a whole fleet."""
    return parse_byte_size(os.environ.get("REPRO_TRACE_WINDOW"))


# ---------------------------------------------------------------------------
# Decoded-trace memoization
# ---------------------------------------------------------------------------

#: how many decoded traces one process keeps alive at once.  A sweep
#: runs a trace's units back to back, so it reuses the newest entry;
#: the other slots serve pool and queue workers, which take units in
#: any order.  The decoded form (instructions + index/aux arrays) is
#: a few MB per trace, so a small LRU captures the reuse without
#: unbounded growth.
TRACE_CACHE_CAPACITY = 8

#: (realpath, sha256) -> decoded TraceFile, most recently used last.
#: Keyed by *content*, not just path: an edited trace digests
#: differently, so a stale decode can never be served (the same property
#: :attr:`~repro.runner.jobspec.JobSpec.workload_digest` relies on).
_TRACE_LRU: "OrderedDict[Tuple[str, str], TraceFile]" = OrderedDict()


def load_trace(path: Union[str, Path], *, stream=None) -> TraceFile:
    """Read and decode ``path``, memoizing per process.

    A six-config sweep over one trace used to gunzip and re-decode the
    file once per job; with the LRU every job in a process (the sweep
    parent or one pool/queue worker) shares a single decoded
    :class:`TraceFile` — and therefore a single
    :class:`SegmentColumns` view per segment.  The cached object is
    shared, never copied: segments and their views are read-only to
    every consumer.  A
    fresh, uncached decode is ``TraceReader(path).read()``.

    ``stream`` selects the decode strategy:

    * ``None`` (default) — policy: a ``$REPRO_TRACE_WINDOW`` byte
      budget forces windowed streaming at that window size; otherwise
      files above :data:`STREAM_THRESHOLD_BYTES` stream with
      :data:`DEFAULT_WINDOW_BYTES` windows and smaller files decode
      eagerly (the historical behaviour, bit for bit).
    * ``False`` — always eager (bench's decode-excluded views).
    * an ``int`` byte budget — always streaming, at that window size.

    A streamed trace is a :class:`TraceFile` of file-backed segments:
    loading it only skip-parses the file for its segment index, and
    nothing enters the LRU — each engine pass seeks to its segment and
    reads it forward, holding at most one window, so replay memory is
    bounded by the window budget instead of the trace.  Results are
    bit-identical either way (the streaming equivalence suite pins
    this)."""
    from repro.telemetry import emit, note_decode
    from repro.faults import fire
    fire("trace.decode", path=str(path))
    if stream is None:
        stream = trace_window_bytes()
        if stream is None:
            try:
                size = os.stat(str(path)).st_size
            except OSError:
                size = 0
            stream = DEFAULT_WINDOW_BYTES \
                if size > STREAM_THRESHOLD_BYTES else False
    if stream:
        window_steps = max(1, stream // COLUMN_BYTES_PER_STEP)
        trace = _read_trace(path, window_steps)
        emit("trace.stream_open", level="debug", path=str(path),
             window_bytes=stream, window_steps=window_steps)
        return trace
    key = (os.path.realpath(str(path)), file_digest(path))
    cached = _TRACE_LRU.get(key)
    if cached is not None:
        _TRACE_LRU.move_to_end(key)
        note_decode(0.0, cached=True)
        emit("trace.lru_hit", level="debug", path=str(path))
        return cached
    started = time.perf_counter()
    trace = TraceReader(path).read()
    elapsed = time.perf_counter() - started
    note_decode(elapsed, cached=False)
    emit("trace.decode", level="debug", path=str(path),
         seconds=round(elapsed, 6), segments=len(trace.segments))
    _TRACE_LRU[key] = trace
    if len(_TRACE_LRU) > TRACE_CACHE_CAPACITY:
        evicted_key, _ = _TRACE_LRU.popitem(last=False)
        emit("trace.lru_evict", level="debug", path=evicted_key[0],
             capacity=TRACE_CACHE_CAPACITY)
    return trace


def clear_trace_cache() -> None:
    """Drop every memoized decode (tests and long-lived workers that
    want to release memory)."""
    _TRACE_LRU.clear()
