"""The importer framework: foreign instruction streams -> native traces.

A foreign trace (a SimpleScalar-style EIO text stream, a gem5 ``Exec``
debug log, ...) describes the same thing a native trace does — the
committed instruction stream of one program — in someone else's words:
foreign opcodes, foreign virtual addresses, no notion of our two-binary
(plain/instrumented) evaluation or of the program geometry replay needs.
This module is the translation layer:

* an :class:`Importer` parses one foreign format into a stream of
  :class:`ForeignStep` events (pc, instruction kind, branch outcome,
  memory address) — streaming, constant memory, every malformed line a
  typed :class:`~repro.errors.TraceError` naming the offending line;
* the converter maps those events onto native
  :class:`~repro.isa.instructions.Instruction` kind codes and
  ``(index, aux)`` step records, synthesizes the
  :class:`~repro.trace.replay.ReplayProgram` geometry from the observed
  address ranges, and writes ordinary versioned trace files that replay
  bit-identically thereafter.

Address mapping rules (documented normatively in ``docs/trace-format.md``):

* **Text** is rebased by a single constant: the page holding the lowest
  observed pc lands on ``TEXT_BASE``.  An affine shift preserves every
  fall-through, page-offset, and page-adjacency relationship of the
  foreign stream — the structure the iTLB schemes are sensitive to.
  Streams whose pcs span more than :data:`MAX_TEXT_SPAN_BYTES` are
  rejected (scattered text would force an absurd premap).
* **Data** pages are compacted: the n-th distinct foreign data page (in
  first-appearance order) becomes the n-th page above ``DATA_BASE``.
  Page identity and page offsets are exact; inter-page adjacency is
  not preserved (it is irrelevant to the paper's iTLB questions and
  compaction is what lets 64-bit foreign address spaces fit the
  32-bit trace format).  Addresses are word-aligned (low two bits
  dropped).
* Only fixed-length 4-byte-aligned instruction streams are importable;
  a misaligned pc is a typed error, not a silent misclassification.

Foreign binaries are uninstrumented, so the converter emits the same
stream twice — once as the ``plain`` segment and once as the
``instrumented`` one (zero boundary branches, no in-page hints).  Every
scheme therefore runs, with SoCA/SoLA/IA measured over the stream a
non-cooperating compiler would give them.
"""

from __future__ import annotations

import io
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import (BinaryIO, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple, Union)

from repro.errors import TraceError
from repro.isa.instructions import InstrKind, Instruction, Opcode
from repro.isa.program import DATA_BASE, TEXT_BASE
from repro.trace.format import (
    MemorySink,
    TraceSegment,
    TraceWriter,
    file_digest,
    open_sniffed,
)
from repro.workloads.synthetic import WorkloadProfile

#: bumped when conversion semantics change (address mapping, kind
#: resolution, geometry synthesis); recorded in the output header so a
#: converted trace documents the rules that produced it
IMPORTER_VERSION = 1

#: widest text span an import may cover after rebasing; beyond this the
#: eager text premap (and the 32-bit trace format) stop making sense
MAX_TEXT_SPAN_BYTES = 128 * 1024 * 1024
#: widest compacted data footprint (distinct pages x page size)
MAX_DATA_BYTES = 1024 * 1024 * 1024

#: canonical opcode per instruction kind — the wire opcode a foreign
#: instruction gets when its parser did not pick a more specific one
KIND_TO_OPCODE: Dict[InstrKind, Opcode] = {
    InstrKind.INT_ALU: Opcode.ADD,
    InstrKind.INT_MULT: Opcode.MUL,
    InstrKind.INT_DIV: Opcode.DIV,
    InstrKind.FP_ALU: Opcode.FADD,
    InstrKind.FP_MULT: Opcode.FMUL,
    InstrKind.FP_DIV: Opcode.FDIV,
    InstrKind.LOAD: Opcode.LW,
    InstrKind.STORE: Opcode.SW,
    InstrKind.COND_BRANCH: Opcode.BNE,
    InstrKind.JUMP: Opcode.J,
    InstrKind.CALL: Opcode.JAL,
    InstrKind.INDIRECT_JUMP: Opcode.JR,
    InstrKind.INDIRECT_CALL: Opcode.JALR,
    InstrKind.NOP: Opcode.NOP,
    InstrKind.HALT: Opcode.HALT,
}

#: mnemonic -> control kind, shared across text formats (MIPS/PISA,
#: RISC-V, and AArch64 spellings); parsers consult this before falling
#: back to pc-discontinuity classification
CONTROL_MNEMONICS: Dict[str, InstrKind] = {}
for _m in ("beq bne blez bgtz bltz bgez beqz bnez bc1t bc1f blt bge bltu "
           "bgeu bgt ble bcs bcc bmi bpl bhi bls cbz cbnz tbz tbnz").split():
    CONTROL_MNEMONICS[_m] = InstrKind.COND_BRANCH
for _m in ("j", "b"):
    CONTROL_MNEMONICS[_m] = InstrKind.JUMP
for _m in ("jal", "bl", "call"):
    CONTROL_MNEMONICS[_m] = InstrKind.CALL
for _m in ("jr", "ret", "br"):
    CONTROL_MNEMONICS[_m] = InstrKind.INDIRECT_JUMP
for _m in ("jalr", "blr"):
    CONTROL_MNEMONICS[_m] = InstrKind.INDIRECT_CALL
del _m


@dataclass
class ForeignStep:
    """One dynamic instruction as a foreign parser understood it."""

    pc: int
    kind: InstrKind
    mnemonic: str
    taken: bool = False
    #: taken destination of *direct* control flow (this instance)
    target: Optional[int] = None
    #: actual destination of *indirect* control flow (this instance)
    next_pc: Optional[int] = None
    mem_addr: Optional[int] = None
    rd: int = 0
    rs: int = 0
    rt: int = 0
    #: preferred wire opcode (None -> the kind's canonical opcode)
    op: Optional[Opcode] = None
    #: source line, for diagnostics
    line: int = 0


class Importer(ABC):
    """One foreign trace format: a name and a streaming event parser."""

    #: CLI/registry identifier (``repro trace import --format <name>``)
    name: str = "?"
    #: one-line description for ``repro trace formats``
    description: str = "?"

    @abstractmethod
    def events(self, path: Union[str, Path]) -> Iterator[ForeignStep]:
        """Yield the stream's dynamic instructions in commit order.

        Must be re-iterable (the converter runs several passes) and must
        raise :class:`~repro.errors.TraceError` — with the path and line
        number — for every malformed input.
        """

    # -- shared parser helpers -----------------------------------------

    def open_binary(self, path: Union[str, Path]) -> BinaryIO:
        """Open ``path`` for binary reading, transparently decompressing
        gzip or xz content (sniffed, like the native reader — not
        suffix-trusted); closing it closes the file."""
        try:
            return open_sniffed(path)
        except OSError as exc:
            raise TraceError(
                f"cannot open {self.name} trace {path}: {exc}") from exc

    def open_text(self, path: Union[str, Path]):
        """Like :meth:`open_binary`, as UTF-8 text."""
        return io.TextIOWrapper(self.open_binary(path), encoding="utf-8",
                                errors="replace")

    def error(self, path, line: int, message: str) -> TraceError:
        return TraceError(f"{path}, line {line}: {message}")


def _windowed(events: Iterable[ForeignStep], skip: int,
              limit: Optional[int]) -> Iterator[ForeignStep]:
    """Apply the import window: drop the first ``skip`` events, then
    yield at most ``limit``."""
    count = 0
    for i, event in enumerate(events):
        if i < skip:
            continue
        if limit is not None and count >= limit:
            return
        count += 1
        yield event


# ---------------------------------------------------------------------------
# Pass 1: scan (address ranges, per-pc classification, data page census)
# ---------------------------------------------------------------------------


@dataclass
class _PcProfile:
    """Everything observed about one static pc across the stream."""

    mnemonic: str
    kinds: Set[InstrKind] = field(default_factory=set)
    targets: Set[int] = field(default_factory=set)
    rd: int = 0
    rs: int = 0
    rt: int = 0
    op: Optional[Opcode] = None
    line: int = 0


@dataclass
class ScanResult:
    """Outcome of the scan pass over one windowed foreign stream."""

    source: Path
    steps: int
    entry_pc: int
    min_pc: int
    max_pc: int
    profiles: Dict[int, _PcProfile]
    #: page size -> foreign data page numbers in first-appearance order
    data_pages: Dict[int, List[int]]


def check_page_size(page_bytes: int) -> None:
    """Reject page sizes the address mapping cannot honour (the shifts
    and offset masks assume a power of two, like the rest of the
    system — see :class:`~repro.vm.page_table.PageTable`)."""
    if page_bytes < 64 or page_bytes & (page_bytes - 1):
        raise TraceError(
            f"page size {page_bytes} is not usable for import "
            "(must be a power of two, at least 64 bytes)")


def scan_stream(importer: Importer, path: Union[str, Path], *,
                page_sizes: Sequence[int], skip: int = 0,
                limit: Optional[int] = None) -> ScanResult:
    """Scan the (windowed) stream once, collecting what geometry
    synthesis and kind resolution need.

    The text bounds cover every pc *and* every claimed control
    destination (direct targets, indirect next-pcs): a window that ends
    on a taken transfer whose destination was never reached inside the
    window must still synthesize geometry that covers it, or replaying
    the final step would fetch outside the text segment.
    """
    path = Path(path)
    for size in page_sizes:
        check_page_size(size)
    steps = 0
    entry_pc = min_pc = max_pc = -1
    profiles: Dict[int, _PcProfile] = {}
    page_seen: Dict[int, Dict[int, None]] = {s: {} for s in page_sizes}
    shifts = {s: s.bit_length() - 1 for s in page_sizes}
    for event in _windowed(importer.events(path), skip, limit):
        pc = event.pc
        if pc < 0 or pc & 3:
            raise importer.error(
                path, event.line,
                f"misaligned pc {pc:#x} (only fixed-length 4-byte-aligned "
                "instruction streams are importable)")
        if steps == 0:
            entry_pc = min_pc = max_pc = pc
        else:
            if pc < min_pc:
                min_pc = pc
            if pc > max_pc:
                max_pc = pc
        steps += 1
        profile = profiles.get(pc)
        if profile is None:
            profile = _PcProfile(mnemonic=event.mnemonic, rd=event.rd,
                                 rs=event.rs, rt=event.rt, op=event.op,
                                 line=event.line)
            profiles[pc] = profile
        profile.kinds.add(event.kind)
        for what, dest in (("branch target", event.target),
                           ("indirect destination", event.next_pc)):
            if dest is None:
                continue
            if dest < 0 or dest & 3:
                raise importer.error(
                    path, event.line,
                    f"misaligned {what} {dest:#x} at pc {pc:#x}")
            if dest < min_pc:
                min_pc = dest
            if dest > max_pc:
                max_pc = dest
        if event.target is not None:
            profile.targets.add(event.target)
        if event.mem_addr is not None:
            if event.mem_addr < 0:
                raise importer.error(
                    path, event.line,
                    f"negative memory address at pc {pc:#x}")
            for size, shift in shifts.items():
                page_seen[size].setdefault(event.mem_addr >> shift)
    if steps == 0:
        raise TraceError(
            f"{path}: foreign trace contains no instructions "
            f"(format '{importer.name}'; is this the right --format?)")
    return ScanResult(source=path, steps=steps, entry_pc=entry_pc,
                      min_pc=min_pc, max_pc=max_pc, profiles=profiles,
                      data_pages={s: list(seen)
                                  for s, seen in page_seen.items()})


# ---------------------------------------------------------------------------
# Kind resolution (one final classification per static pc)
# ---------------------------------------------------------------------------


@dataclass
class _Resolved:
    """Final static facts for one pc, after cross-instance merging."""

    op: Opcode
    kind: InstrKind
    target: Optional[int]  #: foreign-address taken target (direct only)
    rd: int
    rs: int
    rt: int


#: kinds that may merge with a discontinuity-derived INDIRECT_JUMP
#: (they carry no aux payload of their own, so promotion is lossless)
_PROMOTABLE = frozenset({
    InstrKind.INT_ALU, InstrKind.INT_MULT, InstrKind.INT_DIV,
    InstrKind.FP_ALU, InstrKind.FP_MULT, InstrKind.FP_DIV,
    InstrKind.NOP,
})


def resolve_kinds(scan: ScanResult) -> Dict[int, _Resolved]:
    """Collapse each pc's observed classifications into one static
    entry, raising a typed error for genuinely conflicting streams."""
    resolved: Dict[int, _Resolved] = {}
    src = scan.source
    for pc, profile in scan.profiles.items():
        kinds = profile.kinds
        if len(kinds) == 1:
            kind = next(iter(kinds))
        elif (InstrKind.INDIRECT_JUMP in kinds
                and kinds <= _PROMOTABLE | {InstrKind.INDIRECT_JUMP}):
            # a plain instruction that sometimes redirected fetch (an
            # exception return, a parser-unknown branch): the indirect
            # classification subsumes the fall-through instances
            kind = InstrKind.INDIRECT_JUMP
        else:
            names = ", ".join(sorted(k.name for k in kinds))
            raise TraceError(
                f"{src}: conflicting classifications for pc {pc:#x} "
                f"('{profile.mnemonic}', line {profile.line}): {names}")
        target: Optional[int] = None
        if kind is InstrKind.COND_BRANCH:
            if len(profile.targets) > 1:
                shown = ", ".join(f"{t:#x}" for t in sorted(profile.targets))
                raise TraceError(
                    f"{src}: conditional branch at pc {pc:#x} "
                    f"('{profile.mnemonic}') observed with conflicting "
                    f"taken targets ({shown})")
            # a never-taken branch gets a fall-through target: replay
            # never consults it, but the format requires direct control
            # to carry one
            target = (next(iter(profile.targets)) if profile.targets
                      else pc + 4)
        elif kind in (InstrKind.JUMP, InstrKind.CALL):
            if len(profile.targets) > 1:
                # one static site, many destinations: the stream knows
                # better than the mnemonic — this is indirect control
                kind = (InstrKind.INDIRECT_CALL
                        if kind is InstrKind.CALL
                        else InstrKind.INDIRECT_JUMP)
            elif profile.targets:
                target = next(iter(profile.targets))
            else:
                raise TraceError(
                    f"{src}: direct {kind.name.lower()} at pc {pc:#x} "
                    f"('{profile.mnemonic}') never observed with a target")
        # targets need no range check here: the scan pass already folded
        # every claimed destination into the text bounds, and absurdly
        # distant ones fail the MAX_TEXT_SPAN_BYTES guard with a typed
        # error at geometry synthesis
        op = profile.op
        if op is None or op.kind is not kind:
            op = KIND_TO_OPCODE[kind]
        resolved[pc] = _Resolved(op=op, kind=kind, target=target,
                                 rd=profile.rd % 32, rs=profile.rs % 32,
                                 rt=profile.rt % 32)
    return resolved


# ---------------------------------------------------------------------------
# Geometry synthesis
# ---------------------------------------------------------------------------


@dataclass
class Geometry:
    """The synthesized address mapping for one page size."""

    page_bytes: int
    text_delta: int  #: add to a foreign pc to get the native address
    text_words: int
    entry: int
    data_map: Dict[int, int]  #: foreign data page -> native data page
    data_size: int

    def meta(self, name: str, binary: str) -> dict:
        return {
            "binary": binary,
            "name": name,
            "text_base": TEXT_BASE,
            "text_words": self.text_words,
            "data_base": DATA_BASE,
            "data_size": self.data_size,
            "entry": self.entry,
            "page_bytes": self.page_bytes,
            "instrumented": binary == "instrumented",
            "boundary_branch_count": 0,
        }


def synthesize_geometry(scan: ScanResult, page_bytes: int) -> Geometry:
    """Derive the replay geometry for ``page_bytes`` from the observed
    address ranges (see the module docstring for the mapping rules)."""
    aligned = scan.min_pc - (scan.min_pc % page_bytes)
    span = scan.max_pc + 4 - aligned
    if span > MAX_TEXT_SPAN_BYTES:
        raise TraceError(
            f"{scan.source}: observed pcs span {span:,} bytes "
            f"({scan.min_pc:#x}..{scan.max_pc:#x}), beyond the "
            f"{MAX_TEXT_SPAN_BYTES:,}-byte import limit — is this one "
            "program's instruction stream?")
    pages = scan.data_pages.get(page_bytes)
    if pages is None:  # pragma: no cover - caller always pre-scans
        raise TraceError(
            f"{scan.source}: stream was not scanned for "
            f"{page_bytes}-byte pages")
    if len(pages) * page_bytes > MAX_DATA_BYTES:
        raise TraceError(
            f"{scan.source}: stream touches {len(pages):,} distinct "
            f"{page_bytes}-byte data pages, beyond the "
            f"{MAX_DATA_BYTES:,}-byte import limit")
    first_native = DATA_BASE // page_bytes
    data_map = {page: first_native + i for i, page in enumerate(pages)}
    return Geometry(
        page_bytes=page_bytes,
        text_delta=TEXT_BASE - aligned,
        text_words=span // 4,
        entry=scan.entry_pc + (TEXT_BASE - aligned),
        data_map=data_map,
        data_size=len(pages) * page_bytes,
    )


# ---------------------------------------------------------------------------
# Pass 2..n: emission (one pass per segment)
# ---------------------------------------------------------------------------


def emit_segment(importer: Importer, scan: ScanResult,
                 resolved: Dict[int, _Resolved], geometry: Geometry,
                 sink, *, name: str, binary: str, skip: int = 0,
                 limit: Optional[int] = None) -> int:
    """Re-parse the stream and write it as one native segment; returns
    the number of steps emitted."""
    sink.begin_segment(geometry.meta(name, binary))
    intern: Dict[int, Instruction] = {}
    delta = geometry.text_delta
    shift = geometry.page_bytes.bit_length() - 1
    offset_mask = geometry.page_bytes - 1
    data_map = geometry.data_map
    steps = 0
    for event in _windowed(importer.events(scan.source), skip, limit):
        entry = resolved[event.pc]
        instr = intern.get(event.pc)
        if instr is None:
            instr = Instruction(
                entry.op, rd=entry.rd, rs=entry.rs, rt=entry.rt,
                target=(None if entry.target is None
                        else entry.target + delta))
            intern[event.pc] = instr
        # the step's aux payload (see repro.trace.format.aux_kind
        # and docs/trace-format.md)
        kind = instr.kind_code
        aux = -1
        if kind == InstrKind.COND_BRANCH:
            aux = 1 if event.taken else 0
        elif kind in (InstrKind.INDIRECT_JUMP, InstrKind.INDIRECT_CALL):
            dest = event.next_pc
            if dest is None:
                dest = event.target
            if dest is None:
                dest = event.pc + 4
            # alignment and range were settled in the scan pass (the
            # bounds cover every claimed destination)
            aux = dest + delta
        elif kind in (InstrKind.LOAD, InstrKind.STORE):
            addr = event.mem_addr
            if addr is None:
                raise importer.error(
                    scan.source, event.line,
                    f"memory instruction at pc {event.pc:#x} carries "
                    "no effective address")
            aux = ((data_map[addr >> shift] << shift)
                   | (addr & offset_mask & ~3))
        sink.write_record(event.pc + delta, instr, aux)
        steps += 1
    return steps


# ---------------------------------------------------------------------------
# The one-call conversions
# ---------------------------------------------------------------------------


def _sizes(page_bytes: int, page_sizes: Optional[Sequence[int]]) -> List[int]:
    sizes = [page_bytes]
    for size in page_sizes or ():
        if size not in sizes:
            sizes.append(size)
    return sizes


def default_workload_name(importer: Importer,
                          path: Union[str, Path]) -> str:
    return f"{importer.name}:{Path(path).name}"


def convert_trace(importer: Importer, src: Union[str, Path],
                  dst: Union[str, Path], *, page_bytes: int = 4096,
                  page_sizes: Optional[Sequence[int]] = None,
                  max_instructions: Optional[int] = None, skip: int = 0,
                  workload_name: Optional[str] = None) -> dict:
    """Convert ``src`` into a native trace file at ``dst``.

    Runs one scan pass plus two emission passes per page size (plain +
    instrumented segment), each a fresh parse — constant memory however
    long the foreign stream is.  The instrumented twin is deliberately
    re-parsed rather than buffered from the plain emission: buffering
    would hold the whole record stream in memory, which is exactly what
    this path exists to avoid (the in-memory shortcut lives in
    :class:`ImportedTraceWorkload`).  Returns a summary dict (steps,
    distinct pcs, per-segment counts, the source digest) for callers
    that report.  Any failure aborts the output file; a partial
    conversion is never left looking like a trace.
    """
    src = Path(src)
    sizes = _sizes(page_bytes, page_sizes)
    scan = scan_stream(importer, src, page_sizes=sizes, skip=skip,
                       limit=max_instructions)
    resolved = resolve_kinds(scan)
    name = workload_name or default_workload_name(importer, src)
    source_digest = file_digest(src)
    header = {
        "format": "repro-itlb instruction trace",
        "workload": name,
        "instructions": scan.steps,
        "warmup": 0,
        "page_bytes": page_bytes,
        "page_sizes": sizes,
        "imported": {
            "format": importer.name,
            "importer_version": IMPORTER_VERSION,
            "source": src.name,
            "source_sha256": source_digest,
            "skip": skip,
        },
    }
    segments = []
    with TraceWriter(dst, header=header) as writer:
        for size in sizes:
            geometry = synthesize_geometry(scan, size)
            for binary in ("plain", "instrumented"):
                emit_segment(importer, scan, resolved, geometry, writer,
                             name=name, binary=binary, skip=skip,
                             limit=max_instructions)
                segments.append({"binary": binary, "page_bytes": size,
                                 "steps": scan.steps,
                                 "distinct_instructions": len(resolved)})
    return {
        "source": str(src),
        "source_sha256": source_digest,
        "format": importer.name,
        "workload": name,
        "steps": scan.steps,
        "distinct_instructions": len(resolved),
        "page_sizes": sizes,
        "segments": segments,
    }


class ImportedTraceWorkload:
    """A foreign trace usable directly wherever a workload is.

    Mirrors :class:`~repro.trace.replay.TraceWorkload`'s surface
    (``profile``, ``link``, ``describe``) but synthesizes segments *on
    demand*, per requested (page size, binary) — which is what lets
    ``import:<format>:<path>`` registry names sweep any page size
    without an explicit convert step.  Conversion is in-memory and
    repeated per resolve; for multi-million-instruction streams, convert
    once with ``repro trace import`` and use ``trace:<path>`` instead.
    """

    def __init__(self, importer: Importer, path: Union[str, Path], *,
                 max_instructions: Optional[int] = None, skip: int = 0,
                 name: Optional[str] = None) -> None:
        self.importer = importer
        self.path = Path(path)
        self.skip = skip
        self.max_instructions = max_instructions
        self.profile = WorkloadProfile(
            name=name or default_workload_name(importer, path))
        self._scan: Optional[ScanResult] = None
        self._resolved: Optional[Dict[int, _Resolved]] = None
        self._segments: Dict[Tuple[int, str], TraceSegment] = {}

    def _ensure_scanned(self, page_bytes: int) -> None:
        if (self._scan is None
                or page_bytes not in self._scan.data_pages):
            sizes = ([] if self._scan is None
                     else list(self._scan.data_pages))
            if page_bytes not in sizes:
                sizes.append(page_bytes)
            self._scan = scan_stream(self.importer, self.path,
                                     page_sizes=sizes, skip=self.skip,
                                     limit=self.max_instructions)
            self._resolved = resolve_kinds(self._scan)

    def link(self, *, page_bytes: int = 4096, instrumented: bool = False):
        from repro.trace.replay import ReplayProgram
        self._ensure_scanned(page_bytes)
        binary = "instrumented" if instrumented else "plain"
        key = (page_bytes, binary)
        segment = self._segments.get(key)
        if segment is None:
            geometry = synthesize_geometry(self._scan, page_bytes)
            sink = MemorySink()
            emit_segment(self.importer, self._scan, self._resolved,
                         geometry, sink, name=self.profile.name,
                         binary=binary, skip=self.skip,
                         limit=self.max_instructions)
            segment = sink.segments[0]
            self._segments[key] = segment
            # the twin binary's stream is identical (foreign binaries
            # are uninstrumented), so share this emission's work
            twin = "plain" if instrumented else "instrumented"
            self._segments.setdefault(
                (page_bytes, twin),
                TraceSegment(meta=geometry.meta(self.profile.name, twin),
                             instructions=segment.instructions,
                             pcs=segment.pcs, index=segment.index,
                             aux=segment.aux))
        return ReplayProgram(segment)

    def describe(self) -> str:
        lines = [f"imported {self.importer.name} trace {self.path} "
                 f"({self.profile.name})"]
        lines.extend(f"  {segment.describe()}"
                     for segment in self._segments.values())
        return "\n".join(lines)
