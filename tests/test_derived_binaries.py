"""Instrumented binaries and their streams are derived from the plain ones.

A workload is placed and executed once, plain.  Its instrumented image
at each page size is the plain image with a boundary branch in every
page's last slot (:func:`repro.isa.assembler.place_boundary_branches`),
and that image's committed stream is the plain stream remapped
(:func:`repro.compiler.instrument.derive_stream`).  These tests pin the
premise on every registry workload and four page sizes: the derived
image equals one placed word by word (:mod:`reference_link`), and the
derived stream equals an execution of the instrumented image, in every
per-step fact the fast engine reads.  They also pin that a program the
remap cannot follow fails loudly, and that recorded traces keep their
bytes.
"""

from __future__ import annotations

import dataclasses

import pytest

from reference_columns import FACTS, engine_view
from reference_link import reference_link
from repro.compiler.instrument import instrument_module, instrument_program
from repro.config import default_config
from repro.cpu.fast import FastEngine
from repro.cpu.functional import committed_stream
from repro.errors import AssemblyError, LayoutError, TraceError
from repro.isa.assembler import Assembler, link, place_boundary_branches
from repro.isa.program import DATA_BASE, TEXT_BASE
from repro.isa.registers import REG_RA
from repro.trace.format import TraceWriter
from repro.trace.record import record_trace, write_pass
from repro.workloads.registry import AFFINITY_SUFFIX, resolve
from repro.workloads.spec2000 import BENCHMARK_NAMES
from repro.workloads.synthetic import link_slot

MICROS = ("micro.counted_loop", "micro.page_ping_pong",
          "micro.straight_line", "micro.call_return",
          "micro.memory_walker", "micro.taken_pattern")
#: every registry workload with a static image
WORKLOADS = (tuple(BENCHMARK_NAMES) + MICROS
             + tuple(name + AFFINITY_SUFFIX for name in BENCHMARK_NAMES))
PAGE_SIZES = (4096, 8192, 16384, 65536)


def stream_mismatches(derived, executed) -> list:
    """What differs between two in-memory segments: the names of the
    per-step facts the fast engine reads that differ
    (:data:`reference_columns.FACTS`), plus ``"statics"`` when the
    interned statics (matched by pc) do."""
    ours = engine_view(derived.columns())
    theirs = engine_view(executed.columns())
    found = [name for name in FACTS if ours[name] != theirs[name]]
    if (derived.pcs != executed.pcs
            or derived.instructions != executed.instructions):
        found.append("statics")
    return found


def check_derived_streams(workloads, page_sizes, budget: int) -> dict:
    """Derive and execute each workload's instrumented stream at each
    page size over ``budget`` useful instructions; returns the
    mismatches by (workload, page size), empty when all agree.  The
    tier-1 tests run this at a small window, and CI at the default
    one."""
    failures = {}
    for name in workloads:
        workload = resolve(name)
        with link_slot():
            for page_bytes in page_sizes:
                program = workload.link(page_bytes=page_bytes,
                                        instrumented=True)
                assert program.source is not None
                mismatches = stream_mismatches(
                    program.stream(budget),
                    committed_stream(program, budget))
                if mismatches:
                    failures[name, page_bytes] = mismatches
    return failures


def _image(program) -> tuple:
    """Every field a linked program carries, each word's address
    included."""
    return (
        [(instr.op, instr.rd, instr.rs, instr.rt, instr.imm, instr.target,
          instr.inpage_hint, instr.is_boundary_branch,
          program.text_base + 4 * index, instr.label)
         for index, instr in enumerate(program.instructions)],
        dict(program.labels), dict(program.data_words), program.entry,
        program.data_size, program.boundary_branch_count,
        program.instrumented, program.page_bytes, program.name,
    )


class TestDerivedImage:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_equals_the_placed_image(self, name):
        workload = resolve(name)
        plain = workload.link()
        for page_bytes in PAGE_SIZES:
            derived = instrument_program(plain, page_bytes=page_bytes)
            placed = reference_link(workload.module, page_bytes=page_bytes,
                                    name=workload.profile.name)
            assert _image(derived) == _image(placed), page_bytes

    def test_shares_every_word_without_a_text_address(self):
        plain = resolve("177.mesa").link()
        derived = instrument_program(plain, page_bytes=4096)
        shared = {id(instr) for instr in plain.instructions}
        for instr in derived.instructions:
            assert (id(instr) in shared) == (instr.target is None)
        assert derived.source is plain

    def test_page_without_a_slot_besides_its_boundary(self):
        asm = Assembler()
        asm.label("main")
        asm.halt()
        with pytest.raises(LayoutError, match="no slot besides"):
            place_boundary_branches(link(asm.module, page_bytes=4),
                                    page_bytes=4)

    def test_branch_out_of_range_only_once_instrumented(self):
        """16,382 words back fit a conditional branch's 15-bit offset;
        the boundary branches inserted over them push it out."""
        asm = Assembler()
        asm.label("main")
        asm.label("top")
        for _ in range(16382):
            asm.nop()
        asm.bne(1, 2, "top")
        asm.halt()
        link(asm.module)  # in range plain
        with pytest.raises(AssemblyError, match=r"to 0x400000 \(plain "
                                                r"0x400000\) out of range"):
            instrument_module(asm.module)
        with pytest.raises(AssemblyError, match="out of range"):
            reference_link(asm.module, page_bytes=4096)


class TestDerivedStream:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_equals_the_executed_stream(self, name):
        assert check_derived_streams([name], PAGE_SIZES, 2500) == {}

    def test_shorter_window_after_a_longer_plain_one(self):
        """The plain stream is kept for the longest window asked; an
        instrumented window shorter than it derives only its own
        steps."""
        workload = resolve("254.gap")
        with link_slot():
            workload.link().stream(3000)
            program = workload.link(instrumented=True)
            assert stream_mismatches(program.stream(1200),
                                     committed_stream(program, 1200)) == []


def _module(body, *, table=()):
    asm = Assembler()
    asm.label("main")
    body(asm)
    if table:
        asm.data_words("table", list(table))
    return asm.module


class TestFailsLoudly:
    """A step the remap cannot map raises, naming the step and its
    plain pc, and no stream is kept."""

    def _refused(self, module, budget, match, page_bytes=4096):
        program = instrument_module(module, page_bytes=page_bytes)
        with pytest.raises(TraceError, match=match):
            program.stream(budget)
        assert program._stream.segment is None

    def test_indirect_target_that_is_no_instruction(self):
        def body(asm):
            asm.li(8, DATA_BASE)
            asm.jr(8)
            asm.halt()
        # the window ends on the jump, so the plain run never fetches
        # its target
        self._refused(_module(body), 2,
                      r"step 1 \(jr at plain pc 0x400004\).*"
                      r"0x10000000 is not a plain instruction start")

    def test_load_inside_the_text_segment(self):
        def body(asm):
            asm.li(8, TEXT_BASE)
            asm.lw(9, 8, 4)
            asm.halt()
        self._refused(_module(body), 10,
                      r"step 1 \(lw at plain pc 0x400004\).*"
                      r"accesses 0x400004, inside the text segment")

    def test_store_inside_the_text_segment(self):
        def body(asm):
            asm.li(8, TEXT_BASE)
            asm.sw(0, 8, 8)
            asm.halt()
        self._refused(_module(body), 10, "inside the text segment")

    def test_source_with_boundary_branches(self):
        def body(asm):
            for _ in range(2000):
                asm.nop()
            asm.halt()
        instrumented = place_boundary_branches(link(_module(body)),
                                               page_bytes=4096)
        with pytest.raises(LayoutError, match="already has boundary"):
            instrument_program(instrumented, page_bytes=4096)
        relabelled = dataclasses.replace(instrumented, instrumented=False)
        with pytest.raises(LayoutError, match="already has a boundary "
                                              "branch at 0x400ffc"):
            place_boundary_branches(relabelled, page_bytes=4096)

    @staticmethod
    def _call_at_a_page_end(asm):
        """A call in the last real slot of a 256-byte page, returning to
        the word the boundary branch moves past."""
        for _ in range(62):
            asm.nop()
        asm.jal("callee")
        asm.label("after")
        asm.halt()
        asm.label("callee")
        asm.jr(REG_RA)

    def test_return_through_a_boundary_slot(self):
        """The call's successor slot is the page's boundary branch: the
        return lands there, and the boundary step follows it."""
        program = instrument_module(_module(self._call_at_a_page_end),
                                    page_bytes=256)
        derived = program.stream(100)
        assert stream_mismatches(derived,
                                 committed_stream(program, 100)) == []
        boundary = TEXT_BASE + 252
        view = engine_view(derived.columns())
        assert view["aux"][63] == boundary  # the return
        assert view["pc"][64] == boundary

    def test_return_address_that_is_also_a_table_label(self):
        self._refused(_module(self._call_at_a_page_end, table=["after"]),
                      100, "both a return address and a label-valued "
                           "data word", page_bytes=256)


class TestRecordedBytes:
    @pytest.mark.parametrize("bench", BENCHMARK_NAMES)
    def test_recording_equals_the_executed_streams(self, tmp_path, bench,
                                                   monkeypatch):
        """A trace recorded from derived streams has the bytes of one
        written from executed ones, at 4 and 8 KB pages; the recording
        runs no engine pass."""
        config = default_config()
        instructions, warmup = 1200, 300
        budget = instructions + warmup
        recorded = tmp_path / "recorded.trace.gz"

        def no_engine_pass(*args, **kwargs):
            raise AssertionError("recording ran an engine pass")

        with monkeypatch.context() as patched:
            patched.setattr(FastEngine, "_run_measured", no_engine_pass)
            record_trace(bench, config, instructions=instructions,
                         warmup=warmup, path=recorded, page_sizes=[8192])
        executed = tmp_path / "executed.trace.gz"
        header = {
            "format": "repro-itlb instruction trace", "workload": bench,
            "instructions": instructions, "warmup": warmup,
            "page_bytes": 4096, "page_sizes": [4096, 8192],
        }
        workload = resolve(bench)
        with TraceWriter(executed, header=header) as writer:
            for page_bytes in (4096, 8192):
                for instrumented in (False, True):
                    program = workload.link(page_bytes=page_bytes,
                                            instrumented=instrumented)
                    # without a source, the stream is executed
                    program.source = None
                    write_pass(writer, program, budget)
        assert recorded.read_bytes() == executed.read_bytes()
