"""Trace format: writer/reader round trip and malformed-input handling.

Every way a trace file can be broken — wrong file, truncation, version
skew, gzip corruption, internally inconsistent streams — must surface as
a typed :class:`~repro.errors.TraceError`, never a bare ``struct.error``
or ``EOFError``.
"""

import gzip
import json
import lzma
import struct
from array import array
from pathlib import Path

import pytest

from repro import telemetry
from repro.config import default_config
from repro.errors import TraceError
from repro.isa.instructions import Instruction, Opcode
from repro.trace import format as trace_format
from repro.trace import import_trace
from repro.trace import record as trace_record
from repro.trace.format import (
    COLUMN_BYTES_PER_STEP,
    MAGIC,
    TAG_SEGMENT,
    TAG_STATIC,
    TAG_STEP,
    TRACE_VERSION,
    TraceReader,
    TraceSegment,
    TraceWriter,
    file_digest,
    iter_steps,
    load_trace,
    program_meta,
)
from repro.trace.record import record_trace, write_pass
from repro.trace.replay import ReplayProgram
from repro.workloads.registry import resolve

GOLDEN_MESA = Path(__file__).parent / "golden" / "mesa.trace.gz"
FIXTURES = Path(__file__).parent / "fixtures"


def _meta(**overrides):
    meta = {
        "binary": "plain", "name": "t", "text_base": 0x400000,
        "text_words": 4, "data_base": 0x10000000, "data_size": 0,
        "entry": 0x400000, "page_bytes": 4096, "instrumented": False,
        "boundary_branch_count": 0,
    }
    meta.update(overrides)
    return meta


def _write_sample(path):
    """A small two-segment trace exercising every aux payload."""
    alu = Instruction(Opcode.ADDI, rd=8, rs=8, imm=1)
    load = Instruction(Opcode.LW, rd=9, rs=8, imm=0)
    br = Instruction(Opcode.BNE, rs=8, rt=0, target=0x400000)
    ret = Instruction(Opcode.JR, rs=31)
    with TraceWriter(path, header={"workload": "sample",
                                   "instructions": 4}) as writer:
        writer.begin_segment(_meta())
        writer.write_record(0x400000, alu, -1)
        writer.write_record(0x400004, load, 0x10000000)  # mem_addr
        writer.write_record(0x400008, br, 1)  # taken
        writer.write_record(0x400000, alu, -1)
        writer.write_record(0x40000C, ret, 0x400010)  # next_pc
        writer.begin_segment(_meta(binary="instrumented",
                                   instrumented=True))
        writer.write_record(0x400000, alu, -1)
    return path


class TestRoundTrip:
    def test_all_record_shapes_survive(self, tmp_path):
        path = _write_sample(tmp_path / "t.trace")
        trace = TraceReader(path).read()
        assert trace.header["workload"] == "sample"
        assert [s.binary for s in trace.segments] == ["plain",
                                                      "instrumented"]
        plain = trace.segments[0]
        cols = plain.columns()
        assert cols.steps == 5
        assert len(plain.instructions) == 4
        # interning: the repeated ALU step reuses index 0
        assert cols.index[0] == cols.index[3] == 0
        # aux payloads
        assert cols.aux[1] == 0x10000000  # load address
        assert cols.aux[2] == 1  # branch taken
        assert cols.aux[4] == 0x400010  # indirect target
        ops = [i.op for i in plain.instructions]
        assert ops == [Opcode.ADDI, Opcode.LW, Opcode.BNE, Opcode.JR]

    def test_gzip_round_trip_and_sniffing(self, tmp_path):
        path = _write_sample(tmp_path / "t.trace.gz")
        with open(path, "rb") as fh:
            assert fh.read(2) == b"\x1f\x8b"
        trace = TraceReader(path).read()
        assert trace.segments[0].columns().steps == 5
        # gzip content is sniffed, not suffix-trusted
        renamed = tmp_path / "no_suffix.bin"
        renamed.write_bytes(path.read_bytes())
        assert len(TraceReader(renamed).read().segments) == 2

    def test_xz_content_is_sniffed(self, tmp_path):
        plain = _write_sample(tmp_path / "t.trace").read_bytes()
        packed = tmp_path / "t.bin"
        packed.write_bytes(lzma.compress(plain))
        trace = TraceReader(packed).read()
        assert [s.columns().steps for s in trace.segments] == [5, 1]

    def test_gzip_output_is_deterministic(self, tmp_path):
        a = _write_sample(tmp_path / "a.trace.gz").read_bytes()
        b = _write_sample(tmp_path / "b.trace.gz").read_bytes()
        assert a == b  # zeroed mtime: same stream -> same bytes

    def test_segment_selection_by_binary_and_page_size(self, tmp_path):
        path = _write_sample(tmp_path / "t.trace")
        trace = TraceReader(path).read()
        assert trace.segment_for(instrumented=True,
                                 page_bytes=4096).binary == "instrumented"
        with pytest.raises(TraceError, match="no instrumented segment"):
            trace.segment_for(instrumented=True, page_bytes=8192)


class TestMalformedInput:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="cannot open"):
            TraceReader(tmp_path / "absent.trace").read()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_bytes(b"")
        with pytest.raises(TraceError, match="truncated"):
            TraceReader(path).read()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_bytes(b"NOTATRCE" + b"\x00" * 32)
        with pytest.raises(TraceError, match="bad magic"):
            TraceReader(path).read()

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "v99.trace"
        path.write_bytes(struct.pack("<8sHHI", MAGIC, 99, 0, 2) + b"{}")
        with pytest.raises(TraceError, match="version 99"):
            TraceReader(path).read()

    def test_truncated_mid_stream(self, tmp_path):
        whole = _write_sample(tmp_path / "whole.trace").read_bytes()
        cut = tmp_path / "cut.trace"
        cut.write_bytes(whole[:int(len(whole) * 0.6)])
        with pytest.raises(TraceError, match="truncated"):
            TraceReader(cut).read()

    def test_missing_end_of_trace_marker(self, tmp_path):
        whole = _write_sample(tmp_path / "whole.trace").read_bytes()
        cut = tmp_path / "cut.trace"
        cut.write_bytes(whole[:-1])  # drop TAG_END_TRACE
        with pytest.raises(TraceError, match="truncated"):
            TraceReader(cut).read()

    def test_corrupt_gzip_payload(self, tmp_path):
        data = bytearray(_write_sample(tmp_path / "t.trace.gz")
                         .read_bytes())
        mid = len(data) // 2
        for i in range(mid, min(mid + 8, len(data))):
            data[i] ^= 0xFF
        bad = tmp_path / "bad.trace.gz"
        bad.write_bytes(bytes(data))
        with pytest.raises(TraceError):
            TraceReader(bad).read()

    def test_garbage_with_gz_suffix(self, tmp_path):
        bad = tmp_path / "bad.trace.gz"
        bad.write_bytes(b"\x1f\x8b" + b"\xde\xad\xbe\xef" * 16)
        with pytest.raises(TraceError):
            TraceReader(bad).read()

    def test_garbage_with_xz_magic(self, tmp_path):
        bad = tmp_path / "bad.trace.xz"
        bad.write_bytes(b"\xfd7zXZ\x00" + b"\xde\xad\xbe\xef" * 16)
        with pytest.raises(TraceError):
            TraceReader(bad).read()

    def test_corrupt_header_json(self, tmp_path):
        path = tmp_path / "badjson.trace"
        payload = b"not json!"
        path.write_bytes(struct.pack("<8sHHI", MAGIC, TRACE_VERSION, 0,
                                     len(payload)) + payload)
        with pytest.raises(TraceError, match="corrupt header"):
            TraceReader(path).read()

    def test_step_before_static_definition(self, tmp_path):
        path = tmp_path / "dangling.trace"
        meta = json.dumps(_meta()).encode()
        body = (struct.pack("<B", TAG_SEGMENT)
                + struct.pack("<I", len(meta)) + meta
                + struct.pack("<B", TAG_STEP) + struct.pack("<I", 0))
        path.write_bytes(struct.pack("<8sHHI", MAGIC, TRACE_VERSION, 0, 2)
                         + b"{}" + body)
        with pytest.raises(TraceError, match="before its definition"):
            TraceReader(path).read()

    def test_unknown_tag(self, tmp_path):
        path = tmp_path / "tag.trace"
        meta = json.dumps(_meta()).encode()
        body = (struct.pack("<B", TAG_SEGMENT)
                + struct.pack("<I", len(meta)) + meta
                + struct.pack("<B", 0x7F))
        path.write_bytes(struct.pack("<8sHHI", MAGIC, TRACE_VERSION, 0, 2)
                         + b"{}" + body)
        with pytest.raises(TraceError, match="unknown record tag"):
            TraceReader(path).read()

    def test_unknown_opcode_number(self, tmp_path):
        path = tmp_path / "opcode.trace"
        meta = json.dumps(_meta()).encode()
        static = struct.pack("<IBBBBiIB", 0x400000, 250, 0, 0, 0, 0,
                             0xFFFFFFFF, 0)
        body = (struct.pack("<B", TAG_SEGMENT)
                + struct.pack("<I", len(meta)) + meta
                + struct.pack("<B", TAG_STATIC) + static)
        path.write_bytes(struct.pack("<8sHHI", MAGIC, TRACE_VERSION, 0, 2)
                         + b"{}" + body)
        with pytest.raises(TraceError, match="unknown opcode number 250"):
            TraceReader(path).read()

    def test_register_past_31_rejected(self, tmp_path):
        from repro.trace.format import _OP_TO_NUM
        path = tmp_path / "register.trace"
        meta = json.dumps(_meta()).encode()
        static = struct.pack("<IBBBBiIB", 0x400000,
                             _OP_TO_NUM[Opcode.ADD], 40, 0, 0, 0,
                             0xFFFFFFFF, 0)  # rd = 40
        body = (struct.pack("<B", TAG_SEGMENT)
                + struct.pack("<I", len(meta)) + meta
                + struct.pack("<B", TAG_STATIC) + static)
        path.write_bytes(struct.pack("<8sHHI", MAGIC, TRACE_VERSION, 0, 2)
                         + b"{}" + body)
        with pytest.raises(TraceError, match="register number past 31"):
            TraceReader(path).read()

    def test_direct_control_without_target_rejected(self, tmp_path):
        from repro.trace.format import _OP_TO_NUM
        path = tmp_path / "notarget.trace"
        meta = json.dumps(_meta()).encode()
        static = struct.pack("<IBBBBiIB", 0x400000,
                             _OP_TO_NUM[Opcode.J], 0, 0, 0, 0,
                             0xFFFFFFFF, 0)  # a jump with no target
        body = (struct.pack("<B", TAG_SEGMENT)
                + struct.pack("<I", len(meta)) + meta
                + struct.pack("<B", TAG_STATIC) + static)
        path.write_bytes(struct.pack("<8sHHI", MAGIC, TRACE_VERSION, 0, 2)
                         + b"{}" + body)
        with pytest.raises(TraceError, match="has no target"):
            TraceReader(path).read()

    def test_unwritable_output_is_a_trace_error(self, tmp_path):
        with pytest.raises(TraceError, match="cannot write"):
            TraceWriter(tmp_path / "no_such_dir" / "x.trace", header={})

    def test_aborted_writer_deletes_the_partial_file(self, tmp_path):
        path = tmp_path / "partial.trace.gz"
        with pytest.raises(RuntimeError):
            with TraceWriter(path, header={}) as writer:
                writer.begin_segment(_meta())
                raise RuntimeError("recording died")
        assert not path.exists()

    def test_write_step_outside_segment(self, tmp_path):
        writer = TraceWriter(tmp_path / "w.trace", header={})
        instr = Instruction(Opcode.NOP)
        with pytest.raises(TraceError, match="outside a segment"):
            writer.write_record(0x400000, instr, -1)
        writer.close()


class TestFileDigest:
    def test_digest_tracks_content(self, tmp_path):
        path = tmp_path / "d.trace"
        path.write_bytes(b"aaa")
        first = file_digest(path)
        assert first == file_digest(path)  # memoized, stable
        path.write_bytes(b"bbbb")  # new size: stat signature must change
        assert file_digest(path) != first

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TraceError, match="cannot stat"):
            file_digest(tmp_path / "absent")


class TestInfo:
    """``info`` counts each segment with the skip scan: the same counts
    as an eager decode, without building the decoded trace."""

    @staticmethod
    def _sources(tmp_path):
        golden = Path(__file__).parent / "golden" / "mesa.trace.gz"
        imported = import_trace(
            "eio", Path(__file__).parent / "fixtures" / "twopage.eio.txt",
            tmp_path / "eio.trace.gz")
        assert imported["steps"] > 0
        return [golden, tmp_path / "eio.trace.gz",
                _write_sample(tmp_path / "sample.trace")]

    def test_counts_equal_the_eager_decode(self, tmp_path):
        for path in self._sources(tmp_path):
            info = TraceReader(path).info()
            trace = TraceReader(path).read()
            assert info["header"] == trace.header
            assert info["digest"] == file_digest(path)
            assert [(s["binary"], s["steps"], s["distinct_instructions"],
                     s["meta"]) for s in info["segments"]] == [
                (s.binary, s.steps, len(s.instructions), s.meta)
                for s in trace.segments], path

    def test_builds_no_instruction(self, tmp_path, monkeypatch):
        paths = self._sources(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("info() built an Instruction")

        monkeypatch.setattr(trace_format, "Instruction", refuse)
        for path in paths:
            assert TraceReader(path).info()["segments"]
        with pytest.raises(AssertionError, match="built an Instruction"):
            TraceReader(paths[0]).read()  # the patch does bite a decode


def _write_pass_step_by_step(writer, program, budget):
    """The reference for :func:`write_pass`: the same pass written one
    :meth:`TraceWriter.write_record` call per step."""
    writer.begin_segment(program_meta(
        program, "instrumented" if program.instrumented else "plain"))
    source = program.window_source(budget)
    try:
        useful = 0
        for pc, instr, aux in (iter_steps(source) if budget > 0 else ()):
            writer.write_record(pc, instr, aux)
            if instr.kind_code == 14:  # HALT
                break
            if not instr.is_boundary_branch:
                useful += 1
                if useful == budget:
                    break
    finally:
        source.close()
    writer.end_segment()


def _pass_bytes(path, write, program, budget) -> bytes:
    with TraceWriter(path, header={"workload": "t"}) as writer:
        write(writer, program, budget)
    return path.read_bytes()


def _hand_stream(halt: bool):
    """Statics and steps reaching every record shape: each aux payload,
    boundary steps (two in a row), a static first seen past step 60,
    and — with ``halt`` — a HALT followed by further steps.  The static
    list is not in first-execution order, so a writer must renumber
    statics by pc, not copy the source's indices."""
    statics = [
        (0x400000, Instruction(Opcode.ADDI, rd=8, rs=8, imm=1)),
        (0x400004, Instruction(Opcode.LW, rd=9, rs=8)),
        (0x400008, Instruction(Opcode.BNE, rs=8, target=0x400000)),
        (0x40000C, Instruction(Opcode.J, target=0x401000,
                               is_boundary_branch=True)),
        (0x400010, Instruction(Opcode.JR, rs=31)),
        (0x400018, Instruction(Opcode.HALT)),
        (0x400014, Instruction(Opcode.SW, rd=9, rs=8)),
    ]
    steps = []
    for rep in range(12):
        steps += [(0, -1), (1, 0x10000000 + 4 * rep), (2, rep % 2),
                  (3, -1), (3, -1), (4, 0x400000)]
        if rep >= 10:
            steps.append((6, 0x10000100))  # first seen at step 66
    if halt:
        steps += [(5, -1), (0, -1), (1, 0x10000000)]
    return statics, steps


def _hand_program(tmp_path, halt: bool, window_steps: int = 0):
    """:func:`_hand_stream` as a replay program: in memory, or read
    back from a file in ``window_steps``-step windows."""
    statics, steps = _hand_stream(halt)
    segment = TraceSegment(
        meta=_meta(text_words=8), pcs=[pc for pc, _ in statics],
        instructions=[instr for _, instr in statics],
        index=array("q", [index for index, _ in steps]),
        aux=array("q", [aux for _, aux in steps]))
    if not window_steps:
        return ReplayProgram(segment), steps
    path = tmp_path / f"hand{int(halt)}.trace"
    with TraceWriter(path, header={}) as writer:
        writer.begin_segment(segment.meta)
        for index, aux in zip(segment.index, segment.aux):
            writer.write_record(statics[index][0], statics[index][1], aux)
    trace = load_trace(path, stream=COLUMN_BYTES_PER_STEP * window_steps)
    assert trace.segments[0].window_steps == window_steps
    return ReplayProgram(trace.segments[0]), steps


class TestBulkWriter:
    """A pass written from the stream columns (:func:`write_pass` via
    :meth:`TraceWriter.write_columns`) is byte for byte the pass
    written one record at a time, however the windows and the cut
    fall."""

    @pytest.mark.parametrize("window_steps", [0, 1, 7, 64])
    @pytest.mark.parametrize("halt", [False, True])
    def test_every_budget_matches_step_by_step(self, tmp_path, halt,
                                               window_steps):
        """Every budget from 0 up: the cut falls mid-window, on a
        boundary step, at a HALT with steps after it (``halt``), and a
        static appears first in a later window (step 66 of 7-step
        windows)."""
        program, steps = _hand_program(tmp_path, halt, window_steps)
        useful = sum(index != 3 for index, _ in steps)
        for budget in range(useful + 1 if not halt else len(steps) + 2):
            bulk = _pass_bytes(tmp_path / "bulk.trace", write_pass,
                               program, budget)
            single = _pass_bytes(tmp_path / "single.trace",
                                 _write_pass_step_by_step, program, budget)
            assert bulk == single, (budget, window_steps)

    @pytest.mark.parametrize("window_steps", [0, 7])
    def test_a_budget_past_the_stream_is_exhausted(self, tmp_path,
                                                   window_steps):
        program, steps = _hand_program(tmp_path, False, window_steps)
        useful = sum(index != 3 for index, _ in steps)
        with pytest.raises(TraceError,
                           match=f"exhausted after {len(steps)} "):
            _pass_bytes(tmp_path / "x.trace", write_pass, program,
                        useful + 1)

    def test_budget_cuts_a_memoized_stream_mid_window(self, tmp_path):
        """A program keeps its stream for the largest budget asked, so
        a shorter pass cuts its one in-memory window; the instrumented
        binary's boundary steps shift the cut."""
        program = resolve("micro.straight_line").link(page_bytes=4096,
                                                      instrumented=True)
        assert program.stream(5000).steps > 5000  # boundary steps
        for budget in (1, 1022, 1023, 2500, 4999):
            assert (_pass_bytes(tmp_path / "bulk.trace.gz", write_pass,
                                program, budget)
                    == _pass_bytes(tmp_path / "single.trace.gz",
                                   _write_pass_step_by_step, program,
                                   budget))

    @staticmethod
    def _recorded_both_ways(tmp_path, monkeypatch, workload, **window):
        """``record_trace`` to two files: as it is, and with every pass
        written step by step."""
        bulk = tmp_path / "bulk.trace.gz"
        record_trace(workload, default_config(), path=bulk, **window)
        with monkeypatch.context() as patch:
            patch.setattr(trace_record, "write_pass",
                          _write_pass_step_by_step)
            single = tmp_path / "single.trace.gz"
            record_trace(workload, default_config(), path=single, **window)
        return bulk, single

    def test_trace_re_record_under_tiny_windows(self, tmp_path,
                                                monkeypatch):
        """Re-recording a ``trace:`` workload walks its file in windows
        (97 steps each here): many windows per pass, statics arriving
        in later windows."""
        monkeypatch.setenv("REPRO_TRACE_WINDOW",
                           str(97 * COLUMN_BYTES_PER_STEP))
        assert load_trace(GOLDEN_MESA).window_steps == 97
        bulk, single = self._recorded_both_ways(
            tmp_path, monkeypatch, f"trace:{GOLDEN_MESA}",
            instructions=2500, warmup=400)
        assert bulk.read_bytes() == single.read_bytes()

    def test_four_segment_recording_and_its_events(self, tmp_path,
                                                   monkeypatch):
        """A ``page_sizes=`` recording: two binaries at two page sizes,
        each segment announced by one ``trace.record`` event whose
        ``bytes`` add up to the file's uncompressed items."""
        log = tmp_path / "events.jsonl"
        telemetry.configure(level="debug", json_path=str(log),
                            propagate=False)
        try:
            bulk, single = self._recorded_both_ways(
                tmp_path, monkeypatch, "177.mesa", instructions=1500,
                warmup=300, page_sizes=[8192])
        finally:
            telemetry.disable()
        assert bulk.read_bytes() == single.read_bytes()
        info = TraceReader(bulk).info()
        assert [(s["binary"], s["meta"]["page_bytes"])
                for s in info["segments"]] == [
            ("plain", 4096), ("instrumented", 4096),
            ("plain", 8192), ("instrumented", 8192)]
        events = [event for event in map(json.loads,
                                         log.read_text().splitlines())
                  if event["event"] == "trace.record"]
        # the reference recording bypasses write_pass's seam too, but
        # the seam is in record_trace: both recordings announce theirs
        assert len(events) == 8
        first = events[:4]
        assert [(e["binary"], e["page_bytes"], e["steps"])
                for e in first] == [
            (s["binary"], s["meta"]["page_bytes"], s["steps"])
            for s in info["segments"]]
        assert all(e["seconds"] >= 0 for e in first)
        body = gzip.decompress(bulk.read_bytes())
        header = len(json.dumps(info["header"], sort_keys=True))
        assert sum(e["bytes"] for e in first) \
            == len(body) - struct.calcsize("<8sHHI") - header - 1

    def test_abort_before_the_first_hand_off_leaves_no_file(self,
                                                            tmp_path):
        path = tmp_path / "partial.trace"
        writer = TraceWriter(path, header={})
        writer.begin_segment(_meta())
        for step in range(1000):
            writer.write_record(0x400000, Instruction(Opcode.NOP), -1)
        assert path.stat().st_size == 0  # all of it still buffered
        writer.abort()
        assert not path.exists()

    #: the converted fixtures' sha256, as the step-by-step writer made
    #: them: the importers write each record through the same buffer
    CONVERTED_SHA256 = {
        "champsim": ("branchy.champsim.bin.gz", "63665477d82cee54060145ff"
                     "929b0bc7bdfcf77f5d709d6bb4f4e25a7704c348"),
        "eio": ("twopage.eio.txt", "f9155f16d1876dea074a7e2b8b94f385460573"
                "f87142ec28de4675b82b778933"),
        "gem5": ("loopcall.gem5.txt.gz", "f9473a261fa655ad6c80956d23332153"
                 "db8c7791cc11a289a82554f882c0a3d4"),
    }

    @pytest.mark.parametrize("fmt", sorted(CONVERTED_SHA256))
    def test_fixture_conversions_keep_their_bytes(self, tmp_path, fmt):
        source, sha256 = self.CONVERTED_SHA256[fmt]
        out = tmp_path / f"{fmt}.trace.gz"
        import_trace(fmt, FIXTURES / source, out)
        assert file_digest(out) == sha256
