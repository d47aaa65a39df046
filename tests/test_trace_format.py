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
from pathlib import Path

import pytest

from repro.cpu.functional import StepResult
from repro.errors import TraceError
from repro.isa.instructions import Instruction, Opcode
from repro.trace import format as trace_format
from repro.trace import import_trace
from repro.trace.format import (
    MAGIC,
    TAG_SEGMENT,
    TAG_STATIC,
    TAG_STEP,
    TRACE_VERSION,
    TraceReader,
    TraceWriter,
    file_digest,
    load_trace,
)


def _meta(**overrides):
    meta = {
        "binary": "plain", "name": "t", "text_base": 0x400000,
        "text_words": 4, "data_base": 0x10000000, "data_size": 0,
        "entry": 0x400000, "page_bytes": 4096, "instrumented": False,
        "boundary_branch_count": 0,
    }
    meta.update(overrides)
    return meta


def _step(instr, pc, **kw):
    defaults = dict(pc=pc, next_pc=pc + 4,
                    taken=False, mem_addr=None, is_store=False)
    defaults.update(kw)
    return StepResult(instr=instr, **defaults)


def _write_sample(path):
    """A small two-segment trace exercising every aux payload."""
    alu = Instruction(Opcode.ADDI, rd=8, rs=8, imm=1)
    load = Instruction(Opcode.LW, rd=9, rs=8, imm=0)
    br = Instruction(Opcode.BNE, rs=8, rt=0, target=0x400000)
    ret = Instruction(Opcode.JR, rs=31)
    with TraceWriter(path, header={"workload": "sample",
                                   "instructions": 4}) as writer:
        writer.begin_segment(_meta())
        writer.write_step(_step(alu, 0x400000))
        writer.write_step(_step(load, 0x400004, mem_addr=0x10000000))
        writer.write_step(_step(br, 0x400008, taken=True,
                                next_pc=0x400000))
        writer.write_step(_step(alu, 0x400000))
        writer.write_step(_step(ret, 0x40000C, taken=True,
                                next_pc=0x400010))
        writer.begin_segment(_meta(binary="instrumented",
                                   instrumented=True))
        writer.write_step(_step(alu, 0x400000))
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
            writer.write_step(_step(instr, 0x400000))
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
            trace = load_trace(path, use_cache=False)
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
