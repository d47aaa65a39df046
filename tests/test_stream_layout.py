"""The decoded stream layout: per step only an index, an aux payload and
an event-map byte, and a window source that seeks to its segment.

Every per-step fact the fast engine reads must equal what the old
eleven-column build gave (:mod:`reference_columns`), on every registry
image, on the golden trace streamed in windows (so runs truncated at a
window edge), on the imported fixtures, and on an image of every opcode
with every mix of register 0 and a nonzero register in its operands (no
registry image executes ``CVTIF``, ``CVTFI``, ``FLW`` or ``FMOV``).  A
decoded window must hold
no more than :data:`~repro.trace.format.COLUMN_BYTES_PER_STEP` bytes per
step, and a streamed segment's source must parse nothing of the
segments before it.
"""

from __future__ import annotations

from itertools import product
from pathlib import Path

import pytest

from reference_columns import view_mismatches
from repro.config import default_config
from repro.errors import TraceError
from repro.isa.instructions import ANALYZABLE_KINDS, Instruction, Opcode
from repro.isa.program import TEXT_BASE
from repro.telemetry.metrics import collect
from repro.trace import format as trace_format
from repro.trace.format import (
    COLUMN_BYTES_PER_STEP,
    MemorySink,
    TraceReader,
    load_trace,
)
from repro.trace.importers import load_imported_workload
from repro.trace.record import record_trace
from repro.workloads.registry import resolve
from repro.workloads.synthetic import link_slot
from test_derived_binaries import WORKLOADS
from test_importers import FIXTURE_FOR

GOLDEN_MESA = Path(__file__).parent / "golden" / "mesa.trace.gz"


def _windows(segment):
    """Every window of a file-backed segment, with its source."""
    source = segment.window_source()
    try:
        while (window := source.next_window()) is not None:
            yield source, window
    finally:
        source.close()


def _every_opcode_segment():
    """One step of each static: every opcode with each of ``rd``,
    ``rs`` and ``rt`` set to 0 or 5."""
    sink = MemorySink()
    sink.begin_segment({})
    pc = TEXT_BASE
    for op in Opcode:
        for rd, rs, rt in product((0, 5), repeat=3):
            target = pc + 64 if op.kind in ANALYZABLE_KINDS else None
            aux = pc + 8 if op in (Opcode.JR, Opcode.JALR) else rs & 1
            sink.write_record(pc, Instruction(op, rd=rd, rs=rs, rt=rt,
                                              target=target), aux)
            pc += 4
    return sink.segments[0]


class TestSameFactsAsTheElevenColumns:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_registry_image(self, name):
        workload = resolve(name)
        with link_slot():
            for page_bytes in (4096, 65536):
                for instrumented in (False, True):
                    segment = workload.link(
                        page_bytes=page_bytes,
                        instrumented=instrumented).stream(2500)
                    assert view_mismatches(
                        segment.columns(), segment.instructions,
                        segment.pcs) == [], (page_bytes, instrumented)

    @pytest.mark.parametrize("window_steps", [1, 7, 97])
    def test_golden_trace_streamed(self, window_steps):
        trace = load_trace(GOLDEN_MESA,
                           stream=window_steps * COLUMN_BYTES_PER_STEP)
        eager = TraceReader(GOLDEN_MESA).read()
        truncated = 0
        for segment, whole in zip(trace.segments, eager.segments):
            steps = 0
            for source, window in _windows(segment):
                assert view_mismatches(window, source.instructions,
                                       source.pcs) == [], steps
                steps += window.steps
                # a window ending on a plain step cuts that step's run
                truncated += window.events[-1] == 0
            assert steps == whole.steps
        assert truncated

    def test_every_opcode_and_register_corner(self):
        segment = _every_opcode_segment()
        assert segment.steps == 8 * len(Opcode)
        assert view_mismatches(segment.columns(), segment.instructions,
                               segment.pcs) == []

    @pytest.mark.parametrize("fmt", sorted(FIXTURE_FOR))
    def test_imported_fixture(self, fmt):
        workload = load_imported_workload(fmt, FIXTURE_FOR[fmt])
        segment = workload.link(page_bytes=4096).segment
        assert segment.steps
        assert view_mismatches(segment.columns(), segment.instructions,
                               segment.pcs) == []


class TestWindowBytes:
    @pytest.mark.parametrize("window_steps", [1, 7, 97])
    def test_window_within_its_budget(self, window_steps):
        trace = load_trace(GOLDEN_MESA,
                           stream=window_steps * COLUMN_BYTES_PER_STEP)
        peak = 0
        with collect() as metrics:
            for segment in trace.segments:
                for _, window in _windows(segment):
                    assert window.steps <= window_steps
                    assert (window.nbytes()
                            <= COLUMN_BYTES_PER_STEP * window.steps)
                    peak = max(peak, window.nbytes())
        # the telemetry reports what the windows measured
        assert metrics.stream_peak_bytes == peak

    def test_eager_segment_within_its_budget(self):
        for segment in TraceReader(GOLDEN_MESA).read().segments:
            cols = segment.columns()
            assert cols.nbytes() <= COLUMN_BYTES_PER_STEP * cols.steps


def _record(path, name="micro.counted_loop", page_sizes=None):
    record_trace(name, default_config(), instructions=1500, warmup=300,
                 path=path, page_sizes=page_sizes)


class TestSegmentSeek:
    @pytest.mark.parametrize("suffix", [".trace.gz", ".trace"])
    @pytest.mark.parametrize("page_sizes", [None, [8192]],
                             ids=["two-segments", "four-segments"])
    def test_source_parses_no_earlier_segment(self, tmp_path, monkeypatch,
                                              suffix, page_sizes):
        path = tmp_path / f"loop{suffix}"
        _record(path, page_sizes=page_sizes)
        trace = load_trace(path, stream=64 * COLUMN_BYTES_PER_STEP)
        assert len(trace.segments) == 2 * (1 + len(page_sizes or ()))
        segment = trace.segments[-1]
        assert segment.binary == "instrumented"
        assert segment.offset > trace.segments[-2].offset > 0

        starts = []
        parse = trace_format._parse_items

        def counting(reader, *args, **kwargs):
            starts.append(reader.tell())
            return parse(reader, *args, **kwargs)

        monkeypatch.setattr(trace_format, "_parse_items", counting)
        windows = sum(1 for _ in _windows(segment))
        assert windows > 1
        # one parse per window, plus the empty one that finds the end
        # tag when the last window was full; none before the segment
        assert len(starts) - windows in (0, 1)
        assert min(starts) > segment.offset

    @pytest.mark.parametrize("rewrite", ["fewer-segments", "other-trace"])
    def test_trace_rewritten_after_the_index_walk(self, tmp_path, rewrite):
        path = tmp_path / "loop.trace.gz"
        _record(path, page_sizes=[8192])
        trace = load_trace(path, stream=64 * COLUMN_BYTES_PER_STEP)
        if rewrite == "fewer-segments":
            _record(path)
        else:
            _record(path, name="micro.straight_line", page_sizes=[8192])
        with pytest.raises(TraceError, match="rewritten"):
            trace.segments[-1].window_source()
