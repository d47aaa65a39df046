"""Replay: run a recorded trace through the live simulation machinery.

A :class:`TraceWorkload` is a drop-in workload: ``link()`` yields a
:class:`ReplayProgram` whose window source hands the engine the recorded
stream instead of the stream of a functional execution.  Because the
fast engine derives *everything* — iTLB scheme decisions, cache and
predictor behaviour, page-crossing classification, timing — from the
committed stream plus deterministic address-space construction, a
replay is bit-identical to the live run it was recorded from (the
record→replay equivalence suite in ``tests/test_trace_replay.py`` pins
this per workload).

Replays are valid for any simulation window up to the recorded one and
for any machine configuration sharing the trace's page size: the
committed stream is purely architectural, so iTLB sizes, scheme sets,
iL1 addressing disciplines, and energy models can all be swept over one
trace file.  The detailed out-of-order engine is *not* replayable — it
fetches speculative wrong-path instructions the committed stream does
not contain — and fails with a :class:`~repro.errors.TraceError`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.errors import TraceError
from repro.isa.instructions import Instruction
from repro.isa.program import Program
from repro.trace.format import TraceFile, TraceSegment, load_trace
from repro.workloads.synthetic import WorkloadProfile


class ReplayProgram(Program):
    """A program reconstructed from a trace segment's metadata.

    Carries the geometry (text/data extents, entry, page size) that
    makes address-space construction — and thus VPN→PFN assignment —
    identical to the recorded run, but no static text: replay only ever
    sees the committed stream.
    """

    def __init__(self, segment: TraceSegment) -> None:
        meta = segment.meta
        super().__init__(
            text_base=meta["text_base"],
            instructions=[],
            labels={},
            data_base=meta["data_base"],
            data_words={},
            data_size=meta["data_size"],
            entry=meta["entry"],
            page_bytes=meta["page_bytes"],
            instrumented=meta.get("instrumented", False),
            boundary_branch_count=meta.get("boundary_branch_count", 0),
            name=meta.get("name", "trace"),
        )
        self.segment = segment
        self._text_words = meta["text_words"]

    # geometry comes from the metadata, not the (empty) instruction list

    @property
    def text_size(self) -> int:
        return 4 * self._text_words

    def __len__(self) -> int:
        return self._text_words

    def fetch(self, pc: int) -> Instruction:
        raise TraceError(
            "replay programs carry no static text: only the committed "
            "stream was recorded, so the detailed (ooo) engine and other "
            "wrong-path consumers cannot run a trace — use the fast engine")

    def make_executor(self, space):
        raise TraceError(
            "replay programs carry no executor: only the committed "
            "stream was recorded, so the detailed (ooo) engine cannot "
            "run a trace — use the fast engine")

    def window_source(self, budget: int):
        """The recorded stream, whatever ``budget`` is: the engine stops
        at its window, and raises past the end of the recording."""
        return self.segment.window_source()


class TraceWorkload:
    """A recorded trace, usable wherever a generated workload is.

    ``profile.name`` is the *recorded* workload's name, so a replayed
    :class:`~repro.sim.multi.CombinedRun` is indistinguishable from —
    and bit-identical to — the live run it captures.
    """

    def __init__(self, path: Union[str, Path],
                 trace: TraceFile) -> None:
        self.path = Path(path)
        self.trace = trace
        self.profile = WorkloadProfile(name=trace.workload_name)

    def link(self, *, page_bytes: int = 4096,
             instrumented: bool = False) -> ReplayProgram:
        """The replay image for one recorded binary pass."""
        segment = self.trace.segment_for(instrumented=instrumented,
                                         page_bytes=page_bytes)
        return ReplayProgram(segment)

    def describe(self) -> str:
        lines = [f"trace {self.path} ({self.profile.name})"]
        lines.extend(f"  {segment.describe()}"
                     for segment in self.trace.segments)
        return "\n".join(lines)


def load_trace_workload(path: Union[str, Path]) -> TraceWorkload:
    """Read ``path`` and wrap it as a workload (raises
    :class:`~repro.errors.TraceError` on any malformed input).

    The decode goes through the per-process LRU in
    :func:`repro.trace.format.load_trace`: resolving the same trace for
    every job of a sweep re-reads the file's *bytes* only to digest them
    (cheap, stat-memoized) and shares one decoded :class:`TraceFile` —
    keyed by content, so an edited trace is still never served stale."""
    return TraceWorkload(path, load_trace(path))
