"""Recording: write a workload's committed streams to a trace.

A fast-engine pass consumes its program's committed stream, which the
program keeps once built (see :meth:`repro.isa.program.Program.stream`):
the plain binary executes once, and each instrumented binary's stream is
derived from the plain one.  Recording is therefore no engine feature
and runs no evaluation: :func:`record_trace` links each binary and
writes its stream — the first ``warmup + instructions`` useful
instructions of it — through a :class:`~repro.trace.format.TraceWriter`,
one segment per binary, each static at the pc its steps carry.  The
writer takes the stream's columns a window at a time, not step by step
(:func:`write_pass`).  To compare a replay against the live run, run
the live workload with :func:`~repro.sim.multi.run_all_schemes`.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

from repro.config import MachineConfig
from repro.trace.format import TraceWriter, program_meta, trace_exhausted
from repro.workloads.synthetic import link_slot


def _window_cut(cols, need: int) -> Tuple[int, int]:
    """Where a pass that still needs ``need`` useful (non-boundary)
    steps stops in the window ``cols``.

    Returns ``(stop, left)``: the pass takes steps ``[0, stop)``.  When
    its ``need``-th useful step or a HALT falls in the window, ``stop``
    is just past it and ``left`` is 0; otherwise ``stop`` is the
    window's length and ``left`` the useful steps still needed."""
    n = cols.steps
    tables = cols.tables
    # per step, read through its static index: 2 for a HALT, 1 for a
    # boundary branch, else 0
    code = bytes(2 if kind == 14 else boundary
                 for kind, boundary in zip(tables.kind, tables.boundary))
    marks = bytes(map(code.__getitem__, cols.index))
    halt = marks.find(2)
    if halt < 0:
        halt = n
    # the need-th useful step sits one slot later per boundary step
    # at or before it
    last = need - 1
    seen = 0
    while True:
        extra = marks.count(1, seen, last + 1)
        if not extra:
            break
        seen = last + 1
        last += extra
    end = min(last, halt)
    if end < n:
        return end + 1, 0
    return n, last - n + 1


def write_pass(writer: TraceWriter, program, budget: int) -> int:
    """Write ``program``'s committed stream as one segment: every step
    up to the ``budget``-th useful (non-boundary) instruction, or up to
    a HALT — exactly the steps a fast-engine pass of that window
    retires.  Returns the steps written.

    The stream is walked window by window: each window's cut comes
    from the kinds and boundary bits of its statics, and its leading steps go
    to :meth:`~repro.trace.format.TraceWriter.write_columns` in one
    call."""
    binary = "instrumented" if program.instrumented else "plain"
    writer.begin_segment(program_meta(program, binary))
    steps = 0
    if budget > 0:
        source = program.window_source(budget)
        try:
            need = budget
            while need:
                cols = source.next_window()
                if cols is None:
                    raise trace_exhausted(steps)
                stop, need = _window_cut(cols, need)
                writer.write_columns(cols, source.instructions, stop)
                steps += stop
        finally:
            source.close()
    writer.end_segment()
    return steps


def record_trace(workload, config: MachineConfig, *,
                 instructions: int, warmup: int = 0,
                 path: Union[str, Path],
                 page_sizes: Optional[Sequence[int]] = None) -> None:
    """Record ``workload``'s committed streams (both binaries) to
    ``path``.

    ``workload`` is a registry name or a workload object.  The recorded
    window is ``warmup + instructions`` useful instructions per binary —
    a replay can use any window up to that size.  Only ``config``'s page
    size binds the trace: any machine at that page size can replay it.
    ``page_sizes`` records additional binary pairs linked at other page
    sizes (the instrumented binary's layout, hence its committed stream,
    depends on the page size; the plain stream does not, and each size's
    plain segment repeats it under that size), so one trace file can
    serve the page-size sensitivity sweep.

    Each segment written emits a debug ``trace.record`` event
    (``binary``, ``page_bytes``, ``steps``, uncompressed ``bytes``, and
    ``seconds``).  No engine pass runs, so writing a segment also builds
    its stream unless an earlier segment did — it executes the program,
    derives the stream from the plain one, or decodes the trace — and
    its ``seconds`` then covers that build as well as the write (the
    ``program.stream`` event times a live program's build on its own).
    The writer's last buffer hand-off, at close, falls in no segment.
    """
    from repro.telemetry import emit

    if isinstance(workload, str):
        from repro.workloads.registry import resolve
        workload = resolve(workload)
    sizes = [config.mem.page_bytes]
    for size in page_sizes or ():
        if size not in sizes:
            sizes.append(size)
    header = {
        "format": "repro-itlb instruction trace",
        "workload": workload.profile.name,
        "instructions": instructions,
        "warmup": warmup,
        "page_bytes": config.mem.page_bytes,
        "page_sizes": sizes,
    }
    budget = warmup + instructions
    # in the slot, the plain layout is linked and executed once; every
    # page size's binaries are made from it
    with TraceWriter(path, header=header) as writer, link_slot():
        for size in sizes:
            for instrumented in (False, True):
                program = workload.link(page_bytes=size,
                                        instrumented=instrumented)
                before = writer.bytes_written
                started = time.perf_counter()
                steps = write_pass(writer, program, budget)
                emit("trace.record", level="debug",
                     binary="instrumented" if instrumented else "plain",
                     page_bytes=size, steps=steps,
                     bytes=writer.bytes_written - before,
                     seconds=round(time.perf_counter() - started, 6))
