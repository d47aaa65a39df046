"""Recording: write the committed stream of a live run to a trace.

A fast-engine pass consumes its program's committed stream, which the
program keeps once it has executed (see
:meth:`repro.isa.program.Program.window_source`).  Recording is
therefore no engine feature: :func:`record_trace` runs the standard
two-pass :func:`~repro.sim.multi.run_all_schemes` evaluation, then
writes each pass's stream — the first ``warmup + instructions`` useful
instructions of it — through a
:class:`~repro.trace.format.TraceWriter`, one segment per binary.  It
returns the live run, so callers can immediately check record→replay
equivalence.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Union

from repro.config import MachineConfig, SchemeName
from repro.trace.format import TraceWriter, iter_steps, program_meta
from repro.workloads.synthetic import link_slot


def write_pass(writer: TraceWriter, program, budget: int) -> None:
    """Write ``program``'s committed stream as one segment: every step
    up to the ``budget``-th useful (non-boundary) instruction, or up to
    a HALT — exactly the steps a fast-engine pass of that window
    retires."""
    binary = "instrumented" if program.instrumented else "plain"
    writer.begin_segment(program_meta(program, binary))
    source = program.window_source(budget)
    try:
        useful = 0
        steps = iter_steps(source) if budget > 0 else ()
        for instr, aux in steps:
            writer.write_record(instr, aux)
            if instr.kind_code == 14:  # HALT
                break
            if not instr.is_boundary_branch:
                useful += 1
                if useful == budget:
                    break
    finally:
        source.close()
    writer.end_segment()


def record_trace(workload, config: MachineConfig, *,
                 instructions: int, warmup: int = 0,
                 path: Union[str, Path],
                 schemes: Optional[Sequence[SchemeName]] = None,
                 page_sizes: Optional[Sequence[int]] = None):
    """Run ``workload`` live (both binaries) while recording it to
    ``path``; returns the live :class:`~repro.sim.multi.CombinedRun`.

    ``workload`` is a registry name or a workload object.  The recorded
    window is ``warmup + instructions`` useful instructions per binary —
    a replay can use any window up to that size.  ``page_sizes`` records
    additional binary pairs linked at other page sizes (the committed
    stream depends on the layout, hence on the page size), so one trace
    file can serve the page-size sensitivity sweep; the returned run is
    always the one at ``config``'s own page size.
    """
    from repro.sim.multi import run_all_schemes

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
    # the slot hands the writer the very programs the passes ran on,
    # whose streams are already executed
    with TraceWriter(path, header=header) as writer, link_slot():
        primary = None
        for size in sizes:
            sized = (config if size == config.mem.page_bytes
                     else config.with_page_bytes(size))
            run = run_all_schemes(
                workload, sized, instructions=instructions, warmup=warmup,
                schemes=schemes)
            binaries = [False]
            if run.instrumented is not run.plain:
                binaries.append(True)
            for instrumented in binaries:
                write_pass(writer, workload.link(
                    page_bytes=size, instrumented=instrumented), budget)
            if size == config.mem.page_bytes:
                primary = run
        return primary
