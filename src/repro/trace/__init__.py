"""Trace-driven workloads: record, inspect, and replay instruction streams.

The paper's evaluation is driven by instruction streams; this subsystem
makes streams first-class.  :func:`~repro.trace.record.record_trace`
writes the committed streams of any workload into a versioned,
self-describing binary file (:mod:`repro.trace.format`), and
:class:`~repro.trace.replay.TraceWorkload` replays such a file through
the unchanged TLB/cache/branch/energy machinery — bit-identical to the
live run, and sweepable over any configuration that shares the trace's
page size.

Trace files enter the rest of the system by *name*: the workload
registry resolves ``trace:<path>``, and :class:`~repro.runner.JobSpec`
content-addresses such workloads by the file's SHA-256
(:func:`~repro.trace.format.file_digest`), so the ResultStore can never
serve stale results for an edited trace.  Foreign streams (SimpleScalar
EIO text, gem5 ``Exec`` logs) enter through
:mod:`repro.trace.importers` — converted into this format once
(``repro trace import``) or on the fly (``import:<format>:<path>``
names).  The ``repro trace`` CLI (``record`` / ``info`` / ``import`` /
``formats``) fronts this module.
"""

from repro.trace.format import (
    TRACE_VERSION,
    SegmentColumns,
    TraceFile,
    TraceReader,
    TraceSegment,
    TraceWriter,
    clear_trace_cache,
    file_digest,
    load_trace,
    trace_window_bytes,
)
from repro.trace.importers import (
    ImportedTraceWorkload,
    available_formats,
    import_trace,
    load_imported_workload,
)
from repro.trace.record import record_trace
from repro.trace.replay import (
    ReplayProgram,
    TraceWorkload,
    load_trace_workload,
)

__all__ = [
    "TRACE_VERSION",
    "SegmentColumns",
    "TraceFile",
    "TraceReader",
    "TraceSegment",
    "TraceWorkload",
    "TraceWriter",
    "ImportedTraceWorkload",
    "ReplayProgram",
    "available_formats",
    "clear_trace_cache",
    "file_digest",
    "import_trace",
    "load_trace",
    "load_imported_workload",
    "load_trace_workload",
    "record_trace",
    "trace_window_bytes",
]
