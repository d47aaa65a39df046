"""Observability for the simulator and its fleet.

Three layers, smallest first:

* :mod:`repro.telemetry.core` — the instrumentation primitives
  (:func:`emit` / :func:`count` / :func:`span`), structured JSONL event
  logging behind the global ``--log-level`` / ``--log-json`` CLI flags.
  Disabled by default and deliberately boring when disabled: one
  integer compare per call site, no per-instruction call sites at all.
* :mod:`repro.telemetry.metrics` — always-on per-job phase accounting
  (decode / simulate / store-write wall time, instr/sec, evaluator,
  trace-LRU hits), attached to ``JobResult.metrics``, persisted into
  result-store entries, aggregated per sweep.
* :mod:`repro.telemetry.status` — the fleet dashboard behind
  ``repro status <queue-dir>`` (queue depth, worker liveness and
  throughput, stale leases, error tail) with one-shot ``--json`` and a
  Prometheus-style textfile export; imported lazily by the CLI, not
  here, because it reads the queue layout owned by
  :mod:`repro.runner.backends.filequeue` (which itself instruments
  through this package).

``repro.telemetry`` observes; it never participates.  The off-path
equivalence suite pins simulation results bit-identical whether
telemetry is off, on, or screaming at debug level.
"""

from repro.telemetry.core import (
    ENV_JSON,
    ENV_LEVEL,
    LEVELS,
    configure,
    configure_from_env,
    count,
    counters,
    disable,
    emit,
    enabled,
    level_name,
    listen,
    span,
)
from repro.telemetry.metrics import (
    JobMetrics,
    active,
    aggregate,
    collect,
    note_decode,
    note_engine,
    note_stream_window,
)

__all__ = [
    "ENV_JSON",
    "ENV_LEVEL",
    "JobMetrics",
    "LEVELS",
    "active",
    "aggregate",
    "collect",
    "configure",
    "configure_from_env",
    "count",
    "counters",
    "disable",
    "emit",
    "enabled",
    "level_name",
    "listen",
    "note_decode",
    "note_engine",
    "note_stream_window",
    "span",
]
