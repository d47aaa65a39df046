"""Per-job phase metrics.

A :class:`JobMetrics` records *where a job's wall clock went* — trace
decode, engine execution, store write — plus throughput and the
evaluator that actually ran.  Collection is always on (the cost is a
handful of ``perf_counter`` reads per *job*, invisible next to a
simulation), independent of whether event logging is enabled; and the
numbers live strictly **outside** the simulation result: they ride on
:attr:`~repro.runner.sweep.JobResult.metrics` and in a result-store
entry's ``metrics`` key, never inside ``CombinedRun.to_dict()`` — so a
result's bytes (and therefore golden numbers, cache keys, and the
engine-equivalence suites) are identical with metrics on or off.

The collection seam is a module-global "current job" slot
(:func:`collect`): :func:`~repro.runner.backends.base.execute_spec`
opens it around one job, and the instrumented layers below —
:func:`~repro.trace.format.load_trace` (decode timing, LRU hit/miss)
and :meth:`~repro.sim.simulator.Simulator.run_program` (engine wall
time and identity) — report into whatever job is open, or to nowhere.
Jobs execute one at a time per process (backends parallelize across
*processes*), so a plain module global suffices.
"""

from __future__ import annotations

import dataclasses
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional


def _finite_rate(instructions: int, seconds: float) -> Optional[float]:
    """``instructions / seconds`` when that is a finite number; ``None``
    (JSON ``null``) when the rate is undefined — no measured time, or a
    denominator so small the quotient overflows to ``inf``.  ``0.0``
    only for the genuinely-idle case (nothing retired, no time)."""
    if seconds <= 0.0:
        return 0.0 if instructions == 0 else None
    rate = instructions / seconds
    return rate if math.isfinite(rate) else None


@dataclass
class JobMetrics:
    """Phase accounting for one executed job."""

    workload: str = ""
    #: the engine that ran the job's passes (``"fast"`` or ``"ooo"``)
    engine: str = ""
    started_at: float = 0.0  #: unix seconds the job began
    decode_seconds: float = 0.0  #: cold trace decode (gunzip + parse)
    decode_cold: int = 0  #: trace decodes that missed the process LRU
    decode_cached: int = 0  #: trace resolutions served by the LRU
    simulate_seconds: float = 0.0  #: engine execution, all passes
    passes: int = 0  #: engine passes (2 for a full all-scheme job)
    instructions: int = 0  #: retired across all passes (measured window)
    #: result serialization + store write; ``None`` until the entry is
    #: written (memory-only stores never set it).  The persisted copy
    #: necessarily excludes the final disk rename of its own write.
    store_write_seconds: Optional[float] = None
    total_seconds: float = 0.0  #: whole ``execute_spec`` wall clock
    #: members in the shared grid pass this job rode on (0 = a plain
    #: single-config job).  Grid members carry their 1/N share of the
    #: shared wall-clock phases but their full instruction count, so a
    #: member's throughput reads as the grid's *effective* throughput.
    grid_members: int = 0
    #: windows produced by streaming decode (0 = every trace this job
    #: touched decoded eagerly).  Streaming decode time folds into
    #: ``decode_seconds`` while ``decode_cold`` stays 0 — the
    #: cold-count/zero-seconds split is the tell for which path ran.
    stream_windows: int = 0
    #: largest single decoded window, in column bytes — the replay's
    #: peak decode memory, which the window budget must bound
    stream_peak_bytes: int = 0

    @property
    def instr_per_sec(self) -> Optional[float]:
        """Engine throughput (retired instructions per simulate second);
        ``None`` when undefined — instructions retired in zero (or
        unrepresentably small) measured time.  Strict-JSON rule: the
        undefined case must serialize as ``null`` natively, never as
        ``inf`` for a downstream sanitizer to catch."""
        return _finite_rate(self.instructions, self.simulate_seconds)

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["instr_per_sec"] = self.instr_per_sec
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "JobMetrics":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items()
                      if k in known and v is not None})


#: the job currently collecting (None outside execute_spec)
_current: Optional[JobMetrics] = None


def active() -> Optional[JobMetrics]:
    """The open collector, if a job is executing."""
    return _current


@contextmanager
def collect(workload: str = "") -> Iterator[JobMetrics]:
    """Open a fresh collector as the process's current job; restores
    the previous one on exit (nesting is harmless — the inner job
    simply shadows the outer, as when a test drives a job inside a
    job)."""
    global _current
    previous = _current
    metrics = JobMetrics(workload=workload, started_at=time.time())
    _current = metrics
    try:
        yield metrics
    finally:
        _current = previous


def note_decode(seconds: float, *, cached: bool) -> None:
    """Report one trace resolution into the current job (no-op when no
    job is collecting)."""
    if _current is None:
        return
    if cached:
        _current.decode_cached += 1
    else:
        _current.decode_cold += 1
        _current.decode_seconds += seconds


def note_stream_window(nbytes: int, seconds: float) -> None:
    """Report one streaming-decode window into the current job: counts
    it, tracks the peak window size, and folds the parse time into
    ``decode_seconds`` (streamed traces decode *during* replay, but the
    time is still decode time)."""
    if _current is None:
        return
    _current.stream_windows += 1
    if nbytes > _current.stream_peak_bytes:
        _current.stream_peak_bytes = nbytes
    _current.decode_seconds += seconds


def note_engine(engine: str, seconds: float, instructions: int) -> None:
    """Report one engine pass into the current job."""
    if _current is None:
        return
    _current.engine = engine
    _current.simulate_seconds += seconds
    _current.passes += 1
    _current.instructions += instructions


def aggregate(all_metrics: Iterable[Optional[JobMetrics]],
              wall_seconds: float = 0.0,
              cached: Iterable[Optional[JobMetrics]] = ()) -> dict:
    """Sum a sweep's per-job metrics into one fleet-level view (jobs
    missing metrics — failed, or cached from a pre-metrics store entry
    — are counted but contribute nothing).

    ``all_metrics`` is the work this run did.  ``cached`` holds the
    metrics restored with store hits: what producing those results cost
    some earlier run.  Their totals go under the same names prefixed
    ``cached_``, never into the fresh ones."""
    out = _totals(all_metrics)
    out["wall_seconds"] = wall_seconds
    for key, value in _totals(cached).items():
        out[f"cached_{key}"] = value
    return out


def _totals(all_metrics: Iterable[Optional[JobMetrics]]) -> dict:
    out = {
        "jobs_measured": 0,
        "jobs_unmeasured": 0,
        "decode_seconds": 0.0,
        "decode_cold": 0,
        "decode_cached": 0,
        "simulate_seconds": 0.0,
        "store_write_seconds": 0.0,
        "instructions": 0,
        "stream_windows": 0,
        "stream_peak_bytes": 0,
    }
    for metrics in all_metrics:
        if metrics is None:
            out["jobs_unmeasured"] += 1
            continue
        out["jobs_measured"] += 1
        out["decode_seconds"] += metrics.decode_seconds
        out["decode_cold"] += metrics.decode_cold
        out["decode_cached"] += metrics.decode_cached
        out["simulate_seconds"] += metrics.simulate_seconds
        out["store_write_seconds"] += metrics.store_write_seconds or 0.0
        out["instructions"] += metrics.instructions
        out["stream_windows"] += metrics.stream_windows
        if metrics.stream_peak_bytes > out["stream_peak_bytes"]:
            out["stream_peak_bytes"] = metrics.stream_peak_bytes
    out["instr_per_sec"] = _finite_rate(out["instructions"],
                                        out["simulate_seconds"])
    return out
