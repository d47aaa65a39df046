"""Engine performance harness (``repro bench`` /
``benchmarks/bench_engines.py``).

Measures replay throughput (instructions per second, min-of-N wall
clock) of the fast engine over recorded traces, and writes a
machine-readable ``BENCH_<n>.json`` so the repository carries a
performance *trajectory*: every PR that touches a hot path can re-run
the bench and compare against the committed numbers instead of
asserting speedups in prose.

Four views are measured per workload:

``engine``
    One plain-binary engine pass over an already-decoded trace.
    Isolates the hot loop; decode time is excluded.
``job``
    A full :func:`~repro.sim.multi.run_all_schemes` evaluation (both
    binary passes, all schemes, energy attached) the way a sweep job
    runs it, resolving the workload through the warm per-process LRU.
``grid``
    A :data:`GRID_POINTS`-geometry iTLB sweep: the ``independent`` row
    runs one :func:`~repro.sim.multi.run_all_schemes` job per geometry,
    the ``grid`` row evaluates every geometry in one shared
    :func:`~repro.sim.multi.run_all_schemes_grid` pass.  Both rows
    retire the same summed instruction count, so the speedup ratio is
    a pure wall-clock ratio, and every member is compared with its
    independent job for bit-identity.
``stream``
    The memory/speed trade of windowed decode: a full job with the
    decoded-trace cache cleared, once decoding eagerly (``eager`` row)
    and once under a forced ``REPRO_TRACE_WINDOW`` budget of a quarter
    of the largest segment's columns (``windowed`` row).  Each row
    records ``peak_window_bytes`` — the largest decoded window a run
    held at once (for eager, the full segment) — so the JSON carries
    the memory bound next to the throughput cost of honouring it.  The
    two runs are compared for bit-identity.

Timing uses ``time.perf_counter`` around engine execution only (trace
recording and column decoding happen before the timed region, except in
the ``stream`` view, where decoding *is* the point).  The ``engine`` and
``job`` views have one row each and so no ratio; ``grid`` and
``stream`` report theirs in ``speedups``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.config import MachineConfig, TLBConfig, default_config
from repro.sim.multi import run_all_schemes, run_all_schemes_grid
from repro.telemetry.metrics import collect
from repro.trace.format import (
    COLUMN_BYTES_PER_STEP,
    clear_trace_cache,
    load_trace,
)
from repro.trace.record import record_trace
from repro.trace.replay import TraceWorkload
from repro.workloads.registry import resolve

#: bump when the JSON layout changes incompatibly
BENCH_FORMAT = 1

#: workloads benched by default (full mode); ``--quick`` keeps only mesa
DEFAULT_WORKLOADS = ("177.mesa", "micro.straight_line",
                     "micro.taken_pattern")

#: the workload ``--quick`` benches
MESA = "177.mesa"

#: iTLB geometries the ``grid`` view sweeps (fully associative entries)
GRID_POINTS = (1, 2, 4, 8, 16, 32)


@dataclass
class BenchRecord:
    """One (workload, evaluator, view) measurement."""

    workload: str
    #: the row: "fast" ("engine"/"job"), "independent" | "grid"
    #: ("grid"), "eager" | "windowed" ("stream")
    engine: str
    mode: str  #: "engine" (one pass) | "job" (full run_all_schemes)
    #:  | "grid" (N-geometry sweep) | "stream" (decode-strategy trade)
    instructions: int  #: instructions retired per timed run
    repeats: int
    best_seconds: float
    mean_seconds: float
    instr_per_sec: float
    #: largest decoded window held at once (``stream`` view only; the
    #: ``eager`` row reports the full largest-segment columns)
    peak_window_bytes: Optional[int] = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _time(fn: Callable[[], int], repeats: int) -> tuple:
    """Run ``fn`` ``repeats`` times; returns (best, mean, instructions).

    ``fn`` returns the number of instructions it retired; min-of-N wall
    time filters scheduler noise (the canonical bench discipline)."""
    times: List[float] = []
    instructions = 0
    for _ in range(repeats):
        start = time.perf_counter()
        instructions = fn()
        times.append(time.perf_counter() - start)
    return min(times), sum(times) / len(times), instructions


def ensure_trace(workload: str, trace_dir: Union[str, Path], *,
                 instructions: int, warmup: int,
                 config: Optional[MachineConfig] = None,
                 log: Callable[[str], None] = lambda _: None) -> Path:
    """Record ``workload`` into ``trace_dir`` (once: recording is
    deterministic, so an existing file is reused)."""
    config = config or default_config()
    trace_dir = Path(trace_dir)
    trace_dir.mkdir(parents=True, exist_ok=True)
    safe = workload.replace("/", "_").replace(":", "_")
    path = trace_dir / f"{safe}.i{instructions}.w{warmup}.trace.gz"
    if not path.exists():
        log(f"recording {workload} ({instructions:,}+{warmup:,} "
            f"instructions) -> {path}")
        record_trace(workload, config, instructions=instructions,
                     warmup=warmup, path=path)
    return path


def bench_workload(workload: str, trace_path: Union[str, Path], *,
                   instructions: int, warmup: int, repeats: int,
                   config: Optional[MachineConfig] = None,
                   log: Callable[[str], None] = lambda _: None
                   ) -> List[BenchRecord]:
    """Bench one recorded trace; returns one record per (view, row).
    Raises :class:`RuntimeError` if a grid member or a windowed decode
    ever disagrees with its reference — a bench must never publish
    numbers for diverging evaluations."""
    from repro.cpu.fast import FastEngine

    config = config or default_config()
    trace_path = Path(trace_path)
    trace_name = f"trace:{trace_path}"
    records: List[BenchRecord] = []

    def record(engine_name: str, mode: str, fn: Callable[[], int],
               note: str = "") -> None:
        best, mean, retired = _time(fn, repeats)
        records.append(BenchRecord(
            workload=workload, engine=engine_name, mode=mode,
            instructions=retired, repeats=repeats, best_seconds=best,
            mean_seconds=mean, instr_per_sec=retired / best))
        log(f"{workload:24s} {engine_name:11s} {mode:6s} "
            f"{retired / best:>12,.0f} instr/s (best of {repeats}: "
            f"{best:.3f}s{note})")

    # -- engine view: one plain-binary pass, decode excluded ------------
    # stream=False pins the eager decode even under a forced
    # $REPRO_TRACE_WINDOW: this view isolates the hot loop, so decode
    # must stay outside the timed region
    trace_workload = TraceWorkload(trace_path,
                                   load_trace(trace_path, stream=False))
    program = trace_workload.link(page_bytes=config.mem.page_bytes,
                                  instrumented=False)
    program.segment.columns()  # decode outside the timed region

    def run_engine() -> int:
        engine = FastEngine(
            trace_workload.link(page_bytes=config.mem.page_bytes,
                                instrumented=False), config)
        return engine.run(instructions, warmup).shared.instructions + warmup

    record("fast", "engine", run_engine)

    # -- job view: full run_all_schemes, resolve included ---------------
    def run_job() -> int:
        run = run_all_schemes(resolve(trace_name), config,
                              instructions=instructions, warmup=warmup)
        return (run.plain.shared.instructions
                + run.instrumented.shared.instructions + 2 * warmup)

    record("fast", "job", run_job)

    # -- grid view: N geometries, independent jobs vs one shared pass ---
    grid_configs = [config.with_itlb(TLBConfig(entries=entries))
                    for entries in GRID_POINTS]
    grid_runs: Dict[str, list] = {}

    def _retired(runs) -> int:
        return sum(run.plain.shared.instructions
                   + run.instrumented.shared.instructions + 2 * warmup
                   for run in runs)

    def run_independent() -> int:
        runs = [run_all_schemes(resolve(trace_name), member,
                                instructions=instructions,
                                warmup=warmup)
                for member in grid_configs]
        grid_runs["independent"] = runs
        return _retired(runs)

    def run_gridded() -> int:
        runs = run_all_schemes_grid(resolve(trace_name), grid_configs,
                                    instructions=instructions,
                                    warmup=warmup)
        grid_runs["grid"] = runs
        return _retired(runs)

    for engine_name, fn in (("independent", run_independent),
                            ("grid", run_gridded)):
        record(engine_name, "grid", fn,
               f", {len(GRID_POINTS)} geometries")
    for solo, member in zip(grid_runs["independent"], grid_runs["grid"]):
        if (json.dumps(solo.to_dict(), sort_keys=True)
                != json.dumps(member.to_dict(), sort_keys=True)):
            raise RuntimeError(
                f"bench aborted: grid member diverged from its "
                f"independent job on {workload} — run the grid "
                "equivalence suite (tests/test_batch_engine.py)")

    # -- stream view: eager vs windowed decode of the same cold job -----
    # window budget: a quarter of the largest segment's columns, so the
    # windowed run provably never holds the decoded trace whole
    full_bytes = max(COLUMN_BYTES_PER_STEP * len(s.records)
                     for s in trace_workload.trace.segments)
    window_bytes = max(COLUMN_BYTES_PER_STEP, full_bytes // 4)
    stream_runs: Dict[str, object] = {}
    stream_peak = {"bytes": 0}

    def run_stream(engine_name: str,
                   window: Optional[int]) -> Callable[[], int]:
        def go() -> int:
            clear_trace_cache()  # both rows pay the cold decode
            saved = os.environ.get("REPRO_TRACE_WINDOW")
            if window is None:
                os.environ.pop("REPRO_TRACE_WINDOW", None)
            else:
                os.environ["REPRO_TRACE_WINDOW"] = str(window)
            try:
                with collect() as metrics:
                    run = run_all_schemes(resolve(trace_name), config,
                                          instructions=instructions,
                                          warmup=warmup)
                if (window is not None
                        and metrics.stream_peak_bytes
                        > stream_peak["bytes"]):
                    stream_peak["bytes"] = metrics.stream_peak_bytes
                stream_runs[engine_name] = run
                return (run.plain.shared.instructions
                        + run.instrumented.shared.instructions + 2 * warmup)
            finally:
                if saved is None:
                    os.environ.pop("REPRO_TRACE_WINDOW", None)
                else:
                    os.environ["REPRO_TRACE_WINDOW"] = saved
        return go

    for engine_name, window in (("eager", None), ("windowed", window_bytes)):
        record(engine_name, "stream", run_stream(engine_name, window))
        records[-1].peak_window_bytes = (
            full_bytes if window is None else stream_peak["bytes"])
    if (json.dumps(stream_runs["eager"].to_dict(), sort_keys=True)
            != json.dumps(stream_runs["windowed"].to_dict(),
                          sort_keys=True)):
        raise RuntimeError(
            f"bench aborted: windowed decode diverged from eager on "
            f"{workload} — run the streaming equivalence suite "
            "(tests/test_streaming.py)")
    if stream_peak["bytes"] > window_bytes:
        raise RuntimeError(
            f"bench aborted: windowed decode of {workload} peaked at "
            f"{stream_peak['bytes']:,} bytes over its "
            f"{window_bytes:,}-byte budget")
    return records


def speedups(records: Sequence[BenchRecord]) -> Dict[str, Dict[str, float]]:
    """Per-workload instr-per-sec ratios of the two-row views:
    grid/independent for ``grid``, windowed/eager for ``stream``
    (typically ≤ 1 — it prices the memory bound, it does not chase a
    speedup)."""
    by_key: Dict[tuple, BenchRecord] = {
        (r.workload, r.mode, r.engine): r for r in records}
    out: Dict[str, Dict[str, float]] = {}
    for workload in {r.workload for r in records}:
        entry = {}
        for mode, base_name, fast_name in (
                ("grid", "independent", "grid"),
                ("stream", "eager", "windowed")):
            base = by_key.get((workload, mode, base_name))
            fast = by_key.get((workload, mode, fast_name))
            if base and fast and base.instr_per_sec:
                entry[mode] = fast.instr_per_sec / base.instr_per_sec
        out[workload] = entry
    return out


def run_bench(*, workloads: Sequence[str] = DEFAULT_WORKLOADS,
              instructions: int = 60_000, warmup: int = 10_000,
              repeats: int = 5, trace_dir: Union[str, Path] = ".bench-traces",
              config: Optional[MachineConfig] = None,
              log: Callable[[str], None] = lambda _: None) -> dict:
    """Record (once) and bench every workload; returns the JSON payload."""
    config = config or default_config()
    records: List[BenchRecord] = []
    for workload in workloads:
        path = ensure_trace(workload, trace_dir, instructions=instructions,
                            warmup=warmup, config=config, log=log)
        records.extend(bench_workload(
            workload, path, instructions=instructions, warmup=warmup,
            repeats=repeats, config=config, log=log))
    return {
        "bench_format": BENCH_FORMAT,
        "window": {"instructions": instructions, "warmup": warmup},
        "repeats": repeats,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "results": [r.to_dict() for r in records],
        "speedups": speedups(records),
    }
