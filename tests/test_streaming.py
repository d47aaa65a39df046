"""Streaming (windowed) trace decode: bit-identity and bounded memory.

The streaming pipeline's one invariant: replaying through bounded
decode windows must be *bit-identical* to the eager whole-file decode —
every counter, cycle, and energy number of ``to_dict()``, every
content-addressed store filename, every step a per-step reader sees —
for every workload, evaluation (solo / grid), and backend (serial /
pool / queue).  This suite pins that over the six micro workloads, the
mesa golden trace, and both converted foreign fixtures, plus the edge
geometry that makes windowing subtle: a window boundary splitting a
run-length run, a truncated final window, a window larger than the
whole trace, re-recording from a streamed replay, and a pass that stops
before its stream ends (the file handle must still close).

The decode *policy* (``REPRO_TRACE_WINDOW``, the size threshold, the
byte-budgeted LRU of satellite ``REPRO_TRACE_LRU_BYTES``) and the
``JobMetrics`` accounting (``stream_windows`` / ``stream_peak_bytes``)
are pinned here too.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro.config import SchemeName, TLBConfig, default_config
from repro.cpu.fast import FastEngine
from repro.errors import TraceError
from repro.runner import FileQueueBackend, JobSpec, ResultStore, SweepRunner
from repro.sim.multi import run_all_schemes
from repro.telemetry.metrics import JobMetrics, aggregate, collect
from repro.trace import (
    StreamTraceFile,
    TraceFile,
    clear_trace_cache,
    import_trace,
    load_trace,
    load_trace_workload,
    trace_window_bytes,
)
from repro.trace.format import (
    COLUMN_BYTES_PER_STEP,
    DEFAULT_WINDOW_BYTES,
    _TRACE_LRU,
    committed_steps,
    iter_steps,
    parse_byte_size,
)
from repro.trace.record import record_trace
from repro.trace.replay import TraceWorkload
from repro.workloads.registry import MICROBENCH_NAMES

GOLDEN_MESA = Path(__file__).parent / "golden" / "mesa.trace.gz"
FIXTURES = Path(__file__).parent / "fixtures"
WINDOW_ENV = "REPRO_TRACE_WINDOW"

MICRO_INSTRUCTIONS, MICRO_WARMUP = 1_200, 200
MESA_INSTRUCTIONS, MESA_WARMUP = 2_000, 300
IMPORT_INSTRUCTIONS, IMPORT_WARMUP = 600, 100

#: a deliberately tiny forced window — 4 decoded steps — so even the
#: micro traces stream through hundreds of windows
TINY_WINDOW = str(4 * COLUMN_BYTES_PER_STEP)


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """Every equivalence workload as a native trace file, with its
    replay window: the six micros (recorded), mesa (checked in), and
    both foreign fixtures (converted — the streaming seam reads native
    files, so imports are exercised post-conversion)."""
    root = tmp_path_factory.mktemp("stream-traces")
    table = {}
    for name in MICROBENCH_NAMES:
        path = root / f"{name}.trace.gz"
        record_trace(f"micro.{name}", default_config(),
                     instructions=MICRO_INSTRUCTIONS,
                     warmup=MICRO_WARMUP, path=path)
        table[f"micro.{name}"] = (path, MICRO_INSTRUCTIONS, MICRO_WARMUP)
    table["177.mesa"] = (GOLDEN_MESA, MESA_INSTRUCTIONS, MESA_WARMUP)
    for fmt, fixture in (("eio", FIXTURES / "twopage.eio.txt"),
                         ("champsim",
                          FIXTURES / "branchy.champsim.bin.gz")):
        path = root / f"{fmt}.trace.gz"
        import_trace(fmt, fixture, path)
        table[f"imported.{fmt}"] = (path, IMPORT_INSTRUCTIONS,
                                    IMPORT_WARMUP)
    return table


def _canon(run) -> str:
    return json.dumps(run.to_dict(), sort_keys=True)


def _replay(path, instructions, warmup, *, window=None):
    """One full evaluation, freshly loaded, optionally with a forced
    streaming window."""
    clear_trace_cache()
    saved = os.environ.get(WINDOW_ENV)
    if window is not None:
        os.environ[WINDOW_ENV] = str(window)
    else:
        os.environ.pop(WINDOW_ENV, None)
    try:
        workload = load_trace_workload(path)
        if window is not None:
            assert isinstance(workload.trace, StreamTraceFile)
        return run_all_schemes(workload, default_config(),
                               instructions=instructions, warmup=warmup)
    finally:
        if saved is None:
            os.environ.pop(WINDOW_ENV, None)
        else:
            os.environ[WINDOW_ENV] = saved
        clear_trace_cache()


def _steps(path, instructions, warmup, *, stream):
    """The committed steps of both binaries' windows as a step-at-a-time
    reader sees them (recording, calibration, the dCFR experiment)."""
    trace = load_trace(path, use_cache=False, stream=stream)
    steps = []
    for segment in trace.segments:
        program = TraceWorkload(path, trace).link(
            page_bytes=segment.page_bytes,
            instrumented=segment.binary == "instrumented")
        steps.append([(instr.address, instr.kind_code, aux)
                      for instr, aux in committed_steps(program, warmup,
                                                        instructions)])
    return steps


class TestBitIdentity:
    """Forced-streaming replay == eager replay, for every workload and
    both consumers of a window source: the step-at-a-time reader
    (``scalar``) and the engine's column batches (``batch``)."""

    @pytest.mark.parametrize("consumer", ["scalar", "batch"])
    @pytest.mark.parametrize("name", [f"micro.{m}"
                                      for m in MICROBENCH_NAMES]
                             + ["177.mesa", "imported.eio",
                                "imported.champsim"])
    def test_workload(self, traces, name, consumer):
        path, instructions, warmup = traces[name]
        if consumer == "scalar":
            eager = _steps(path, instructions, warmup, stream=False)
            assert eager[0]
            assert _steps(path, instructions, warmup,
                          stream=4 * COLUMN_BYTES_PER_STEP) == eager
            return
        eager = _replay(path, instructions, warmup)
        streamed = _replay(path, instructions, warmup, window=TINY_WINDOW)
        assert _canon(eager) == _canon(streamed)

    def test_auto_engine_selection_unchanged_by_streaming(self, traces):
        path, instructions, warmup = traces["177.mesa"]
        eager = _replay(path, instructions, warmup)
        streamed = _replay(path, instructions, warmup, window="8k")
        assert _canon(eager) == _canon(streamed)
        assert streamed.plain.engine == "fast"

    def test_scheme_subset_identity(self, traces):
        """The explicit ``stream=`` API path (no environment), over a
        scheme subset."""
        path, instructions, warmup = traces["177.mesa"]
        clear_trace_cache()
        eager = run_all_schemes(
            load_trace_workload(path), default_config(),
            instructions=instructions, warmup=warmup,
            schemes=(SchemeName.SOCA, SchemeName.IA))
        streamed = run_all_schemes(
            _stream_workload(path, 4096), default_config(),
            instructions=instructions, warmup=warmup,
            schemes=(SchemeName.SOCA, SchemeName.IA))
        assert _canon(eager) == _canon(streamed)


def _stream_workload(path, window_bytes):
    """A workload over an explicitly stream-loaded trace (the
    ``stream=`` API path, no environment involved)."""
    return TraceWorkload(path, load_trace(path, stream=window_bytes))


#: the member geometries the grid-identity cases sweep
GRID_ENTRIES = (1, 8, 32)


def _grid_specs(name, instructions, warmup):
    return [JobSpec(workload=name,
                    config=default_config().with_itlb(
                        TLBConfig(entries=entries)),
                    instructions=instructions, warmup=warmup)
            for entries in GRID_ENTRIES]


class TestGridAndBackends:
    """Streaming through the grid evaluator and across every worker
    boundary: results and content-addressed store filenames must match
    eager serial runs exactly."""

    def _solo_eager(self, specs, tmp_path):
        os.environ.pop(WINDOW_ENV, None)
        clear_trace_cache()
        solo = SweepRunner(store=ResultStore(tmp_path / "solo"),
                           grid=False)
        return solo.run(specs)

    def _assert_match(self, solo_results, stream_results, tmp_path,
                      stream_dir):
        for one, many in zip(solo_results, stream_results):
            assert one.ok, one.error
            assert many.ok, many.error
            assert _canon(one.run) == _canon(many.run)
        assert (sorted(p.name for p in (tmp_path / "solo").glob("*.json"))
                == sorted(p.name for p in stream_dir.glob("*.json")))

    def test_grid_streaming_matches_eager_solo(self, traces, tmp_path,
                                               monkeypatch):
        path, instructions, warmup = traces["177.mesa"]
        specs = _grid_specs(f"trace:{path}", instructions, warmup)
        solo_results = self._solo_eager(specs, tmp_path)
        monkeypatch.setenv(WINDOW_ENV, TINY_WINDOW)
        clear_trace_cache()
        gridded = SweepRunner(store=ResultStore(tmp_path / "grid"))
        grid_results = gridded.run(specs)
        assert gridded.last_stats.grids >= 1
        self._assert_match(solo_results, grid_results, tmp_path,
                           tmp_path / "grid")
        clear_trace_cache()

    def test_pool_backend_inherits_window_env(self, traces, tmp_path,
                                              monkeypatch):
        path, instructions, warmup = traces["micro.counted_loop"]
        specs = _grid_specs(f"trace:{path}", instructions, warmup)
        solo_results = self._solo_eager(specs, tmp_path)
        monkeypatch.setenv(WINDOW_ENV, TINY_WINDOW)
        clear_trace_cache()
        pooled = SweepRunner(store=ResultStore(tmp_path / "pool"),
                             workers=2, backend="pool")
        pool_results = pooled.run(specs)
        self._assert_match(solo_results, pool_results, tmp_path,
                           tmp_path / "pool")
        clear_trace_cache()

    def test_queue_backend_through_real_workers(self, traces, tmp_path,
                                                monkeypatch):
        path, instructions, warmup = traces["177.mesa"]
        specs = _grid_specs(f"trace:{path}", instructions, warmup)
        solo_results = self._solo_eager(specs, tmp_path)
        monkeypatch.setenv(WINDOW_ENV, TINY_WINDOW)
        clear_trace_cache()
        root = tmp_path / "q"
        src = Path(repro.__file__).parents[1]
        env = dict(os.environ)  # carries REPRO_TRACE_WINDOW
        env["PYTHONPATH"] = f"{src}{os.pathsep}" \
            + env.get("PYTHONPATH", "")
        workers = [subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", str(root),
             "--poll", "0.05", "--idle-exit", "60"],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL) for _ in range(2)]
        try:
            backend = FileQueueBackend(root, poll_seconds=0.05,
                                       timeout=300)
            runner = SweepRunner(store=ResultStore(backend.store_root),
                                 backend=backend)
            results = runner.run(specs)
            self._assert_match(solo_results, results, tmp_path,
                               backend.store_root)
        finally:
            for worker in workers:
                if worker.poll() is None:
                    worker.kill()
                worker.wait(timeout=30)
        clear_trace_cache()


class TestWindowEdges:
    """The geometry that makes windowing subtle."""

    def test_window_boundary_splits_run_length_runs(self, traces):
        """micro.counted_loop is one long plain-kind run; a 4-step
        window truncates the precomputed run column at every window
        edge.  The run-length path must retire across the seam
        bit-identically."""
        path, instructions, warmup = traces["micro.counted_loop"]
        eager = _replay(path, instructions, warmup)
        for window in (TINY_WINDOW,  # 4 steps
                       str(COLUMN_BYTES_PER_STEP),  # 1 step: worst case
                       str(7 * COLUMN_BYTES_PER_STEP)):  # non-divisor
            streamed = _replay(path, instructions, warmup,
                               window=window)
            assert _canon(eager) == _canon(streamed), window

    def test_window_larger_than_trace(self, traces):
        path, instructions, warmup = traces["micro.counted_loop"]
        eager = _replay(path, instructions, warmup)
        with collect() as metrics:
            streamed = _replay(path, instructions, warmup,
                               window="1g")
        assert _canon(eager) == _canon(streamed)
        # the whole segment fits one window; the full evaluation
        # replays two binaries (plain + instrumented), so exactly two
        # windows total
        assert metrics.stream_windows == 2

    def test_truncated_final_window(self, traces):
        """A window size that does not divide the record count leaves a
        short final window; it must decode and retire like any other."""
        path, instructions, warmup = traces["177.mesa"]
        trace = load_trace(path, use_cache=False, stream=False)
        steps = len(trace.segments[0].records)
        window_steps = 13
        assert steps % window_steps != 0  # the case under test
        eager = _replay(path, instructions, warmup)
        streamed = _replay(path, instructions, warmup,
                           window=str(window_steps
                                      * COLUMN_BYTES_PER_STEP))
        assert _canon(eager) == _canon(streamed)

    def test_exhaustion_error_identical_under_streaming(self):
        """Running past the final window raises the same typed error,
        with the same total step count, as running past an eager
        segment — through the engine and the step-at-a-time reader."""
        path = GOLDEN_MESA  # the micros halt; mesa runs off the end

        def exhaust(stream):
            clear_trace_cache()
            trace = load_trace(path, use_cache=False, stream=stream)
            program = TraceWorkload(path, trace).link(page_bytes=4096)
            with pytest.raises(TraceError) as err:
                FastEngine(program, default_config()).run(10_000_000)
            return str(err.value)

        eager_message = exhaust(False)
        assert "trace exhausted" in eager_message
        assert exhaust(4 * COLUMN_BYTES_PER_STEP) == eager_message

    def test_scalar_exhaustion_matches_eager(self):
        path = GOLDEN_MESA  # the micros halt; mesa runs off the end

        def exhaust(stream):
            clear_trace_cache()
            trace = load_trace(path, use_cache=False, stream=stream)
            program = TraceWorkload(path, trace).link(page_bytes=4096)
            with pytest.raises(TraceError) as err:
                for _ in committed_steps(program, 0, 10_000_000):
                    pass
            return str(err.value)

        eager_message = exhaust(False)
        assert "trace exhausted" in eager_message
        assert exhaust(4 * COLUMN_BYTES_PER_STEP) == eager_message

    def test_scalar_executor_streams_lazily(self, traces):
        """The step-at-a-time reader decodes a window only when its
        steps are due: ten steps of 4-step windows pull three."""
        path, _, _ = traces["micro.counted_loop"]
        trace = load_trace(path, stream=4 * COLUMN_BYTES_PER_STEP)
        segment = trace.segment_for(instrumented=False,
                                    page_bytes=4096)
        source = segment.window_source()
        try:
            with collect() as metrics:
                steps = iter_steps(source)
                assert metrics.stream_windows == 0
                for _ in range(10):
                    next(steps)
            assert metrics.stream_windows == 3
        finally:
            source.close()

    def test_recorder_attached_mid_replay(self, traces, tmp_path):
        """Re-recording *from* a streaming replay must produce the same
        trace bytes as re-recording from an eager one (recording writes
        the replayed stream either way)."""
        path, _, _ = traces["micro.taken_pattern"]
        out_eager = tmp_path / "eager.trace.gz"
        out_stream = tmp_path / "stream.trace.gz"
        clear_trace_cache()
        os.environ.pop(WINDOW_ENV, None)
        record_trace(f"trace:{path}", default_config(),
                     instructions=600, warmup=0, path=out_eager)
        os.environ[WINDOW_ENV] = TINY_WINDOW
        try:
            clear_trace_cache()
            record_trace(f"trace:{path}", default_config(),
                         instructions=600, warmup=0, path=out_stream)
        finally:
            os.environ.pop(WINDOW_ENV, None)
            clear_trace_cache()
        assert out_eager.read_bytes() == out_stream.read_bytes()


    def test_pass_closes_a_stream_it_stops_short_of(self):
        """A pass that ends before its streamed segment does still
        releases the trace file handle."""
        clear_trace_cache()
        workload = TraceWorkload(GOLDEN_MESA,
                                 load_trace(GOLDEN_MESA, stream=8192))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            run_all_schemes(workload, default_config(), instructions=500,
                            warmup=100)
            gc.collect()
        leaks = [w for w in caught
                 if issubclass(w.category, ResourceWarning)]
        assert leaks == []


class TestMetricsAccounting:
    """JobMetrics tells the decode story: which path ran, how many
    windows, how big the biggest one was."""

    def test_streaming_run_accounts_windows_not_cold_decodes(
            self, traces):
        path, instructions, warmup = traces["micro.counted_loop"]
        budget = 16 * COLUMN_BYTES_PER_STEP
        with collect() as metrics:
            _replay(path, instructions, warmup,
                    window=str(budget))
        assert metrics.stream_windows > 1
        assert 0 < metrics.stream_peak_bytes <= budget
        assert metrics.decode_cold == 0  # no eager decode happened
        assert metrics.decode_seconds > 0

    def test_eager_run_has_no_stream_fields(self, traces):
        path, instructions, warmup = traces["micro.counted_loop"]
        with collect() as metrics:
            _replay(path, instructions, warmup)
        assert metrics.stream_windows == 0
        assert metrics.stream_peak_bytes == 0
        assert metrics.decode_cold == 1

    def test_aggregate_sums_windows_and_maxes_peak(self):
        from repro.telemetry import note_stream_window
        with collect() as a:
            note_stream_window(1000, 0.1)
            note_stream_window(3000, 0.1)
        with collect() as b:
            note_stream_window(2000, 0.1)
        summary = aggregate([a, b])
        assert summary["stream_windows"] == 3
        assert summary["stream_peak_bytes"] == 3000

    def test_round_trip_preserves_stream_fields(self):
        from repro.telemetry import note_stream_window
        with collect() as metrics:
            note_stream_window(512, 0.01)
        clone = JobMetrics.from_dict(metrics.to_dict())
        assert clone.stream_windows == 1
        assert clone.stream_peak_bytes == 512


class TestDecodePolicy:
    """load_trace's three-way policy: explicit argument beats the
    forced environment window beats the size threshold."""

    def test_parse_byte_size(self):
        assert parse_byte_size("512") == 512
        assert parse_byte_size("4k") == 4096
        assert parse_byte_size("4K") == 4096
        assert parse_byte_size("2m") == 2 << 20
        assert parse_byte_size("1g") == 1 << 30
        assert parse_byte_size(8192) == 8192
        for bogus in (None, "", "  ", "banana", "0", "-5", "0m", "k"):
            assert parse_byte_size(bogus) is None, bogus

    def test_trace_window_bytes_reads_env(self, monkeypatch):
        monkeypatch.delenv(WINDOW_ENV, raising=False)
        assert trace_window_bytes() is None
        monkeypatch.setenv(WINDOW_ENV, "64k")
        assert trace_window_bytes() == 64 << 10
        monkeypatch.setenv(WINDOW_ENV, "nonsense")
        assert trace_window_bytes() is None

    def test_small_file_defaults_to_eager(self, monkeypatch):
        monkeypatch.delenv(WINDOW_ENV, raising=False)
        clear_trace_cache()
        assert isinstance(load_trace(GOLDEN_MESA, use_cache=False),
                          TraceFile)

    def test_env_forces_streaming(self, monkeypatch):
        monkeypatch.setenv(WINDOW_ENV, "8k")
        clear_trace_cache()
        trace = load_trace(GOLDEN_MESA)
        assert isinstance(trace, StreamTraceFile)
        # ... and never occupies an eager-cache slot
        assert not _TRACE_LRU
        clear_trace_cache()

    def test_explicit_stream_false_beats_env(self, monkeypatch):
        monkeypatch.setenv(WINDOW_ENV, "8k")
        clear_trace_cache()
        assert isinstance(
            load_trace(GOLDEN_MESA, use_cache=False, stream=False),
            TraceFile)
        clear_trace_cache()

    def test_explicit_stream_true_uses_default_window(self, monkeypatch):
        monkeypatch.delenv(WINDOW_ENV, raising=False)
        trace = load_trace(GOLDEN_MESA, stream=True)
        assert isinstance(trace, StreamTraceFile)
        assert (trace.window_steps
                == DEFAULT_WINDOW_BYTES // COLUMN_BYTES_PER_STEP)

    def test_large_file_auto_streams(self, monkeypatch):
        monkeypatch.delenv(WINDOW_ENV, raising=False)
        monkeypatch.setattr("repro.trace.format.STREAM_THRESHOLD_BYTES",
                            1)
        clear_trace_cache()
        assert isinstance(load_trace(GOLDEN_MESA), StreamTraceFile)
        clear_trace_cache()

    def test_stream_trace_file_surface(self, monkeypatch):
        """StreamTraceFile mirrors TraceFile's lookup surface,
        including the typed no-such-segment error."""
        trace = load_trace(GOLDEN_MESA, stream=4096)
        eager = load_trace(GOLDEN_MESA, use_cache=False, stream=False)
        assert trace.workload_name == eager.workload_name
        assert len(trace.segments) == len(eager.segments)
        segment = trace.segment_for(instrumented=False, page_bytes=4096)
        assert segment.page_bytes == 4096
        with pytest.raises(TraceError, match="no .* segment"):
            trace.segment_for(instrumented=False, page_bytes=123456)


class TestByteBudgetedLRU:
    """Satellite: ``REPRO_TRACE_LRU_BYTES`` bounds the decoded-trace
    cache by bytes, not just entries."""

    def _record(self, tmp_path, i):
        path = tmp_path / f"t{i}.trace.gz"
        record_trace("micro.counted_loop", default_config(),
                     instructions=300 + i, warmup=0, path=path)
        return path

    def test_byte_budget_evicts_oldest(self, tmp_path, monkeypatch):
        from repro import telemetry
        from repro.trace.format import _trace_nbytes

        clear_trace_cache()
        paths = [self._record(tmp_path, i) for i in range(4)]
        one = load_trace(paths[0], use_cache=False)
        footprint = _trace_nbytes(one)
        # room for roughly two decoded traces
        monkeypatch.setenv("REPRO_TRACE_LRU_BYTES",
                           str(2 * footprint + footprint // 2))
        log = tmp_path / "events.jsonl"
        telemetry.configure(level="debug", json_path=str(log),
                            propagate=False)
        try:
            loaded = [load_trace(p) for p in paths]
        finally:
            telemetry.disable()
        assert len(_TRACE_LRU) == 2
        # newest survives, oldest decode afresh
        assert load_trace(paths[-1]) is loaded[-1]
        evicts = [json.loads(line)
                  for line in log.read_text().splitlines()
                  if json.loads(line)["event"] == "trace.lru_evict"]
        assert len(evicts) == 2
        for event in evicts:
            assert event["bytes_freed"] > 0
            assert event["budget_bytes"] == 2 * footprint \
                + footprint // 2
            assert event["path"]
            assert event["capacity"] > 0
        clear_trace_cache()

    def test_budget_never_evicts_the_only_entry(self, tmp_path,
                                                monkeypatch):
        """A budget smaller than one decoded trace keeps the newest
        entry anyway: an over-tight knob must degrade to capacity-1
        caching, not disable reuse entirely."""
        clear_trace_cache()
        path = self._record(tmp_path, 0)
        monkeypatch.setenv("REPRO_TRACE_LRU_BYTES", "1")
        first = load_trace(path)
        assert load_trace(path) is first
        assert len(_TRACE_LRU) == 1
        clear_trace_cache()

    def test_bogus_budget_is_ignored(self, monkeypatch):
        from repro.trace.format import trace_cache_bytes
        for bogus in ("banana", "0", "-3", ""):
            monkeypatch.setenv("REPRO_TRACE_LRU_BYTES", bogus)
            assert trace_cache_bytes() == 0
        monkeypatch.delenv("REPRO_TRACE_LRU_BYTES")
        assert trace_cache_bytes() == 0


class TestCLI:
    def test_trace_window_flag_exports_env(self, traces, monkeypatch,
                                           capsys):
        from repro.cli import main
        path, _, _ = traces["micro.counted_loop"]
        monkeypatch.setenv(WINDOW_ENV, "sentinel")  # restored after
        clear_trace_cache()
        assert main(["sweep", "--benchmarks", f"trace:{path}",
                     "--instructions", "200", "--warmup", "0",
                     "--trace-window", TINY_WINDOW]) == 0
        assert os.environ[WINDOW_ENV] == TINY_WINDOW
        clear_trace_cache()

    def test_trace_window_flag_rejects_nonsense(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["sweep", "--trace-window", "banana"])
        assert "not a positive byte size" in capsys.readouterr().err

    def test_simulate_accepts_trace_window(self, traces, monkeypatch,
                                           capsys):
        from repro.cli import main
        path, _, _ = traces["micro.counted_loop"]
        monkeypatch.setenv(WINDOW_ENV, "sentinel")
        clear_trace_cache()
        assert main(["simulate", f"trace:{path}",
                     "--instructions", "200", "--warmup", "0",
                     "--trace-window", "8k"]) == 0
        assert os.environ[WINDOW_ENV] == "8k"
        clear_trace_cache()
