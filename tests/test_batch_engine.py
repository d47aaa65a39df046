"""Fast-engine equivalence, flat-array columns, trace memoization, and
the bench harness.

The fast engine runs every program from flat-array columns: a live
program's functionally executed stream, a replay's decoded trace.  Its
invariant is *bit-identity* with the per-instruction loop it replaced,
whose results ``tests/golden/engine_results.json`` pins as digests of
``CombinedRun.to_dict()``: every counter, cycle, and energy number must
match byte for byte.  This suite checks replays of the six micro
workloads and the mesa golden trace against those digests, imported
foreign fixtures against their converted native traces, scheme subsets
against the full evaluation, and the runner path serially and through a
two-worker sweep.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.config import (
    CacheAddressing,
    SchemeName,
    TLBConfig,
    default_config,
)
from repro.cpu.fast import FastEngine
from repro.cpu.functional import committed_stream
from repro.errors import ConfigError, TraceError
from repro.runner import FileQueueBackend, JobSpec, ResultStore, SweepRunner
from repro.sim.multi import run_all_schemes
from repro.sim.simulator import Simulator
from repro.trace.format import (
    PLAIN_KINDS,
    TRACE_CACHE_CAPACITY,
    clear_trace_cache,
    load_trace,
)
from repro.trace.importers import import_trace
from repro.trace.record import record_trace
from repro.trace.replay import load_trace_workload
from repro.workloads.registry import MICROBENCH_NAMES, resolve

GOLDEN_MESA = Path(__file__).parent / "golden" / "mesa.trace.gz"
GOLDEN_DIGESTS = Path(__file__).parent / "golden" / "engine_results.json"
FIXTURES = Path(__file__).parent / "fixtures"

#: the window of the pinned digests; the micro traces are recorded over
#: it, and the mesa golden trace (3000+500) holds it as a prefix
MICRO_INSTRUCTIONS, MICRO_WARMUP = 2_000, 500
MESA_INSTRUCTIONS, MESA_WARMUP = 2_000, 500

ADDRESSINGS = tuple(CacheAddressing)


@pytest.fixture(scope="module")
def micro_traces(tmp_path_factory):
    """One recorded trace per microbenchmark (module-scoped: recording
    runs the live simulator twice per workload)."""
    root = tmp_path_factory.mktemp("batch-traces")
    paths = {}
    for name in MICROBENCH_NAMES:
        path = root / f"{name}.trace.gz"
        record_trace(f"micro.{name}", default_config(),
                     instructions=MICRO_INSTRUCTIONS, warmup=MICRO_WARMUP,
                     path=path)
        paths[f"micro.{name}"] = path
    return paths


@pytest.fixture(scope="module")
def digests():
    return json.loads(GOLDEN_DIGESTS.read_text())["cases"]


def _canon(run) -> str:
    return json.dumps(run.to_dict(), sort_keys=True)


def _digest(run) -> str:
    canonical = json.dumps(run.to_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _assert_pinned(workload, addressing, digests, name):
    """A replay must reproduce the digest the per-instruction loop
    pinned for the live program at 4 KB pages."""
    run = run_all_schemes(workload, default_config(addressing),
                          instructions=MICRO_INSTRUCTIONS,
                          warmup=MICRO_WARMUP)
    assert _digest(run) == digests[f"{name}/{addressing.value}/4096"]


class TestEquivalence:
    @pytest.mark.parametrize("addressing", ADDRESSINGS,
                             ids=[a.value for a in ADDRESSINGS])
    @pytest.mark.parametrize("name", [f"micro.{m}"
                                      for m in MICROBENCH_NAMES])
    def test_micro_workloads(self, micro_traces, digests, name,
                             addressing):
        _assert_pinned(load_trace_workload(micro_traces[name]),
                       addressing, digests, name)

    @pytest.mark.parametrize("addressing", ADDRESSINGS,
                             ids=[a.value for a in ADDRESSINGS])
    def test_mesa_golden_trace(self, digests, addressing):
        """The golden trace holds a longer window; its prefix replays
        the pinned one."""
        _assert_pinned(load_trace_workload(GOLDEN_MESA), addressing,
                       digests, "177.mesa")

    @pytest.mark.parametrize("addressing", ADDRESSINGS,
                             ids=[a.value for a in ADDRESSINGS])
    @pytest.mark.parametrize("fmt, fixture", [
        ("eio", FIXTURES / "twopage.eio.txt"),
        ("gem5", FIXTURES / "loopcall.gem5.txt.gz"),
    ], ids=["eio", "gem5"])
    def test_imported_fixtures(self, tmp_path, fmt, fixture, addressing):
        """An imported stream (built in memory) and the same stream
        converted to a native trace file (decoded) evaluate alike."""
        converted = tmp_path / f"{fmt}.trace.gz"
        import_trace(fmt, fixture, converted)
        config = default_config(addressing)
        direct = run_all_schemes(resolve(f"import:{fmt}:{fixture}"),
                                 config, instructions=600, warmup=100)
        replayed = run_all_schemes(load_trace_workload(converted), config,
                                   instructions=600, warmup=100)
        assert _canon(direct) == _canon(replayed)

    @pytest.mark.parametrize("schemes", [
        (SchemeName.BASE,),
        (SchemeName.OPT,),
        (SchemeName.SOCA, SchemeName.IA),
        (SchemeName.HOA, SchemeName.SOLA),
    ], ids=["base", "opt", "soca+ia", "hoa+sola"])
    def test_scheme_subsets(self, schemes):
        """Schemes ride along without perturbing each other: a subset's
        numbers are the full evaluation's, scheme by scheme."""
        workload = load_trace_workload(GOLDEN_MESA)
        config = default_config()
        full = run_all_schemes(workload, config,
                               instructions=MESA_INSTRUCTIONS,
                               warmup=MESA_WARMUP)
        subset = run_all_schemes(workload, config,
                                 instructions=MESA_INSTRUCTIONS,
                                 warmup=MESA_WARMUP, schemes=schemes)
        assert subset.shared.to_dict() == full.shared.to_dict()
        for scheme in schemes:
            assert (subset.scheme(scheme).to_dict()
                    == full.scheme(scheme).to_dict())

    def test_zero_warmup_and_tiny_windows(self):
        """Live and replayed streams agree at the smallest windows (a
        live program executes just enough of its stream)."""
        replay = load_trace_workload(GOLDEN_MESA)
        config = default_config()
        for instructions, warmup in ((1, 0), (17, 0), (100, 3)):
            live = run_all_schemes(resolve("177.mesa"), config,
                                   instructions=instructions,
                                   warmup=warmup)
            replayed = run_all_schemes(replay, config,
                                       instructions=instructions,
                                       warmup=warmup)
            assert _canon(live) == _canon(replayed)
            assert live.plain.shared.useful_instructions == instructions

    def test_engine_result_reports_fast(self):
        """Replays report the fast engine (cache keys, golden files, and
        record->replay identity depend on it)."""
        workload = load_trace_workload(GOLDEN_MESA)
        run = run_all_schemes(workload, default_config(),
                              instructions=500, warmup=0)
        assert run.plain.engine == "fast"


class TestSweepEquivalence:
    """A live and a replayed job through the runner, serial and
    parallel, both reproduce the per-instruction loop's digest."""

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "workers2"])
    def test_sweep_matches_scalar(self, tmp_path, digests, workers):
        spec_args = dict(config=default_config(),
                         instructions=MESA_INSTRUCTIONS,
                         warmup=MESA_WARMUP)
        replay = JobSpec(workload=f"trace:{GOLDEN_MESA}", **spec_args)
        live = JobSpec(workload="177.mesa", **spec_args)
        runner = SweepRunner(store=ResultStore(tmp_path / "cache"),
                             workers=workers)
        results = runner.run([replay, live])
        assert all(result.ok for result in results), results
        expected = digests["177.mesa/vi-pt/4096"]
        assert [_digest(result.run) for result in results] == [expected] * 2


#: the member geometries every grid-equivalence case sweeps
GRID_ENTRIES = (1, 8, 32)


def _grid_specs(name: str, instructions: int, warmup: int):
    return [JobSpec(workload=name,
                    config=default_config().with_itlb(
                        TLBConfig(entries=entries)),
                    instructions=instructions, warmup=warmup)
            for entries in GRID_ENTRIES]


def _assert_grid_identical(name, instructions, warmup, tmp_path,
                           **runner_kwargs):
    """A gridded sweep must byte-match per-member independent jobs —
    results *and* store entries (same content under the same keys)."""
    specs = _grid_specs(name, instructions, warmup)
    solo = SweepRunner(store=ResultStore(tmp_path / "solo"), grid=False)
    solo_results = solo.run(specs)
    assert solo.last_stats.grids == 0
    gridded = SweepRunner(store=ResultStore(tmp_path / "grid"),
                          **runner_kwargs)
    grid_results = gridded.run(specs)
    assert gridded.last_stats.grids >= 1
    assert gridded.last_stats.grid_members == len(specs)
    for one, many in zip(solo_results, grid_results):
        assert one.ok, one.error
        assert many.ok, many.error
        assert many.spec.key == one.spec.key
        assert _canon(one.run) == _canon(many.run)
    # every member lands under its unchanged content-addressed key
    assert (sorted(p.name for p in (tmp_path / "solo").glob("*.json"))
            == sorted(p.name for p in (tmp_path / "grid").glob("*.json")))


class TestGridEquivalence:
    """One shared decode/predictor/iL1 pass over N iTLB geometries vs N
    independent jobs, through every backend."""

    @pytest.mark.parametrize("name", [f"micro.{m}"
                                      for m in MICROBENCH_NAMES])
    def test_micro_workloads(self, micro_traces, name, tmp_path):
        _assert_grid_identical(f"trace:{micro_traces[name]}",
                               MICRO_INSTRUCTIONS, MICRO_WARMUP,
                               tmp_path)

    def test_mesa_golden_trace(self, tmp_path):
        _assert_grid_identical(f"trace:{GOLDEN_MESA}",
                               MESA_INSTRUCTIONS, MESA_WARMUP, tmp_path)

    @pytest.mark.parametrize("name", [
        f"import:eio:{FIXTURES / 'twopage.eio.txt'}",
        f"import:gem5:{FIXTURES / 'loopcall.gem5.txt.gz'}",
    ], ids=["eio", "gem5"])
    def test_imported_fixtures(self, name, tmp_path):
        _assert_grid_identical(name, 600, 100, tmp_path)

    def test_two_grids_through_pool_backend(self, tmp_path):
        """Two grids cross the pool wire as two payloads and come back
        expanded to one outcome per member, all byte-identical."""
        mesa = _grid_specs(f"trace:{GOLDEN_MESA}",
                           MESA_INSTRUCTIONS, MESA_WARMUP)
        eio = _grid_specs(f"import:eio:{FIXTURES / 'twopage.eio.txt'}",
                          600, 100)
        specs = mesa + eio
        solo = SweepRunner(store=ResultStore(tmp_path / "solo"),
                           grid=False)
        solo_results = solo.run(specs)
        pooled = SweepRunner(store=ResultStore(tmp_path / "grid"),
                             workers=2, backend="pool")
        pool_results = pooled.run(specs)
        assert pooled.last_stats.grids == 2
        assert pooled.last_stats.grid_members == len(specs)
        for one, many in zip(solo_results, pool_results):
            assert one.ok and many.ok, (one.error, many.error)
            assert _canon(one.run) == _canon(many.run)
        assert (sorted(p.name
                       for p in (tmp_path / "solo").glob("*.json"))
                == sorted(p.name
                          for p in (tmp_path / "grid").glob("*.json")))

    def test_grid_through_real_worker_queue(self, tmp_path):
        """The full wire protocol, no stubs: a grid job file drained by
        two real ``repro worker`` processes, every member stored under
        its own key, byte-identical to independent serial jobs."""
        specs = _grid_specs(f"trace:{GOLDEN_MESA}",
                            MESA_INSTRUCTIONS, MESA_WARMUP)
        solo = SweepRunner(store=ResultStore(tmp_path / "solo"),
                           grid=False)
        solo_results = solo.run(specs)

        root = tmp_path / "q"
        src = Path(repro.__file__).parents[1]
        env = dict(os.environ)
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
            assert runner.last_stats.grids == 1
            assert runner.last_stats.grid_members == len(specs)
            for one, many in zip(solo_results, results):
                assert many.ok, many.error
                assert _canon(one.run) == _canon(many.run)
            # one store entry per member, none left enqueued
            assert (len(list(backend.store_root.glob("*.json")))
                    == len(specs))
        finally:
            for worker in workers:
                if worker.poll() is None:
                    worker.kill()
                worker.wait(timeout=30)


class TestEngineSelection:
    def test_batch_engine_rejects_live_programs(self):
        """The retired engine names fail typed, listing the engines."""
        program = resolve("micro.counted_loop").link()
        simulator = Simulator(default_config())
        for retired in ("batch", "scalar"):
            with pytest.raises(ConfigError, match="engines: fast, ooo"):
                simulator.run_program(program, instructions=100,
                                      engine=retired)

    def test_scalar_forces_fast_engine_on_traces(self):
        workload = load_trace_workload(GOLDEN_MESA)
        program = workload.link(page_bytes=4096)
        result = Simulator(default_config()).run_program(
            program, instructions=200)
        assert result.engine == "fast"

    def test_recording_falls_back_to_scalar(self, tmp_path):
        """Recording over a replay writes the replayed stream back out:
        the same bytes a recording of the live stand-in writes."""
        out = tmp_path / "rerecord.trace.gz"
        record_trace(f"trace:{GOLDEN_MESA}", default_config(),
                     instructions=500, warmup=0, path=out)
        live = tmp_path / "live.trace.gz"
        record_trace("177.mesa", default_config(),
                     instructions=500, warmup=0, path=live)
        rerecorded = load_trace_workload(out)
        assert rerecorded.trace.segments
        assert (load_trace(out, use_cache=False).segments[0].records
                == load_trace(live, use_cache=False).segments[0].records)

    def test_batch_engine_rejects_recorder(self):
        """A replay carries no executor: only its committed stream, which
        the detailed engine cannot run."""
        workload = load_trace_workload(GOLDEN_MESA)
        program = workload.link(page_bytes=4096)
        with pytest.raises(TraceError, match="no executor"):
            program.make_executor(None)
        with pytest.raises(TraceError):
            Simulator(default_config()).run_program(
                program, instructions=100, engine="ooo")

    def test_exhaustion_raises_trace_error(self):
        workload = load_trace_workload(GOLDEN_MESA)
        program = workload.link(page_bytes=4096)
        engine = FastEngine(program, default_config())
        with pytest.raises(TraceError, match="trace exhausted"):
            engine.run(10_000_000)


class TestSegmentColumns:
    def test_columns_memoized_per_segment(self):
        trace = load_trace(GOLDEN_MESA, use_cache=False)
        segment = trace.segments[0]
        cols = segment.columns()
        assert segment.columns() is cols
        assert cols.steps == len(segment.records)
        assert len(cols.pc) == cols.steps
        assert cols.nbytes() > 0

    def test_columns_agree_with_records(self):
        trace = load_trace(GOLDEN_MESA, use_cache=False)
        for segment in trace.segments:
            cols = segment.columns()
            for i, (idx, aux) in enumerate(segment.records[:2000]):
                instr = segment.instructions[idx]
                assert cols.pc[i] == instr.address
                assert cols.kind[i] == instr.kind_code
                assert cols.aux[i] == aux
                assert cols.index[i] == idx
                assert cols.latency[i] == instr.latency

    def test_run_lengths(self):
        trace = load_trace(GOLDEN_MESA, use_cache=False)
        cols = trace.segments[0].columns()
        n = cols.steps
        for i in range(min(n, 2000)):
            if cols.kind[i] in PLAIN_KINDS:
                expected = cols.run[i + 1] + 1 if i + 1 < n else 1
                assert cols.run[i] == expected
            else:
                assert cols.run[i] == 0


class TestLiveStream:
    def test_executed_once_for_the_largest_budget(self, monkeypatch):
        """A live program keeps its stream: shorter windows replay a
        prefix of it, only a longer one executes the program again."""
        calls = []

        def counting(program, budget):
            calls.append(budget)
            return committed_stream(program, budget)

        monkeypatch.setattr("repro.cpu.functional.committed_stream",
                            counting)
        program = resolve("micro.counted_loop").link()
        for budget in (1_000, 500, 1_000, 2_000, 1_500):
            program.window_source(budget)
        assert calls == [1_000, 2_000]

    def test_executed_with_the_collector_paused(self):
        """Every record survives into the segment, so the cyclic
        collector must not scan the heap while the stream is built: at
        most the one young-generation pass when it resumes, where a
        running collector makes dozens and reaches the older ones."""
        program = resolve("177.mesa").link()
        enabled = gc.isenabled()
        started = []
        gc.collect()  # empty generation counters: a fixed starting point

        def note(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.callbacks.append(note)
        try:
            segment = committed_stream(program, 20_000)
        finally:
            gc.callbacks.remove(note)
        assert len(segment.records) >= 20_000
        assert started in ([], [0])
        assert gc.isenabled() == enabled


class TestTraceMemoization:
    def test_same_content_shares_one_decode(self, tmp_path):
        clear_trace_cache()
        first = load_trace(GOLDEN_MESA)
        assert load_trace(GOLDEN_MESA) is first
        # the workload wrapper is fresh, the decoded file shared
        a = load_trace_workload(GOLDEN_MESA)
        b = load_trace_workload(GOLDEN_MESA)
        assert a is not b
        assert a.trace is b.trace is first

    def test_edited_file_is_never_served_stale(self, tmp_path):
        clear_trace_cache()
        path = tmp_path / "t.trace.gz"
        record_trace("micro.counted_loop", default_config(),
                     instructions=400, warmup=0, path=path)
        first = load_trace(path)
        record_trace("micro.taken_pattern", default_config(),
                     instructions=400, warmup=0, path=path)
        second = load_trace(path)
        assert second is not first
        assert second.workload_name == "micro.taken_pattern"

    def test_lru_capacity_bounds_the_cache(self, tmp_path):
        clear_trace_cache()
        paths = []
        for i in range(TRACE_CACHE_CAPACITY + 2):
            path = tmp_path / f"t{i}.trace.gz"
            record_trace("micro.counted_loop", default_config(),
                         instructions=100 + i, warmup=0, path=path)
            paths.append(path)
        loaded = [load_trace(p) for p in paths]
        # the first entries were evicted: reloading decodes afresh
        assert load_trace(paths[0]) is not loaded[0]
        # the most recent survives
        assert load_trace(paths[-1]) is loaded[-1]
        clear_trace_cache()

    def test_use_cache_false_bypasses(self):
        clear_trace_cache()
        cached = load_trace(GOLDEN_MESA)
        assert load_trace(GOLDEN_MESA, use_cache=False) is not cached

    def test_env_capacity_override_and_evict_events(self, tmp_path,
                                                    monkeypatch):
        """``REPRO_TRACE_LRU_CAPACITY`` resizes the decoded-trace LRU
        (the hard-coded 8 starved >8-trace sweeps), and every eviction
        is a visible ``trace.lru_evict`` event."""
        from repro import telemetry
        from repro.trace.format import _TRACE_LRU, trace_cache_capacity

        clear_trace_cache()
        monkeypatch.setenv("REPRO_TRACE_LRU_CAPACITY", "4")
        assert trace_cache_capacity() == 4
        paths = []
        for i in range(9):
            path = tmp_path / f"t{i}.trace.gz"
            record_trace("micro.counted_loop", default_config(),
                         instructions=100 + i, warmup=0, path=path)
            paths.append(path)
        log = tmp_path / "events.jsonl"
        telemetry.configure(level="debug", json_path=str(log),
                            propagate=False)
        try:
            for path in paths:
                load_trace(path)
        finally:
            telemetry.disable()
        assert len(_TRACE_LRU) == 4
        evicts = [json.loads(line)
                  for line in log.read_text().splitlines()
                  if json.loads(line)["event"] == "trace.lru_evict"]
        # nine distinct traces through a four-slot LRU: five evictions
        assert len(evicts) == 5
        assert all(event["capacity"] == 4 for event in evicts)
        assert all(event["path"] for event in evicts)
        clear_trace_cache()

    def test_bogus_capacity_env_falls_back_to_default(self, monkeypatch):
        from repro.trace.format import trace_cache_capacity
        for bogus in ("banana", "0", "-3", ""):
            monkeypatch.setenv("REPRO_TRACE_LRU_CAPACITY", bogus)
            assert trace_cache_capacity() == TRACE_CACHE_CAPACITY
        monkeypatch.delenv("REPRO_TRACE_LRU_CAPACITY")
        assert trace_cache_capacity() == TRACE_CACHE_CAPACITY


class TestBenchHarness:
    def test_bench_workload_structure_and_equivalence_gate(self, tmp_path):
        from repro.bench import bench_workload, speedups
        records = bench_workload(
            "177.mesa", GOLDEN_MESA, instructions=800, warmup=100,
            repeats=1)
        assert {(r.mode, r.engine) for r in records} == {
            ("engine", "fast"), ("job", "fast"),
            ("grid", "independent"), ("grid", "grid"),
            ("stream", "eager"), ("stream", "windowed")}
        for record in records:
            assert record.instr_per_sec > 0
            assert record.best_seconds > 0
            assert record.instructions > 0
        # the stream rows carry the memory story: the windowed pass
        # must decode strictly less at a time than the eager one
        peaks = {r.engine: r.peak_window_bytes for r in records
                 if r.mode == "stream"}
        assert 0 < peaks["windowed"] < peaks["eager"]
        assert set(speedups(records)["177.mesa"]) == {"grid", "stream"}

    def test_cli_bench_writes_report(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "BENCH_test.json"
        code = main(["bench", "--quick", "--instructions", "600",
                     "--warmup", "100", "--repeats", "1",
                     "--trace-dir", str(tmp_path / "traces"),
                     "-o", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["bench_format"] == 1
        assert payload["speedups"]["177.mesa"]["grid"] > 0
        assert "177.mesa" in capsys.readouterr().out
