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

import dataclasses
import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import repro
from reference_columns import engine_view
from repro.config import (
    CacheAddressing,
    SchemeName,
    TLBConfig,
    TwoLevelTLBConfig,
    default_config,
)
from repro.cpu.fast import FastEngine
from repro.cpu.functional import committed_stream
from repro.errors import ConfigError, SimulationError, TraceError
from repro.runner import FileQueueBackend, JobSpec, ResultStore, SweepRunner
from repro.sim import multi
from repro.sim.multi import run_all_schemes
from repro.sim.simulator import Simulator, run_program_grid
from repro.trace.format import (
    COLUMN_BYTES_PER_STEP,
    PLAIN_KINDS,
    TRACE_CACHE_CAPACITY,
    TraceReader,
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


def _full_and_subset(schemes):
    """The mesa golden trace's full evaluation and its ``schemes``
    subset, over the pinned window."""
    workload = load_trace_workload(GOLDEN_MESA)
    window = dict(instructions=MESA_INSTRUCTIONS, warmup=MESA_WARMUP)
    return (run_all_schemes(workload, default_config(), **window),
            run_all_schemes(workload, default_config(), schemes=schemes,
                            **window))


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
        """Schemes ride along without perturbing each other: a subset
        executes only the binaries its schemes name, and each executed
        pass's numbers are the full evaluation's, scheme by scheme."""
        full, subset = _full_and_subset(schemes)
        for scheme in schemes:
            assert (subset.scheme(scheme).to_dict()
                    == full.scheme(scheme).to_dict())
        if any(s.needs_instrumented_binary for s in schemes):
            assert (subset.instrumented.shared.to_dict()
                    == full.instrumented.shared.to_dict())
        else:
            assert subset.instrumented is subset.plain
        if all(s.needs_instrumented_binary for s in schemes):
            assert subset.plain is subset.instrumented
            with pytest.raises(SimulationError, match="only the "
                               "instrumented binary"):
                subset.shared
        else:
            assert subset.shared.to_dict() == full.shared.to_dict()

    @pytest.mark.parametrize("schemes", [
        (SchemeName.OPT, SchemeName.IA),
        (SchemeName.OPT,),
        (SchemeName.SOCA, SchemeName.IA),
        (SchemeName.HOA, SchemeName.SOLA),
        (SchemeName.IA,),
    ], ids=["opt+ia", "opt", "soca+ia", "hoa+sola", "ia"])
    def test_subset_normalizes_like_the_full_run(self, schemes):
        """Each scheme normalizes against Base on its own binary, whatever
        else the run selected."""
        full, subset = _full_and_subset(schemes)
        for scheme in schemes:
            assert (subset.scheme(scheme).to_dict()
                    == full.scheme(scheme).to_dict())
            assert (subset.normalized_energy(scheme)
                    == full.normalized_energy(scheme))
            assert (subset.normalized_cycles(scheme)
                    == full.normalized_cycles(scheme))

    def test_empty_scheme_set_is_refused(self):
        with pytest.raises(ConfigError, match="at least one scheme"):
            run_all_schemes(load_trace_workload(GOLDEN_MESA),
                            default_config(), instructions=100, schemes=())

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

_BASE = default_config()
_SERIAL_L2 = TwoLevelTLBConfig(level1=TLBConfig(entries=1),
                               level2=TLBConfig(entries=8))
_PARALLEL_L2 = dataclasses.replace(_SERIAL_L2, serial=False)

#: member shapes beyond fully associative sizes, each one grid: every
#: member replays the pass's lookup columns through its own iTLB
GRID_SHAPES = {
    "set-assoc": [_BASE.with_itlb(TLBConfig(entries=entries, assoc=assoc))
                  for entries, assoc in ((4, 2), (8, 2), (16, 4))],
    "miss-penalty": [_BASE.with_itlb(TLBConfig(entries=4,
                                               miss_penalty=penalty))
                     for penalty in (0, 10, 50)],
    "two-level": [_BASE.with_two_level_itlb(_SERIAL_L2),
                  _BASE.with_two_level_itlb(_PARALLEL_L2)],
    "mixed": [_BASE.with_itlb(TLBConfig(entries=2)),
              _BASE.with_two_level_itlb(_SERIAL_L2),
              _BASE.with_two_level_itlb(_PARALLEL_L2), _BASE],
    "energy-only": [_BASE, dataclasses.replace(
        _BASE, energy=dataclasses.replace(
            _BASE.energy, charge_cfr_reads=True, charge_btb_compare=True))],
}


def _grid_specs(name: str, instructions: int, warmup: int, members=None):
    if members is None:
        members = [_BASE.with_itlb(TLBConfig(entries=entries))
                   for entries in GRID_ENTRIES]
    return [JobSpec(workload=name, config=config,
                    instructions=instructions, warmup=warmup)
            for config in members]


def _independent(root, specs):
    """The independent reference: one sweep per spec, so every spec
    runs as a one-member pass of its own (none forms a grid)."""
    runner = SweepRunner(store=ResultStore(root))
    results = []
    for spec in specs:
        results.extend(runner.run([spec]))
        assert runner.last_stats.grids == 0
    return results


def _assert_grid_identical(name, instructions, warmup, tmp_path,
                           members=None, **runner_kwargs):
    """A gridded sweep must byte-match per-member independent jobs —
    results *and* store entries (same content under the same keys)."""
    specs = _grid_specs(name, instructions, warmup, members)
    solo_results = _independent(tmp_path / "solo", specs)
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
    return grid_results


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

    @pytest.mark.parametrize("addressing", ADDRESSINGS,
                             ids=lambda a: a.value)
    @pytest.mark.parametrize("shape", sorted(GRID_SHAPES))
    def test_member_shapes(self, shape, addressing, tmp_path):
        """Set-associative, miss-penalty, two-level (serial and
        parallel), mixed mono + two-level and energy-only members,
        under the inline (VI-PT), serialized (PI-PT) and deferred
        (VI-VT, ``serve_from_cfr``) lookup paths."""
        _assert_grid_identical(
            f"trace:{GOLDEN_MESA}", MESA_INSTRUCTIONS, MESA_WARMUP,
            tmp_path, members=[config.with_il1_addressing(addressing)
                               for config in GRID_SHAPES[shape]])

    def test_member_shapes_streamed(self, tmp_path, monkeypatch):
        """A forced 4-step decode window: the columns are replayed at
        hundreds of window boundaries."""
        monkeypatch.setenv("REPRO_TRACE_WINDOW",
                           str(4 * COLUMN_BYTES_PER_STEP))
        clear_trace_cache()
        try:
            results = _assert_grid_identical(
                f"trace:{GOLDEN_MESA}", MESA_INSTRUCTIONS, MESA_WARMUP,
                tmp_path, members=[
                    config.with_il1_addressing(CacheAddressing.VIVT)
                    for config in GRID_SHAPES["mixed"]])
            assert results[0].metrics.stream_windows > 100
        finally:
            clear_trace_cache()

    def test_two_grids_through_pool_backend(self, tmp_path):
        """Two grids cross the pool wire as two payloads and come back
        expanded to one outcome per member, all byte-identical."""
        mesa = _grid_specs(f"trace:{GOLDEN_MESA}",
                           MESA_INSTRUCTIONS, MESA_WARMUP)
        eio = _grid_specs(f"import:eio:{FIXTURES / 'twopage.eio.txt'}",
                          600, 100)
        specs = mesa + eio
        solo_results = _independent(tmp_path / "solo", specs)
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
        solo_results = _independent(tmp_path / "solo", specs)

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

    def test_replay_pass_reports_the_fast_engine(self):
        workload = load_trace_workload(GOLDEN_MESA)
        program = workload.link(page_bytes=4096)
        result = Simulator(default_config()).run_program(
            program, instructions=200)
        assert result.engine == "fast"

    def test_re_recording_a_trace_writes_the_replayed_stream(self,
                                                             tmp_path):
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
        replayed = TraceReader(out).read().segments[0].columns()
        recorded = TraceReader(live).read().segments[0].columns()
        assert replayed.index == recorded.index
        assert replayed.aux == recorded.aux

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

    @pytest.mark.parametrize("engine", ["fast", "ooo"])
    def test_instrumented_only_run_executes_one_binary(self, monkeypatch,
                                                       engine):
        """An instrumented-only run executes the instrumented binary and
        nothing else; a fast pass carries Base to normalize against, a
        detailed one does not."""
        calls = []

        def counting(program, configs, **kwargs):
            calls.append((program.instrumented, kwargs["schemes"]))
            return run_program_grid(program, configs, **kwargs)

        monkeypatch.setattr(multi, "run_program_grid", counting)
        run = run_all_schemes(resolve("micro.counted_loop"),
                              default_config(), instructions=300,
                              warmup=50, schemes=(SchemeName.IA,),
                              engine=engine)
        assert [instrumented for instrumented, _ in calls] == [True]
        assert run.plain is run.instrumented
        if engine == "fast":
            assert calls[0][1] == (SchemeName.IA, SchemeName.BASE)
            assert run.normalized_cycles(SchemeName.IA) > 0.0
        else:
            assert calls[0][1] == (SchemeName.IA,)
            with pytest.raises(SimulationError, match="no Base"):
                run.normalized_cycles(SchemeName.IA)

    def test_exhaustion_raises_trace_error(self):
        workload = load_trace_workload(GOLDEN_MESA)
        program = workload.link(page_bytes=4096)
        engine = FastEngine(program, default_config())
        with pytest.raises(TraceError, match="trace exhausted"):
            engine.run(10_000_000)


class TestSegmentColumns:
    def test_columns_memoized_per_segment(self):
        trace = TraceReader(GOLDEN_MESA).read()
        segment = trace.segments[0]
        cols = segment.columns()
        assert segment.columns() is cols
        assert cols.steps == segment.steps
        assert cols.index is segment.index and cols.aux is segment.aux
        assert len(cols.events) == cols.steps
        assert cols.nbytes() > 0

    def test_columns_agree_with_records(self):
        """The whole-segment view against an independent decode of
        the same segment: a stream of one-step windows."""
        trace = TraceReader(GOLDEN_MESA).read()
        streamed = load_trace(GOLDEN_MESA, stream=COLUMN_BYTES_PER_STEP)
        for segment, single in zip(trace.segments, streamed.segments):
            view = engine_view(segment.columns())
            source = single.window_source()
            try:
                for i in range(min(segment.steps, 2000)):
                    window = source.next_window()
                    assert window.steps == 1
                    idx, aux = window.index[0], window.aux[0]
                    instr = source.instructions[idx]
                    assert view["pc"][i] == source.pcs[idx]
                    assert view["kind"][i] == instr.kind_code
                    assert view["aux"][i] == aux
                    assert view["index"][i] == idx
                    assert view["latency"][i] == instr.latency
            finally:
                source.close()

    def test_run_lengths(self):
        trace = TraceReader(GOLDEN_MESA).read()
        view = engine_view(trace.segments[0].columns())
        kinds, runs = view["kind"], view["run"]
        n = len(runs)
        for i in range(min(n, 2000)):
            if kinds[i] in PLAIN_KINDS:
                expected = runs[i + 1] + 1 if i + 1 < n else 1
                assert runs[i] == expected
            else:
                assert runs[i] == 0


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
        """The stream is built into flat arrays, so the build keeps no
        per-step objects for the cyclic collector to track: without any
        pause it makes at most one young-generation pass, never dozens
        reaching the older generations."""
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
        assert segment.steps >= 20_000
        assert started in ([], [0])
        assert gc.isenabled() == enabled

    def test_stream_holds_no_per_step_objects(self):
        """A live stream is its flat arrays: a step's index and aux
        slots and its event-map byte, with no Python object kept per
        step."""
        program = resolve("177.mesa").link()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            segment = committed_stream(program, 20_000)
            segment.columns()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held / segment.steps < 120, held / segment.steps


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
        """The LRU holds :data:`TRACE_CACHE_CAPACITY` decodes, and every
        eviction is a visible ``trace.lru_evict`` event."""
        from repro import telemetry
        from repro.trace.format import _TRACE_LRU

        clear_trace_cache()
        paths = []
        for i in range(TRACE_CACHE_CAPACITY + 2):
            path = tmp_path / f"t{i}.trace.gz"
            record_trace("micro.counted_loop", default_config(),
                         instructions=100 + i, warmup=0, path=path)
            paths.append(path)
        log = tmp_path / "events.jsonl"
        telemetry.configure(level="debug", json_path=str(log),
                            propagate=False)
        try:
            loaded = [load_trace(p) for p in paths]
        finally:
            telemetry.disable()
        assert len(_TRACE_LRU) == TRACE_CACHE_CAPACITY
        evicts = [json.loads(line)
                  for line in log.read_text().splitlines()
                  if json.loads(line)["event"] == "trace.lru_evict"]
        # two traces past a full LRU: two evictions
        assert len(evicts) == 2
        for event in evicts:
            assert event["capacity"] == 8
            assert event["path"]
        # the first entries were evicted: reloading decodes afresh
        assert load_trace(paths[0]) is not loaded[0]
        # the most recent survives
        assert load_trace(paths[-1]) is loaded[-1]
        clear_trace_cache()


class TestBenchHarness:
    @pytest.fixture
    def one_run_rows(self, monkeypatch):
        """Rows run only their requested repeats: the fake-clock tests
        pin the minimum-time rule, so the end-to-end tests skip its wall
        time."""
        monkeypatch.setattr("repro.bench.ROW_MIN_SECONDS", 0.0)

    def test_bench_workload_structure_and_equivalence_gate(
            self, tmp_path, one_run_rows):
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

    def test_stream_rows_repeat_to_the_minimum_time(self, monkeypatch):
        """A row's run count comes from its first run's duration: runs
        of 0.25 s fill a 1 s minimum in 4, and a long first run keeps
        the requested count."""
        from repro import bench
        clock = iter(range(1000))
        step = 0.25  # a run spans one clock tick
        monkeypatch.setattr(bench.time, "perf_counter",
                            lambda: next(clock) * step)
        assert bench._time_rows([lambda: 7], 1, 1.0) == [([0.25] * 4, 7)]
        assert len(bench._time_rows([lambda: 7], 5, 1.0)[0][0]) == 5
        assert len(bench._time_rows([lambda: 7], 2)[0][0]) == 2
        step = 2.0  # longer than the minimum
        assert len(bench._time_rows([lambda: 7], 1, 1.0)[0][0]) == 1

    def test_the_faster_row_sets_the_run_count(self, monkeypatch):
        """Rows of 0.5 s and 0.125 s under a 1 s minimum both run 8
        times, so the faster row too is timed over the minimum; the
        grid and stream views both ask for it."""
        from repro import bench
        clock = [0.0]
        monkeypatch.setattr(bench.time, "perf_counter", lambda: clock[0])

        def row(seconds):
            def run():
                clock[0] += seconds
                return 7
            return run

        assert bench._time_rows([row(0.5), row(0.125)], 2, 1.0) \
            == [([0.5] * 8, 7), ([0.125] * 8, 7)]
        asked = []

        def once(fns, repeats, min_seconds=0.0):
            asked.append((len(fns), min_seconds))
            return [([1.0] * repeats, fn()) for fn in fns]

        monkeypatch.setattr(bench, "_time_rows", once)
        bench.bench_workload("177.mesa", GOLDEN_MESA, instructions=300,
                             warmup=50, repeats=1)
        assert asked == [(1, 0.0), (1, 0.0),
                         (2, bench.ROW_MIN_SECONDS),
                         (2, bench.ROW_MIN_SECONDS)]

    def test_two_row_views_run_their_rows_in_turn(self, monkeypatch):
        """The rows of a two-row view alternate run by run, so host
        drift hits both alike: independent/grid and eager/windowed
        interleave, and every row of a view runs equally often."""
        import itertools

        from repro import bench
        ticks = itertools.count()
        step = 0.25
        monkeypatch.setattr(bench.time, "perf_counter",
                            lambda: next(ticks) * step)
        calls = []

        def row(name):
            return lambda: calls.append(name) or 7

        # both rows run as often as the minimum needs
        assert bench._time_rows([row("a"), row("b")], 1, 1.0) \
            == [([0.25] * 4, 7), ([0.25] * 4, 7)]
        assert calls == ["a", "b"] * 4

        calls.clear()
        step = 2.0  # every run outlasts the row minimum
        solo, grid = bench.run_all_schemes, bench.run_all_schemes_grid

        def logged_solo(workload, *args, **kwargs):
            windowed = getattr(workload, "trace", None) is not None \
                and workload.trace.window_steps
            calls.append("windowed" if windowed else "solo")
            return solo(workload, *args, **kwargs)

        def logged_grid(*args, **kwargs):
            calls.append("grid")
            return grid(*args, **kwargs)

        monkeypatch.setattr(bench, "run_all_schemes", logged_solo)
        monkeypatch.setattr(bench, "run_all_schemes_grid", logged_grid)
        bench.bench_workload("177.mesa", GOLDEN_MESA, instructions=300,
                             warmup=50, repeats=2)
        independent = ["solo"] * len(bench.GRID_POINTS)
        assert calls == (["solo"] * 2  # job view
                         + (independent + ["grid"]) * 2
                         + ["solo", "windowed"] * 2)

    def test_cli_bench_writes_report(self, tmp_path, capsys, one_run_rows):
        from repro.cli import main
        out = tmp_path / "BENCH_test.json"
        code = main(["bench", "--quick", "--instructions", "600",
                     "--warmup", "100", "--repeats", "1",
                     "--trace-dir", str(tmp_path / "traces"),
                     "-o", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["bench_format"] == 1
        assert payload["speedup_statistic"] == "median of per-round ratios"
        assert payload["speedups"]["177.mesa"]["grid"] > 0
        assert "177.mesa" in capsys.readouterr().out

    def test_view_ratio_is_the_median_round_ratio(self):
        """A view's ratio pairs its rows round by round: one fast
        outlier run moves the median of the round ratios, not the
        ratio of the two best runs (4x here)."""
        from repro.bench import BenchRecord, speedups

        def row(engine, instructions, seconds):
            return BenchRecord(
                workload="w", engine=engine, mode="grid",
                instructions=instructions, repeats=len(seconds),
                best_seconds=min(seconds),
                mean_seconds=sum(seconds) / len(seconds),
                instr_per_sec=instructions / min(seconds),
                run_seconds=seconds)

        records = [row("independent", 600, [1.0, 1.0, 2.0]),
                   row("grid", 300, [0.25, 0.125, 0.5])]
        assert speedups(records) == {"w": {"grid": 2.0}}

    def test_compare_reports_flags_ratio_drops(self):
        from repro.bench import compare_reports
        window = {"instructions": 600, "warmup": 100}
        previous = {"window": window, "speedups": {
            "177.mesa": {"grid": 4.0, "stream": 0.7},
            "micro.straight_line": {"grid": 7.0}}}
        current = {"window": window, "speedups": {
            "177.mesa": {"grid": 8.0, "stream": 0.5}}}
        lines, regressions = compare_reports(current, previous)
        assert len(lines) == 2  # only views both reports hold
        assert [line.split()[:2] for line in regressions] \
            == [["177.mesa", "stream"]]  # -29%; grid doubled
        current["speedups"]["177.mesa"]["stream"] = 0.6  # -14%: kept
        assert compare_reports(current, previous)[1] == []

    def test_cli_bench_needs_an_output(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["bench", "--quick"])
        assert "--output" in capsys.readouterr().err

    def test_cli_bench_compare_refuses_another_window(self, tmp_path,
                                                      capsys):
        from repro.cli import main
        previous = tmp_path / "BENCH_prev.json"
        previous.write_text(json.dumps({
            "window": {"instructions": 60_000, "warmup": 10_000},
            "speedups": {}}))
        out = tmp_path / "BENCH_new.json"
        with pytest.raises(SystemExit):
            main(["bench", "--quick", "--instructions", "600",
                  "--warmup", "100", "-o", str(out),
                  "--compare", str(previous)])
        assert "window" in capsys.readouterr().err
        assert not out.exists()  # refused before benching

    def test_cli_bench_compare_fails_on_a_ratio_drop(self, tmp_path,
                                                     capsys, one_run_rows):
        from repro.cli import main
        previous = tmp_path / "BENCH_prev.json"
        previous.write_text(json.dumps({
            "window": {"instructions": 600, "warmup": 100},
            "speedups": {"177.mesa": {"grid": 1000.0, "stream": 1e-6}}}))
        code = main(["bench", "--quick", "--instructions", "600",
                     "--warmup", "100", "--repeats", "1",
                     "--trace-dir", str(tmp_path / "traces"),
                     "-o", str(tmp_path / "BENCH_new.json"),
                     "--compare", str(previous)])
        captured = capsys.readouterr()
        assert code == 1
        changes = captured.out.split("ratio change from")[1]
        assert "177.mesa" in changes and "grid" in changes \
            and "stream" in changes
        assert "1 view(s) fell" in captured.err  # grid; stream rose

