"""Record→replay equivalence and trace integration with the runner.

The acceptance-critical property: replaying a recorded trace of any
registry workload reproduces the live run's counters and energies
*byte-identically* (``CombinedRun.to_dict()`` equality) — serially and
through the parallel sweep runner — and editing a trace file changes
the :class:`JobSpec` cache key, so the ResultStore can never serve
stale results for it.
"""

import json

import pytest

from repro.config import (
    CacheAddressing,
    SchemeName,
    TLBConfig,
    default_config,
)
from repro.errors import RegistryError, TraceError
from repro.runner import JobSpec, ResultStore, SweepRunner
from repro.sim.multi import run_all_schemes
from repro.trace import TraceWorkload, load_trace_workload, record_trace
from repro.workloads import registry


def _canonical(run) -> str:
    return json.dumps(run.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("traces")


@pytest.fixture(scope="module")
def loop_trace(trace_dir):
    """One recorded microbenchmark, and its live run, shared by the
    runner tests."""
    path = trace_dir / "loop.trace.gz"
    record_trace("micro.taken_pattern", default_config(),
                 instructions=1500, warmup=200, path=path)
    live = run_all_schemes(registry.resolve("micro.taken_pattern"),
                           default_config(), instructions=1500, warmup=200)
    return path, live


class TestRecordReplayEquivalence:
    @pytest.mark.parametrize("name", [f"micro.{n}"
                                      for n in registry.MICROBENCH_NAMES])
    def test_every_microbenchmark_round_trips(self, name, trace_dir):
        config = default_config()
        path = trace_dir / f"{name}.trace.gz"
        record_trace(name, config, instructions=2000, warmup=200,
                     path=path)
        live = run_all_schemes(registry.resolve(name), config,
                               instructions=2000, warmup=200)
        replay = run_all_schemes(load_trace_workload(path), config,
                                 instructions=2000, warmup=200)
        assert _canonical(replay) == _canonical(live)

    def test_every_microbenchmark_round_trips_on_two_workers(
            self, trace_dir):
        """The same record→replay equality must survive the worker
        process boundary: a workers=2 sweep over every micro trace is
        byte-identical to the live runs."""
        config = default_config()
        specs, live_runs = [], []
        for short in registry.MICROBENCH_NAMES:
            name = f"micro.{short}"
            path = trace_dir / f"{name}.par.trace.gz"
            record_trace(name, config, instructions=2000, warmup=200,
                         path=path)
            live_runs.append(run_all_schemes(registry.resolve(name), config,
                                             instructions=2000, warmup=200))
            specs.append(JobSpec(workload=f"trace:{path}", config=config,
                                 instructions=2000, warmup=200))
        results = SweepRunner(workers=2).run(specs)
        for live, result in zip(live_runs, results):
            assert result.ok, result.error
            assert _canonical(result.run) == _canonical(live)

    def test_spec_standin_round_trips(self, trace_dir, mesa_workload):
        config = default_config()
        path = trace_dir / "mesa.trace.gz"
        record_trace(mesa_workload, config, instructions=4000,
                     warmup=800, path=path)
        live = run_all_schemes(mesa_workload, config, instructions=4000,
                               warmup=800)
        replay = run_all_schemes(load_trace_workload(path), config,
                                 instructions=4000, warmup=800)
        assert _canonical(replay) == _canonical(live)

    def test_replay_valid_under_other_configs(self, trace_dir,
                                              mesa_workload):
        """The committed stream is architectural: one trace serves any
        same-page-size machine (iTLB sizes, iL1 addressing)."""
        path = trace_dir / "mesa_cfg.trace.gz"
        record_trace(mesa_workload, default_config(), instructions=3000,
                     warmup=500, path=path)
        workload = load_trace_workload(path)
        for config in (default_config().with_itlb(TLBConfig(entries=4)),
                       default_config(CacheAddressing.VIVT),
                       default_config(CacheAddressing.PIPT)):
            live = run_all_schemes(mesa_workload, config,
                                   instructions=3000, warmup=500)
            replay = run_all_schemes(workload, config,
                                     instructions=3000, warmup=500)
            assert _canonical(replay) == _canonical(live)

    def test_prefix_window_replay_matches_live_prefix(self, trace_dir):
        config = default_config()
        path = trace_dir / "prefix.trace.gz"
        record_trace("micro.taken_pattern", config, instructions=1500,
                     warmup=300, path=path)
        live = run_all_schemes(registry.resolve("micro.taken_pattern"),
                               config, instructions=600, warmup=100)
        replay = run_all_schemes(load_trace_workload(path), config,
                                 instructions=600, warmup=100)
        assert _canonical(replay) == _canonical(live)

    def test_window_longer_than_trace_raises(self, loop_trace):
        path, _ = loop_trace
        with pytest.raises(TraceError, match="exhausted"):
            run_all_schemes(load_trace_workload(path), default_config(),
                            instructions=50_000, warmup=200)

    def test_failed_recording_leaves_no_partial_file(self, loop_trace,
                                                     tmp_path):
        """A recording whose run dies must not leave a parseable trace
        whose header promises a window it never captured."""
        path, _ = loop_trace
        out = tmp_path / "partial.trace.gz"
        with pytest.raises(TraceError, match="exhausted"):
            record_trace(load_trace_workload(path), default_config(),
                         instructions=50_000, warmup=200, path=out)
        assert not out.exists()

    def test_re_recording_at_a_missing_page_size_leaves_no_file(
            self, loop_trace, tmp_path):
        """Re-recording a trace at a page size it lacks fails when that
        size's binary is linked, after the file's own sizes were
        written, and still leaves no file."""
        path, _ = loop_trace
        out = tmp_path / "resized.trace.gz"
        with pytest.raises(TraceError, match="no plain segment for "
                                             "8192-byte pages"):
            record_trace(f"trace:{path}", default_config(),
                         instructions=1500, warmup=200, path=out,
                         page_sizes=[8192])
        assert not out.exists()

    def test_detailed_engine_rejected(self, loop_trace):
        path, _ = loop_trace
        with pytest.raises(TraceError, match="fast engine"):
            run_all_schemes(load_trace_workload(path), default_config(),
                            instructions=200, warmup=0, engine="ooo",
                            schemes=(SchemeName.IA,))


class TestRegistryIntegration:
    def test_trace_names_resolve(self, loop_trace):
        path, _ = loop_trace
        workload = registry.resolve(f"trace:{path}")
        assert isinstance(workload, TraceWorkload)
        assert workload.profile.name == "micro.taken_pattern"

    def test_resolution_is_not_memoized(self, trace_dir):
        """An edited trace file must be re-read on the next resolve."""
        path = trace_dir / "fresh.trace.gz"
        record_trace("micro.counted_loop", default_config(),
                     instructions=500, warmup=50, path=path)
        first = registry.resolve(f"trace:{path}")
        record_trace("micro.straight_line", default_config(),
                     instructions=500, warmup=50, path=path)
        second = registry.resolve(f"trace:{path}")
        assert first.profile.name == "micro.counted_loop"
        assert second.profile.name == "micro.straight_line"

    def test_is_registered_checks_the_file(self, loop_trace, tmp_path):
        path, _ = loop_trace
        assert registry.is_registered(f"trace:{path}")
        assert not registry.is_registered(f"trace:{tmp_path}/absent.gz")

    def test_trace_names_count_as_builtin(self, loop_trace):
        # any process can read the file, so trace jobs may go to workers
        path, _ = loop_trace
        assert registry.is_builtin(f"trace:{path}")

    def test_trace_prefix_reserved_for_files(self):
        with pytest.raises(RegistryError, match="reserved"):
            registry.register("trace:x", lambda: None)

    def test_unknown_name_still_raises(self):
        with pytest.raises(KeyError):
            registry.resolve("no.such.workload")


class TestJobSpecContentAddressing:
    def test_digest_computed_for_trace_workloads(self, loop_trace):
        path, _ = loop_trace
        spec = JobSpec(workload=f"trace:{path}", config=default_config(),
                       instructions=500, warmup=100)
        assert spec.workload_digest is not None
        assert len(spec.workload_digest) == 64

    def test_no_digest_key_for_registry_workloads(self):
        """Name-identified specs keep their PR-1 canonical form (and
        therefore their existing cache keys)."""
        spec = JobSpec(workload="micro.counted_loop",
                       config=default_config(), instructions=500)
        assert spec.workload_digest is None
        assert "workload_digest" not in spec.to_dict()

    def test_round_trip_preserves_digest(self, loop_trace):
        path, _ = loop_trace
        spec = JobSpec(workload=f"trace:{path}", config=default_config(),
                       instructions=500, warmup=100)
        rebuilt = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.key == spec.key

    def test_editing_the_file_changes_the_key(self, trace_dir):
        path = trace_dir / "edit.trace.gz"
        record_trace("micro.counted_loop", default_config(),
                     instructions=400, warmup=50, path=path)
        before = JobSpec(workload=f"trace:{path}",
                         config=default_config(), instructions=300)
        record_trace("micro.counted_loop", default_config(),
                     instructions=800, warmup=50, path=path)
        after = JobSpec(workload=f"trace:{path}",
                        config=default_config(), instructions=300)
        assert before.workload_digest != after.workload_digest
        assert before.key != after.key

    def test_edited_trace_never_hits_stale_cache(self, trace_dir,
                                                 tmp_path):
        path = trace_dir / "stale.trace.gz"
        record_trace("micro.counted_loop", default_config(),
                     instructions=400, warmup=50, path=path)
        store = ResultStore(tmp_path / "cache")
        spec = JobSpec(workload=f"trace:{path}", config=default_config(),
                       instructions=300, warmup=50)
        store.put(spec, spec.run())
        assert store.get(spec) is not None
        record_trace("micro.counted_loop", default_config(),
                     instructions=800, warmup=50, path=path)
        edited = JobSpec(workload=f"trace:{path}",
                         config=default_config(), instructions=300,
                         warmup=50)
        assert store.get(edited) is None  # different key: a miss

    def test_missing_trace_becomes_failed_job_not_crashed_batch(
            self, tmp_path):
        """A missing/unreadable trace file must not crash spec
        *construction* (that would abort the whole batch build before
        the sweep's per-job error capture could help); it surfaces as
        that one job's error while the rest of the sweep completes."""
        bad = JobSpec(workload=f"trace:{tmp_path}/absent.trace.gz",
                      config=default_config(), instructions=100)
        assert bad.workload_digest == "unreadable"
        assert len(bad.key) == 64  # still batchable and hashable
        good = JobSpec(workload="micro.counted_loop",
                       config=default_config(), instructions=500,
                       warmup=50)
        results = SweepRunner(store=ResultStore()).run([bad, good])
        assert not results[0].ok
        assert "absent.trace.gz" in results[0].error
        assert results[1].ok

    def test_unreadable_digest_never_caches(self, tmp_path):
        """Two specs over the same missing file share the sentinel key,
        but failures are never stored, so nothing stale can be served
        once the file appears (its real digest then takes over)."""
        path = tmp_path / "late.trace.gz"
        store = ResultStore(tmp_path / "cache")
        spec = JobSpec(workload=f"trace:{path}", config=default_config(),
                       instructions=300, warmup=50)
        assert SweepRunner(store=store).run([spec])[0].ok is False
        assert store.writes == 0
        record_trace("micro.counted_loop", default_config(),
                     instructions=400, warmup=50, path=path)
        fresh = JobSpec(workload=f"trace:{path}", config=default_config(),
                        instructions=300, warmup=50)
        assert fresh.workload_digest != "unreadable"
        assert fresh.key != spec.key

    @pytest.mark.parametrize("backend", ["serial", "pool"])
    def test_sentinel_spec_refuses_to_run_even_if_file_appears(
            self, tmp_path, backend):
        """The poisoning race: a spec built while the file was missing
        must not run successfully after the file shows up — its result
        would be stored under the sentinel key, where a later spec over
        *different* file bytes could hit it.  run() refuses on every
        backend (a partner job makes the pool really cross the wire);
        a fresh spec carries the real digest and works."""
        path = tmp_path / "race.trace.gz"
        stale = JobSpec(workload=f"trace:{path}", config=default_config(),
                        instructions=300, warmup=50)
        record_trace("micro.counted_loop", default_config(),
                     instructions=400, warmup=50, path=path)
        partner = JobSpec(workload="micro.counted_loop",
                          config=default_config(), instructions=300,
                          warmup=50)
        store = ResultStore(tmp_path / "cache")
        runner = SweepRunner(store=store, workers=2, backend=backend)
        result, other = runner.run([stale, partner])
        assert runner.last_stats.parallel == (backend == "pool")
        assert not result.ok
        assert "construct a new spec" in result.error
        assert other.ok, other.error
        # nothing landed under the sentinel: the one write is the partner
        assert store.writes == 1 and store.get(stale) is None
        fresh = JobSpec(workload=f"trace:{path}", config=default_config(),
                        instructions=300, warmup=50)
        assert SweepRunner(store=store).run([fresh])[0].ok


class TestSweepRunnerIntegration:
    def _specs(self, path):
        return [JobSpec(workload=f"trace:{path}", config=default_config()
                        .with_itlb(TLBConfig(entries=entries)),
                        instructions=1000, warmup=200)
                for entries in (8, 32)]

    def test_sweep_over_trace_end_to_end(self, loop_trace):
        path, live = loop_trace
        results = SweepRunner().run(self._specs(path))
        assert all(result.ok for result in results)
        assert all(result.run.schemes for result in results)
        assert all(result.run.workload_name == "micro.taken_pattern"
                   for result in results)

    def test_parallel_matches_serial_byte_for_byte(self, loop_trace):
        path, _ = loop_trace
        serial = SweepRunner(workers=1).run(self._specs(path))
        parallel = SweepRunner(workers=2).run(self._specs(path))
        for left, right in zip(serial, parallel):
            assert left.ok and right.ok
            assert _canonical(left.run) == _canonical(right.run)

    def test_second_sweep_served_from_cache(self, loop_trace, tmp_path):
        path, _ = loop_trace
        store = ResultStore(tmp_path / "cache")
        runner = SweepRunner(store=store)
        runner.run(self._specs(path))
        assert runner.last_stats.simulated == 2
        runner.run(self._specs(path))
        assert runner.last_stats.simulated == 0
        assert runner.last_stats.cached == 2
