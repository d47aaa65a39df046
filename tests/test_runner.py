"""The sweep runner subsystem: job specs, the result store, parallel
sweeps, and dict round-tripping of results and configs.

The acceptance-critical properties:

* a parallel sweep produces byte-identical scheme counters/energies to
  the serial path;
* a repeated sweep is served entirely from the ResultStore (no
  simulator calls on the second run);
* a corrupted cache entry is recovered from, not fatal.
"""

import dataclasses
import json

import pytest

from repro.config import (
    CacheAddressing,
    SchemeName,
    TLBConfig,
    TwoLevelTLBConfig,
    default_config,
)
from repro.errors import ConfigError
from repro.runner import GridSpec, JobSpec, ResultStore, SweepRunner
from repro.runner.jobspec import SPEC_FORMAT
from repro.sim.multi import CombinedRun


def _spec(workload="micro.counted_loop", config=None, instructions=2_000,
          warmup=200, **kwargs):
    return JobSpec(workload=workload,
                   config=config if config is not None else default_config(),
                   instructions=instructions, warmup=warmup, **kwargs)


def _canonical(run: CombinedRun) -> str:
    """Byte-exact fingerprint of a run's counters and energies."""
    return json.dumps(run.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def micro_run():
    return _spec().run()


class TestMachineConfigRoundTrip:
    def test_default(self):
        config = default_config(CacheAddressing.VIVT)
        rebuilt = type(config).from_dict(
            json.loads(json.dumps(config.to_dict())))
        assert rebuilt == config

    def test_two_level(self):
        config = default_config().with_two_level_itlb(TwoLevelTLBConfig(
            level1=TLBConfig(entries=1),
            level2=TLBConfig(entries=32)))
        rebuilt = type(config).from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.itlb_two_level.level2.entries == 32


class TestCombinedRunRoundTrip:
    def test_json_round_trip_is_lossless(self, micro_run):
        data = json.loads(json.dumps(micro_run.to_dict()))
        rebuilt = CombinedRun.from_dict(data)
        assert rebuilt.to_dict() == micro_run.to_dict()

    def test_rebuilt_run_answers_like_the_original(self, micro_run):
        rebuilt = CombinedRun.from_dict(micro_run.to_dict())
        for scheme in SchemeName:
            assert (rebuilt.scheme(scheme).counters
                    == micro_run.scheme(scheme).counters)
            assert (rebuilt.normalized_energy(scheme)
                    == micro_run.normalized_energy(scheme))
            assert (rebuilt.normalized_cycles(scheme)
                    == micro_run.normalized_cycles(scheme))

    def test_plain_aliasing_restored(self):
        run = _spec(schemes=(SchemeName.BASE, SchemeName.OPT)).run()
        assert run.instrumented is run.plain
        rebuilt = CombinedRun.from_dict(run.to_dict())
        assert rebuilt.instrumented is rebuilt.plain


class TestJobSpec:
    def test_round_trip(self):
        spec = _spec(schemes=(SchemeName.BASE, SchemeName.IA))
        rebuilt = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.key == spec.key

    def test_scheme_strings_normalized(self):
        by_enum = _spec(schemes=(SchemeName.IA,))
        by_name = _spec(schemes=("ia",))
        assert by_enum == by_name
        assert by_enum.key == by_name.key

    def test_scheme_order_and_duplicates_canonicalized(self):
        a = _spec(schemes=(SchemeName.IA, SchemeName.BASE))
        b = _spec(schemes=("base", "ia", "base"))
        assert a == b
        assert a.key == b.key
        assert a.schemes == (SchemeName.BASE, SchemeName.IA)

    def test_key_is_content_addressed(self):
        spec = _spec()
        same = _spec(config=default_config())  # equal but distinct config
        assert same.key == spec.key
        assert _spec(instructions=2_001).key != spec.key
        assert _spec(workload="micro.call_return").key != spec.key
        assert _spec(
            config=default_config().with_itlb(TLBConfig(entries=8))
        ).key != spec.key

    def test_key_covers_format(self):
        assert _spec().to_dict()["format"] == SPEC_FORMAT

    def test_hashable(self):
        assert len({_spec(), _spec(), _spec(instructions=999)}) == 2

    @pytest.mark.parametrize("engine", ["scalr", "scalar", "batch"])
    def test_unknown_engine_refused_up_front(self, engine):
        """A misspelled or retired engine fails at construction, before
        it hashes into a key — from a script or from a queue file."""
        with pytest.raises(ConfigError, match="engines: fast, ooo"):
            _spec(engine=engine)
        data = _spec().to_dict()
        data["engine"] = engine
        with pytest.raises(ConfigError, match="engines: fast, ooo"):
            JobSpec.from_dict(data)


class TestResultStore:
    def test_memory_only_hit(self, micro_run):
        store = ResultStore()
        spec = _spec()
        assert store.get(spec) is None
        store.put(spec, micro_run)
        assert store.get(spec) is micro_run
        assert (store.hits, store.misses) == (1, 1)

    def test_disk_round_trip(self, tmp_path, micro_run):
        spec = _spec()
        ResultStore(tmp_path).put(spec, micro_run)
        # a fresh store (fresh process, effectively) reads it back
        reread = ResultStore(tmp_path).get(spec)
        assert reread is not None
        assert _canonical(reread) == _canonical(micro_run)

    def test_corrupted_entry_recovered(self, tmp_path, micro_run):
        spec = _spec()
        store = ResultStore(tmp_path)
        path = store.put(spec, micro_run)
        path.write_text("{ not json", encoding="utf-8")
        fresh = ResultStore(tmp_path)
        assert fresh.get(spec) is None  # miss, not an exception
        assert fresh.corrupt == 1
        assert not path.exists()  # quarantined
        # and the slot is usable again
        fresh.put(spec, micro_run)
        assert ResultStore(tmp_path).get(spec) is not None

    def test_key_mismatch_treated_as_corrupt(self, tmp_path, micro_run):
        spec = _spec()
        store = ResultStore(tmp_path)
        path = store.put(spec, micro_run)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["key"] = "0" * 64
        path.write_text(json.dumps(entry), encoding="utf-8")
        fresh = ResultStore(tmp_path)
        assert fresh.get(spec) is None
        assert fresh.corrupt == 1

    def test_nonfinite_entry_treated_as_corrupt(self, tmp_path,
                                                micro_run):
        """Regression: an entry carrying a bare ``NaN`` token (written
        by some older, non-strict serializer) used to deserialize into
        a result with ``float('nan')`` values that poison downstream
        arithmetic and table rendering.  Store reads now reject the
        token and take the normal corruption path: miss, counted,
        quarantined."""
        spec = _spec()
        store = ResultStore(tmp_path)
        path = store.put(spec, micro_run)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["result"]["simulate_seconds"] = float("nan")
        path.write_text(json.dumps(entry, allow_nan=True),
                        encoding="utf-8")
        assert "NaN" in path.read_text(encoding="utf-8")
        fresh = ResultStore(tmp_path)
        assert fresh.get(spec) is None  # miss, not a NaN resurrection
        assert fresh.corrupt == 1
        assert not path.exists()  # quarantined
        # an Infinity-bearing file likewise reads as unreadable (not
        # ok) in cache listings
        again = ResultStore(tmp_path)
        entry_path = again.put(spec, micro_run)
        doctored = json.loads(entry_path.read_text(encoding="utf-8"))
        doctored["result"]["simulate_seconds"] = float("inf")
        entry_path.write_text(json.dumps(doctored, allow_nan=True),
                              encoding="utf-8")
        records = again.disk_entries()
        assert [r["ok"] for r in records] == [False]

    def test_put_rejects_nonfinite_metrics(self, tmp_path, micro_run):
        """Regression: ``put`` used to serialize with the permissive
        json default, so a NaN that slipped into a run's metrics was
        silently persisted as a bare token no strict parser (or the
        hardened read path) accepts.  It now fails loudly at write
        time, before the temp file is created."""
        import copy

        from repro.telemetry.metrics import JobMetrics

        run = copy.copy(micro_run)
        run.job_metrics = JobMetrics(workload="micro.counted_loop",
                                     simulate_seconds=float("nan"))
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError):
            store.put(_spec(), run)
        assert list(tmp_path.glob("*.tmp*")) == []  # no stranded temp

    def test_purge(self, tmp_path, micro_run):
        store = ResultStore(tmp_path)
        store.put(_spec(), micro_run)
        store.put(_spec(instructions=999), micro_run)
        assert store.purge() == 2
        assert len(list(tmp_path.glob("*.json"))) == 0

    def test_deep_path_workload_name_fits_the_filesystem(self, tmp_path,
                                                         micro_run):
        """Regression: a trace:/import: workload naming a deep path used
        to yield a cache filename beyond the 255-byte limit, making
        ``put`` raise OSError(ENAMETOOLONG).  The slug is display-only —
        the key suffix disambiguates — so it is capped instead."""
        deep = "trace:" + "/".join(["deeply-nested-directory"] * 12) \
            + "/workload.trace.gz"
        spec = _spec(workload=deep, workload_digest="0" * 64)
        store = ResultStore(tmp_path)
        path = store.put(spec, micro_run)  # must not raise
        assert len(path.name.encode()) <= 110
        assert spec.key[:16] in path.name  # identity survives the cap
        assert path.name.endswith(".json")
        assert not path.name.startswith(".")
        reread = ResultStore(tmp_path).get(spec)
        assert reread is not None
        assert _canonical(reread) == _canonical(micro_run)

    def test_non_ascii_workload_name_capped_in_bytes(self, tmp_path,
                                                     micro_run):
        """Filesystem name limits are bytes, not characters: 80 CJK
        characters are ~240 UTF-8 bytes, so a character cap would
        re-introduce ENAMETOOLONG for non-ASCII trace paths."""
        spec = _spec(workload="trace:/データ/" + "テスト" * 40
                     + ".trace.gz", workload_digest="4" * 64)
        store = ResultStore(tmp_path)
        path = store.put(spec, micro_run)  # must not raise
        assert len(path.name.encode("utf-8")) <= 110
        assert ResultStore(tmp_path).get(spec) is not None

    def test_capped_slugs_with_same_tail_do_not_collide(self, tmp_path,
                                                        micro_run):
        """Two distinct workloads whose sanitized names share a long
        tail must still get distinct files (the key disambiguates)."""
        tail = "x" * 200
        a = _spec(workload=f"trace:/runs/a/{tail}",
                  workload_digest="1" * 64)
        b = _spec(workload=f"trace:/runs/b/{tail}",
                  workload_digest="2" * 64)
        store = ResultStore(tmp_path)
        assert store.put(a, micro_run) != store.put(b, micro_run)


class TestResultStoreEviction:
    def _fill(self, tmp_path, micro_run, count=4):
        store = ResultStore(tmp_path)
        paths = []
        for i in range(count):
            spec = _spec(instructions=1000 + i)
            paths.append(store.put(spec, micro_run))
        # stagger mtimes so LRU order is unambiguous (index 0 oldest)
        import os
        base = paths[0].stat().st_mtime
        for i, path in enumerate(paths):
            os.utime(path, (base + i, base + i))
        return store, paths

    def test_evicts_oldest_first_to_fit_the_budget(self, tmp_path,
                                                   micro_run):
        store, paths = self._fill(tmp_path, micro_run)
        entry_bytes = paths[0].stat().st_size
        removed, freed = store.evict(entry_bytes * 2 + entry_bytes // 2)
        assert removed == 2
        assert freed >= entry_bytes * 2
        survivors = set(tmp_path.glob("*.json"))
        assert survivors == set(paths[2:])  # the two newest

    def test_keep_zero_clears_everything(self, tmp_path, micro_run):
        store, paths = self._fill(tmp_path, micro_run)
        (tmp_path / "orphan.json.tmp123").write_text("half-written")
        removed, _ = store.evict(0)
        assert removed == len(paths) + 1
        assert not list(tmp_path.glob("*.json*"))

    def test_survivors_are_a_strict_recency_prefix(self, tmp_path,
                                                   micro_run):
        """LRU means nothing older than an evicted entry survives: when
        the newest entry alone busts the budget, everything goes —
        older entries must not be kept around it."""
        import os
        store, paths = self._fill(tmp_path, micro_run)
        newest = paths[-1]
        # make the newest entry larger than the whole budget
        newest.write_text(newest.read_text() + " " * 4096,
                          encoding="utf-8")
        mtime = max(p.stat().st_mtime for p in paths) + 10
        os.utime(newest, (mtime, mtime))
        budget = newest.stat().st_size - 1
        removed, _ = store.evict(budget)
        assert removed == len(paths)
        assert not list(tmp_path.glob("*.json"))

    def test_generous_budget_keeps_everything(self, tmp_path, micro_run):
        store, paths = self._fill(tmp_path, micro_run)
        assert store.evict(10 ** 12) == (0, 0)
        assert set(tmp_path.glob("*.json")) == set(paths)

    def test_evicted_entries_leave_the_memory_layer(self, tmp_path,
                                                    micro_run):
        store, _ = self._fill(tmp_path, micro_run)
        assert len(store) == 4
        store.evict(0)
        assert len(store) == 0

    def test_memory_only_store_is_a_noop(self, micro_run):
        store = ResultStore()
        store.put(_spec(), micro_run)
        assert store.evict(0) == (0, 0)
        assert len(store) == 1

    def test_rejects_negative_budget(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path).evict(-1)


class TestSweepRunner:
    #: 2 benchmarks x 2 iTLB sizes — the acceptance grid, kept small
    GRID = [
        JobSpec(workload=bench,
                config=default_config().with_itlb(TLBConfig(entries=n)),
                instructions=4_000, warmup=800)
        for bench in ("177.mesa", "254.gap")
        for n in (8, 32)
    ]

    def test_parallel_matches_serial_byte_for_byte(self):
        serial = SweepRunner(store=ResultStore(), workers=1).run(self.GRID)
        parallel = SweepRunner(store=ResultStore(), workers=2)
        results = parallel.run(self.GRID)
        assert [r.spec for r in results] == self.GRID  # input order
        for ser, par in zip(serial, results):
            assert ser.ok and par.ok
            assert _canonical(ser.run) == _canonical(par.run)

    def test_second_invocation_runs_no_simulation(self, tmp_path,
                                                  monkeypatch):
        store = ResultStore(tmp_path)
        first = SweepRunner(store=store, workers=2).run(self.GRID)
        assert all(r.ok and not r.cached for r in first)

        # a fresh runner over the same cache dir must not simulate:
        # any path into the simulator now explodes
        def boom(self):
            raise AssertionError("simulator invoked on a cached sweep")
        monkeypatch.setattr(JobSpec, "run", boom)
        monkeypatch.setattr(GridSpec, "run", boom)
        again = SweepRunner(store=ResultStore(tmp_path), workers=2)
        second = again.run(self.GRID)
        assert all(r.ok and r.cached for r in second)
        assert again.last_stats.simulated == 0
        for a, b in zip(first, second):
            assert _canonical(a.run) == _canonical(b.run)

    def test_duplicate_specs_simulated_once(self):
        spec = _spec()
        runner = SweepRunner(store=ResultStore(), workers=1)
        results = runner.run([spec, dataclasses.replace(spec)])
        assert runner.last_stats.simulated == 1
        assert runner.last_stats.deduplicated == 1
        assert results[0].run is results[1].run

    def test_one_bad_job_does_not_kill_the_sweep(self):
        specs = [_spec(), _spec(workload="no.such.workload")]
        for workers in (1, 2):
            results = SweepRunner(store=ResultStore(),
                                  workers=workers).run(specs)
            assert results[0].ok
            assert not results[1].ok
            assert "no.such.workload" in results[1].error

    @staticmethod
    def _break_map(monkeypatch, apply_behaviour):
        """Make every wide pool map raise like a broken pool (the shape
        a SIGKILLed worker produces from ProcessPoolExecutor) and route
        the quarantine's single-job pool through ``apply_behaviour``."""
        from repro.runner.sweep import _execute_payload

        def broken_map(self, payloads, workers):
            raise RuntimeError(
                "A process in the process pool was terminated abruptly "
                "(simulated SIGKILL)")

        monkeypatch.setattr(SweepRunner, "_map_in_pool", broken_map)
        monkeypatch.setattr(
            SweepRunner, "_apply_in_pool",
            lambda self, payload: apply_behaviour(_execute_payload,
                                                  payload))

    def test_broken_pool_quarantines_jobs_instead_of_aborting(
            self, monkeypatch):
        """Regression: only OSError was caught around the pool map, so a
        worker killed mid-job (OOM/SIGKILL — a broken-pool error, not an
        OSError) aborted the whole sweep instead of producing per-job
        results."""
        self._break_map(monkeypatch, lambda fn, payload: fn(payload))
        specs = [_spec(instructions=1200, warmup=200),
                 _spec(workload="micro.call_return", instructions=1200,
                       warmup=200),
                 _spec(workload="no.such.workload")]
        runner = SweepRunner(store=ResultStore(), workers=2)
        results = runner.run(specs)
        assert results[0].ok and results[1].ok
        assert not results[2].ok  # per-job capture still applies
        assert "no.such.workload" in results[2].error
        assert not runner.last_stats.parallel
        assert runner.last_stats.simulated == 2
        assert runner.last_stats.failed == 1

    def test_fatal_job_costs_one_worker_not_the_sweep(self, monkeypatch):
        """A job so poisonous it kills every worker it touches must end
        up as that one job's error — never re-executed in the parent
        process (where its OOM would kill the whole batch)."""
        fatal_key = _spec(workload="micro.call_return",
                          instructions=1200, warmup=200).to_dict()

        def apply_behaviour(fn, payload):
            if payload == fatal_key:
                raise RuntimeError("worker killed again (simulated)")
            return fn(payload)

        self._break_map(monkeypatch, apply_behaviour)
        specs = [_spec(instructions=1200, warmup=200),
                 _spec(workload="micro.call_return", instructions=1200,
                       warmup=200)]
        runner = SweepRunner(store=ResultStore(), workers=2)
        results = runner.run(specs)
        assert results[0].ok
        assert not results[1].ok
        assert "worker process died" in results[1].error
        assert runner.last_stats.failed == 1

    def test_quarantined_recovery_matches_serial_byte_for_byte(
            self, monkeypatch):
        expected = SweepRunner(store=ResultStore(),
                               workers=1).run(self.GRID[:2])
        self._break_map(monkeypatch, lambda fn, payload: fn(payload))
        recovered = SweepRunner(store=ResultStore(),
                                workers=2).run(self.GRID[:2])
        for want, got in zip(expected, recovered):
            assert got.ok
            assert _canonical(want.run) == _canonical(got.run)

    @pytest.mark.skipif(
        __import__("multiprocessing").get_start_method() != "fork",
        reason="the self-killing workload reaches workers only under "
               "fork (custom registrations stay local otherwise)")
    def test_really_sigkilled_worker_is_quarantined_end_to_end(self):
        """The satellite's actual scenario, no stubs: a job whose
        worker is SIGKILLed mid-simulation.  ProcessPoolExecutor raises
        BrokenProcessPool (multiprocessing.Pool.map would hang forever
        here), the quarantine re-runs every job in a private pool, and
        the killer ends as one JobResult.error."""
        import os
        import signal
        from repro.workloads import registry

        def suicide():
            os.kill(os.getpid(), signal.SIGKILL)

        registry.register("evil.selfkill", suicide)
        try:
            specs = [_spec(instructions=1000, warmup=100),
                     _spec(workload="evil.selfkill",
                           instructions=1000, warmup=100),
                     _spec(workload="micro.call_return",
                           instructions=1000, warmup=100)]
            runner = SweepRunner(store=ResultStore(), workers=2)
            results = runner.run(specs)
            assert results[0].ok and results[2].ok
            assert not results[1].ok
            assert "worker process died" in results[1].error
            assert runner.last_stats.failed == 1
        finally:
            registry.unregister("evil.selfkill")

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            SweepRunner(workers=0)

    def test_stats_describe(self):
        runner = SweepRunner(store=ResultStore(), workers=1)
        runner.run([_spec()])
        text = runner.last_stats.describe()
        assert "1 jobs" in text and "1 simulated" in text


class TestCustomWorkloadsUnderSpawn:
    """Custom registrations exist only in the parent process, so under a
    non-fork start method their jobs must run in-process while builtin
    jobs still go to the pool."""

    @pytest.fixture()
    def custom_name(self):
        from repro.workloads import registry
        from repro.workloads.spec2000 import profile_for
        profile = dataclasses.replace(profile_for("177.mesa"),
                                      name="custom.spawncheck", seed=99)
        name = registry.register_profile(profile)
        yield name
        registry.unregister(name)

    def test_custom_jobs_survive_spawn(self, custom_name, monkeypatch):
        from repro.runner import sweep as sweep_mod
        monkeypatch.setattr(sweep_mod.multiprocessing,
                            "get_start_method", lambda: "spawn")
        specs = [
            _spec(workload=custom_name, instructions=1500, warmup=300),
            _spec(instructions=1500, warmup=300),
            _spec(workload="micro.call_return",
                  instructions=1500, warmup=300),
        ]
        runner = SweepRunner(store=ResultStore(), workers=2)
        results = runner.run(specs)
        assert all(r.ok for r in results), \
            [r.error for r in results if not r.ok]
        assert [r.spec.workload for r in results] \
            == [s.workload for s in specs]

    def test_single_remote_job_falls_back_to_serial(self, custom_name,
                                                    monkeypatch):
        from repro.runner import sweep as sweep_mod
        monkeypatch.setattr(sweep_mod.multiprocessing,
                            "get_start_method", lambda: "spawn")
        specs = [_spec(workload=custom_name, instructions=1500, warmup=300),
                 _spec(instructions=1500, warmup=300)]
        runner = SweepRunner(store=ResultStore(), workers=2)
        results = runner.run(specs)
        assert all(r.ok for r in results)
        assert not runner.last_stats.parallel

    def test_true_spawn_pool_runs_builtin_jobs(self, monkeypatch):
        """Exercise a genuine spawn pool (fresh interpreters, worker-side
        re-import of the registry), not just the partitioning logic."""
        import multiprocessing
        from repro.runner import sweep as sweep_mod
        ctx = multiprocessing.get_context("spawn")
        # the context object quacks like the module: Pool + start method
        monkeypatch.setattr(sweep_mod, "multiprocessing", ctx)
        specs = [_spec(instructions=1000, warmup=100),
                 _spec(workload="micro.call_return",
                       instructions=1000, warmup=100)]
        runner = SweepRunner(store=ResultStore(), workers=2)
        results = runner.run(specs)
        assert all(r.ok for r in results), \
            [r.error for r in results if not r.ok]
        assert runner.last_stats.parallel

    def test_replaced_builtin_name_runs_locally_under_spawn(self,
                                                            monkeypatch):
        """A builtin name overridden with replace=True must not be
        shipped to spawned workers (they would resolve the original
        builtin factory and silently simulate the wrong workload)."""
        from repro.workloads import registry
        from repro.workloads.spec2000 import profile_for
        profile = dataclasses.replace(profile_for("177.mesa"), seed=424242)
        registry.register("177.mesa", lambda: __import__(
            "repro.workloads.synthetic", fromlist=["generate"]
        ).generate(profile), replace=True)
        try:
            assert not registry.is_builtin("177.mesa")
            from repro.runner import sweep as sweep_mod
            monkeypatch.setattr(sweep_mod.multiprocessing,
                                "get_start_method", lambda: "spawn")
            specs = [_spec(workload="177.mesa",
                           instructions=1500, warmup=300)]
            serial = SweepRunner(store=ResultStore(), workers=1).run(specs)
            parallel = SweepRunner(store=ResultStore(), workers=2).run(specs)
            assert serial[0].ok and parallel[0].ok
            assert _canonical(serial[0].run) == _canonical(parallel[0].run)
        finally:
            registry.unregister("177.mesa")
            assert registry.is_builtin("177.mesa")  # builtin restored
