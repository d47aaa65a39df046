"""Execution backends: selection, the file queue, interrupt handling,
and the sweep/CLI correctness fixes that ride along.

Acceptance-critical properties:

* a sweep drained through the file queue by concurrent workers is
  byte-identical to a serial run, with every job simulated exactly once;
* a worker SIGKILLed mid-claim leaves a lease another worker reclaims
  after expiry — and the job still completes exactly once in the store;
* Ctrl-C persists finished results, cancels pending pool jobs, cleans
  up temp files, and re-raises;
* all CLI ``--json`` output is strict JSON (no bare ``NaN`` tokens);
* ``ResultStore.evict`` breaks mtime ties deterministically.
"""

import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main as cli_main, to_json
from repro.config import TLBConfig, default_config
from repro.runner import (
    FileQueue,
    FileQueueBackend,
    JobSpec,
    PoolBackend,
    ResultStore,
    SerialBackend,
    SweepRunner,
    plan_units,
    resolve_backend,
    resolve_workers,
    run_worker,
)
from repro.runner.backends.filequeue import (
    QUEUE_FORMAT,
    seal_payload,
    verify_payload,
)
from repro.runner.sweep import _MapInterrupted, _execute_payload


def _spec(workload="micro.counted_loop", instructions=1_200, warmup=200,
          **kwargs):
    return JobSpec(workload=workload, config=default_config(),
                   instructions=instructions, warmup=warmup, **kwargs)


def _canonical(run) -> str:
    return json.dumps(run.to_dict(), sort_keys=True)


def _reject(token):  # the strictest consumer: refuses NaN/Infinity
    raise AssertionError(f"non-strict JSON token {token!r}")


@pytest.fixture(scope="module")
def micro_run():
    return _spec().run()


# ---------------------------------------------------------------------------
# Backend selection
# ---------------------------------------------------------------------------


class TestResolveBackend:
    def test_spellings(self, tmp_path):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("pool"), PoolBackend)
        queue = resolve_backend(f"queue:{tmp_path}")
        assert isinstance(queue, FileQueueBackend)
        assert queue.root == tmp_path
        assert queue.store_root == tmp_path / "store"

    def test_none_and_instances_pass_through(self):
        assert resolve_backend(None) is None
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_spelling_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("carrier-pigeon")

    def test_queue_requires_a_directory(self):
        with pytest.raises(ValueError, match="queue:<dir>"):
            resolve_backend("queue:")

    @pytest.mark.parametrize("argv", [
        ["sweep", "--backend", "bogus",
         "--benchmarks", "micro.counted_loop"],
        ["report", "--backend", "bogus"],
        ["experiment", "table2", "--backend", "queue:"],
    ])
    def test_cli_rejects_bad_backend_cleanly(self, argv, capsys):
        """Regression: report/experiment validated --backend only deep
        inside prefetch, surfacing a raw ValueError traceback."""
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err


class TestBackendSelection:
    SPECS = [
        JobSpec(workload=bench,
                config=default_config().with_itlb(TLBConfig(entries=n)),
                instructions=2_000, warmup=300)
        for bench in ("micro.counted_loop", "micro.call_return")
        for n in (8, 32)
    ]

    def test_explicit_serial_overrides_worker_count(self):
        runner = SweepRunner(store=ResultStore(), workers=4,
                             backend="serial")
        results = runner.run(self.SPECS[:2])
        assert all(r.ok for r in results)
        assert not runner.last_stats.parallel
        assert runner.last_stats.backend == "serial"

    def test_explicit_pool_matches_serial_byte_for_byte(self):
        serial = SweepRunner(store=ResultStore(),
                             backend="serial").run(self.SPECS)
        runner = SweepRunner(store=ResultStore(), workers=2,
                             backend=PoolBackend())
        parallel = runner.run(self.SPECS)
        assert runner.last_stats.backend == "pool"
        for ser, par in zip(serial, parallel):
            assert ser.ok and par.ok
            assert _canonical(ser.run) == _canonical(par.run)

    def test_ooo_lone_job_through_pool_matches_serial(self):
        """An ooo job never shares a pass: it crosses the pool wire as a
        one-member unit and comes back byte-identical to serial."""
        specs = [JobSpec(workload="micro.counted_loop",
                         config=default_config(), instructions=600,
                         warmup=100, schemes=("base",), engine="ooo"),
                 self.SPECS[0]]
        serial = SweepRunner(store=ResultStore(),
                             backend="serial").run(specs)
        runner = SweepRunner(store=ResultStore(), workers=2,
                             backend="pool")
        pooled = runner.run(specs)
        assert runner.last_stats.parallel
        assert runner.last_stats.grids == 0
        for ser, par in zip(serial, pooled):
            assert ser.ok and par.ok, (ser.error, par.error)
            assert _canonical(ser.run) == _canonical(par.run)
        assert pooled[0].metrics.engine == "ooo"
        assert pooled[0].metrics.grid_members == 0

    def test_default_backend_follows_worker_count(self):
        serial = SweepRunner(store=ResultStore(), workers=1)
        serial.run([self.SPECS[0]])
        assert serial.last_stats.backend == "serial"
        pooled = SweepRunner(store=ResultStore(), workers=2)
        pooled.run(self.SPECS[:2])
        assert pooled.last_stats.backend == "pool"


class TestResolveWorkers:
    def test_zero_means_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert resolve_workers(0) == 7

    def test_zero_with_unknown_cpu_count_means_one(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_workers(0) == 1

    def test_positive_passes_through(self):
        assert resolve_workers(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_cli_rejects_negative_workers(self):
        with pytest.raises(SystemExit):
            cli_main(["sweep", "--workers", "-1",
                      "--benchmarks", "micro.counted_loop"])

    def test_cli_accepts_workers_zero(self, capsys):
        rc = cli_main(["sweep", "--workers", "0",
                       "--benchmarks", "micro.counted_loop",
                       "--instructions", "1200", "--warmup", "200"])
        assert rc == 0
        assert "micro.counted_loop" in capsys.readouterr().out

    def test_experiment_settings_auto_workers_prefetch(self):
        from repro.experiments import common
        settings = common.default_settings(
            instructions=1_200, warmup=200,
            benchmarks=["micro.counted_loop"], workers=0,
            backend="serial")
        assert settings.workers == 0
        assert settings.backend == "serial"
        store = common.configure_store(None)
        try:
            common.answer([common.job_for("micro.counted_loop",
                                          default_config(), settings)],
                          settings)
            assert len(store) == 1
        finally:
            common.configure_store(None)


# ---------------------------------------------------------------------------
# Strict JSON output
# ---------------------------------------------------------------------------


class TestStrictJson:
    def test_non_finite_floats_become_null(self):
        payload = {"a": float("nan"), "b": [1.5, float("inf")],
                   "c": {"d": float("-inf"), "e": "NaN-the-string"},
                   "f": (float("nan"),)}
        data = json.loads(to_json(payload), parse_constant=_reject)
        assert data == {"a": None, "b": [1.5, None],
                        "c": {"d": None, "e": "NaN-the-string"},
                        "f": [None]}

    def test_finite_payloads_unchanged(self):
        payload = {"x": 1, "y": [2.5, "z"], "nested": {"ok": True}}
        assert json.loads(to_json(payload)) == payload

    def test_sweep_recovers_from_nan_poisoned_cache_entry(self, tmp_path,
                                                          capsys):
        """A cache entry carrying a bare ``NaN`` token (left by a
        foreign, non-strict writer — ``ResultStore.put`` itself now
        refuses to produce one) is treated as corruption: the sweep
        quarantines it, re-simulates, and its ``--json`` output stays
        strict."""
        spec = _spec()
        store = ResultStore(tmp_path)
        path = store.put(spec, spec.run())
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["result"]["poison"] = float("nan")
        path.write_text(json.dumps(entry, allow_nan=True),
                        encoding="utf-8")
        # the poison really is on disk as a bare NaN token
        assert "NaN" in path.read_text(encoding="utf-8")
        rc = cli_main(["sweep", "--benchmarks", "micro.counted_loop",
                       "--instructions", "1200", "--warmup", "200",
                       "--cache-dir", str(tmp_path), "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        data = json.loads(out, parse_constant=_reject)  # must not raise
        # the poisoned entry was a miss, not a NaN resurrection...
        assert data["stats"]["cached"] == 0
        assert data["stats"]["simulated"] == 1
        # ...and the re-simulated entry on disk is strict again
        fresh_text = next(tmp_path.glob("*.json")).read_text()
        json.loads(fresh_text, parse_constant=_reject)

    def test_put_refuses_to_write_nan(self, tmp_path):
        """The other half of the contract: the store can no longer be
        the foreign writer itself."""
        spec = _spec()
        run = spec.run()
        for scheme in run.schemes.values():
            scheme.energy.lookup_nj = float("nan")
        with pytest.raises(ValueError):
            ResultStore(tmp_path).put(spec, run)
        assert not list(tmp_path.glob("*.json*"))  # nothing stranded

    def test_trace_info_json_is_strict(self, tmp_path, capsys):
        from repro.trace import record_trace
        path = tmp_path / "t.trace.gz"
        record_trace("micro.counted_loop", default_config(),
                     instructions=600, warmup=100, path=str(path))
        rc = cli_main(["trace", "info", str(path), "--json"])
        assert rc == 0
        json.loads(capsys.readouterr().out, parse_constant=_reject)


# ---------------------------------------------------------------------------
# Ctrl-C (KeyboardInterrupt) handling
# ---------------------------------------------------------------------------


class TestInterruptHandling:
    def test_serial_interrupt_persists_finished_results(self, tmp_path):
        from repro.workloads import registry

        def boom():
            raise KeyboardInterrupt

        registry.register("evil.ctrlc", boom)
        try:
            first = _spec(instructions=1_000, warmup=100)
            specs = [first, _spec(workload="evil.ctrlc")]
            runner = SweepRunner(store=ResultStore(tmp_path), workers=1)
            with pytest.raises(KeyboardInterrupt):
                runner.run(specs)
            # the job that finished before ^C is in the cache...
            assert runner.last_stats.simulated == 1
            assert ResultStore(tmp_path).get(first) is not None
            # ...and no half-written temp litter remains
            assert not list(tmp_path.glob("*.json.tmp*"))
        finally:
            registry.unregister("evil.ctrlc")

    def test_pool_interrupt_persists_finished_results(self, tmp_path,
                                                      monkeypatch):
        specs = [_spec(instructions=1_000, warmup=100),
                 _spec(workload="micro.call_return",
                       instructions=1_000, warmup=100),
                 _spec(workload="micro.taken_pattern",
                       instructions=1_000, warmup=100)]

        def interrupted_map(self, payloads, workers):
            # one job finished, then ^C landed mid-map
            raise _MapInterrupted([_execute_payload(payloads[0])])

        monkeypatch.setattr(SweepRunner, "_map_in_pool", interrupted_map)
        runner = SweepRunner(store=ResultStore(tmp_path), workers=2)
        with pytest.raises(KeyboardInterrupt):
            runner.run(specs)
        assert runner.last_stats.simulated == 1
        fresh = ResultStore(tmp_path)
        assert fresh.get(specs[0]) is not None
        assert fresh.get(specs[1]) is None

    def test_interrupted_put_leaves_no_tmp_file(self, tmp_path,
                                                monkeypatch, micro_run):
        """Regression: Ctrl-C between the temp-file write and the atomic
        rename stranded ``.json.tmp<pid>`` files in the cache dir."""
        import repro.runner.store as store_mod

        def interrupted_replace(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(store_mod.os, "replace", interrupted_replace)
        store = ResultStore(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            store.put(_spec(), micro_run)
        assert not list(tmp_path.glob("*.tmp*"))

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the parent-signalling workload reaches pool workers "
               "only under fork")
    def test_real_sigint_shuts_the_pool_down(self, tmp_path):
        """End to end, no stubs: a worker delivers SIGINT to the parent
        mid-sweep (exactly what ^C on a process group does).  The sweep
        must re-raise KeyboardInterrupt, leave no temp litter, and not
        strand pool workers grinding through the queued jobs."""
        from repro.workloads import registry
        from repro.workloads.spec2000 import profile_for

        def evil():
            os.kill(os.getppid(), signal.SIGINT)
            from repro.workloads.synthetic import generate
            return generate(dataclasses.replace(profile_for("177.mesa"),
                                                name="evil.sigint"))

        registry.register("evil.sigint", evil)
        try:
            specs = [_spec(workload="evil.sigint",
                           instructions=1_000, warmup=100)]
            specs += [_spec(workload=bench, instructions=8_000,
                            warmup=1_000)
                      for bench in ("177.mesa", "254.gap", "176.gcc")]
            runner = SweepRunner(store=ResultStore(tmp_path), workers=2)
            with pytest.raises(KeyboardInterrupt):
                runner.run(specs)
            assert not list(tmp_path.glob("*.json.tmp*"))
            deadline = time.monotonic() + 30
            while (multiprocessing.active_children()
                   and time.monotonic() < deadline):
                time.sleep(0.1)
            assert not multiprocessing.active_children()
        finally:
            registry.unregister("evil.sigint")


# ---------------------------------------------------------------------------
# LRU eviction tie-break
# ---------------------------------------------------------------------------


class TestEvictTieBreak:
    def test_equal_mtimes_break_by_name(self, tmp_path, micro_run):
        """Regression: entries written within one filesystem-timestamp
        granule tied arbitrarily, so a just-written entry could be
        evicted while an older one survived.  Ties now break by
        filename, deterministically."""
        store = ResultStore(tmp_path)
        paths = [store.put(_spec(instructions=1_000 + i), micro_run)
                 for i in range(3)]
        stamp = paths[0].stat().st_mtime
        for path in paths:
            os.utime(path, (stamp, stamp))  # a three-way tie
        budget = max(p.stat().st_size for p in paths)
        removed, _ = store.evict(budget)
        assert removed == 2
        survivors = list(tmp_path.glob("*.json"))
        assert [p.name for p in survivors] \
            == [max(p.name for p in paths)]

    def test_tie_break_is_stable_across_invocations(self, tmp_path,
                                                    micro_run):
        specs = [_spec(instructions=1_000 + i) for i in range(4)]
        expected = None
        for round_dir in ("a", "b"):
            root = tmp_path / round_dir
            store = ResultStore(root)
            paths = [store.put(spec, micro_run) for spec in specs]
            stamp = paths[0].stat().st_mtime
            for path in paths:
                os.utime(path, (stamp, stamp))
            store.evict(max(p.stat().st_size for p in paths))
            survivor = [p.name for p in root.glob("*.json")]
            if expected is None:
                expected = survivor
            assert survivor == expected


class TestClaimAwarePut:
    def test_overwrite_false_keeps_the_first_entry(self, tmp_path,
                                                   micro_run):
        spec = _spec()
        store = ResultStore(tmp_path)
        path = store.put(spec, micro_run)
        past = path.stat().st_mtime - 100
        os.utime(path, (past, past))
        late = ResultStore(tmp_path)
        assert late.put(spec, micro_run, overwrite=False) == path
        assert path.stat().st_mtime == past  # not rewritten
        assert late.writes == 0
        assert late.get(spec) is not None  # memory layer still updated

    def test_default_put_refreshes_the_entry(self, tmp_path, micro_run):
        spec = _spec()
        store = ResultStore(tmp_path)
        path = store.put(spec, micro_run)
        past = path.stat().st_mtime - 100
        os.utime(path, (past, past))
        store.put(spec, micro_run)
        assert path.stat().st_mtime > past


# ---------------------------------------------------------------------------
# The file queue
# ---------------------------------------------------------------------------


def _drain(root, **kwargs):
    kwargs.setdefault("drain", True)
    kwargs.setdefault("poll_seconds", 0.02)
    kwargs.setdefault("lease_seconds", 5.0)
    return run_worker(root, **kwargs)


def _wait_for(predicate, timeout=30.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


class TestQueueWireFormat:
    """Job files are a cross-version wire format: a lone job and a
    shared pass must seal to exactly these bytes."""

    #: (key, sha256 of the sealed job-file text, its length), as the
    #: file queue wrote them before lone jobs became one-member passes
    LONE = ("c690a7eb6f01c291c6d4f422de70c8cb04f4938a23a2b7a40c222bb12b01ed9b",
            "b9c9c5553dab9a516c4b44f14d776e62f4e296ed4063b9c92e1800c92eb71578",
            1258)
    GRID = ("bdaf0bb66821cac9a6f481e74ef020fce7f4e63905ac3685e31f24d8f4dfbdb7",
            "62cc6150f85ae7a7aed8a5dd7ce3725253874eb853280d8a620da13c8e90dd7b",
            3467)

    @staticmethod
    def _spec(workload, entries):
        return JobSpec(workload=workload,
                       config=default_config().with_itlb(
                           TLBConfig(entries=entries)),
                       instructions=1000, warmup=100)

    def test_job_files_match_the_pinned_bytes(self, tmp_path):
        import hashlib
        lone = self._spec("micro.call_return", 8)
        members = [self._spec("micro.counted_loop", n) for n in (1, 8, 32)]
        units = plan_units([lone] + members)
        assert [len(unit.members) for unit in units] == [1, 3]
        queue = FileQueue(tmp_path)
        for unit in units:
            assert queue.submit(unit)
        assert units[0].key == lone.key
        assert units[0].to_dict() == lone.to_dict()
        for (key, digest, length), unit in zip((self.LONE, self.GRID),
                                               units):
            assert unit.key == key
            text = (queue.jobs_dir / f"{key}.json").read_text()
            assert (len(text), hashlib.sha256(
                text.encode("utf-8")).hexdigest()) == (length, digest)
        # a lone job's file is named by its own spec key
        assert (queue.jobs_dir / f"{lone.key}.json").exists()
        assert len(queue.pending()) == 2


class TestFileQueue:
    def test_submit_deduplicates_by_content(self, tmp_path):
        queue = FileQueue(tmp_path)
        spec = _spec()
        assert queue.submit(spec)
        assert not queue.submit(dataclasses.replace(spec))
        assert len(queue.pending()) == 1

    def test_two_owners_claim_each_job_exactly_once(self, tmp_path):
        queue = FileQueue(tmp_path)
        keys = set()
        for i in range(6):
            spec = _spec(instructions=1_000 + i)
            queue.submit(spec)
            keys.add(spec.key)
        claimed = {"a": set(), "b": set()}
        while True:
            progress = False
            for owner in ("a", "b"):
                claim = queue.claim_next(owner)
                if claim is not None:
                    claimed[owner].add(claim.key)
                    progress = True
            if not progress:
                break
        assert claimed["a"] | claimed["b"] == keys
        assert not claimed["a"] & claimed["b"]
        assert len(queue.claims()) == 6

    def test_queue_sweep_matches_serial_with_concurrent_workers(
            self, tmp_path):
        """The acceptance grid: enqueue once, drain with two concurrent
        workers, byte-compare against serial — every job simulated
        exactly once."""
        specs = [
            JobSpec(workload=bench,
                    config=default_config().with_itlb(
                        TLBConfig(entries=n)),
                    instructions=2_000, warmup=300)
            for bench in ("micro.counted_loop", "micro.call_return")
            for n in (8, 32)
        ]
        serial = SweepRunner(store=ResultStore(),
                             backend="serial").run(specs)

        root = tmp_path / "q"
        backend = FileQueueBackend(root, poll_seconds=0.02, timeout=120)
        runner = SweepRunner(store=ResultStore(backend.store_root),
                             backend=backend)
        box = {}
        submitter = threading.Thread(
            target=lambda: box.update(results=runner.run(specs)))
        submitter.start()
        _wait_for(lambda: FileQueue(root).pending(), message="jobs")
        stats = []
        workers = [threading.Thread(
            target=lambda: stats.append(_drain(root)))
            for _ in range(2)]
        for worker in workers:
            worker.start()
        submitter.join(timeout=120)
        for worker in workers:
            worker.join(timeout=120)
        assert not submitter.is_alive()

        results = box["results"]
        assert runner.last_stats.backend == "queue"
        assert runner.last_stats.parallel
        for ser, que in zip(serial, results):
            assert que.ok, que.error
            assert _canonical(ser.run) == _canonical(que.run)
        # each benchmark's two iTLB sizes share one pass: one job file
        assert runner.last_stats.grids == 2
        assert sum(s.executed for s in stats) == 2
        assert sum(s.failed for s in stats) == 0
        # queue fully drained, store holds exactly one entry per job
        assert FileQueue(root).idle()
        assert len(list(backend.store_root.glob("*.json"))) == len(specs)

    def test_failed_job_surfaces_and_resubmission_retries(self,
                                                          tmp_path):
        root = tmp_path / "q"
        bad = _spec(workload="no.such.workload")
        backend = FileQueueBackend(root, poll_seconds=0.02, timeout=60)
        runner = SweepRunner(store=ResultStore(backend.store_root),
                             backend=backend)
        box = {}
        submitter = threading.Thread(
            target=lambda: box.update(results=runner.run([bad])))
        submitter.start()
        _wait_for(lambda: FileQueue(root).pending(), message="job")
        stats = _drain(root)
        submitter.join(timeout=60)
        assert not submitter.is_alive()
        assert stats.failed == 1
        (result,) = box["results"]
        assert not result.ok
        assert "no.such.workload" in result.error
        # the failure is recorded on disk, and re-submitting clears it
        queue = FileQueue(root)
        assert queue.read_error(bad.key) is not None
        assert queue.submit(bad)
        assert queue.read_error(bad.key) is None

    def test_worker_releases_claim_when_store_already_answers(
            self, tmp_path, micro_run):
        root = tmp_path / "q"
        queue = FileQueue(root)
        spec = _spec()
        ResultStore(queue.store_dir).put(spec, micro_run)
        queue.submit(spec)
        stats = _drain(root)
        assert stats.cached == 1
        assert stats.executed == 0
        assert queue.idle()

    def test_stale_lease_reclaimed_and_completed_exactly_once(
            self, tmp_path):
        """The crash path, distilled: a claim whose owner stopped
        heartbeating (SIGKILL) is reclaimed after lease expiry and the
        job completes exactly once in the store."""
        root = tmp_path / "q"
        queue = FileQueue(root)
        spec = _spec(instructions=1_000, warmup=100)
        queue.submit(spec)
        claim = queue.claim_next("dead-worker")
        assert claim is not None and not queue.pending()
        stale = time.time() - 1_000  # the owner died long ago
        os.utime(claim.path, (stale, stale))
        stats = _drain(root, lease_seconds=1.0)
        assert stats.reclaimed == 1
        assert stats.executed == 1
        assert ResultStore(queue.store_dir).get(spec) is not None
        assert len(list(queue.store_dir.glob("*.json"))) == 1
        assert queue.idle()

    def test_live_lease_is_not_reclaimed(self, tmp_path):
        queue = FileQueue(tmp_path / "q")
        queue.submit(_spec())
        claim = queue.claim_next("busy-worker")
        claim.heartbeat()
        assert queue.reclaim_stale(lease_seconds=60) == 0
        assert len(queue.claims()) == 1

    def test_owner_dead_after_put_does_not_resimulate(self, tmp_path,
                                                      micro_run):
        """A worker that died *between* the store put and the claim
        release: the reclaimed job probes the store, hits, and is
        released without running again."""
        root = tmp_path / "q"
        queue = FileQueue(root)
        spec = _spec()
        queue.submit(spec)
        claim = queue.claim_next("died-after-put")
        ResultStore(queue.store_dir).put(spec, micro_run)
        stale = time.time() - 1_000
        os.utime(claim.path, (stale, stale))
        stats = _drain(root, lease_seconds=1.0)
        assert stats.reclaimed == 1
        assert stats.cached == 1
        assert stats.executed == 0

    def test_tampered_job_file_recorded_as_error(self, tmp_path):
        # a re-sealed payload whose key disagrees with its spec passes
        # the checksum but fails _parse_claim's identity gate
        root = tmp_path / "q"
        queue = FileQueue(root)
        spec = _spec()
        queue.submit(spec)
        job = queue.pending()[0]
        payload = verify_payload(job.read_text())
        payload["key"] = "0" * 64
        job.write_text(seal_payload(payload))
        stats = _drain(root)
        assert stats.failed == 1
        assert "does not match" in queue.read_error(spec.key)
        assert queue.idle()  # poisoned jobs do not bounce forever
        assert queue.dead()  # ... they dead-letter instead

    def test_foreign_format_job_recorded_as_error(self, tmp_path):
        root = tmp_path / "q"
        queue = FileQueue(root)
        spec = _spec()
        queue.submit(spec)
        job = queue.pending()[0]
        payload = verify_payload(job.read_text())
        payload["format"] = QUEUE_FORMAT + 1
        job.write_text(seal_payload(payload))
        stats = _drain(root)
        assert stats.failed == 1
        assert "format" in queue.read_error(spec.key)

    def test_unsealed_checksum_tampering_is_quarantined(self, tmp_path):
        # editing a sealed job file without re-sealing it is
        # indistinguishable from bit rot: the self-checksum fails and
        # claim_next quarantines the file instead of parsing it
        root = tmp_path / "q"
        queue = FileQueue(root)
        spec = _spec()
        queue.submit(spec)
        job = queue.pending()[0]
        payload = json.loads(job.read_text())
        payload["key"] = "0" * 64
        job.write_text(json.dumps(payload))
        stats = _drain(root)
        assert stats.claimed == 0  # never became a claim
        assert queue.idle()
        assert [p.name for p in queue.dead()] == [f"{spec.key}.json"]
        assert "self-checksum" in queue.read_error(spec.key)

    def test_submitter_timeout_fails_pending_jobs(self, tmp_path):
        backend = FileQueueBackend(tmp_path / "q", poll_seconds=0.02,
                                   timeout=0.3)
        runner = SweepRunner(store=ResultStore(), backend=backend)
        (result,) = runner.run([_spec()])
        assert not result.ok
        assert "repro worker" in result.error
        # the job stays queued: a late-arriving fleet can still take it
        assert FileQueue(tmp_path / "q").pending()

    def test_worker_cli_drains_a_queue(self, tmp_path, capsys):
        root = tmp_path / "q"
        spec = _spec(instructions=1_000, warmup=100)
        FileQueue(root).submit(spec)
        rc = cli_main(["worker", str(root), "--drain",
                       "--poll", "0.02"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 claimed: 1 executed" in out
        assert ResultStore(root / "store").get(spec) is not None

    def test_worker_cli_rejects_bad_lease(self, tmp_path):
        assert cli_main(["worker", str(tmp_path), "--lease", "0"]) == 2

    @pytest.mark.skipif(not hasattr(os, "mkfifo"),
                        reason="needs POSIX FIFOs")
    def test_sigkilled_worker_process_is_reclaimed_end_to_end(
            self, tmp_path):
        """The satellite's actual scenario, no stubs: a real
        ``repro worker`` process is SIGKILLed while it holds a claim
        (blocked mid-job on a FIFO that never delivers); a second
        worker reclaims the lease after expiry and completes the job —
        exactly once in the store."""
        from repro.trace import record_trace

        root = tmp_path / "q"
        queue = FileQueue(root)
        trace = tmp_path / "job.trace.gz"
        record_trace("micro.counted_loop", default_config(),
                     instructions=800, warmup=100, path=str(trace))
        fifo = tmp_path / "victim.trace.gz"
        os.mkfifo(fifo)
        # digest pinned so spec construction does not read the FIFO
        spec = JobSpec(workload=f"trace:{fifo}", config=default_config(),
                       instructions=800, warmup=100,
                       workload_digest="f" * 64)
        queue.submit(spec)

        src = Path(repro.__file__).parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}" \
            + env.get("PYTHONPATH", "")
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", str(root),
             "--poll", "0.05", "--lease", "30"],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            # the victim claims the job, then blocks opening the FIFO
            _wait_for(lambda: queue.claims(spec.key), timeout=60,
                      message="the victim's claim")
            time.sleep(0.3)  # let it reach the blocking open
            victim.kill()
            victim.wait(timeout=30)
            # the lease is now orphaned; make the job completable and
            # age the claim past a short lease
            os.unlink(fifo)
            fifo.write_bytes(trace.read_bytes())
            (claim_path,) = queue.claims(spec.key)
            stale = time.time() - 1_000
            os.utime(claim_path, (stale, stale))

            stats = _drain(root, lease_seconds=1.0)
            assert stats.reclaimed == 1
            assert stats.executed == 1
            assert stats.failed == 0
            assert ResultStore(queue.store_dir).get(spec) is not None
            assert len(list(queue.store_dir.glob("*.json"))) == 1
            assert queue.idle()
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait(timeout=30)
