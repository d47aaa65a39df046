"""Deterministic fault injection and the self-healing fleet.

The acceptance scenario, end to end: a seeded fault plan SIGKILLs one
worker mid-claim, injects two transient store-write failures and one
torn rename into the other, and corrupts one job file on disk — and the
two-worker fleet still completes every job exactly once, produces a
store byte-identical to a fault-free run, records every retry with its
deterministic backoff delay, and leaves the corrupted job dead-lettered
but recoverable via ``repro queue retry``.

Alongside the chaos harness: trigger/plan unit coverage, environment
propagation, the fsync/tmp-litter regression for ``atomic_write_text``,
quarantine of garbage job files (the failing-before case: one poisoned
file used to abort every worker's scan), backoff-schedule determinism,
and the dead-letter round trip through the ``repro queue`` CLI.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro import faults, telemetry
from repro.cli import main as cli_main
from repro.config import default_config
from repro.errors import ConfigError
from repro.faults import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    backoff_delay,
    classify_traceback,
)
from repro.runner import FileQueue, JobSpec, ResultStore, run_worker
from repro.runner.backends.filequeue import QUEUE_FORMAT, seal_payload
from repro.runner.store import atomic_write_text


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    """Every test starts and ends with no plan configured and no
    ``REPRO_FAULTS`` in the environment — fault injection must be
    strictly opt-in, test by test."""
    monkeypatch.delenv(faults.ENV_FAULTS, raising=False)
    faults.disable()
    telemetry.disable()
    yield
    faults.disable()
    telemetry.disable()


def _spec(instructions=1_000, warmup=100, **kwargs):
    return JobSpec(workload="micro.counted_loop", config=default_config(),
                   instructions=instructions, warmup=warmup, **kwargs)


def _plan(*specs, seed=0):
    return FaultPlan(faults=[FaultSpec(**s) for s in specs], seed=seed)


def _canonical(run) -> str:
    return json.dumps(run.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# Triggers and plan validation
# ---------------------------------------------------------------------------


class TestTriggers:
    def _fires(self, spec, calls):
        return [n for n in range(1, calls + 1) if spec.should_fire()]

    def test_nth_call_fires_exactly_once(self):
        spec = FaultSpec(site="x", trigger="nth-call", n=3, kind="io-error")
        assert self._fires(spec, 10) == [3]

    def test_every_k_fires_periodically(self):
        spec = FaultSpec(site="x", trigger="every-k", n=4, kind="io-error")
        assert self._fires(spec, 12) == [4, 8, 12]

    def test_first_n_fires_a_prefix(self):
        spec = FaultSpec(site="x", trigger="first-n", n=2, kind="io-error")
        assert self._fires(spec, 10) == [1, 2]

    def test_match_filters_by_context_substring(self):
        spec = FaultSpec(site="x", trigger="first-n", n=9, kind="io-error",
                         match="store/")
        assert spec.matches("x", {"path": "/q/store/a.json"})
        assert not spec.matches("x", {"path": "/q/errors/a.json"})
        assert not spec.matches("y", {"path": "/q/store/a.json"})

    def test_match_gates_the_counter_too(self):
        # nth-call counts *matching* calls, so "the first store write"
        # means exactly that regardless of how many other writes happen
        plan = _plan({"site": "x", "trigger": "nth-call", "n": 1,
                      "kind": "io-error", "match": "store/"})
        plan.fire("x", {"path": "elsewhere/a"})
        plan.fire("x", {"path": "elsewhere/b"})
        with pytest.raises(OSError):
            plan.fire("x", {"path": "store/c"})

    def test_unconfigured_fire_is_a_no_op(self):
        assert faults.active() is None
        faults.fire("store.put", key="k")  # must not raise

    @pytest.mark.parametrize("bad", [
        {"site": "", "trigger": "nth-call", "n": 1, "kind": "io-error"},
        {"site": "x", "trigger": "sometimes", "n": 1, "kind": "io-error"},
        {"site": "x", "trigger": "nth-call", "n": 0, "kind": "io-error"},
        {"site": "x", "trigger": "nth-call", "n": True, "kind": "io-error"},
        {"site": "x", "trigger": "nth-call", "n": 1, "kind": "explode"},
        {"site": "x", "trigger": "nth-call", "n": 1, "kind": "latency"},
        {"site": "x", "trigger": "nth-call", "n": 1, "kind": "io-error",
         "typo": 1},
    ])
    def test_bad_specs_are_config_errors(self, bad):
        with pytest.raises(ConfigError):
            FaultSpec.from_dict(bad)

    def test_bad_plans_are_config_errors(self):
        with pytest.raises(ConfigError):
            FaultPlan.from_dict({"faults": "nope"})
        with pytest.raises(ConfigError):
            FaultPlan.from_dict({"seed": "nope"})
        with pytest.raises(ConfigError):
            FaultPlan.from_dict({"unknown": 1})
        with pytest.raises(ConfigError, match="not valid JSON"):
            FaultPlan.from_json("{")


# ---------------------------------------------------------------------------
# Environment propagation
# ---------------------------------------------------------------------------


class TestEnvPropagation:
    PLAN = {"site": "store.put", "trigger": "nth-call", "n": 2,
            "kind": "enospc"}

    def test_configure_exports_inline_json(self):
        plan = _plan(self.PLAN, seed=7)
        faults.configure(plan)
        exported = os.environ[faults.ENV_FAULTS]
        assert exported.startswith("{")
        assert FaultPlan.from_json(exported).to_dict() == plan.to_dict()
        faults.disable()
        assert faults.ENV_FAULTS not in os.environ
        assert faults.active() is None

    def test_configure_from_env_inline_and_path(self, tmp_path,
                                                monkeypatch):
        plan = _plan(self.PLAN)
        monkeypatch.setenv(faults.ENV_FAULTS, plan.to_json())
        assert faults.configure_from_env().to_dict() == plan.to_dict()

        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        monkeypatch.setenv(faults.ENV_FAULTS, str(path))
        assert faults.configure_from_env().to_dict() == plan.to_dict()

        monkeypatch.delenv(faults.ENV_FAULTS)
        assert faults.configure_from_env() is None
        assert faults.active() is None

    def test_cli_rejects_a_broken_plan_loudly(self, tmp_path):
        bad = tmp_path / "plan.json"
        bad.write_text('{"faults": [{"site": "x"}]}')
        (tmp_path / "q" / "jobs").mkdir(parents=True)
        with pytest.raises(SystemExit) as err:
            cli_main(["--faults", str(bad), "queue", "inspect",
                      str(tmp_path / "q")])
        assert err.value.code == 2

    def test_cli_rejects_a_broken_env_plan_loudly(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, '{"faults": 3}')
        (tmp_path / "q" / "jobs").mkdir(parents=True)
        with pytest.raises(SystemExit) as err:
            cli_main(["queue", "inspect", str(tmp_path / "q")])
        assert err.value.code == 2


# ---------------------------------------------------------------------------
# atomic_write_text: fsync discipline and tmp-litter removal (satellite)
# ---------------------------------------------------------------------------


class TestAtomicWrite:
    def test_injected_rename_fault_leaves_no_tmp_litter(self, tmp_path):
        target = tmp_path / "entry.json"
        faults.configure(_plan({"site": "atomic_write.rename",
                                "trigger": "nth-call", "n": 1,
                                "kind": "io-error"}), propagate=False)
        with pytest.raises(OSError):
            atomic_write_text(target, "payload")
        assert not target.exists()
        assert list(tmp_path.glob("*.tmp*")) == []
        # the fault fired once; the retry goes through untouched
        atomic_write_text(target, "payload")
        assert target.read_text() == "payload"

    def test_torn_write_truncates_then_raises(self, tmp_path):
        target = tmp_path / "entry.json"
        faults.configure(_plan({"site": "atomic_write.rename",
                                "trigger": "nth-call", "n": 1,
                                "kind": "torn"}), propagate=False)
        with pytest.raises(OSError):
            atomic_write_text(target, "0123456789")
        # half the payload surfaced at the destination — exactly the
        # corruption the store's checksum/format gates must absorb
        assert target.read_text() == "01234"
        assert list(tmp_path.glob("*.tmp*")) == []

    def test_fsync_before_rename(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: synced.append(fd) or real_fsync(fd))
        atomic_write_text(tmp_path / "a.json", "x")
        assert synced  # durable: file (and dir, best-effort)
        assert (tmp_path / "a.json").read_text() == "x"


# ---------------------------------------------------------------------------
# Garbage in jobs/ is quarantined, not fatal (satellite, failing-before)
# ---------------------------------------------------------------------------


class TestQuarantine:
    def test_garbage_job_file_no_longer_aborts_claim_next(self, tmp_path):
        """Before the sealed format, one unparsable file in ``jobs/``
        crashed every worker's scan; now it is quarantined to ``dead/``
        with a ``queue.bad_file`` event and the scan continues."""
        queue = FileQueue(tmp_path)
        spec = _spec()
        queue.submit(spec)
        garbage = queue.jobs_dir / ("0" * 64 + ".json")  # sorts first
        garbage.write_text("{ not json", encoding="utf-8")

        events = tmp_path / "events.jsonl"
        telemetry.configure(level="info", json_path=str(events),
                            propagate=False)
        claim = queue.claim_next("w1")
        telemetry.disable()

        assert claim is not None and claim.key == spec.key
        assert [p.name for p in queue.dead()] == [garbage.name]
        assert "could not be parsed" in queue.read_error("0" * 64) \
            or queue.read_error("0" * 64)
        names = [json.loads(line)["event"]
                 for line in events.read_text().splitlines()]
        assert "queue.bad_file" in names
        claim.release()

    def test_truncated_job_file_is_quarantined(self, tmp_path):
        queue = FileQueue(tmp_path)
        spec = _spec()
        queue.submit(spec)
        job = queue.jobs_dir / f"{spec.key}.json"
        text = job.read_text()
        job.write_text(text[:len(text) // 2])
        assert queue.claim_next("w1") is None
        assert [p.name for p in queue.dead()] == [job.name]
        assert queue.read_error(spec.key) is not None


# ---------------------------------------------------------------------------
# Backoff schedule determinism (satellite)
# ---------------------------------------------------------------------------

OSERROR_TB = ("Traceback (most recent call last):\n"
              "  File \"x.py\", line 1, in f\n"
              "OSError: [Errno 5] injected\n")


class TestBackoff:
    def test_schedule_is_a_pure_function_of_the_attempt(self):
        delays = [backoff_delay(n, base=0.5, cap=4.0) for n in range(1, 7)]
        assert delays == [0.5, 1.0, 2.0, 4.0, 4.0, 4.0]
        with pytest.raises(ValueError):
            backoff_delay(0)

    def test_policy_validates(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_seconds=-1.0)
        assert RetryPolicy(base_seconds=2.0).delay(3) == 8.0

    def test_classification(self):
        assert classify_traceback(OSERROR_TB) == "transient"
        assert classify_traceback("repro.errors.TraceError: torn\n") \
            == "transient"
        assert classify_traceback("SimulationError: diverged\n") \
            == "permanent"
        assert classify_traceback("complete garbage") == "permanent"

    def test_two_identical_failure_runs_record_identical_history(
            self, tmp_path):
        policy = RetryPolicy(max_attempts=3, base_seconds=0.25,
                             cap_seconds=10.0)
        histories = []
        for name in ("a", "b"):
            queue = FileQueue(tmp_path / name)
            for _ in range(3):
                record = queue.record_failure("f" * 64, OSERROR_TB,
                                              "w1", policy=policy)
            histories.append(record["history"])
        assert histories[0] == histories[1]
        assert [h["delay_seconds"] for h in histories[0]] \
            == [0.25, 0.5, 0.0]  # final attempt: no further backoff
        assert record["final"] and record["attempts"] == 3

    def test_claim_next_honours_the_backoff_window(self, tmp_path):
        queue = FileQueue(tmp_path)
        spec = _spec()
        queue.submit(spec)
        queue.record_failure(spec.key, OSERROR_TB, "w1",
                             policy=RetryPolicy(max_attempts=3,
                                                base_seconds=30.0))
        assert queue.claim_next("w2") is None  # backing off, not gone
        assert queue.pending()
        record = queue.read_error_record(spec.key)
        record["next_eligible_at"] = time.time() - 1.0
        atomic_write_text(queue.errors_dir / f"{spec.key}.json",
                          json.dumps(record))
        claim = queue.claim_next("w2")
        assert claim is not None and claim.key == spec.key
        claim.release()


# ---------------------------------------------------------------------------
# Dead-letter round trip: exhaust retries, inspect, retry, drain
# ---------------------------------------------------------------------------


class TestDeadLetter:
    def test_exhausted_transient_failures_dead_letter(self, tmp_path,
                                                      capsys):
        root = tmp_path / "q"
        spec = _spec()
        FileQueue(root).submit(spec)
        faults.configure(_plan({"site": "store.put", "trigger": "every-k",
                                "n": 1, "kind": "enospc"}),
                         propagate=False)
        stats = run_worker(root, drain=True, poll_seconds=0.02,
                           lease_seconds=5.0,
                           retry=RetryPolicy(max_attempts=2,
                                             base_seconds=0.01))
        faults.disable()
        assert (stats.retried, stats.failed, stats.executed) == (1, 1, 0)
        queue = FileQueue(root)
        assert [p.name for p in queue.dead()] == [f"{spec.key}.json"]
        record = queue.read_error_record(spec.key)
        assert record["final"] and record["attempts"] == 2
        assert [h["delay_seconds"] for h in record["history"]] \
            == [0.01, 0.0]

        # inspect: the job is listed and (its payload being intact)
        # recoverable
        assert cli_main(["queue", "inspect", str(root), "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        (entry,) = listing["dead"]
        assert entry["key"] == spec.key
        assert entry["recoverable"] is True
        assert entry["attempts"] == 2

        # retry: re-enqueued, failure record cleared, drains clean
        assert cli_main(["queue", "retry", str(root), "--all"]) == 0
        assert queue.dead() == []
        assert queue.read_error_record(spec.key) is None
        assert queue.pending()
        stats = run_worker(root, drain=True, poll_seconds=0.02)
        assert stats.executed == 1 and stats.failed == 0
        assert ResultStore(queue.store_dir).get(spec) is not None
        assert queue.idle()

    def test_permanent_failures_dead_letter_immediately(self, tmp_path):
        root = tmp_path / "q"
        spec = _spec()
        FileQueue(root).submit(spec)
        faults.configure(_plan({"site": "worker.execute",
                                "trigger": "every-k", "n": 1,
                                "kind": "simulation-error"}),
                         propagate=False)
        stats = run_worker(root, drain=True, poll_seconds=0.02)
        faults.disable()
        assert (stats.retried, stats.failed) == (0, 1)
        record = FileQueue(root).read_error_record(spec.key)
        assert record["final"] and record["class"] == "permanent"
        assert record["attempts"] == 1

    def test_unrecoverable_dead_job_is_refused_by_retry(self, tmp_path,
                                                        capsys):
        root = tmp_path / "q"
        queue = FileQueue(root)
        key = "e" * 64
        (queue.dead_dir / f"{key}.json").write_text("scrambled beyond"
                                                    " repair")
        assert cli_main(["queue", "retry", str(root), key]) == 1
        assert "UNRECOVERABLE" in capsys.readouterr().err
        assert queue.dead()  # still there for forensics

    def test_queue_cli_refuses_a_missing_directory(self, tmp_path):
        assert cli_main(["queue", "inspect",
                         str(tmp_path / "typo")]) == 2

    def test_corrupted_seal_quarantines_then_recovers(self, tmp_path):
        """The acceptance corruption: a bit-rotted checksum field.  The
        job dead-letters at claim time (the body might be lying), but
        ``repro queue retry`` can verify the body and re-seal it."""
        root = tmp_path / "q"
        queue = FileQueue(root)
        spec = _spec()
        queue.submit(spec)
        job = queue.jobs_dir / f"{spec.key}.json"
        data = json.loads(job.read_text())
        data["sha256"] = "0" * 64
        job.write_text(json.dumps(data))

        assert queue.claim_next("w1") is None
        assert [p.name for p in queue.dead()] == [job.name]
        assert queue.retry_dead(spec.key) is True
        assert queue.dead() == []
        stats = run_worker(root, drain=True, poll_seconds=0.02)
        assert stats.executed == 1
        assert ResultStore(queue.store_dir).get(spec) is not None


# ---------------------------------------------------------------------------
# Submitter-side resilience: a failed cache write must not lose results
# ---------------------------------------------------------------------------


class TestSweepStoreFault:
    def test_sweep_survives_a_failed_cache_write(self, tmp_path):
        from repro.runner import SweepRunner

        faults.configure(_plan({"site": "store.put", "trigger": "nth-call",
                                "n": 1, "kind": "enospc"}),
                         propagate=False)
        runner = SweepRunner(store=ResultStore(tmp_path / "cache"),
                             backend="serial")
        (result,) = runner.run([_spec()])
        faults.disable()
        assert result.ok  # the simulation finished; only persistence lost
        assert runner.last_stats.failed == 0


# ---------------------------------------------------------------------------
# The chaos acceptance scenario: a real two-worker fleet under a plan
# ---------------------------------------------------------------------------


def _worker_cmd(root, *extra):
    return [sys.executable, "-m", "repro", "worker", str(root),
            "--drain", "--poll", "0.05", "--lease", "2", *extra]


def _worker_env(plan=None):
    src = Path(repro.__file__).parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
    env.pop(faults.ENV_FAULTS, None)
    if plan is not None:
        env[faults.ENV_FAULTS] = plan.to_json()
    return env


class TestChaosFleet:
    def test_fleet_heals_through_the_scripted_fault_plan(self, tmp_path):
        """Worker 1 is SIGKILLed mid-claim; worker 2 absorbs two
        transient store-write faults and one torn rename; one job file
        is corrupted on disk.  The fleet still completes every job
        exactly once, byte-identical to a fault-free run, and the
        corrupted job comes back through ``repro queue retry``."""
        specs = [_spec(instructions=n) for n in (900, 1_000, 1_100)]

        # the fault-free reference run
        ref_root = tmp_path / "ref"
        ref_queue = FileQueue(ref_root)
        for spec in specs:
            ref_queue.submit(spec)
        assert run_worker(ref_root, drain=True,
                          poll_seconds=0.02).executed == 3
        ref_store = ResultStore(ref_queue.store_dir)
        reference = {s.key: _canonical(ref_store.get(s)) for s in specs}

        # the chaos run: same jobs, one corrupted on disk
        root = tmp_path / "chaos"
        queue = FileQueue(root)
        for spec in specs:
            queue.submit(spec)
        corrupt = specs[0]
        job = queue.jobs_dir / f"{corrupt.key}.json"
        data = json.loads(job.read_text())
        data["sha256"] = "0" * 64
        job.write_text(json.dumps(data))

        # worker 1: dies the instant it starts executing a claim
        kill_plan = _plan({"site": "worker.execute", "trigger": "nth-call",
                           "n": 1, "kind": "kill"})
        victim = subprocess.run(
            _worker_cmd(root), env=_worker_env(kill_plan),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=120)
        assert victim.returncode == -9  # SIGKILL, not a clean exit
        orphaned = queue.claims()
        assert len(orphaned) == 1  # died holding exactly one lease
        stale = time.time() - 1_000
        for claim in orphaned:  # age it so worker 2 reclaims at once
            os.utime(claim, (stale, stale))

        # worker 2: two transient store.put faults + one torn rename
        # into the store, then drains everything that remains
        chaos_plan = _plan(
            {"site": "store.put", "trigger": "first-n", "n": 2,
             "kind": "io-error"},
            {"site": "atomic_write.rename", "trigger": "nth-call",
             "n": 1, "kind": "torn", "match": "store/"})
        healer = subprocess.run(
            _worker_cmd(root, "--retry-base", "0.05",
                        "--max-attempts", "4", "--json"),
            env=_worker_env(chaos_plan), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, timeout=180)
        assert healer.returncode == 0
        stats = json.loads(healer.stdout)
        assert stats["executed"] == 2  # the two uncorrupted jobs
        assert stats["retried"] == 3  # 2 store.put faults + 1 torn rename
        assert stats["failed"] == 0  # every fault was transient
        assert stats["reclaimed"] >= 1  # worker 1's orphaned lease

        # the corrupted job is dead-lettered, everything else is done
        assert [p.name for p in queue.dead()] == [f"{corrupt.key}.json"]
        assert queue.idle()
        record = queue.read_error_record(corrupt.key)
        assert record["final"] and record.get("kind") == "bad_file"

        # operator recovery: re-enqueue and drain fault-free
        assert cli_main(["queue", "retry", str(root), "--all"]) == 0
        assert run_worker(root, drain=True,
                          poll_seconds=0.02).executed == 1

        # exactly once, byte-identical to the fault-free run
        store = ResultStore(queue.store_dir)
        assert len(list(queue.store_dir.glob("*.json"))) == 3
        assert list(queue.store_dir.glob("*.tmp*")) == []
        for spec in specs:
            assert _canonical(store.get(spec)) == reference[spec.key]
        assert queue.dead() == [] and queue.pending() == []
        assert queue.read_error_record(corrupt.key) is None
