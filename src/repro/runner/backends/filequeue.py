"""Shared-directory work queue: one sweep, N worker processes/machines.

The queue is a directory (any filesystem all participants can see —
local disk for multi-process, NFS-style shares for multi-machine) with
five subdirectories::

    <queue>/jobs/<key>.json            pending job (the unit's spec payload)
    <queue>/claims/<key>.<owner>.json  leased job (owner heartbeats mtime)
    <queue>/errors/<key>.json          attempt record / final failure
    <queue>/dead/<key>.json            dead-lettered job (see below)
    <queue>/store/                     shared ResultStore of finished runs

Coordination uses nothing but atomic renames, so it works on any POSIX
filesystem with no server, no locks, and no partial states:

* **submit** writes ``jobs/<key>.json`` atomically (temp + fsync +
  rename); the filename is the unit's content-address (a lone job's
  own spec key; a shared pass's hash over its member keys), so
  duplicate submissions of the same job collapse to one file.  The
  payload is *sealed*: it carries its own length + sha256, so a torn
  or bit-rotted file is detected before it is ever parsed as a job.
* **claim** renames ``jobs/<key>.json`` to
  ``claims/<key>.<owner>.json``.  Rename either succeeds or raises —
  two workers racing for one job get exactly one winner.  A job whose
  file fails its self-checksum is quarantined to ``dead/`` (with a
  ``queue.bad_file`` event) and the scan continues: one poisoned file
  never stalls the fleet.
* **lease/heartbeat**: while executing, the owner touches its claim
  file's mtime every ``lease/4`` seconds.  A claim whose mtime is older
  than the lease belongs to a dead worker (SIGKILL, power loss) and any
  worker may **reclaim** it — again by rename, back into ``jobs/``.
* **complete**: the result goes into the shared store (first writer
  wins — see ``ResultStore.put(..., overwrite=False)``), the claim file
  is removed.
* **fail**: failures are classified (see :mod:`repro.faults.retry`) —
  *transient* ones (I/O errors, torn trace reads) are retried with a
  recorded, jitter-free exponential backoff: the attempt count and the
  next-eligible time live in ``errors/<key>.json`` and workers skip
  jobs whose backoff has not elapsed.  *Permanent* ones (the job itself
  is wrong), and transient ones that exhaust their attempts, move the
  claim to ``dead/`` — the dead-letter directory — and the attempt
  record is marked final; only final records surface as a job's
  ``JobResult.error``.  ``repro queue inspect|retry`` examines and
  re-enqueues dead jobs.

A worker that dies *after* putting the result but *before* releasing
its claim costs nothing: the reclaimed job's store probe hits and the
job is released without re-simulation — every job completes exactly
once in the store.  Clock skew between machines must stay well under
the lease for stale-claim detection to be meaningful.

Every durability seam here is a :func:`repro.faults.fire` injection
point (``queue.submit``, ``queue.claim``, ``queue.reclaim``,
``worker.execute``, ``worker.heartbeat``); ``tests/test_faults.py``
drives real fleets through scripted crash/corruption plans against
these exact code paths.  See ``docs/robustness.md``.

:class:`FileQueueBackend` is the submit side (plugs into
:class:`~repro.runner.sweep.SweepRunner`); :func:`run_worker` is the
drain side (the long-running ``repro worker <queue-dir>`` command).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import socket
import threading
import time
import traceback
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, TYPE_CHECKING, Union

from repro import faults, telemetry
from repro.errors import ConfigError
from repro.faults.retry import RetryPolicy, classify_traceback
from repro.runner.backends.base import (
    ExecutionBackend,
    Outcome,
    SweepInterrupted,
    execute_grid,
)
from repro.runner.gridspec import GridSpec, expand_units
from repro.runner.jobspec import JobSpec
from repro.runner.store import ResultStore, atomic_write_text

if TYPE_CHECKING:  # pragma: no cover
    from repro.runner.sweep import SweepRunner, SweepStats

#: job-file schema version; workers refuse payloads from the future.
#: Format 2 sealed the payload with length + sha256 self-checksums.
QUEUE_FORMAT = 2

#: default lease: a worker silent this long is presumed dead
DEFAULT_LEASE_SECONDS = 60.0

#: default delay between queue polls (submitters and idle workers)
DEFAULT_POLL_SECONDS = 0.2


def _owner_id() -> str:
    """Filename-safe unique worker identity (host, pid, nonce)."""
    host = re.sub(r"[^A-Za-z0-9_-]", "-", socket.gethostname())[:24]
    # repro-lint: ok DET001  worker identity nonce names the claim file, never result bytes
    return f"{host or 'host'}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


def _canonical_body(payload: dict) -> str:
    """The byte sequence the self-checksum covers: the payload without
    its seal fields, serialized canonically (sorted keys, no spaces) so
    sealing and verification can never disagree about whitespace."""
    body = {k: v for k, v in payload.items()
            if k not in ("length", "sha256")}
    return json.dumps(body, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def seal_payload(payload: dict) -> str:
    """Serialize a job payload with length + sha256 self-checksums, so
    readers can tell a torn or corrupted file from a job."""
    body = _canonical_body(payload)
    sealed = dict(payload)
    sealed["length"] = len(body)
    sealed["sha256"] = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return json.dumps(sealed, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def verify_payload(text: str) -> dict:
    """Parse and checksum-verify a sealed job file; raises
    :class:`ConfigError` on anything torn, truncated, or altered.  The
    seal fields are stripped from the returned payload."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ConfigError(
            f"job file is not valid JSON (torn write?): {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("job file is not a JSON object")
    expected_sha = data.get("sha256")
    expected_len = data.get("length")
    if expected_sha is None and expected_len is None:
        # unsealed (pre-format-2) file: let the format gate in
        # _parse_claim name the problem precisely
        return data
    body = _canonical_body(data)
    if (expected_len != len(body)
            or expected_sha != hashlib.sha256(
                body.encode("utf-8")).hexdigest()):
        raise ConfigError(
            "job file failed its self-checksum (torn or corrupted write)")
    return {k: v for k, v in data.items() if k not in ("length", "sha256")}


@dataclass
class Claim:
    """A leased job: the exclusive right to execute one spec."""

    queue: "FileQueue"
    key: str
    path: Path  #: claims/<key>.<owner>.json (mtime is the heartbeat)
    payload: Optional[dict]  #: the verified job payload (seal stripped)
    #: set the moment the claim is released/requeued; from then on
    #: :meth:`heartbeat` is a guaranteed no-op.  Without this guard a
    #: straggling heartbeat could touch a *reclaimed* job file's path
    #: the instant another worker renames it back under the same name —
    #: a zombie heartbeat masking a dead worker from ``reclaim_stale``
    #: and from the ``repro status`` liveness view.
    released: bool = False

    def heartbeat(self) -> None:
        if self.released:
            return
        faults.fire("worker.heartbeat", key=self.key)
        try:
            os.utime(self.path)
        except OSError:
            pass  # reclaimed from under us; completion handles it

    def release(self) -> None:
        """Drop the claim (job finished or already answered)."""
        self.released = True
        try:
            self.path.unlink()
        except OSError:
            pass

    def requeue(self) -> None:
        """Hand the job back (worker shutting down mid-job)."""
        self.released = True
        try:
            os.rename(self.path, self.queue.jobs_dir / f"{self.key}.json")
        except OSError:
            pass  # reclaimed already — someone else owns it now


class FileQueue:
    """The on-disk queue structure (shared by submitters and workers)."""

    JOBS, CLAIMS, ERRORS, STORE = "jobs", "claims", "errors", "store"
    WORKERS = "workers"  #: per-worker heartbeat records (observability)
    DEAD = "dead"  #: dead-letter directory (exhausted/poisoned jobs)

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / self.JOBS
        self.claims_dir = self.root / self.CLAIMS
        self.errors_dir = self.root / self.ERRORS
        self.store_dir = self.root / self.STORE
        self.workers_dir = self.root / self.WORKERS
        self.dead_dir = self.root / self.DEAD
        for directory in (self.jobs_dir, self.claims_dir,
                          self.errors_dir, self.store_dir,
                          self.workers_dir, self.dead_dir):
            directory.mkdir(parents=True, exist_ok=True)

    # -- submit side ---------------------------------------------------

    def submit(self, unit: Union[GridSpec, JobSpec]) -> bool:
        """Enqueue ``unit`` unless it is already pending or claimed (a
        bare JobSpec is enqueued as its one-member pass).  The job file
        is named by the unit's key (a lone job's own spec key) and
        carries the unit's dict.  Stale final error files — the unit's
        and its members' — and any dead-lettered copy are cleared
        first, so re-submitting a previously failed job retries it from
        a clean slate."""
        if isinstance(unit, JobSpec):
            unit = GridSpec(members=(unit,))
        key = unit.key
        for member in unit.members:
            self._clear_final_error(member.key)
        self._clear_final_error(key)
        if (self.jobs_dir / f"{key}.json").exists() or self.claims(key):
            return False
        faults.fire("queue.submit", key=key, workload=unit.workload)
        self._clear_dead(key)
        spec = unit.to_dict()
        payload = {"format": QUEUE_FORMAT, "key": key, "spec": spec}
        if "kind" in spec:
            # format 2's envelope mirrors a grid spec's kind; keep it so
            # job files stay byte-identical across versions
            payload["kind"] = spec["kind"]
        atomic_write_text(self.jobs_dir / f"{key}.json",
                          seal_payload(payload))
        return True

    # -- failure records -----------------------------------------------

    def read_error(self, key: str) -> Optional[str]:
        """The recorded *final* failure for ``key``, or None.  Attempt
        records whose retries are still pending (``final: false``) do
        not surface — to a submitter the job is simply not done yet.
        Records without a ``final`` field (pre-retry releases, direct
        :meth:`write_error` callers) are final."""
        record = self.read_error_record(key)
        if record is None or not record.get("final", True):
            return None
        return str(record.get("traceback", "unknown queue failure"))

    def read_error_record(self, key: str) -> Optional[dict]:
        """The raw attempt/failure record for ``key``, or None."""
        try:
            record = json.loads((self.errors_dir / f"{key}.json")
                                .read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return record if isinstance(record, dict) else None

    def write_error(self, key: str, tb: str, owner: str = "") -> None:
        """Record a final (non-retryable) failure for ``key``."""
        atomic_write_text(self.errors_dir / f"{key}.json",
                          json.dumps({"key": key, "owner": owner,
                                      "traceback": tb, "final": True},
                                     allow_nan=False))

    def record_failure(self, key: str, tb: str, owner: str = "", *,
                       policy: Optional[RetryPolicy] = None,
                       force_final: bool = False) -> dict:
        """Account one failed attempt for ``key`` and decide its fate.

        The attempt count continues any existing record; the failure is
        classified (:func:`~repro.faults.retry.classify_traceback`) and
        the record becomes *final* when the error is permanent, the
        policy's attempts are exhausted, or ``force_final`` is set.
        Non-final records carry ``next_eligible_at`` — the wall-clock
        time before which :meth:`claim_next` will not hand the job out
        again — plus the full per-attempt history with each backoff
        delay, which is a pure function of the attempt number (so two
        identical runs record identical schedules).
        """
        policy = policy or RetryPolicy()
        previous = self.read_error_record(key) or {}
        try:
            attempts = int(previous.get("attempts", 0)) + 1
        except (TypeError, ValueError):
            attempts = 1
        classification = classify_traceback(tb)
        final = (force_final or classification == "permanent"
                 or attempts >= policy.max_attempts)
        delay = 0.0 if final else policy.delay(attempts)
        history = previous.get("history")
        history = list(history) if isinstance(history, list) else []
        history.append({"attempt": attempts, "owner": owner,
                        "class": classification,
                        "delay_seconds": round(delay, 6)})
        record = {"key": key, "owner": owner, "traceback": tb,
                  "class": classification, "attempts": attempts,
                  "max_attempts": policy.max_attempts, "final": final,
                  "history": history}
        if not final:
            # repro-lint: ok DET001  retry eligibility deadline, compared to wall clock at claim time
            record["next_eligible_at"] = time.time() + delay
        atomic_write_text(self.errors_dir / f"{key}.json",
                          json.dumps(record, allow_nan=False))
        return record

    def clear_error(self, key: str) -> None:
        try:
            (self.errors_dir / f"{key}.json").unlink()
        except OSError:
            pass

    def _clear_final_error(self, key: str) -> None:
        """Clear a *final* failure record (re-submission retries the
        job) while leaving live retry records alone — clobbering one
        mid-flight would reset another worker's attempt accounting."""
        record = self.read_error_record(key)
        if record is not None and record.get("final", True):
            self.clear_error(key)

    # -- dead-letter side ----------------------------------------------

    def dead(self) -> List[Path]:
        """Every dead-lettered job file, sorted by key."""
        return sorted(self.dead_dir.glob("*.json"))

    def dead_letter(self, claim: Claim) -> Path:
        """Move a claim's job file to ``dead/`` — terminal until an
        operator re-enqueues it (``repro queue retry``) or the job is
        re-submitted."""
        claim.released = True
        target = self.dead_dir / f"{claim.key}.json"
        try:
            os.rename(claim.path, target)
        except OSError:
            pass  # reclaimed from under us; the other owner decides
        return target

    def quarantine(self, key: str, path: Path, reason: str,
                   owner: str = "") -> bool:
        """Move an unparseable/torn file to ``dead/``, record a final
        ``bad_file`` error under its key, and say so loudly."""
        try:
            os.rename(path, self.dead_dir / f"{key}.json")
        except OSError:
            return False  # someone else moved it first
        atomic_write_text(self.errors_dir / f"{key}.json",
                          json.dumps({"key": key, "owner": owner,
                                      "traceback": reason, "final": True,
                                      "kind": "bad_file"},
                                     allow_nan=False))
        telemetry.emit("queue.bad_file", level="error", key=key,
                       reason=reason, queue=str(self.root))
        return True

    def retry_dead(self, key: str) -> bool:
        """Re-enqueue a dead-lettered job: verify its payload still
        seals (garbage must not become a job again), clear the failure
        record, and rename it back into ``jobs/``.  Returns False when
        there is no such dead job or its payload is unrecoverable."""
        source = self.dead_dir / f"{key}.json"
        try:
            text = source.read_text(encoding="utf-8")
        except OSError:
            return False
        payload = self.recover_payload(key, text)
        if payload is None:
            return False
        self.clear_error(key)
        target = self.jobs_dir / f"{key}.json"
        try:
            atomic_write_text(target, seal_payload(payload))
            source.unlink()
        except OSError:
            return False
        return True

    @staticmethod
    def recover_payload(key: str, text: str) -> Optional[dict]:
        """A dead job's payload if it is still trustworthy: either the
        seal verifies, or the body parses and its key matches the
        filename (corruption confined to the seal envelope — e.g. a
        bit-rotted checksum field — is repairable; a damaged body is
        not)."""
        try:
            return verify_payload(text)
        except ConfigError:
            pass
        try:
            data = json.loads(text)
        except ValueError:
            return None
        if not isinstance(data, dict):
            return None
        body = {k: v for k, v in data.items()
                if k not in ("length", "sha256")}
        if body.get("key") != key or body.get("format") != QUEUE_FORMAT:
            return None
        return body

    def _clear_dead(self, key: str) -> None:
        try:
            (self.dead_dir / f"{key}.json").unlink()
        except OSError:
            pass

    # -- worker side ---------------------------------------------------

    def claim_next(self, owner: str) -> Optional[Claim]:
        """Claim one pending job by atomic rename, or None if nothing
        is claimable right now.

        Jobs in their backoff window (a non-final attempt record whose
        ``next_eligible_at`` has not passed) are skipped, not claimed.
        A job file that cannot be read or fails its self-checksum is
        quarantined to ``dead/`` and the scan *continues* — one
        poisoned file must never stop every worker from claiming the
        jobs behind it.
        """
        faults.fire("queue.claim", owner=owner)
        # repro-lint: ok DET001  retry eligibility clock, compared to recorded deadlines
        now = time.time()
        for job in sorted(self.jobs_dir.glob("*.json")):
            key = job.name[:-len(".json")]
            if not self._eligible(key, now):
                continue  # backing off; leave it queued
            target = self.claims_dir / f"{key}.{owner}.json"
            try:
                os.rename(job, target)
            except OSError:
                continue  # lost the race for this one; try the next
            try:
                text: Optional[str] = target.read_text(encoding="utf-8")
            except OSError:
                text = None
            if text is None:
                self.quarantine(key, target,
                                "job file vanished or was unreadable "
                                "after claim", owner)
                continue
            try:
                payload = verify_payload(text)
            except ConfigError as exc:
                self.quarantine(key, target, str(exc), owner)
                continue
            return Claim(queue=self, key=key, path=target, payload=payload)
        return None

    def _eligible(self, key: str, now: float) -> bool:
        """Whether ``key`` may be claimed at wall-clock ``now`` — False
        only inside the backoff window of a live (non-final) retry."""
        record = self.read_error_record(key)
        if record is None or record.get("final", True):
            return True
        eligible_at = record.get("next_eligible_at")
        if not isinstance(eligible_at, (int, float)):
            return True
        return now >= eligible_at

    def reclaim_stale(self, lease_seconds: float) -> int:
        """Requeue every claim whose heartbeat stopped more than
        ``lease_seconds`` ago; returns how many were reclaimed."""
        faults.fire("queue.reclaim", queue=str(self.root))
        now = time.time()  # repro-lint: ok DET001  lease staleness clock, compared to file mtimes
        reclaimed = 0
        for claim in sorted(self.claims_dir.glob("*.json")):
            try:
                mtime = claim.stat().st_mtime
            except OSError:
                continue  # released while we were scanning
            if now - mtime <= lease_seconds:
                continue
            key = claim.name.split(".", 1)[0]
            try:
                os.rename(claim, self.jobs_dir / f"{key}.json")
            except OSError:
                continue  # another worker reclaimed it first
            reclaimed += 1
        return reclaimed

    # -- introspection -------------------------------------------------

    def claims(self, key: Optional[str] = None) -> List[Path]:
        pattern = f"{key}.*.json" if key else "*.json"
        return sorted(self.claims_dir.glob(pattern))

    def pending(self) -> List[Path]:
        return sorted(self.jobs_dir.glob("*.json"))

    def idle(self) -> bool:
        """Nothing queued and nothing being worked on."""
        return not self.pending() and not self.claims()


class _Heartbeat:
    """Background thread refreshing a claim's mtime during execution.

    ``also`` is an optional extra callback run on every beat — the
    worker loop uses it to keep its own ``workers/<owner>.json``
    liveness record fresh while a long job executes.  Exiting the
    context joins the thread, and :attr:`Claim.released` guards the
    race where a beat was already past the stop check: once a claim is
    released its mtime is never touched again.
    """

    def __init__(self, claim: Claim, interval: float,
                 also: Optional[Callable[[], None]] = None) -> None:
        self._claim = claim
        self._interval = max(interval, 0.05)
        self._also = also
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._beat, daemon=True)

    def _beat(self) -> None:
        while not self._stop.wait(self._interval):
            self._claim.heartbeat()
            if self._also is not None:
                try:
                    self._also()
                except OSError:
                    pass
            telemetry.emit("worker.heartbeat", level="debug",
                           key=self._claim.key)

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


class WorkerRecord:
    """A worker's liveness/throughput record under ``workers/``.

    One JSON file per worker: identity (owner/pid/host), the lease it
    was started with (so ``repro status`` judges liveness by the same
    clock the reclaimer uses), its current state and job, and a
    :class:`WorkerStats` snapshot.  Full rewrites happen on state
    changes; between them :meth:`touch` refreshes only the mtime — the
    liveness signal — for the cost of one ``utime``.
    """

    def __init__(self, queue: FileQueue, owner: str, *,
                 lease_seconds: float, poll_seconds: float) -> None:
        self.path = queue.workers_dir / f"{owner}.json"
        self._base = {
            "owner": owner,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "queue": str(queue.root),
            # repro-lint: ok DET001  dashboard timestamp, outside result bytes
            "started_at": time.time(),
            "lease_seconds": lease_seconds,
            "poll_seconds": poll_seconds,
        }

    def write(self, state: str, stats: "WorkerStats",
              current: Optional[str] = None, *,
              exited: bool = False) -> None:
        record = dict(self._base)
        record.update(state=state, current=current, exited=exited,
                      # repro-lint: ok DET001  dashboard freshness timestamp, outside result bytes
                      updated_at=time.time(),
                      stats={k: v for k, v in
                             dataclasses.asdict(stats).items()
                             if not isinstance(v, str)})
        try:
            atomic_write_text(self.path, json.dumps(record))
        except OSError:
            pass  # observability must never take the worker down

    def touch(self) -> None:
        try:
            os.utime(self.path)
        except OSError:
            pass


class FileQueueBackend(ExecutionBackend):
    """Submit jobs to a queue directory and wait for workers to answer.

    ``timeout`` bounds how long the submitter waits *without progress*
    (no job finishing); when it expires, every still-pending job gets a
    descriptive error outcome instead of hanging a fleetless sweep
    forever.  ``timeout=None`` (the default) waits indefinitely.
    """

    name = "queue"

    def __init__(self, root: Union[str, Path],
                 poll_seconds: float = DEFAULT_POLL_SECONDS,
                 timeout: Optional[float] = None) -> None:
        self.root = Path(root)
        self.poll_seconds = poll_seconds
        self.timeout = timeout

    @property
    def store_root(self) -> Path:
        """The shared result store workers drain into."""
        return Path(self.root) / FileQueue.STORE

    def describe(self) -> str:
        return f"queue:{self.root}"

    def execute(self, queue: List[GridSpec], runner: "SweepRunner",
                stats: "SweepStats") -> List[Outcome]:
        members = expand_units(queue)
        stats.parallel = len(members) > 1
        fq = FileQueue(self.root)
        store = ResultStore(fq.store_dir)
        outcome_for: Dict[str, Outcome] = {}
        pending: Dict[str, JobSpec] = {}
        for unit in queue:
            # per-member pre-probe: a worker (or concurrent sweep) may
            # have answered some members already; the unit still runs
            # whole, and overwrite=False keeps the existing (identical)
            # entries
            missing = []
            for member in unit.members:
                run = store.get(member)
                if run is not None:
                    outcome_for[member.key] = (run, None)
                else:
                    missing.append(member)
            if not missing:
                continue
            fq.submit(unit)
            telemetry.emit("queue.submit", level="debug", key=unit.key,
                           workload=unit.workload,
                           grid_members=len(unit.members),
                           queue=str(self.root))
            for member in missing:
                pending[member.key] = member
        telemetry.emit("queue.batch", queue=str(self.root),
                       submitted=len(pending),
                       answered=len(outcome_for))
        try:
            self._wait(fq, store, pending, outcome_for)
        except KeyboardInterrupt:
            done = [(spec, outcome_for[spec.key]) for spec in members
                    if spec.key in outcome_for]
            raise SweepInterrupted(done) from None
        return [outcome_for[spec.key] for spec in members]

    def _wait(self, fq: FileQueue, store: ResultStore,
              pending: Dict[str, JobSpec],
              outcome_for: Dict[str, Outcome]) -> None:
        deadline = (None if self.timeout is None
                    else time.monotonic() + self.timeout)
        while pending:
            progressed = False
            for key in list(pending):
                run = store.get(pending[key])
                if run is not None:
                    outcome_for[key] = (run, None)
                    del pending[key]
                    progressed = True
                    continue
                error = fq.read_error(key)
                if error is not None:
                    outcome_for[key] = (None, error)
                    del pending[key]
                    progressed = True
            if not pending:
                return
            if progressed:
                if deadline is not None:  # progress resets the clock
                    deadline = time.monotonic() + self.timeout
                continue
            if deadline is not None and time.monotonic() >= deadline:
                message = (
                    f"timed out after {self.timeout:g}s with no queue "
                    f"progress; no worker answered this job (drain "
                    f"'{self.root}' with: repro worker {self.root})")
                for key in list(pending):
                    outcome_for[key] = (None, message)
                pending.clear()
                return
            faults.sleep(self.poll_seconds)


# ---------------------------------------------------------------------------
# Worker loop (the `repro worker` command)
# ---------------------------------------------------------------------------


@dataclass
class WorkerStats:
    """What one :func:`run_worker` invocation did."""

    claimed: int = 0
    executed: int = 0  #: simulated here and stored
    cached: int = 0  #: claim released because the store already answered
    failed: int = 0  #: final failure (dead-lettered or bad job file)
    retried: int = 0  #: transient failure requeued with backoff
    reclaimed: int = 0  #: stale claims handed back to the queue
    owner: str = ""  #: this worker's fleet identity
    seconds: float = 0.0  #: wall clock of the whole invocation

    def describe(self) -> str:
        return (f"{self.claimed} claimed: {self.executed} executed, "
                f"{self.cached} already in store, {self.failed} failed, "
                f"{self.retried} retried; "
                f"{self.reclaimed} stale claim(s) reclaimed")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def run_worker(root: Union[str, Path], *,
               drain: bool = False,
               max_jobs: Optional[int] = None,
               lease_seconds: float = DEFAULT_LEASE_SECONDS,
               poll_seconds: float = DEFAULT_POLL_SECONDS,
               idle_exit: Optional[float] = None,
               retry: Optional[RetryPolicy] = None,
               log: Optional[Callable[[str], None]] = None) -> WorkerStats:
    """Drain jobs from a queue directory until told to stop.

    * ``drain=True`` — exit once the queue is idle (no pending jobs, no
      live claims): the batch-mode workhorse.
    * ``idle_exit=N`` — exit after N seconds with nothing to do (lets a
      fleet outlive one sweep but not linger forever).
    * ``max_jobs=N`` — exit after claiming N jobs.
    * default — run until interrupted (the long-lived fleet member).

    ``retry`` is this worker's :class:`~repro.faults.retry.RetryPolicy`
    — how many attempts a transiently failing job gets and how its
    backoff grows before it dead-letters (defaults apply when None).

    Ctrl-C requeues the in-flight job (no lease wait for the others)
    and re-raises.  Returns this worker's :class:`WorkerStats`.

    Alongside the claim-lease heartbeat, the worker maintains a
    ``workers/<owner>.json`` liveness record (:class:`WorkerRecord`)
    that ``repro status`` reads: state, current job, stats, and an
    mtime refreshed while idling *and* while executing — so a worker
    grinding through one long job and a worker polling an empty queue
    both read as live, and a SIGKILLed one goes stale within its lease.
    """
    queue = FileQueue(root)
    store = ResultStore(queue.store_dir)
    owner = _owner_id()
    retry = retry or RetryPolicy()
    stats = WorkerStats(owner=owner)
    emit = log or (lambda line: None)
    record = WorkerRecord(queue, owner, lease_seconds=lease_seconds,
                          poll_seconds=poll_seconds)
    record.write("idle", stats)
    emit(f"worker {owner} draining {queue.root}")
    telemetry.emit("worker.start", owner=owner, queue=str(queue.root),
                   lease_seconds=lease_seconds)
    started = time.monotonic()
    idle_since: Optional[float] = None
    try:
        while True:
            if max_jobs is not None and stats.claimed >= max_jobs:
                break
            claim = queue.claim_next(owner)
            if claim is None:
                reclaimed = queue.reclaim_stale(lease_seconds)
                if reclaimed:
                    stats.reclaimed += reclaimed
                    emit(f"reclaimed {reclaimed} stale claim(s)")
                    telemetry.emit("worker.reclaim", owner=owner,
                                   count=reclaimed)
                    record.write("idle", stats)
                    continue
                if drain and queue.idle():
                    break
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                if (idle_exit is not None
                        and now - idle_since >= idle_exit):
                    break
                record.touch()  # still alive, just idle
                faults.sleep(poll_seconds)
                continue
            idle_since = None
            stats.claimed += 1
            record.write("running", stats, current=claim.key)
            telemetry.emit("worker.claim", owner=owner, key=claim.key)
            try:
                _process_claim(queue, store, claim, owner, lease_seconds,
                               stats, emit, record, retry=retry)
            except KeyboardInterrupt:
                claim.requeue()
                emit(f"interrupted; requeued {claim.key[:16]}")
                telemetry.emit("worker.requeue", level="error",
                               owner=owner, key=claim.key)
                raise
            record.write("idle", stats)
    finally:
        stats.seconds = time.monotonic() - started
        record.write("exited", stats, exited=True)
        telemetry.emit("worker.exit", owner=owner,
                       **{k: v for k, v in stats.to_dict().items()
                          if k != "owner"})
    emit(f"worker {owner} done: {stats.describe()}")
    return stats


def _parse_claim(claim: Claim) -> GridSpec:
    """The unit a claim holds; raises :class:`ConfigError` on any
    malformed, foreign-format, or tampered payload."""
    payload = claim.payload
    if not isinstance(payload, dict):
        raise ConfigError("job file is not a JSON object")
    if payload.get("format") != QUEUE_FORMAT:
        raise ConfigError(
            f"unsupported queue job format {payload.get('format')!r} "
            f"(this worker speaks format {QUEUE_FORMAT})")
    unit = GridSpec.from_dict(payload["spec"])
    if payload.get("key") != unit.key:
        raise ConfigError(
            "job file key does not match its spec (tampered, renamed, "
            "or produced by an incompatible version)")
    return unit


def _fail_claim(queue: FileQueue, claim: Claim, error: str, owner: str,
                stats: WorkerStats, emit: Callable[[str], None],
                retry: RetryPolicy, *, workload: Optional[str] = None,
                force_final: bool = False) -> dict:
    """The shared failure path: account the attempt, then either
    requeue with backoff (transient, attempts left) or dead-letter
    (permanent / exhausted).  Returns the written attempt record."""
    record = queue.record_failure(claim.key, error, owner, policy=retry,
                                  force_final=force_final)
    last_line = error.strip().splitlines()[-1] if error.strip() else "?"
    if record["final"]:
        queue.dead_letter(claim)
        stats.failed += 1
        emit(f"FAILED {claim.key[:16]} "
             f"(attempt {record['attempts']}/{retry.max_attempts}, "
             f"{record['class']}) -> dead-lettered: {last_line}")
        telemetry.emit("worker.dead_letter", level="error", owner=owner,
                       key=claim.key, workload=workload,
                       error_class=record["class"],
                       attempts=record["attempts"])
    else:
        delay = record["history"][-1]["delay_seconds"]
        claim.requeue()
        stats.retried += 1
        emit(f"RETRY  {claim.key[:16]} "
             f"(attempt {record['attempts']}/{retry.max_attempts}, "
             f"{record['class']}; backing off {delay:g}s): {last_line}")
        telemetry.emit("worker.retry", level="error", owner=owner,
                       key=claim.key, workload=workload,
                       error_class=record["class"],
                       attempts=record["attempts"],
                       delay_seconds=delay)
    return record


def _process_claim(queue: FileQueue, store: ResultStore, claim: Claim,
                   owner: str, lease_seconds: float, stats: WorkerStats,
                   emit: Callable[[str], None],
                   record: Optional[WorkerRecord] = None, *,
                   retry: Optional[RetryPolicy] = None) -> None:
    """Execute one claimed unit: one shared pass, each member stored
    under its own key (errors likewise per member, so the submitter
    waits on member keys alone).

    Retry accounting lives under the *claim* key (the unit that is
    claimed and backed off); the records of members whose keys differ
    from it mirror that account, so a submitter sees a member's
    failure exactly when the unit as a whole gives up.
    """
    retry = retry or RetryPolicy()
    touch = record.touch if record is not None else None
    try:
        unit = _parse_claim(claim)
    except Exception:
        # poisoned job file: dead-letter it (requeueing would just
        # bounce it between workers forever) with a final record
        queue.write_error(claim.key, traceback.format_exc(), owner)
        queue.dead_letter(claim)
        stats.failed += 1
        emit(f"bad job file {claim.key[:16]} -> dead-lettered")
        telemetry.emit("worker.bad_job", level="error", owner=owner,
                       key=claim.key)
        return
    count = len(unit.members)
    if all(store.get(member) is not None for member in unit.members):
        # answered while queued (reclaimed job whose first owner died
        # after the put, or a concurrent sweep) — exactly-once holds
        claim.release()
        stats.cached += 1
        emit(f"cached {claim.key[:16]} {unit.describe()}")
        telemetry.emit("worker.cached", owner=owner, key=claim.key,
                       workload=unit.workload, grid_members=count)
        return
    emit(f"run    {claim.key[:16]} {unit.describe()}")
    try:
        # an injected fault here is a job failure like any other —
        # classified, retried or dead-lettered — not a worker crash
        faults.fire("worker.execute", key=claim.key, owner=owner)
    except Exception:
        outcomes = [(None, traceback.format_exc()) for _ in unit.members]
    else:
        with _Heartbeat(claim, interval=lease_seconds / 4, also=touch):
            outcomes = execute_grid(unit)
    failures = []
    seconds = None
    for member, (run, error) in zip(unit.members, outcomes):
        if run is not None:
            try:
                # overwrite=False: if our lease was reclaimed and the
                # other worker beat us to the put, keep its (identical)
                # entry
                store.put(member, run, overwrite=False)
            except OSError:
                # the simulation succeeded but the shared store did not
                # take the result (ENOSPC, NFS hiccup, torn rename): a
                # transient job failure, not a worker crash
                run, error = None, traceback.format_exc()
        if run is not None:
            queue.clear_error(member.key)
            job = getattr(run, "job_metrics", None)
            if job is not None:
                seconds = (seconds or 0.0) + job.total_seconds
        else:
            failures.append((member, error or "unknown failure"))
    if failures:
        claim_record = _fail_claim(queue, claim, failures[0][1], owner,
                                   stats, emit, retry,
                                   workload=unit.workload)
        for member, error in failures:
            if member.key != claim.key:
                # member records surface only once the unit is final
                queue.record_failure(member.key, error, owner,
                                     policy=retry,
                                     force_final=claim_record["final"])
        telemetry.emit("worker.error", level="error", owner=owner,
                       key=claim.key, workload=unit.workload,
                       grid_members=count, failed_members=len(failures))
    else:
        queue.clear_error(claim.key)
        stats.executed += 1
        emit(f"done   {claim.key[:16]}")
        telemetry.emit("worker.done", owner=owner, key=claim.key,
                       workload=unit.workload, grid_members=count,
                       seconds=(None if seconds is None
                                else round(seconds, 6)))
        claim.release()
