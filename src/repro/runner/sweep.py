"""Fan a batch of :class:`JobSpec` out over an execution backend.

Design points, in the order they matter:

* **Cache first.**  Every spec is answered from the
  :class:`~repro.runner.store.ResultStore` when possible; only misses
  are simulated, and duplicate specs in one batch are simulated once.
* **Deterministic.**  Results come back in input order regardless of
  worker scheduling, and every backend produces results identical to a
  serial run: each job is a self-contained simulation, and the dict
  round-trip that carries a result across a process boundary is exact
  (ints verbatim, floats by value).
* **Fault isolated.**  A failing job becomes a :class:`JobResult` with
  ``error`` set (full traceback); the rest of the sweep completes.
  The pool backend survives broken pools by quarantining jobs (see
  :mod:`repro.runner.backends.pool`), and Ctrl-C persists every
  already-finished result before re-raising.

*Where* the cache-missing jobs execute is pluggable
(:mod:`repro.runner.backends`): serially in-process, across a local
process pool, or through a shared-directory file queue drained by
``repro worker`` processes on any number of machines.  By default the
runner picks serial for ``workers=1`` and the pool otherwise — the
historical behaviour.

Pool workers receive spec *dicts* and return result *dicts*: both sides
of the pipe are plain data, so nothing in the simulator needs to be
picklable.  One start-method caveat: custom workload registrations
(:func:`repro.workloads.registry.register`) live only in the parent
process, so under a non-``fork`` start method their jobs are executed
in-process while builtin workloads still go to the pool.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro import faults, telemetry
from repro.runner.backends.base import (
    ExecutionBackend,
    SweepInterrupted,
    execute_grid,
)
from repro.runner.gridspec import GridSpec, expand_units, plan_units
from repro.runner.jobspec import JobSpec
from repro.runner.store import ResultStore
from repro.sim.multi import CombinedRun
from repro.telemetry.metrics import JobMetrics
from repro.workloads.synthetic import link_slot


def resolve_workers(workers: int) -> int:
    """Interpret a worker-count setting: ``0`` means auto-detect (one
    worker per CPU), positive counts pass through, negatives are
    rejected."""
    if workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError("workers must be >= 0 (0 = auto-detect)")
    return workers


def _execute_payload(payload: dict) -> Tuple[bool, dict]:
    """Worker-side entry point: one unit's dict in (see
    :meth:`GridSpec.to_dict`), ``(ok, data)`` out.  Module-level so
    every start method can import it.

    ``ok`` is False only when the unit itself cannot be built, and
    ``data`` is then ``{"traceback": ...}``; otherwise ``data`` is
    ``{"members": [(ok, result-or-traceback), ...]}``, one pair per
    member in member order.  Telemetry config rides across the process
    boundary as environment variables (non-``fork`` start methods get a
    fresh interpreter), and each member's phase metrics ride back as a
    ``__metrics__`` side key the parent pops before reconstructing the
    run — ``CombinedRun.from_dict`` reads fields by name, so the extra
    key is invisible to everything that doesn't look for it.
    """
    telemetry.configure_from_env()
    faults.configure_from_env()
    try:
        unit = GridSpec.from_dict(payload)
    except Exception:
        return False, {"traceback": traceback.format_exc()}
    raw: List[Tuple[bool, dict]] = []
    for run, error in execute_grid(unit):
        if run is None:
            raw.append((False, {"traceback": error}))
        else:
            data = run.to_dict()
            metrics = getattr(run, "job_metrics", None)
            if metrics is not None:
                data["__metrics__"] = metrics.to_dict()
            raw.append((True, data))
    return True, {"members": raw}


class _MapInterrupted(KeyboardInterrupt):
    """Ctrl-C inside :meth:`SweepRunner._map_in_pool`; carries the raw
    ``(ok, payload)`` pairs that finished before the interrupt."""

    def __init__(self, raw: List[Tuple[bool, dict]]) -> None:
        super().__init__("pool map interrupted")
        self.raw = list(raw)


@dataclass
class JobResult:
    """Outcome of one job in a sweep."""

    spec: JobSpec
    run: Optional[CombinedRun] = None
    error: Optional[str] = None  #: traceback text when the job failed
    cached: bool = False  #: answered by the store, no simulation ran
    #: per-phase accounting for this job (decode / simulate / store
    #: write); ``None`` for failed jobs and for cache hits from entries
    #: written before metrics existed
    metrics: Optional[JobMetrics] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> dict:
        return {
            "key": self.spec.key,
            "cached": self.cached,
            "error": self.error,
            "spec": self.spec.to_dict(),
            "result": None if self.run is None else self.run.to_dict(),
            "metrics": (None if self.metrics is None
                        else self.metrics.to_dict()),
        }


@dataclass
class SweepStats:
    """What one :meth:`SweepRunner.run` call did."""

    jobs: int = 0
    cached: int = 0
    simulated: int = 0
    failed: int = 0
    deduplicated: int = 0
    parallel: bool = False
    backend: str = "serial"  #: which execution backend ran the misses
    grids: int = 0  #: passes of two or more members (0 = none)
    grid_members: int = 0  #: jobs that rode on those shared passes

    def describe(self) -> str:
        mode = "parallel" if self.parallel else "serial"
        if self.backend not in (mode, "serial", "pool"):
            mode = f"{mode} via {self.backend}"
        dedup = (f", {self.deduplicated} duplicate(s) shared"
                 if self.deduplicated else "")
        grids = (f", {self.grid_members} jobs in {self.grids} shared "
                 f"pass(es)" if self.grids else "")
        return (f"{self.jobs} jobs: {self.cached} from cache, "
                f"{self.simulated} simulated ({mode}), "
                f"{self.failed} failed{dedup}{grids}")


class SweepRunner:
    """Execute batches of jobs against a shared result store.

    ``backend`` picks where cache-missing jobs execute: an
    :class:`~repro.runner.backends.base.ExecutionBackend` instance, a
    spelling accepted by
    :func:`~repro.runner.backends.resolve_backend` (``"serial"``,
    ``"pool"``, ``"queue:<dir>"``), or ``None`` for the historical
    default (serial when ``workers == 1``, the process pool otherwise).
    """

    def __init__(self, store: Optional[ResultStore] = None,
                 workers: int = 1,
                 backend: Union[str, ExecutionBackend, None] = None
                 ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        from repro.runner.backends import resolve_backend
        self.store = store if store is not None else ResultStore()
        self.workers = workers
        self.backend = resolve_backend(backend)
        self.last_stats = SweepStats()
        #: fleet-level phase aggregate of the last run (see
        #: :func:`repro.telemetry.metrics.aggregate`); kept off
        #: :class:`SweepStats` so the stats dict stays deterministic
        self.last_metrics: dict = {}

    def _backend(self) -> ExecutionBackend:
        """The backend this run will use (resolving the default)."""
        if self.backend is not None:
            return self.backend
        from repro.runner.backends import PoolBackend, SerialBackend
        return PoolBackend() if self.workers > 1 else SerialBackend()

    def run(self, specs: Iterable[JobSpec]) -> List[JobResult]:
        """Run every spec (cache, then simulate misses), returning one
        :class:`JobResult` per input spec, in input order.

        A ``KeyboardInterrupt`` mid-sweep persists every finished
        result to the store, shuts the backend's workers down, and
        re-raises — a re-run picks up where the interrupt landed.
        """
        specs = list(specs)
        stats = SweepStats(jobs=len(specs))
        results: List[Optional[JobResult]] = [None] * len(specs)
        wall_started = time.perf_counter()

        # answer what we can from the store; queue unique misses (one
        # store probe per unique key, so stats stay honest)
        indices_for: Dict[str, List[int]] = {}
        queue: List[JobSpec] = []
        for i, spec in enumerate(specs):
            key = spec.key
            if key in indices_for:
                stats.deduplicated += 1
                indices_for[key].append(i)
                continue
            cached = self.store.get(spec)
            if cached is not None:
                stats.cached += 1
                results[i] = JobResult(
                    spec, run=cached, cached=True,
                    metrics=getattr(cached, "job_metrics", None))
                continue
            indices_for[key] = [i]
            queue.append(spec)

        # partition the misses into shared passes (a spec with no
        # partner is a one-member pass); the expanded member list
        # replaces `queue` as the order outcomes come back in
        units = plan_units(queue)
        expanded = expand_units(units)
        for unit in units:
            if len(unit.members) > 1:
                stats.grids += 1
                stats.grid_members += len(unit.members)

        backend = self._backend()
        stats.backend = backend.name
        telemetry.emit("sweep.start", jobs=len(specs),
                       cached=stats.cached, queued=len(queue),
                       grids=stats.grids, backend=backend.name)
        try:
            # in-process jobs on one (workload, page size) share its two
            # binaries, and a workload's page sizes its plain layout; the
            # planner put those jobs next to each other
            with link_slot():
                outcomes = backend.execute(units, self, stats)
        except SweepInterrupted as exc:
            # keep what finished: a re-run answers those from the cache
            for spec, (run, error) in exc.completed:
                if run is not None:
                    try:
                        self.store.put(spec, run)
                    except OSError:
                        telemetry.emit("sweep.store_write_error",
                                       level="error", key=spec.key,
                                       traceback=traceback.format_exc())
                    stats.simulated += 1
                else:
                    stats.failed += 1
            self.last_stats = stats
            telemetry.emit("sweep.interrupted", level="error",
                           persisted=stats.simulated,
                           failed=stats.failed)
            raise

        for spec, (run, error) in zip(expanded, outcomes):
            metrics = None if run is None else getattr(
                run, "job_metrics", None)
            if run is not None:
                put_started = time.perf_counter()
                try:
                    self.store.put(spec, run)
                except OSError:
                    # the simulation finished; a failed cache write
                    # (disk full, injected fault) must not lose it —
                    # the result is returned, only persistence is lost
                    telemetry.emit("sweep.store_write_error",
                                   level="error", key=spec.key,
                                   traceback=traceback.format_exc())
                if metrics is not None:
                    # full put() wall clock, rename included (the copy
                    # persisted *inside* the entry can only time its
                    # own serialization)
                    metrics.store_write_seconds = (
                        time.perf_counter() - put_started)
                stats.simulated += 1
            else:
                stats.failed += 1
            for i in indices_for[spec.key]:
                results[i] = JobResult(spec, run=run, error=error,
                                       metrics=metrics)

        self.last_stats = stats
        wall = time.perf_counter() - wall_started
        seen: set = set()
        unique = [r for r in results
                  if r is not None and not (r.spec.key in seen
                                            or seen.add(r.spec.key))]
        # a store hit's metrics are what an earlier run paid for it
        self.last_metrics = telemetry.aggregate(
            (r.metrics for r in unique if not r.cached),
            wall_seconds=round(wall, 6),
            cached=(r.metrics for r in unique if r.cached))
        telemetry.emit("sweep.end", **stats.__dict__,
                       wall_seconds=round(wall, 3))
        return results  # type: ignore[return-value]  # every slot filled

    # -- process-pool seams --------------------------------------------
    #
    # These stay on SweepRunner (rather than inside the pool backend)
    # so tests and callers keep one stable interception point for "how
    # does a payload reach a pool".  ProcessPoolExecutor, not
    # multiprocessing.Pool: a worker that dies abruptly (OOM/SIGKILL)
    # makes the executor raise BrokenProcessPool, whereas Pool.map
    # simply hangs forever waiting for the lost task's result —
    # detectability is the whole point of the fallback chain.

    @staticmethod
    def _mp_context():
        """The multiprocessing context pools are built from (follows
        the module-level ``multiprocessing`` name, which tests swap for
        a specific start-method context)."""
        get = getattr(multiprocessing, "get_context", None)
        return None if get is None else get()

    def _map_in_pool(self, payloads: List[dict],
                     workers: int) -> List[Tuple[bool, dict]]:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=self._mp_context()) as pool:
            futures = [pool.submit(_execute_payload, payload)
                       for payload in payloads]
            done: List[Tuple[bool, dict]] = []
            try:
                for future in futures:
                    done.append(future.result())
            except KeyboardInterrupt:
                # Ctrl-C: without this, the executor's __exit__ would
                # happily run every queued job to completion first.
                # Cancel what has not started (workers then exit after
                # their current item) and surface the finished prefix.
                pool.shutdown(wait=False, cancel_futures=True)
                raise _MapInterrupted(done) from None
            return done

    def _apply_in_pool(self, payload: dict) -> Tuple[bool, dict]:
        """One job in one disposable single-worker pool."""
        with ProcessPoolExecutor(max_workers=1,
                                 mp_context=self._mp_context()) as pool:
            return pool.submit(_execute_payload, payload).result()
