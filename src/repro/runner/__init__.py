"""Parallel sweep engine with a persistent result store.

Every figure and table of the reproduction is a batch of independent
(workload, machine config, scheme set) simulations.  This subsystem turns
that batch into first-class objects:

* :class:`~repro.runner.jobspec.JobSpec` — one job, declaratively: a
  workload *name* (resolved through :mod:`repro.workloads.registry`), a
  :class:`~repro.config.MachineConfig`, a scheme set, and the simulation
  window.  Hashable, JSON-serializable, content-addressed (:attr:`key`).
* :class:`~repro.runner.store.ResultStore` — persists
  :class:`~repro.sim.multi.CombinedRun` summaries as JSON under a cache
  directory and answers repeat jobs before any simulation runs.
* :class:`~repro.runner.sweep.SweepRunner` — fans job batches out over a
  pluggable execution backend with deterministic result ordering and
  per-job error capture.
* :mod:`~repro.runner.backends` — where the misses execute:
  :class:`SerialBackend` (in-process), :class:`PoolBackend`
  (``multiprocessing`` fan-out), or :class:`FileQueueBackend` (a
  shared-directory work queue drained by ``repro worker`` processes —
  one :class:`ResultStore` fed by many machines).

The experiment harness (:mod:`repro.experiments.common`) answers every
experiment's cells through a shared store, and the ``repro sweep`` /
``repro worker`` CLI subcommands expose the runner directly.
"""

from repro.runner.backends import (
    ExecutionBackend,
    FileQueue,
    FileQueueBackend,
    PoolBackend,
    SerialBackend,
    SweepInterrupted,
    WorkerStats,
    resolve_backend,
    run_worker,
)
from repro.runner.gridspec import GridSpec, expand_units, plan_units
from repro.runner.jobspec import SPEC_FORMAT, JobSpec
from repro.runner.store import STORE_FORMAT, ResultStore
from repro.runner.sweep import (
    JobResult,
    SweepRunner,
    SweepStats,
    resolve_workers,
)

__all__ = [
    "ExecutionBackend",
    "FileQueue",
    "FileQueueBackend",
    "GridSpec",
    "JobResult",
    "JobSpec",
    "PoolBackend",
    "ResultStore",
    "SPEC_FORMAT",
    "STORE_FORMAT",
    "SerialBackend",
    "SweepInterrupted",
    "SweepRunner",
    "SweepStats",
    "WorkerStats",
    "expand_units",
    "plan_units",
    "resolve_backend",
    "resolve_workers",
    "run_worker",
]
