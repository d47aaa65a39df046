"""Process-pool execution (the historical ``workers > 1`` path).

The logic moved here verbatim from ``SweepRunner._run_parallel``; the
raw pool seams (``_map_in_pool`` / ``_apply_in_pool`` / ``_mp_context``)
deliberately stayed on :class:`SweepRunner` so the existing tests — and
any code that intercepts them — keep one stable patch point.  The
fallback chain is unchanged:

* pools unavailable at all (no semaphores: ``OSError`` /
  ``NotImplementedError``) — run serially in-process;
* pool broke mid-map (a worker OOM/SIGKILLed raises
  ``BrokenProcessPool``) — quarantine each remaining unit in its own
  disposable single-worker pool so a fatal job costs one private worker
  and one ``JobResult.error``, never the parent or the batch;
* fewer than two pool-eligible units — parallelism cannot pay, go serial.

Every unit is a :class:`GridSpec` shared pass (a lone job is a
one-member pass); a unit crosses the pipe as one payload and its member
outcomes come back as a list (see ``_execute_payload``), so the backend
returns one outcome per *member* in expansion order.

Custom workload registrations live only in the parent process, so under
a non-``fork`` start method their jobs execute in-process while builtin
workloads still go to the pool.
"""

from __future__ import annotations

import traceback
from typing import List, Set, TYPE_CHECKING

from repro import telemetry
from repro.runner.backends.base import (
    ExecutionBackend,
    Outcome,
    SweepInterrupted,
    execute_grid,
)
from repro.runner.gridspec import GridSpec
from repro.sim.multi import CombinedRun
from repro.telemetry.metrics import JobMetrics

if TYPE_CHECKING:  # pragma: no cover
    from repro.runner.sweep import SweepRunner, SweepStats


def _start_method() -> str:
    """The active multiprocessing start method, read through the sweep
    module's ``multiprocessing`` name (tests swap that name for a
    specific start-method context)."""
    from repro.runner import sweep
    return sweep.multiprocessing.get_start_method()


def _reconstruct(payload: dict) -> CombinedRun:
    """Rebuild a worker's result dict, lifting the ``__metrics__`` side
    key (see :func:`repro.runner.sweep._execute_payload`) back onto the
    run as the ``job_metrics`` attribute."""
    metrics = payload.pop("__metrics__", None)
    run = CombinedRun.from_dict(payload)
    if isinstance(metrics, dict):
        run.job_metrics = JobMetrics.from_dict(metrics)
    return run


def _unit_outcomes(unit: GridSpec, ok: bool, payload: dict
                   ) -> List[Outcome]:
    """Expand one unit's raw wire result into per-member outcomes."""
    if not ok:  # the unit itself failed to parse/build remotely
        error = payload["traceback"]
        return [(None, error) for _ in unit.members]
    return [((_reconstruct(member_payload), None) if member_ok
             else (None, member_payload["traceback"]))
            for member_ok, member_payload in payload["members"]]


class PoolBackend(ExecutionBackend):
    """Fan work units out over a ``ProcessPoolExecutor``."""

    name = "pool"

    def execute(self, queue: List[GridSpec], runner: "SweepRunner",
                stats: "SweepStats") -> List[Outcome]:
        from repro.runner.backends.serial import SerialBackend
        from repro.runner.sweep import _MapInterrupted

        stats.parallel = runner.workers > 1 and len(queue) > 1
        if not stats.parallel:
            return SerialBackend().execute(queue, runner, stats)

        # a spawned/forkserver worker re-imports the registry from
        # scratch, so only builtin workload names resolve there; jobs
        # naming custom registrations must stay in this process
        if _start_method() == "fork":
            local: Set[int] = set()
        else:
            from repro.workloads.registry import is_builtin
            local = {i for i, unit in enumerate(queue)
                     if not is_builtin(unit.workload)}
        remote = [unit for i, unit in enumerate(queue) if i not in local]
        if len(remote) < 2:
            return SerialBackend().execute(queue, runner, stats)

        payloads = [unit.to_dict() for unit in remote]
        try:
            raw = runner._map_in_pool(payloads,
                                      min(runner.workers, len(remote)))
        except _MapInterrupted as exc:
            # Ctrl-C mid-map: _map_in_pool already cancelled the pending
            # futures; pair what did finish with its specs (results come
            # back in submission order, so the finished prefix lines up)
            completed = []
            for unit, (ok, payload) in zip(remote, exc.raw):
                completed.extend(zip(unit.members,
                                     _unit_outcomes(unit, ok, payload)))
            raise SweepInterrupted(completed) from None
        except (OSError, NotImplementedError):
            # restricted environments (no /dev/shm, no sem_open): pools
            # are unusable here at all, so run serially in-process —
            # per-job fault capture still applies
            telemetry.emit("pool.unavailable", level="error",
                           jobs=len(queue))
            return SerialBackend().execute(queue, runner, stats)
        except Exception:
            # the pool itself broke mid-map — a worker killed outright
            # (OOM/SIGKILL) surfaces from the executor as
            # BrokenProcessPool, never as a per-job exception
            # (_execute_payload catches those).  One of the jobs is
            # probably fatal, so do NOT pull the queue into this
            # process: quarantine each unit in its own single-worker
            # pool instead, so a re-offending job takes down only its
            # private worker and becomes that one JobResult's error
            # while the rest of the sweep completes.
            stats.parallel = False
            telemetry.emit("pool.broken", level="error",
                           jobs=len(queue))
            return self._run_quarantined(queue, local, runner)
        remote_raw = iter(raw)
        outcomes: List[Outcome] = []
        for i, unit in enumerate(queue):
            if i in local:
                outcomes.extend(execute_grid(unit))
            else:
                ok, payload = next(remote_raw)
                outcomes.extend(_unit_outcomes(unit, ok, payload))
        return outcomes

    @staticmethod
    def _run_quarantined(queue: List[GridSpec], local: Set[int],
                         runner: "SweepRunner") -> List[Outcome]:
        """Recovery path after a broken pool: one disposable
        single-worker pool per remaining unit."""
        outcomes: List[Outcome] = []
        for i, unit in enumerate(queue):
            if i in local:
                outcomes.extend(execute_grid(unit))
                continue
            try:
                ok, payload = runner._apply_in_pool(unit.to_dict())
            except (OSError, NotImplementedError):
                # pools just became unavailable (not a job death):
                # in-process is the only option left
                outcomes.extend(execute_grid(unit))
                continue
            except Exception:
                error = (
                    "worker process died while running this job "
                    "(killed by the OS — out of memory?); the job was "
                    "quarantined so the rest of the sweep could "
                    f"complete\n{traceback.format_exc()}")
                outcomes.extend((None, error) for _ in unit.members)
                continue
            outcomes.extend(_unit_outcomes(unit, ok, payload))
        return outcomes
