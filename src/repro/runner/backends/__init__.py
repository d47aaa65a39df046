"""Pluggable execution backends for the sweep runner.

Where a sweep's cache-missing jobs physically execute is a strategy
object, selectable per run without touching any result semantics:

* :class:`SerialBackend` — in this process, one job at a time;
* :class:`PoolBackend` — a local ``ProcessPoolExecutor`` fan-out with
  the quarantine-on-broken-pool recovery chain;
* :class:`FileQueueBackend` — a shared-directory work queue drained by
  any number of ``repro worker <queue-dir>`` processes on any number
  of machines, all feeding one :class:`~repro.runner.store.ResultStore`.

``resolve_backend`` turns the user-facing spelling (``serial`` /
``pool`` / ``queue:<dir>``) into an instance; ``SweepRunner(backend=..)``
accepts either form.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.runner.backends.base import (
    ExecutionBackend,
    Outcome,
    SweepInterrupted,
    execute_grid,
)
from repro.runner.backends.filequeue import (
    FileQueue,
    FileQueueBackend,
    WorkerStats,
    run_worker,
)
from repro.runner.backends.pool import PoolBackend
from repro.runner.backends.serial import SerialBackend

#: what ``--backend`` accepts (queue takes a ``:<dir>`` suffix)
BACKEND_CHOICES = ("serial", "pool", "queue:<dir>")


def resolve_backend(spec: Union[str, ExecutionBackend, None]
                    ) -> Optional[ExecutionBackend]:
    """Turn a backend spelling into an instance.

    ``None`` stays ``None`` (the runner then picks serial or pool from
    its worker count); instances pass through; strings parse as
    ``serial``, ``pool``, or ``queue:<dir>``.  Unknown spellings raise
    ``ValueError`` with the valid choices.
    """
    if spec is None or isinstance(spec, ExecutionBackend):
        return spec
    if spec == "serial":
        return SerialBackend()
    if spec == "pool":
        return PoolBackend()
    if spec.startswith("queue:"):
        root = spec[len("queue:"):]
        if not root:
            raise ValueError(
                "queue backend needs a directory: 'queue:<dir>'")
        return FileQueueBackend(root)
    raise ValueError(
        f"unknown backend '{spec}' (choose from "
        f"{', '.join(BACKEND_CHOICES)})")


__all__ = [
    "BACKEND_CHOICES",
    "ExecutionBackend",
    "FileQueue",
    "FileQueueBackend",
    "Outcome",
    "PoolBackend",
    "SerialBackend",
    "SweepInterrupted",
    "WorkerStats",
    "execute_grid",
    "resolve_backend",
    "run_worker",
]
