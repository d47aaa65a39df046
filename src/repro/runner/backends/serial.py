"""In-process serial execution — the reference backend.

Every other backend's acceptance bar is "byte-identical to what
:class:`SerialBackend` produces"; it is also the forced choice when
``workers=1`` or when ``multiprocessing`` is unavailable.
"""

from __future__ import annotations

from typing import List, TYPE_CHECKING

from repro.runner.backends.base import (
    ExecutionBackend,
    Outcome,
    SweepInterrupted,
    execute_grid,
)
from repro.runner.gridspec import GridSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.runner.sweep import SweepRunner, SweepStats


class SerialBackend(ExecutionBackend):
    """Run each unit in this process, one after another."""

    name = "serial"

    def execute(self, queue: List[GridSpec], runner: "SweepRunner",
                stats: "SweepStats") -> List[Outcome]:
        stats.parallel = False
        done: List[Outcome] = []
        finished: List = []  # member specs matching `done`, for ^C
        try:
            for unit in queue:
                done.extend(execute_grid(unit))
                finished.extend(unit.members)
        except KeyboardInterrupt:
            # execute_grid captures Exception only, so ^C lands here;
            # hand the finished prefix to the runner for persistence (a
            # pass interrupted midway contributes nothing — its members
            # simply re-run next time)
            raise SweepInterrupted(list(zip(finished, done))) from None
        return done
