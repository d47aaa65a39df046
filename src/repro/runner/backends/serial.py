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
from repro.workloads.synthetic import release_link_slot

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
            for unit, following in zip(queue, queue[1:] + [None]):
                done.extend(execute_grid(unit))
                finished.extend(unit.members)
                if following is not None and following.binary != unit.binary:
                    # the next unit links another pair: drop this one
                    # now, so a release hook's work is charged to no
                    # unit's metrics window
                    release_link_slot()
        except KeyboardInterrupt:
            # execute_grid captures Exception only, so ^C lands here;
            # hand the finished prefix to the runner for persistence (a
            # pass interrupted midway contributes nothing — its members
            # simply re-run next time)
            raise SweepInterrupted(list(zip(finished, done))) from None
        return done
