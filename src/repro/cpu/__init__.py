"""Execution engines.

Three engines share the same substrates (memory hierarchy, TLBs,
predictor, schemes):

* :mod:`repro.cpu.fast` — a single-pass engine that consumes a
  program's committed stream as index/aux arrays over static tables
  (:class:`~repro.trace.format.SegmentColumns`), evaluates **all iTLB
  schemes side by side**, and models timing with a dependency-aware
  list-scheduling approximation of the Table 1 core.  It scores N
  machine configurations (iTLB geometry, energy) in one shared pass:
  one set of scheme decisions, each scheme's lookups replayed through
  every member's own iTLB.  Live programs and trace replays run through
  its one loop; every fast-engine simulation is such a pass
  (:func:`~repro.sim.simulator.run_program_grid`), a single
  configuration a one-member grid.
* :mod:`repro.cpu.grid` — which configurations may share a pass
  (:func:`~repro.cpu.grid.check_grid_configs`) and the planner's group
  key (:func:`~repro.cpu.grid.grid_invariants_key`).
* :mod:`repro.cpu.ooo` — a cycle-driven out-of-order model of the Table 1
  core (RUU + LSQ, 4-wide, speculative wrong-path fetch with squash) for
  one configuration and one scheme at a time.  Slower; used for
  validation and examples.

Both engines translate by replaying a policy's lookup column through an
iTLB (per window, or right after each decision) and read the iTLB
counts from its own statistics (:func:`~repro.cpu.results.scheme_result`).

:mod:`repro.cpu.functional` holds the architectural state and instruction
semantics: the out-of-order engine steps it directly, and a live
program's committed stream for the fast engine is produced by it, so
both engines retire identical streams by construction (a property the
tests assert anyway).
"""

from repro.cpu.functional import Executor, StepResult
from repro.cpu.results import (
    EngineResult,
    SchemeResult,
    SharedStats,
    summarize_result,
)
from repro.cpu.fast import FastEngine
from repro.cpu.ooo import OutOfOrderEngine

__all__ = [
    "EngineResult",
    "Executor",
    "FastEngine",
    "OutOfOrderEngine",
    "SchemeResult",
    "SharedStats",
    "StepResult",
    "summarize_result",
]
