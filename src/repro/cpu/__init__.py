"""Execution engines.

Three engines share the same substrates (memory hierarchy, TLBs,
predictor, schemes):

* :mod:`repro.cpu.fast` — a single-pass engine that consumes a
  program's committed stream as flat-array columns
  (:class:`~repro.trace.format.SegmentColumns`), evaluates **all iTLB
  schemes side by side**, and models timing with a dependency-aware
  list-scheduling approximation of the Table 1 core.  Live programs and
  trace replays run through its one loop; this is what the experiment
  harness sweeps run on.
* :mod:`repro.cpu.grid` — the fast engine scoring N machine
  configurations (iTLB geometry, energy) in one shared pass.
* :mod:`repro.cpu.ooo` — a cycle-driven out-of-order model of the Table 1
  core (RUU + LSQ, 4-wide, speculative wrong-path fetch with squash) for
  one scheme at a time.  Slower; used for validation and examples.

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
