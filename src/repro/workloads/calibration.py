"""Workload calibration: measured characteristics vs. paper targets.

The synthetic benchmarks only earn their SPEC names if their measured
behaviour matches the paper's Table 2/4/5 characterization.  This module
measures exactly those quantities on a generated workload and compares
them with :data:`repro.workloads.spec2000.PAPER_REFERENCE`:

* dynamic branch fraction          (Table 2, column 7)
* iL1 miss rate                    (Table 2, column 6)
* page crossings per kilo-instruction and the BOUNDARY share
                                   (Table 2, columns 8-9)
* branch predictor accuracy        (Table 5)
* dynamic analyzable fraction and in-page fraction
                                   (Table 4, dynamic half)

``tests/test_workload_calibration.py`` pins each measurement into a band
around the paper's value; the ``repro-itlb calibrate`` CLI command prints
the full comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.config import MachineConfig, SchemeName, default_config
from repro.cpu.fast import FastEngine
from repro.isa.instructions import InstrKind
from repro.isa.program import Program
from repro.trace.format import committed_steps
from repro.workloads.spec2000 import PAPER_REFERENCE, PaperRow
from repro.workloads.synthetic import SyntheticWorkload


@dataclass
class WorkloadCharacteristics:
    """Measured quantities for one workload (paper-comparable units)."""

    name: str
    instructions: int
    branch_fraction: float
    il1_miss_rate: float
    crossings_per_kinst: float
    boundary_share_pct: float
    predictor_accuracy_pct: float
    analyzable_pct: float
    in_page_pct: float
    ipc: float
    dl1_miss_rate: float

    def row(self) -> Dict[str, float]:
        return {
            "branch_frac": self.branch_fraction,
            "il1_mr": self.il1_miss_rate,
            "cross_per_kinst": self.crossings_per_kinst,
            "boundary_pct": self.boundary_share_pct,
            "accuracy_pct": self.predictor_accuracy_pct,
            "analyzable_pct": self.analyzable_pct,
            "in_page_pct": self.in_page_pct,
        }


def measure_characteristics(
    workload: SyntheticWorkload,
    config: Optional[MachineConfig] = None,
    *,
    instructions: int = 60_000,
    warmup: int = 10_000,
) -> WorkloadCharacteristics:
    """One fast-engine pass over the plain binary, reduced to the paper's
    characterization quantities."""
    if config is None:
        config = default_config()
    program = workload.link(page_bytes=config.mem.page_bytes)
    engine = FastEngine(program, config, schemes=(SchemeName.BASE,))
    result = engine.run(instructions, warmup=warmup)
    shared = result.shared

    # dynamic analyzable / in-page statistics need a per-kind breakdown of
    # the committed stream; re-derive them with a dedicated counting pass
    # (over the stream the engine pass memoized on the program)
    analyzable, in_page, total = dynamic_branch_classes(
        program, instructions=instructions, warmup=warmup)

    crossings = shared.page_crossings
    return WorkloadCharacteristics(
        name=workload.profile.name,
        instructions=shared.instructions,
        branch_fraction=shared.branch_fraction,
        il1_miss_rate=shared.il1.miss_rate,
        crossings_per_kinst=(1000.0 * crossings / shared.instructions
                             if shared.instructions else 0.0),
        boundary_share_pct=(100.0 * shared.page_crossings_boundary / crossings
                            if crossings else 0.0),
        predictor_accuracy_pct=100.0 * shared.predictor.accuracy,
        analyzable_pct=(100.0 * analyzable / total) if total else 0.0,
        in_page_pct=(100.0 * in_page / analyzable) if analyzable else 0.0,
        ipc=result.ipc,
        dl1_miss_rate=shared.dl1.miss_rate,
    )


def dynamic_branch_classes(program: Program, *, instructions: int,
                           warmup: int) -> tuple[int, int, int]:
    """Count (analyzable, analyzable-and-in-page, total) over the dynamic
    control instructions of ``program``'s committed stream — Table 4's
    dynamic half."""
    page_bytes = program.page_bytes
    analyzable = in_page = total = 0
    # the program's committed stream (recorded, for a replayed trace)
    for pc, instr, _ in committed_steps(program, warmup, instructions):
        if not instr.is_control:
            continue
        total += 1
        if instr.op.is_analyzable_control and instr.target is not None:
            analyzable += 1
            if (pc // page_bytes) == (instr.target // page_bytes):
                in_page += 1
    return analyzable, in_page, total


def compare_to_paper(measured: WorkloadCharacteristics,
                     paper: Optional[PaperRow] = None) -> Dict[str, tuple]:
    """(paper, measured) pairs for each characteristic.  ``paper`` defaults
    to the row matching the workload's name."""
    if paper is None:
        paper = PAPER_REFERENCE[measured.name]
    return {
        "branch_fraction": (paper.branch_fraction,
                            measured.branch_fraction),
        "il1_miss_rate": (paper.il1_miss_rate, measured.il1_miss_rate),
        "crossings_per_kinst": (paper.crossings_per_kinst,
                                measured.crossings_per_kinst),
        "boundary_share_pct": (paper.boundary_share_pct,
                               measured.boundary_share_pct),
        "predictor_accuracy_pct": (paper.predictor_accuracy,
                                   measured.predictor_accuracy_pct),
        "analyzable_pct": (paper.analyzable_pct, measured.analyzable_pct),
        "in_page_pct": (paper.in_page_pct, measured.in_page_pct),
    }


def calibration_report(config: Optional[MachineConfig] = None, *,
                       instructions: int = 60_000,
                       warmup: int = 10_000) -> str:
    """Tabular paper-vs-measured report over the whole suite."""
    from repro.workloads.spec2000 import BENCHMARK_NAMES, load_benchmark

    lines = [
        f"{'benchmark':<12} {'metric':<24} {'paper':>10} {'measured':>10}",
        "-" * 60,
    ]
    for name in BENCHMARK_NAMES:
        measured = measure_characteristics(load_benchmark(name), config,
                                           instructions=instructions,
                                           warmup=warmup)
        for metric, (paper_v, meas_v) in compare_to_paper(measured).items():
            lines.append(f"{name:<12} {metric:<24} {paper_v:>10.4g} "
                         f"{meas_v:>10.4g}")
        lines.append("-" * 60)
    return "\n".join(lines)
