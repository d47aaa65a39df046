"""Table 4: static and dynamic branch statistics.

Static half: over the program's control instructions — how many are
statically analyzable, and how many of those cross their own page.
Dynamic half: the same classification weighted by execution counts.
These feed SoLA directly (in-page bit) and bound what the software
schemes can save.
"""

from __future__ import annotations

from typing import List

from repro.compiler.analysis import analyze_program
from repro.config import default_config
from repro.experiments.common import (
    Cell,
    ExperimentSettings,
    ImageProbe,
    TableResult,
    job_for,
    planned,
    probed,
    short_name,
)
from repro.isa.program import Program
from repro.runner import JobSpec
from repro.workloads.calibration import dynamic_branch_classes
from repro.workloads.spec2000 import paper_row_for


def _branch_statistics(program: Program, spec: JobSpec) -> tuple:
    """The static analysis of ``program`` and its dynamic branch
    classes over ``spec``'s window.  A replayed trace's static half is
    empty — a replay carries no static text — while the dynamic half
    classifies the recorded stream."""
    return (analyze_program(program),
            dynamic_branch_classes(program, instructions=spec.instructions,
                                   warmup=spec.warmup))


def _probe(bench: str, settings: ExperimentSettings) -> ImageProbe:
    return ImageProbe("table4.branch_statistics",
                      job_for(bench, default_config(), settings),
                      _branch_statistics)


def cells(settings: ExperimentSettings) -> List[Cell]:
    return [_probe(bench, settings) for bench in settings.benchmarks]


def build(settings: ExperimentSettings) -> TableResult:
    result = TableResult(
        experiment_id="Table 4",
        title="Static and dynamic branch statistics",
        columns=[
            "benchmark",
            "static total", "static analyzable", "static in-page %",
            "dyn total", "dyn analyzable %", "paper anlz %",
            "dyn in-page %", "paper in-page %",
        ],
    )
    for bench in settings.benchmarks:
        static, (analyzable, in_page, total) = probed(
            _probe(bench, settings))
        paper = paper_row_for(bench)
        result.add_row(**{
            "benchmark": short_name(bench),
            "static total": static.total,
            "static analyzable": static.analyzable,
            "static in-page %": 100.0 * static.in_page_fraction,
            "dyn total": total,
            "dyn analyzable %": (100.0 * analyzable / total) if total else 0,
            "paper anlz %": paper.analyzable_pct,
            "dyn in-page %": (100.0 * in_page / analyzable)
            if analyzable else 0,
            "paper in-page %": paper.in_page_pct,
        })
    result.notes.append(
        "analyzable = direct conditional branches / jumps / calls; "
        "in-page fractions are over analyzable branches")
    return result


run = planned(cells, build)
