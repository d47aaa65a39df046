"""Workload calibration: measured characteristics vs. paper targets.

The synthetic benchmarks only earn their SPEC names if their measured
behaviour matches the paper's Table 2/4/5 characterization.  This table
sets exactly those quantities, measured by one plain Base pass of each
workload on the default machine and by Table 4's branch probe on the
same image, beside :func:`repro.workloads.spec2000.paper_row_for`:

* dynamic branch fraction          (Table 2, column 7)
* iL1 miss rate                    (Table 2, column 6)
* page crossings per kilo-instruction and the BOUNDARY share
                                   (Table 2, columns 8-9)
* branch predictor accuracy        (Table 5)
* dynamic analyzable fraction and in-page fraction
                                   (Table 4, dynamic half)

``tests/test_workloads.py`` pins each measurement into a band around the
paper's value; ``repro calibrate`` prints the table, which is not part of
the report.
"""

from __future__ import annotations

from repro.config import SchemeName, default_config
from repro.experiments import table4
from repro.experiments.common import (
    Answers,
    Cells,
    ExperimentSettings,
    TableResult,
    planned,
)
from repro.runner import JobSpec
from repro.workloads.spec2000 import paper_row_for


def cells(settings: ExperimentSettings) -> Cells:
    declared: dict = {}
    for bench in settings.benchmarks:
        declared[bench, "base"] = JobSpec(
            workload=bench, config=default_config(),
            instructions=settings.instructions, warmup=settings.warmup,
            schemes=(SchemeName.BASE,))
        declared[bench, "branches"] = table4.branch_probe(bench, settings)
    return declared


def build(settings: ExperimentSettings, answers: Answers) -> TableResult:
    result = TableResult(
        experiment_id="Calibration",
        title="Workload characteristics vs. the paper's",
        columns=["benchmark", "metric", "paper", "measured"],
    )
    for bench in settings.benchmarks:
        shared = answers[bench, "base"].shared
        _, (analyzable, in_page, total) = answers[bench, "branches"]
        paper = paper_row_for(bench)
        crossings = shared.page_crossings
        pairs = {
            "branch_fraction": (paper.branch_fraction,
                                shared.branch_fraction),
            "il1_miss_rate": (paper.il1_miss_rate, shared.il1.miss_rate),
            "crossings_per_kinst": (
                paper.crossings_per_kinst,
                1000.0 * crossings / shared.instructions
                if shared.instructions else 0.0),
            "boundary_share_pct": (
                paper.boundary_share_pct,
                100.0 * shared.page_crossings_boundary / crossings
                if crossings else 0.0),
            "predictor_accuracy_pct": (paper.predictor_accuracy,
                                       100.0 * shared.predictor.accuracy),
            "analyzable_pct": (paper.analyzable_pct,
                               100.0 * analyzable / total if total
                               else 0.0),
            "in_page_pct": (paper.in_page_pct,
                            100.0 * in_page / analyzable if analyzable
                            else 0.0),
        }
        for metric, (paper_value, measured) in pairs.items():
            result.add_row(benchmark=bench, metric=metric,
                           paper=paper_value, measured=measured)
    result.notes.append(
        f"measured over {settings.instructions:,} useful instructions after "
        f"{settings.warmup:,} warmup on the default machine (VI-PT iL1)")
    return result


run = planned(cells, build)
