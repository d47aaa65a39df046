"""Table 5: branch predictor accuracy.

IA's remaining gap to OPT is bounded by these accuracies (paper Section
3.3.4), which is why the extensions experiment also sweeps better
predictors.
"""

from __future__ import annotations

from repro.config import CacheAddressing, default_config
from repro.experiments.common import (
    Answers,
    Cells,
    ExperimentSettings,
    TableResult,
    job_for,
    planned,
    short_name,
)
from repro.workloads.spec2000 import paper_row_for


def cells(settings: ExperimentSettings) -> Cells:
    return {bench: job_for(bench, default_config(CacheAddressing.VIPT),
                           settings)
            for bench in settings.benchmarks}


def build(settings: ExperimentSettings, answers: Answers) -> TableResult:
    result = TableResult(
        experiment_id="Table 5",
        title="Branch predictor accuracy (percent)",
        columns=["benchmark", "accuracy %", "paper %",
                 "conditional %", "indirect %"],
    )
    for bench in settings.benchmarks:
        stats = answers[bench].shared.predictor
        cond_acc = (1.0 - stats.conditional_mispredicts
                    / stats.conditional) if stats.conditional else 1.0
        ind_acc = (1.0 - stats.indirect_mispredicts
                   / stats.indirect) if stats.indirect else 1.0
        result.add_row(**{
            "benchmark": short_name(bench),
            "accuracy %": 100.0 * stats.accuracy,
            "paper %": paper_row_for(bench).predictor_accuracy,
            "conditional %": 100.0 * cond_acc,
            "indirect %": 100.0 * ind_acc,
        })
    return result


run = planned(cells, build)
