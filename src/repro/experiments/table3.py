"""Table 3: dynamic iTLB lookups for SoCA, SoLA, and IA (VI-PT).

Each scheme's lookups split by reason: BOUNDARY (the compiler's page-end
branch) vs BRANCH (everything else).  The paper's structural facts this
table must reproduce: SoCA's BRANCH lookups ~= total dynamic branches
(every branch forces one); SoLA removes the in-page-marked share; IA
removes correctly-predicted same-page branches, leaving roughly the page
crossings plus a misprediction tax; BOUNDARY counts are identical across
the three schemes (they share the instrumentation).
"""

from __future__ import annotations

from typing import List

from repro.config import CacheAddressing, SchemeName, default_config
from repro.experiments.common import (
    Cell,
    ExperimentSettings,
    TableResult,
    combined_run,
    job_for,
    planned,
    short_name,
)

_SCHEMES = (SchemeName.SOCA, SchemeName.SOLA, SchemeName.IA)


def cells(settings: ExperimentSettings) -> List[Cell]:
    return [job_for(bench, default_config(CacheAddressing.VIPT), settings)
            for bench in settings.benchmarks]


def build(settings: ExperimentSettings) -> TableResult:
    columns = ["benchmark"]
    for scheme in _SCHEMES:
        columns += [f"{scheme.value} BOUNDARY", f"{scheme.value} BRANCH",
                    f"{scheme.value} BRANCH %"]
    columns += ["dynamic branches"]
    result = TableResult(
        experiment_id="Table 3",
        title="Dynamic iTLB lookups for SoCA/SoLA/IA (VI-PT), by reason",
        columns=columns,
    )
    for bench in settings.benchmarks:
        run_ = combined_run(bench, default_config(CacheAddressing.VIPT),
                            settings)
        row = {"benchmark": short_name(bench),
               "dynamic branches": run_.instrumented.shared.dynamic_branches}
        for scheme in _SCHEMES:
            counters = run_.scheme(scheme).counters
            total = counters.lookups or 1
            row[f"{scheme.value} BOUNDARY"] = counters.boundary_lookups
            row[f"{scheme.value} BRANCH"] = counters.branch_lookups
            row[f"{scheme.value} BRANCH %"] = (100.0
                                               * counters.branch_lookups
                                               / total)
        result.add_row(**row)
    result.notes.append(
        "invariant: soca BRANCH lookups ~ dynamic branches; "
        "soca >= sola >= ia lookups per benchmark")
    return result


run = planned(cells, build)
