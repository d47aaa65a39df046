"""Table 7: execution cycles for IA (VI-PT) across iTLB configurations.

With VI-PT, the iTLB is off the critical path except for its misses.  A
1-entry iTLB misses on essentially every page change (the CFR holds the
same single translation), so cycles balloon; each larger configuration
recovers most of it — the shape of the paper's Table 7.
"""

from __future__ import annotations

from repro.config import (
    CacheAddressing,
    ITLB_SWEEP,
    SchemeName,
    default_config,
    itlb_sweep_label,
)
from repro.experiments.common import (
    Answers,
    Cells,
    ExperimentSettings,
    TableResult,
    job_for,
    planned,
    short_name,
)

_PAPER = {
    "177.mesa": (437.6, 244.5, 198.0, 188.1),
    "186.crafty": (650.7, 372.8, 333.9, 331.7),
    "191.fma3d": (748.8, 185.5, 178.9, 169.3),
    "252.eon": (897.4, 331.6, 310.5, 263.1),
    "254.gap": (426.2, 181.9, 172.4, 161.3),
    "255.vortex": (717.0, 372.5, 345.8, 293.9),
}


def cells(settings: ExperimentSettings) -> Cells:
    return {(bench, itlb):
            job_for(bench,
                    default_config(CacheAddressing.VIPT).with_itlb(itlb),
                    settings)
            for bench in settings.benchmarks
            for itlb in ITLB_SWEEP}


def build(settings: ExperimentSettings, answers: Answers) -> TableResult:
    labels = [itlb_sweep_label(c) for c in ITLB_SWEEP]
    columns = ["benchmark"]
    for label in labels:
        columns += [f"C {label} (M)", f"paper {label}"]
    result = TableResult(
        experiment_id="Table 7",
        title="Execution cycles (millions) for IA with VI-PT iL1, by iTLB",
        columns=columns,
    )
    scale = settings.paper_scale
    for bench in settings.benchmarks:
        row = {"benchmark": short_name(bench)}
        paper_row = _PAPER.get(bench)
        for i, itlb in enumerate(ITLB_SWEEP):
            cycles = answers[bench, itlb].scheme(SchemeName.IA).cycles
            row[f"C {labels[i]} (M)"] = cycles * scale / 1e6
            row[f"paper {labels[i]}"] = (paper_row[i] if paper_row
                                         else float("nan"))
        result.add_row(**row)
    result.notes.append(
        "cycles must fall monotonically from the 1-entry to the 32-entry "
        "iTLB (fewer 50-cycle refills)")
    return result


run = planned(cells, build)
