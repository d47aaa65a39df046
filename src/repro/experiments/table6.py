"""Table 6: Base vs OPT vs IA across monolithic iTLB configurations.

For each of the paper's four design points (1 entry; 8-entry FA; 16-entry
2-way; 32-entry FA): iTLB energy under VI-PT and VI-VT, and execution
cycles under VI-VT, for Base/OPT/IA.  Percentages in parentheses in the
paper (OPT and IA relative to Base) appear here as explicit columns.

Structural expectations: energy savings grow with iTLB size (bigger E_a,
same lookup counts); VI-VT cycle savings *shrink* with iTLB size (fewer
50-cycle misses left on the miss path to avoid) — the paper reports IA
VI-VT savings of 18.1/11.0/5.4/3.55% for the four points.
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


def cells(settings: ExperimentSettings) -> Cells:
    return {(itlb, bench, addressing):
            job_for(bench, default_config(addressing).with_itlb(itlb),
                    settings)
            for itlb in ITLB_SWEEP
            for bench in settings.benchmarks
            for addressing in (CacheAddressing.VIPT, CacheAddressing.VIVT)}


def build(settings: ExperimentSettings, answers: Answers) -> TableResult:
    result = TableResult(
        experiment_id="Table 6",
        title="Energy (VI-PT, VI-VT) and cycles (VI-VT) across iTLB "
              "configurations, Base/OPT/IA",
        columns=[
            "iTLB", "benchmark",
            "E vipt base (mJ)", "E vipt opt %", "E vipt ia %",
            "E vivt base (mJ)", "E vivt opt %", "E vivt ia %",
            "C vivt base (M)", "C vivt opt %", "C vivt ia %",
        ],
    )
    scale = settings.paper_scale
    for itlb in ITLB_SWEEP:
        label = itlb_sweep_label(itlb)
        for bench in settings.benchmarks:
            vipt = answers[itlb, bench, CacheAddressing.VIPT]
            vivt = answers[itlb, bench, CacheAddressing.VIVT]
            row = {"iTLB": label, "benchmark": short_name(bench)}
            base_e = vipt.scheme(SchemeName.BASE).energy.total_nj
            row["E vipt base (mJ)"] = base_e * scale / 1e6
            row["E vipt opt %"] = 100.0 * vipt.normalized_energy(SchemeName.OPT)
            row["E vipt ia %"] = 100.0 * vipt.normalized_energy(SchemeName.IA)
            base_e2 = vivt.scheme(SchemeName.BASE).energy.total_nj
            row["E vivt base (mJ)"] = base_e2 * scale / 1e6
            row["E vivt opt %"] = 100.0 * vivt.normalized_energy(SchemeName.OPT)
            row["E vivt ia %"] = 100.0 * vivt.normalized_energy(SchemeName.IA)
            row["C vivt base (M)"] = (vivt.scheme(SchemeName.BASE).cycles
                                      * scale / 1e6)
            row["C vivt opt %"] = 100.0 * vivt.normalized_cycles(SchemeName.OPT)
            row["C vivt ia %"] = 100.0 * vivt.normalized_cycles(SchemeName.IA)
            result.add_row(**row)
    result.notes.append(
        "IA's normalized energy falls as the iTLB grows (paper Section "
        "4.3.1); its VI-VT cycle saving is largest for the 1-entry iTLB")
    return result


run = planned(cells, build)
