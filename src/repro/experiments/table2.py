"""Table 2: benchmark characteristics under the default configuration.

Columns mirror the paper: execution cycles and base iTLB energy for VI-PT
and VI-VT iL1, iL1 miss rate, dynamic branch fraction, and the page
crossings split into BOUNDARY and BRANCH cases.  Cycles and energies are
scaled to the paper's 250M-instruction horizon; the paper's published
values ride along for comparison.
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
from repro.workloads.spec2000 import paper_row_for


def cells(settings: ExperimentSettings) -> List[Cell]:
    return [job_for(bench, default_config(addressing), settings)
            for bench in settings.benchmarks
            for addressing in (CacheAddressing.VIPT, CacheAddressing.VIVT)]


def build(settings: ExperimentSettings) -> TableResult:
    result = TableResult(
        experiment_id="Table 2",
        title="Benchmarks and their characteristics (default configuration)",
        columns=[
            "benchmark",
            "cycles VI-PT (M)", "paper",
            "iTLB E VI-PT (mJ)", "paper E",
            "cycles VI-VT (M)",
            "iTLB E VI-VT (mJ)",
            "iL1 miss rate", "paper mr",
            "branch %", "paper b%",
            "BOUNDARY", "BRANCH",
        ],
    )
    scale = settings.paper_scale
    for bench in settings.benchmarks:
        vipt = combined_run(bench, default_config(CacheAddressing.VIPT),
                            settings)
        vivt = combined_run(bench, default_config(CacheAddressing.VIVT),
                            settings)
        paper = paper_row_for(bench)
        shared = vipt.shared
        base_vipt = vipt.scheme(SchemeName.BASE)
        base_vivt = vivt.scheme(SchemeName.BASE)
        result.add_row(**{
            "benchmark": short_name(bench),
            "cycles VI-PT (M)": base_vipt.cycles * scale / 1e6,
            "paper": paper.cycles_vipt_m,
            "iTLB E VI-PT (mJ)": base_vipt.energy.scaled(scale).total_mj,
            "paper E": paper.energy_vipt_mj,
            "cycles VI-VT (M)": base_vivt.cycles * scale / 1e6,
            "iTLB E VI-VT (mJ)": base_vivt.energy.scaled(scale).total_mj,
            "iL1 miss rate": shared.il1.miss_rate,
            "paper mr": paper.il1_miss_rate,
            "branch %": 100.0 * shared.branch_fraction,
            "paper b%": 100.0 * paper.branch_fraction,
            "BOUNDARY": shared.page_crossings_boundary,
            "BRANCH": shared.page_crossings_branch,
        })
    result.notes.append(
        f"measured over {settings.instructions:,} useful instructions after "
        f"{settings.warmup:,} warmup; cycles/energies scaled x{scale:.0f} to "
        "the paper's 250M-instruction horizon")
    result.notes.append(
        "VI-VT base energy counts one iTLB access per iL1 fetch miss of the "
        "simulated (committed-path) stream; the paper's VI-VT base includes "
        "sim-outorder wrong-path fetch misses it never isolates, so our "
        "VI-VT absolute energies run lower — orderings are unaffected")
    return result


run = planned(cells, build)
