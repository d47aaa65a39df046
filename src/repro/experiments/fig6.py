"""Figure 6: two-level iTLBs vs monolithic + IA.

Configuration (i): 1-entry L1 + 32-entry FA L2, compared against a
monolithic 32-entry FA iTLB running IA.  Configuration (ii): 32-entry FA
L1 + 96-entry FA L2 vs monolithic 128-entry FA + IA.  Serial lookup (L2
probed only on an L1 miss, one extra cycle — the paper's optimistic
assumption).  The paper's headline: the two-level base burns ~55% more
energy than monolithic+IA at the 32-entry point while IA's cycles are
2-10% better; at the larger point the two-level's energy deteriorates
further.  The parallel-lookup variant (dropped by the paper for poor
energy) is included as an extra row pair.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.config import (
    CacheAddressing,
    SchemeName,
    TWO_LEVEL_MONOLITHIC_BASELINES,
    TWO_LEVEL_SWEEP,
    default_config,
)
from repro.experiments.common import (
    Cell,
    ExperimentSettings,
    TableResult,
    average,
    combined_run,
    job_for,
    planned,
    short_name,
)


def cells(settings: ExperimentSettings) -> List[Cell]:
    found: List[Cell] = []
    for two_level, mono in zip(TWO_LEVEL_SWEEP,
                               TWO_LEVEL_MONOLITHIC_BASELINES):
        for bench in settings.benchmarks:
            mono_cfg = default_config(CacheAddressing.VIPT).with_itlb(mono)
            found.append(job_for(bench, mono_cfg, settings))
            for serial in (True, False):
                tl_cfg = dataclasses.replace(two_level, serial=serial)
                found.append(job_for(
                    bench, mono_cfg.with_two_level_itlb(tl_cfg), settings))
    return found


def build(settings: ExperimentSettings) -> TableResult:
    result = TableResult(
        experiment_id="Figure 6",
        title="Two-level iTLB (base) vs monolithic iTLB with IA "
              "(energy and cycles normalized to monolithic+IA)",
        columns=["config", "mode", "benchmark",
                 "energy % of mono-IA", "cycles % of mono-IA"],
    )
    for two_level, mono in zip(TWO_LEVEL_SWEEP,
                               TWO_LEVEL_MONOLITHIC_BASELINES):
        cfg_label = (f"{two_level.level1.entries}+{two_level.level2.entries}"
                     f" vs mono {mono.entries}")
        for serial in (True, False):
            mode = "serial" if serial else "parallel"
            tl_cfg = dataclasses.replace(two_level, serial=serial)
            energy_ratios, cycle_ratios = [], []
            for bench in settings.benchmarks:
                mono_run = combined_run(
                    bench,
                    default_config(CacheAddressing.VIPT).with_itlb(mono),
                    settings)
                two_run = combined_run(
                    bench,
                    default_config(CacheAddressing.VIPT)
                    .with_itlb(mono).with_two_level_itlb(tl_cfg),
                    settings)
                mono_ia = mono_run.scheme(SchemeName.IA)
                two_base = two_run.scheme(SchemeName.BASE)
                e_ratio = (100.0 * two_base.energy.total_nj
                           / mono_ia.energy.total_nj
                           if mono_ia.energy.total_nj else 0.0)
                c_ratio = (100.0 * two_base.cycles / mono_ia.cycles
                           if mono_ia.cycles else 0.0)
                energy_ratios.append(e_ratio)
                cycle_ratios.append(c_ratio)
                result.add_row(**{
                    "config": cfg_label, "mode": mode,
                    "benchmark": short_name(bench),
                    "energy % of mono-IA": e_ratio,
                    "cycles % of mono-IA": c_ratio,
                })
            result.add_row(**{
                "config": cfg_label, "mode": mode, "benchmark": "average",
                "energy % of mono-IA": average(energy_ratios),
                "cycles % of mono-IA": average(cycle_ratios),
            })
    result.notes.append(
        "expected: two-level base energy well above 100% of monolithic+IA "
        "(the paper reports +55.3% for the 1+32 serial configuration), "
        "parallel mode strictly worse on energy; monolithic+IA cycles "
        "equal or better (no L2-TLB probe latency)")
    return result


run = planned(cells, build)
