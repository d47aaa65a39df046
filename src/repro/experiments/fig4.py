"""Figure 4: normalized iTLB energy for all schemes, VI-PT and VI-VT.

The paper plots HoA, SoCA, SoLA, IA, and OPT normalized to the base case
of each iL1 addressing discipline.  Key published averages (VI-PT): HoA
5.69%, SoCA 12.24%, SoLA 5.01%, IA 3.82%, OPT 3.20%; (VI-VT): HoA 15.23%,
SoCA 36.83%, SoLA 16.39%, IA 14.04%, OPT 12.74%.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import CacheAddressing, SchemeName, default_config
from repro.experiments.common import (
    Cell,
    ExperimentSettings,
    TableResult,
    answer,
    average,
    combined_run,
    default_settings,
    job_for,
    planned,
    short_name,
)

_SCHEMES = (SchemeName.HOA, SchemeName.SOCA, SchemeName.SOLA,
            SchemeName.IA, SchemeName.OPT)

#: the paper's per-scheme averages (percent of base), for the notes
PAPER_AVERAGES = {
    CacheAddressing.VIPT: {"hoa": 5.69, "soca": 12.24, "sola": 5.01,
                           "ia": 3.82, "opt": 3.20},
    CacheAddressing.VIVT: {"hoa": 15.23, "soca": 36.83, "sola": 16.39,
                           "ia": 14.04, "opt": 12.74},
}


_PANELS = (CacheAddressing.VIPT, CacheAddressing.VIVT)


def panel_cells(addressing: CacheAddressing,
                settings: ExperimentSettings) -> List[Cell]:
    return [job_for(bench, default_config(addressing), settings)
            for bench in settings.benchmarks]


def run_for(addressing: CacheAddressing,
            settings: Optional[ExperimentSettings] = None) -> TableResult:
    """One panel on its own: answer its cells, then build it."""
    settings = settings or default_settings()
    answer(panel_cells(addressing, settings), settings)
    return build_panel(addressing, settings)


def build_panel(addressing: CacheAddressing,
                settings: ExperimentSettings) -> TableResult:
    label = addressing.value.upper()
    result = TableResult(
        experiment_id="Figure 4" + (" (top)" if addressing
                                    is CacheAddressing.VIPT else " (bottom)"),
        title=f"Normalized iTLB energy, {label} iL1 (percent of base)",
        columns=["benchmark"] + [s.value for s in _SCHEMES],
    )
    sums: Dict[SchemeName, list] = {s: [] for s in _SCHEMES}
    for bench in settings.benchmarks:
        run_ = combined_run(bench, default_config(addressing), settings)
        row = {"benchmark": short_name(bench)}
        for scheme in _SCHEMES:
            pct = 100.0 * run_.normalized_energy(scheme)
            row[scheme.value] = pct
            sums[scheme].append(pct)
        result.add_row(**row)
    result.add_row(**{"benchmark": "average",
                      **{s.value: average(sums[s]) for s in _SCHEMES}})
    paper = PAPER_AVERAGES[addressing]
    result.add_row(**{"benchmark": "paper avg",
                      **{s.value: paper[s.value] for s in _SCHEMES}})
    result.notes.append(
        "expected shape: OPT <= IA <= SoLA ~ HoA < SoCA << base(100)")
    return result


def cells(settings: ExperimentSettings) -> List[Cell]:
    return [cell for addressing in _PANELS
            for cell in panel_cells(addressing, settings)]


def build(settings: ExperimentSettings) -> TableResult:
    """Both panels merged (VI-PT rows then VI-VT rows)."""
    top, bottom = (build_panel(addressing, settings)
                   for addressing in _PANELS)
    merged = TableResult(
        experiment_id="Figure 4",
        title="Normalized iTLB energy (percent of base)",
        columns=["iL1", "benchmark"] + [s.value for s in _SCHEMES],
        notes=top.notes + bottom.notes,
    )
    for panel, table in (("vi-pt", top), ("vi-vt", bottom)):
        for row in table.rows:
            merged.add_row(**{"iL1": panel, **row})
    return merged


run = planned(cells, build)
