"""Section 4.4 sensitivity studies: iL1 configuration and page size.

The paper summarizes these (details were in its TR version): IA's VI-VT
benefits grow for smaller/less-associative iL1s (more misses expose the
iTLB), and larger pages improve CFR coverage, increasing every scheme's
savings.  Both sweeps are regenerated here.
"""

from __future__ import annotations

from typing import List

from repro.config import (
    CacheAddressing,
    CacheConfig,
    SchemeName,
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

#: the iL1 sweep: (size KB, assoc)
IL1_SWEEP = ((4, 1), (8, 1), (16, 2), (32, 2))

#: page sizes swept (bytes)
PAGE_SWEEP = (4096, 8192, 16384, 65536)


def _il1_config(size_kb: int, assoc: int):
    il1 = CacheConfig("iL1", size_bytes=size_kb * 1024, assoc=assoc,
                      block_bytes=32, hit_latency=1)
    return default_config(CacheAddressing.VIVT).with_il1(il1)


def il1_cells(settings: ExperimentSettings) -> List[Cell]:
    return [job_for(bench, _il1_config(size_kb, assoc), settings)
            for size_kb, assoc in IL1_SWEEP
            for bench in settings.benchmarks]


def build_il1(settings: ExperimentSettings) -> TableResult:
    result = TableResult(
        experiment_id="Sensitivity (iL1)",
        title="IA with VI-VT iL1 across iL1 geometries",
        columns=["iL1", "benchmark", "iL1 miss rate",
                 "ia energy % of base", "ia cycles % of base"],
    )
    for size_kb, assoc in IL1_SWEEP:
        label = f"{size_kb}KB/{assoc}w"
        e_list, c_list = [], []
        for bench in settings.benchmarks:
            run_ = combined_run(bench, _il1_config(size_kb, assoc),
                                settings)
            e_pct = 100.0 * run_.normalized_energy(SchemeName.IA)
            c_pct = 100.0 * run_.normalized_cycles(SchemeName.IA)
            e_list.append(e_pct)
            c_list.append(c_pct)
            result.add_row(**{
                "iL1": label, "benchmark": short_name(bench),
                "iL1 miss rate": run_.shared.il1.miss_rate,
                "ia energy % of base": e_pct,
                "ia cycles % of base": c_pct,
            })
        result.add_row(**{"iL1": label, "benchmark": "average",
                          "iL1 miss rate": float("nan"),
                          "ia energy % of base": average(e_list),
                          "ia cycles % of base": average(c_list)})
    result.notes.append(
        "smaller/less-associative iL1s miss more, so IA's VI-VT cycle "
        "savings grow toward the top of the table")
    return result


def _replayable_sizes(bench: str) -> frozenset:
    """The page sizes ``bench`` can simulate at.  Generated workloads
    link at any size; a recorded trace only has the (plain,
    instrumented) segment pairs it was recorded with
    (``record_trace(..., page_sizes=...)``) — probed with one decode of
    the file, not one per swept size."""
    from repro.workloads.registry import (
        IMPORT_PREFIX,
        TRACE_PREFIX,
        resolve,
    )
    if bench.startswith(IMPORT_PREFIX):
        # imported foreign traces synthesize their geometry on demand,
        # so any page size replays
        return frozenset(PAGE_SWEEP)
    if not bench.startswith(TRACE_PREFIX):
        return frozenset(PAGE_SWEEP)
    segments = resolve(bench).trace.segments
    plain = {s.page_bytes for s in segments if s.binary == "plain"}
    instrumented = {s.page_bytes for s in segments
                    if s.binary == "instrumented"}
    return frozenset(PAGE_SWEEP) & plain & instrumented


def _page_config(page_bytes: int):
    return default_config(CacheAddressing.VIPT).with_page_bytes(page_bytes)


def _sizes_for(settings: ExperimentSettings) -> dict:
    return {bench: _replayable_sizes(bench) for bench in settings.benchmarks}


def _page_points(settings: ExperimentSettings, sizes_for: dict) -> list:
    """The (benchmark, page size) points each workload can simulate."""
    return [(bench, page_bytes)
            for page_bytes in PAGE_SWEEP
            for bench in settings.benchmarks
            if page_bytes in sizes_for[bench]]


def page_size_cells(settings: ExperimentSettings) -> List[Cell]:
    points = _page_points(settings, _sizes_for(settings))
    return [job_for(bench, _page_config(page_bytes), settings)
            for bench, page_bytes in points]


def build_page_size(settings: ExperimentSettings) -> TableResult:
    sizes_for = _sizes_for(settings)
    result = TableResult(
        experiment_id="Sensitivity (page size)",
        title="IA and OPT (VI-PT) across page sizes",
        columns=["page", "benchmark", "page crossings/kinst",
                 "ia energy % of base", "opt energy % of base"],
    )
    for bench in settings.benchmarks:
        if len(sizes_for[bench]) < len(PAGE_SWEEP):
            result.notes.append(
                f"{short_name(bench)}: partial (trace not recorded at "
                "every swept page size; re-record with --page-sizes "
                + " ".join(str(p) for p in PAGE_SWEEP) + ")")
    for bench, page_bytes in _page_points(settings, sizes_for):
        label = f"{page_bytes // 1024}KB"
        run_ = combined_run(bench, _page_config(page_bytes), settings)
        shared = run_.shared
        per_kinst = (1000.0 * shared.page_crossings
                     / shared.instructions if shared.instructions else 0)
        result.add_row(**{
            "page": label, "benchmark": short_name(bench),
            "page crossings/kinst": per_kinst,
            "ia energy % of base":
                100.0 * run_.normalized_energy(SchemeName.IA),
            "opt energy % of base":
                100.0 * run_.normalized_energy(SchemeName.OPT),
        })
    result.notes.append(
        "larger pages -> fewer crossings -> better CFR coverage: both IA "
        "and OPT percentages fall monotonically with page size")
    return result


run_il1 = planned(il1_cells, build_il1)
run_page_size = planned(page_size_cells, build_page_size)


def cells(settings: ExperimentSettings) -> List[Cell]:
    return il1_cells(settings) + page_size_cells(settings)


def build(settings: ExperimentSettings) -> TableResult:
    """Both sweeps merged for the report."""
    il1 = build_il1(settings)
    page = build_page_size(settings)
    merged = TableResult(
        experiment_id="Sensitivity",
        title="iL1-geometry and page-size sensitivity (Section 4.4)",
        columns=["sweep", "point", "benchmark", "metric", "value"],
        notes=il1.notes + page.notes,
    )
    for row in il1.rows:
        for metric in ("iL1 miss rate", "ia energy % of base",
                       "ia cycles % of base"):
            merged.add_row(sweep="il1", point=row["iL1"],
                           benchmark=row["benchmark"], metric=metric,
                           value=row[metric])
    for row in page.rows:
        for metric in ("page crossings/kinst", "ia energy % of base",
                       "opt energy % of base"):
            merged.add_row(sweep="page", point=row["page"],
                           benchmark=row["benchmark"], metric=metric,
                           value=row[metric])
    return merged


run = planned(cells, build)
