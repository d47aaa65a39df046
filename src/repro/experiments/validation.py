"""Engine cross-validation: fast engine vs detailed out-of-order engine.

The sweeps run on the fast engine; this experiment quantifies what that
approximation costs by running the detailed OoO core (with wrong-path
fetch) on the same workloads and comparing cycle counts, lookup counts,
and microarchitectural rates.  Divergences worth knowing about:

* the OoO engine's iL1/iTLB traffic includes wrong-path fetches, so its
  Base lookup counts run a few percent higher;
* cycles differ by the fast engine's list-scheduling approximation —
  agreement within ~25% is the acceptance band (both engines share the
  architectural stream, so counts must agree far more tightly).
"""

from __future__ import annotations

from typing import List

from repro.config import CacheAddressing, SchemeName, default_config
from repro.errors import RegistryError
from repro.experiments.common import (
    Cell,
    ExperimentSettings,
    TableResult,
    combined_run,
    job_for,
    planned,
    short_name,
    stored,
)
from repro.runner import JobSpec
from repro.workloads.registry import file_backed_path

_ADDRESSINGS = (CacheAddressing.VIPT, CacheAddressing.VIVT)
_SCHEMES = (SchemeName.BASE, SchemeName.IA)


def _fast_settings(settings: ExperimentSettings) -> ExperimentSettings:
    """The reduced window both engines run (the detailed engine is ~10x
    slower), over the first two benchmarks."""
    return ExperimentSettings(instructions=max(settings.instructions // 4,
                                               5_000),
                              warmup=max(settings.warmup // 4, 1_000),
                              benchmarks=settings.benchmarks[:2])


def _skip_for_ooo(bench: str) -> bool:
    """Recorded and imported traces are skipped outright: the detailed
    engine fetches speculative wrong-path instructions a committed
    stream cannot supply."""
    try:
        return file_backed_path(bench) is not None
    except RegistryError:
        # a malformed import:<format>:<path> name certainly cannot run
        # on the detailed engine either — skip it with a note instead
        # of letting the filter abort the whole table
        return True


def _ooo_spec(bench: str, addressing: CacheAddressing, scheme: SchemeName,
              fast: ExperimentSettings) -> JobSpec:
    """One detailed-engine run: a one-member pass of its own."""
    return JobSpec(workload=bench, config=default_config(addressing),
                   instructions=fast.instructions, warmup=fast.warmup,
                   schemes=(scheme,), engine="ooo")


def cells(settings: ExperimentSettings) -> List[Cell]:
    fast = _fast_settings(settings)
    found: List[Cell] = []
    for bench in fast.benchmarks:
        if _skip_for_ooo(bench):
            continue
        for addressing in _ADDRESSINGS:
            found.append(job_for(bench, default_config(addressing), fast))
            found.extend(_ooo_spec(bench, addressing, scheme, fast)
                         for scheme in _SCHEMES)
    return found


def build(settings: ExperimentSettings) -> TableResult:
    fast_settings = _fast_settings(settings)
    result = TableResult(
        experiment_id="Validation",
        title="Fast engine vs detailed out-of-order engine",
        columns=["benchmark", "scheme", "iL1 addr",
                 "fast cycles", "ooo cycles", "cycle ratio",
                 "fast lookups", "ooo lookups", "lookup ratio"],
    )
    runnable = [bench for bench in fast_settings.benchmarks
                if not _skip_for_ooo(bench)]
    for bench in fast_settings.benchmarks:
        if bench not in runnable:
            result.notes.append(
                f"{short_name(bench)}: skipped (recorded traces replay "
                "on the fast engine only)")
    for bench in runnable:
        for addressing in _ADDRESSINGS:
            fast = combined_run(bench, default_config(addressing),
                                fast_settings)
            for scheme in _SCHEMES:
                ooo = stored(_ooo_spec(bench, addressing, scheme,
                                       fast_settings))
                fast_scheme = fast.scheme(scheme)
                ooo_scheme = ooo.scheme(scheme)
                fast_cycles = fast_scheme.cycles
                ooo_cycles = ooo_scheme.cycles
                fast_lookups = fast_scheme.lookups
                ooo_lookups = ooo_scheme.lookups
                result.add_row(**{
                    "benchmark": short_name(bench),
                    "scheme": scheme.value,
                    "iL1 addr": addressing.value,
                    "fast cycles": fast_cycles,
                    "ooo cycles": ooo_cycles,
                    "cycle ratio": (fast_cycles / ooo_cycles
                                    if ooo_cycles else float("nan")),
                    "fast lookups": fast_lookups,
                    "ooo lookups": ooo_lookups,
                    "lookup ratio": (fast_lookups / ooo_lookups
                                     if ooo_lookups else float("nan")),
                })
    result.notes.append(
        "lookup ratios sit slightly below 1 for Base (the OoO engine also "
        "fetches — and translates — down mispredicted paths); cycle "
        "ratios within ~0.75-1.3 validate the list-scheduling timing model")
    return result


run = planned(cells, build)
