"""Extensions: the paper's future-work directions, implemented.

1. **dCFR** (Section 5: "examining similar approaches for data
   references") — an HoA-style register file in front of the dTLB;
   measures dTLB lookup/energy reduction vs register count.
2. **Code layout** (Section 5: "code layout transformations ... to
   benefit from the reuse of the translation within the CFR") — each
   benchmark's Pettis-Hansen-style affinity layout (its ``@affinity``
   variant, a plan cell like every other) vs the benchmark itself: page
   crossings and IA/OPT lookups.
3. **Better predictors** (Section 3.3.4: "if we can use a more accurate
   predictor, IA would come even closer to OPT") — gshare and a RAS-less
   bimodal bracket the default.
4. **Accounting ablation** — charging CFR register reads and the IA BTB
   comparator (both omitted by the paper) to bound how much they matter.
"""

from __future__ import annotations

import dataclasses

from repro.config import (
    BranchPredictorConfig,
    CacheAddressing,
    SchemeName,
    default_config,
)
from repro.core.dcfr import DataCFR
from repro.energy.cacti import CactiLikeModel
from repro.experiments.common import (
    Answers,
    Cells,
    ExperimentSettings,
    ImageProbe,
    TableResult,
    job_for,
    planned,
    short_name,
)
from repro.isa.program import Program
from repro.runner import JobSpec
from repro.trace.format import committed_steps
from repro.vm.os_model import AddressSpace
from repro.vm.tlb import TLB
from repro.workloads.registry import AFFINITY_SUFFIX, resolve

#: data-side CFR register counts swept
DCFR_REGISTERS = (1, 2, 4)


def _dcfr_counters(program: Program, spec: JobSpec) -> list:
    """One data-side CFR's counters per register count, fed the data
    references of ``program``'s committed stream over ``spec``'s window
    (a replayed trace feeds its recorded data addresses)."""
    config = spec.config
    found = []
    for registers in DCFR_REGISTERS:
        space = AddressSpace(program)
        dtlb = TLB(config.dtlb, name="dtlb")
        dcfr = DataCFR(dtlb, space.page_table,
                       config.mem.page_shift, registers=registers)
        for _, instr, aux in committed_steps(program, spec.warmup,
                                             spec.instructions):
            kind = instr.kind_code
            if kind == 6 or kind == 7:  # LOAD / STORE
                dcfr.translate(aux, kind == 7)
        found.append(dcfr.counters)
    return found


def dcfr_cells(settings: ExperimentSettings) -> Cells:
    return {("dcfr", bench):
            ImageProbe("extensions.dcfr",
                       job_for(bench, default_config(), settings),
                       _dcfr_counters)
            for bench in settings.benchmarks}


def build_dcfr(settings: ExperimentSettings, answers: Answers) -> TableResult:
    """Data-side CFR: dTLB accesses avoided per register count."""
    config = default_config()
    model = CactiLikeModel(config.energy)
    dtlb_ea = model.tlb_access_energy(config.dtlb)
    result = TableResult(
        experiment_id="Extension: dCFR",
        title="Data-side CFR in front of the dTLB",
        columns=["benchmark", "registers", "data refs", "register hit %",
                 "dtlb lookups avoided %", "energy % of base dTLB"],
    )
    for bench in settings.benchmarks:
        for registers, counters in zip(DCFR_REGISTERS,
                                       answers["dcfr", bench]):
            refs = counters.references or 1
            base_energy = refs * dtlb_ea
            dcfr_energy = (counters.dtlb_lookups * dtlb_ea
                           + counters.comparator_ops
                           * model.comparator_energy())
            result.add_row(**{
                "benchmark": short_name(bench),
                "registers": registers,
                "data refs": counters.references,
                "register hit %": 100.0 * counters.hit_rate,
                "dtlb lookups avoided %":
                    100.0 * (1.0 - counters.dtlb_lookups / refs),
                "energy % of base dTLB":
                    100.0 * dcfr_energy / base_energy,
            })
    result.notes.append(
        "data references hit many pages per window, so a 1-register dCFR "
        "saves far less than the instruction-side CFR — the reason the "
        "paper left it as future work")
    return result


run_dcfr = planned(dcfr_cells, build_dcfr)


def layout_cells(settings: ExperimentSettings) -> Cells:
    """Each generated benchmark's default VI-PT run (the accounting
    extension's own cell), and an IA-only run of its ``@affinity``
    variant: :func:`build_layout` reads IA and the instrumented pass, so
    the variant's plain binary never executes."""
    vipt = default_config(CacheAddressing.VIPT)
    return {("layout", label, bench): dataclasses.replace(
                job_for(bench + suffix, vipt, settings), schemes=schemes)
            for bench in settings.benchmarks
            if getattr(resolve(bench), "chunks", None)
            for label, suffix, schemes in (
                ("original", "", None),
                ("affinity", AFFINITY_SUFFIX, (SchemeName.IA,)))}


def build_layout(settings: ExperimentSettings,
                 answers: Answers) -> TableResult:
    """Affinity-based code layout vs generator order.  Under VI-PT every
    fetch translates, so OPT looks up once per page crossing of the
    instrumented pass (under VI-VT it looks up on iL1 misses only)."""
    result = TableResult(
        experiment_id="Extension: code layout",
        title="Call-affinity function layout vs original layout "
              "(VI-PT, instrumented binaries, IA/OPT lookups)",
        columns=["benchmark", "layout", "page crossings",
                 "opt lookups", "ia lookups"],
    )
    for bench in settings.benchmarks:
        if ("layout", "original", bench) not in answers:
            # no static chunks to lay out: layout_cells declared no cell
            result.notes.append(
                f"{short_name(bench)}: skipped (no static chunks to lay "
                "out — only generated workloads can be re-linked)")
            continue
        for label in ("original", "affinity"):
            run_ = answers["layout", label, bench]
            crossings = run_.instrumented.shared.page_crossings
            result.add_row(**{
                "benchmark": short_name(bench), "layout": label,
                "page crossings": crossings, "opt lookups": crossings,
                "ia lookups": run_.scheme(SchemeName.IA).lookups,
            })
    result.notes.append(
        "affinity layout packs call-affine functions onto shared pages; "
        "lookups should not increase, and typically fall")
    return result


run_layout = planned(layout_cells, build_layout)


#: the predictor variants the predictor extension compares
PREDICTOR_VARIANTS = (
    ("bimodal+RAS (default)", BranchPredictorConfig()),
    ("bimodal, no RAS", BranchPredictorConfig(ras_entries=0)),
    ("gshare+RAS", BranchPredictorConfig(kind="gshare", history_bits=10)),
)


def predictor_cells(settings: ExperimentSettings) -> Cells:
    return {("predictor", label, bench):
            job_for(bench, default_config(CacheAddressing.VIPT)
                    .with_branch(branch_cfg), settings)
            for label, branch_cfg in PREDICTOR_VARIANTS
            for bench in settings.benchmarks}


def build_predictors(settings: ExperimentSettings,
                     answers: Answers) -> TableResult:
    """IA's gap to OPT as a function of predictor quality."""
    result = TableResult(
        experiment_id="Extension: predictors",
        title="IA vs OPT energy (VI-PT) under different predictors",
        columns=["predictor", "benchmark", "accuracy %",
                 "ia energy % of base", "opt energy % of base",
                 "ia/opt ratio"],
    )
    for label, _ in PREDICTOR_VARIANTS:
        for bench in settings.benchmarks:
            run_ = answers["predictor", label, bench]
            ia = 100.0 * run_.normalized_energy(SchemeName.IA)
            opt = 100.0 * run_.normalized_energy(SchemeName.OPT)
            result.add_row(**{
                "predictor": label, "benchmark": short_name(bench),
                "accuracy %": 100.0
                * run_.instrumented.shared.predictor.accuracy,
                "ia energy % of base": ia,
                "opt energy % of base": opt,
                "ia/opt ratio": ia / opt if opt else float("nan"),
            })
    result.notes.append(
        "better predictors shrink IA's misprediction-forced lookups, "
        "pulling the ia/opt ratio toward 1 (paper Section 3.3.4)")
    return result


run_predictors = planned(predictor_cells, build_predictors)


def accounting_cells(settings: ExperimentSettings) -> Cells:
    """Each benchmark's default VI-PT run under the paper's accounting
    and under the full one (an energy-only variant: it rides the same
    pass as a grid member)."""
    paper = default_config(CacheAddressing.VIPT)
    full = dataclasses.replace(paper, energy=dataclasses.replace(
        paper.energy, charge_cfr_reads=True, charge_btb_compare=True))
    return {("accounting", label, bench): job_for(bench, config, settings)
            for bench in settings.benchmarks
            for label, config in (("paper", paper), ("full", full))}


def build_accounting(settings: ExperimentSettings,
                     answers: Answers) -> TableResult:
    """Charge the energies the paper's accounting omits."""
    result = TableResult(
        experiment_id="Extension: accounting",
        title="Effect of charging CFR reads and the IA BTB compare "
              "(VI-PT, IA scheme)",
        columns=["benchmark", "paper accounting %", "full accounting %"],
    )
    for bench in settings.benchmarks:
        paper = answers["accounting", "paper", bench]
        full = answers["accounting", "full", bench]
        # the full accounting's IA is over the plain binary's Base
        base_e = full.scheme(SchemeName.BASE).energy.total_nj
        ia_full = full.scheme(SchemeName.IA).energy.total_nj
        result.add_row(**{
            "benchmark": short_name(bench),
            "paper accounting %":
                100.0 * paper.normalized_energy(SchemeName.IA),
            "full accounting %": 100.0 * ia_full / base_e if base_e else 0.0,
        })
    result.notes.append(
        "full accounting adds one CFR read per fetch and one comparator "
        "op per predicted-taken branch; the savings story must survive it")
    return result


run_accounting = planned(accounting_cells, build_accounting)


def cells(settings: ExperimentSettings) -> Cells:
    return {**dcfr_cells(settings), **layout_cells(settings),
            **predictor_cells(settings), **accounting_cells(settings)}


def build(settings: ExperimentSettings, answers: Answers) -> TableResult:
    """All extensions merged for the report."""
    parts = [build_dcfr(settings, answers), build_layout(settings, answers),
             build_predictors(settings, answers),
             build_accounting(settings, answers)]
    merged = TableResult(
        experiment_id="Extensions",
        title="Future-work reproductions (dCFR, layout, predictors, "
              "accounting)",
        columns=["experiment", "row"],
    )
    for part in parts:
        for row in part.rows:
            merged.add_row(experiment=part.experiment_id,
                           row="; ".join(f"{k}={v:.4g}"
                                         if isinstance(v, float)
                                         else f"{k}={v}"
                                         for k, v in row.items()))
        merged.notes.extend(f"[{part.experiment_id}] {n}"
                            for n in part.notes)
    return merged


run = planned(cells, build)
