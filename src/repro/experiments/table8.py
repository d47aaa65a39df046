"""Table 8: rehabilitating PI-PT iL1 with IA.

Compares (i) base PI-PT, (ii) PI-PT with IA, (iii) base VI-PT, and (iv)
base VI-VT on energy and cycles.  The paper's claims: base PI-PT pays a
serialized iTLB lookup before every fetch (worst cycles, VI-PT-level
energy); adding IA removes almost all of that serialization, bringing
PI-PT within ~6% of base VI-PT cycles (and beating base VI-VT on several
benchmarks) at far lower energy.
"""

from __future__ import annotations

from repro.config import CacheAddressing, SchemeName, default_config
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
    # benchmark: (E_pipt_base, C_pipt_base, E_pipt_ia, C_pipt_ia,
    #             E_vipt_base, C_vipt_base, E_vivt_base, C_vivt_base)
    "177.mesa": (104.01, 250.6, 2.48, 195.5, 109.07, 188.1, 3.34, 196.1),
    "186.crafty": (115.24, 410.4, 3.70, 343.7, 124.11, 331.7, 8.38, 350.5),
    "191.fma3d": (104.47, 241.6, 5.23, 189.8, 112.68, 169.3, 3.04, 176.6),
    "252.eon": (115.03, 330.4, 6.77, 282.9, 134.54, 263.1, 5.22, 274.7),
    "254.gap": (104.11, 214.7, 2.83, 167.6, 112.20, 161.3, 2.00, 165.6),
    "255.vortex": (106.00, 360.9, 4.24, 308.6, 108.42, 293.9, 6.34, 310.5),
}


def cells(settings: ExperimentSettings) -> Cells:
    return {(bench, addressing):
            job_for(bench, default_config(addressing), settings)
            for bench in settings.benchmarks
            for addressing in (CacheAddressing.PIPT, CacheAddressing.VIPT,
                               CacheAddressing.VIVT)}


def build(settings: ExperimentSettings, answers: Answers) -> TableResult:
    result = TableResult(
        experiment_id="Table 8",
        title="PI-PT base / PI-PT+IA / VI-PT base / VI-VT base: "
              "iTLB energy (mJ, scaled) and cycles (millions, scaled)",
        columns=[
            "benchmark",
            "E pipt", "C pipt", "E pipt+ia", "C pipt+ia",
            "E vipt", "C vipt", "E vivt", "C vivt",
            "C pipt+ia / C vipt",
        ],
    )
    scale = settings.paper_scale
    for bench in settings.benchmarks:
        pipt = answers[bench, CacheAddressing.PIPT]
        vipt = answers[bench, CacheAddressing.VIPT]
        vivt = answers[bench, CacheAddressing.VIVT]
        pipt_base = pipt.scheme(SchemeName.BASE)
        pipt_ia = pipt.scheme(SchemeName.IA)
        vipt_base = vipt.scheme(SchemeName.BASE)
        vivt_base = vivt.scheme(SchemeName.BASE)
        result.add_row(**{
            "benchmark": short_name(bench),
            "E pipt": pipt_base.energy.scaled(scale).total_mj,
            "C pipt": pipt_base.cycles * scale / 1e6,
            "E pipt+ia": pipt_ia.energy.scaled(scale).total_mj,
            "C pipt+ia": pipt_ia.cycles * scale / 1e6,
            "E vipt": vipt_base.energy.scaled(scale).total_mj,
            "C vipt": vipt_base.cycles * scale / 1e6,
            "E vivt": vivt_base.energy.scaled(scale).total_mj,
            "C vivt": vivt_base.cycles * scale / 1e6,
            "C pipt+ia / C vipt": pipt_ia.cycles / vipt_base.cycles,
        })
    result.notes.append(
        "expected shape: C pipt >> C vipt; C pipt+ia within a few percent "
        "of C vipt; E pipt+ia orders of magnitude below both base VI-PT "
        "and base PI-PT (the paper reports PI-PT+IA within 5.7% of base "
        "VI-PT cycles on average)")
    return result


run = planned(cells, build)


def paper_reference() -> TableResult:
    """The paper's own Table 8 values, for side-by-side reading."""
    result = TableResult(
        experiment_id="Table 8 (paper)",
        title="Published values (mJ / millions of cycles)",
        columns=["benchmark", "E pipt", "C pipt", "E pipt+ia", "C pipt+ia",
                 "E vipt", "C vipt", "E vivt", "C vivt"],
    )
    for bench, vals in _PAPER.items():
        result.add_row(benchmark=short_name(bench),
                       **dict(zip(["E pipt", "C pipt", "E pipt+ia",
                                   "C pipt+ia", "E vipt", "C vipt",
                                   "E vivt", "C vivt"], vals)))
    return result
