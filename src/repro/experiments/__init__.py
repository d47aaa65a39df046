"""Reproduction harness: one module per table/figure of the paper.

Every experiment declares ``cells(settings)`` — each simulation
(:class:`~repro.runner.JobSpec`) and image probe it reads, once, under
the key its build reads it by — and ``build(settings, answers) ->
TableResult``, which renders its table by indexing those keys' answers;
``run(settings)`` answers its own cells and builds.  Results
render as paper-style text tables and carry paper-vs-measured
comparisons where the paper printed absolute numbers.
``repro.experiments.report`` answers every experiment's cells in one
sweep, then builds the full set and writes EXPERIMENTS.md.

The answers come from a shared result store
(:mod:`repro.experiments.common`): Table 2, Tables 3-5, and Figures 4-5
all declare the same two default-configuration passes per benchmark,
``settings.workers > 1`` simulates a plan in parallel, and a persistent
cache directory (``configure_store``) carries results across processes.
"""

from repro.experiments.common import (
    ExperimentSettings,
    ImageProbe,
    TableResult,
    answer,
    clear_cache,
    configure_store,
    default_settings,
    job_for,
)
from repro.experiments import (
    configuration,
    extensions,
    fig4,
    fig5,
    fig6,
    sensitivity,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
    validation,
)
from repro.experiments.report import (
    ALL_EXPERIMENTS,
    run_all,
    run_experiment,
    write_experiments_md,
)

__all__ = [
    "ALL_EXPERIMENTS",
    "ExperimentSettings",
    "ImageProbe",
    "TableResult",
    "answer",
    "clear_cache",
    "configuration",
    "configure_store",
    "default_settings",
    "job_for",
    "extensions",
    "fig4",
    "fig5",
    "fig6",
    "run_all",
    "run_experiment",
    "sensitivity",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "validation",
    "write_experiments_md",
]
