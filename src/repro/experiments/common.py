"""Shared infrastructure for the experiment harness.

Simulation passes route through the sweep runner (:mod:`repro.runner`):
``combined_run`` answers from a process-wide :class:`ResultStore` (so the
many tables reading the default configuration reuse two passes per
benchmark), and ``prefetch`` lets an experiment hand its whole
(benchmark, config) grid to the :class:`SweepRunner` up front —
``settings.workers > 1`` then simulates the grid in parallel before the
row loops read it back cell by cell.  Pointing the store at a directory
(``configure_store``) makes results persist across processes.
``TableResult`` is the uniform result object: ordered rows of named
columns, a title, and free-form notes (deviations, scaling).

Scaling: the paper simulates 250M instructions; we simulate
``settings.instructions``.  Energies and cycles reported in "paper units"
are linearly scaled by the instruction ratio — valid because every
underlying quantity is a per-instruction rate.  Raw measured values are
always reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import MachineConfig
from repro.errors import SimulationError
from repro.runner import JobSpec, ResultStore, SweepRunner, resolve_workers
from repro.sim.multi import CombinedRun
from repro.workloads.spec2000 import BENCHMARK_NAMES

PAPER_INSTRUCTIONS = 250_000_000


@dataclass(frozen=True)
class ExperimentSettings:
    """How much simulation each experiment performs, and how."""

    instructions: int = 120_000
    warmup: int = 20_000
    #: registry workload names: the SPEC stand-ins by default, but any
    #: resolvable name works, including recorded ``trace:<path>``
    #: workloads (whose simulation window must fit the recorded one)
    benchmarks: Tuple[str, ...] = BENCHMARK_NAMES
    #: worker processes ``prefetch`` fans simulation out over
    #: (1 = serial, 0 = auto-detect one per CPU)
    workers: int = 1
    #: execution backend for ``prefetch`` grids: ``None`` (pick serial
    #: or pool from ``workers``), ``"serial"``, ``"pool"``, or
    #: ``"queue:<dir>"`` to drain the grid through a worker fleet
    backend: Optional[str] = None

    @property
    def paper_scale(self) -> float:
        """Factor converting a measured count to the paper's 250M horizon."""
        return PAPER_INSTRUCTIONS / self.instructions


def default_settings(instructions: Optional[int] = None,
                     warmup: Optional[int] = None,
                     benchmarks: Optional[Sequence[str]] = None,
                     workers: Optional[int] = None,
                     backend: Optional[str] = None
                     ) -> ExperimentSettings:
    kwargs = {}
    if instructions is not None:
        kwargs["instructions"] = instructions
        if warmup is None:
            kwargs["warmup"] = max(instructions // 6, 1000)
    if warmup is not None:
        kwargs["warmup"] = warmup
    if benchmarks is not None:
        kwargs["benchmarks"] = tuple(benchmarks)
    if workers is not None:
        kwargs["workers"] = workers
    if backend is not None:
        kwargs["backend"] = backend
    return ExperimentSettings(**kwargs)


# ---------------------------------------------------------------------------
# Pass cache (a process-wide ResultStore shared by every experiment)
# ---------------------------------------------------------------------------

_STORE = ResultStore()


def configure_store(cache_dir: Optional[str] = None) -> ResultStore:
    """Replace the experiment layer's store; ``cache_dir`` makes results
    persist on disk (and survive across processes), None reverts to a
    fresh memory-only store."""
    global _STORE
    _STORE = ResultStore(cache_dir)
    return _STORE


def job_for(benchmark: str, config: MachineConfig,
            settings: ExperimentSettings) -> JobSpec:
    """The runner job one experiment cell corresponds to."""
    return JobSpec(workload=benchmark, config=config,
                   instructions=settings.instructions,
                   warmup=settings.warmup)


def combined_run(benchmark: str, config: MachineConfig,
                 settings: ExperimentSettings) -> CombinedRun:
    """Store-backed two-pass evaluation of every scheme on one benchmark."""
    spec = job_for(benchmark, config, settings)
    run = _STORE.get(spec)
    if run is None:
        run = spec.run()
        _STORE.put(spec, run)
    return run


def prefetch(cells: Iterable[Tuple[str, MachineConfig]],
             settings: ExperimentSettings) -> None:
    """Fill the store for a batch of (benchmark, config) cells at once.

    With ``settings.workers > 1`` (or ``0``: one per CPU) the misses
    simulate in parallel — through ``settings.backend`` when one is
    named; the subsequent ``combined_run`` reads are then pure cache
    hits.  A failed cell raises immediately — experiments cannot
    proceed without it.
    """
    from repro import telemetry
    runner = SweepRunner(store=_STORE,
                         workers=resolve_workers(settings.workers),
                         backend=settings.backend)
    for result in runner.run(job_for(b, c, settings) for b, c in cells):
        if not result.ok:
            raise SimulationError(
                f"prefetch failed for {result.spec.describe()}:\n"
                f"{result.error}")
    telemetry.emit("experiment.prefetch", **runner.last_stats.__dict__,
                   **{k: v for k, v in runner.last_metrics.items()
                      if k in ("jobs_measured", "simulate_seconds",
                               "wall_seconds", "instr_per_sec",
                               "cached_jobs_measured",
                               "cached_simulate_seconds")})


def clear_cache() -> None:
    """Drop the in-memory result cache (on-disk entries, if any, stay)."""
    _STORE.clear()


# ---------------------------------------------------------------------------
# Result rendering
# ---------------------------------------------------------------------------


@dataclass
class TableResult:
    """One regenerated table/figure."""

    experiment_id: str  #: e.g. "Table 2", "Figure 4"
    title: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: object) -> None:
        self.rows.append(values)

    def column(self, name: str) -> List[object]:
        return [row.get(name) for row in self.rows]

    def row_for(self, key_column: str, key: object) -> Dict[str, object]:
        for row in self.rows:
            if row.get(key_column) == key:
                return row
        raise KeyError(f"no row with {key_column}={key!r}")

    def render(self, float_fmt: str = "{:.4g}") -> str:
        def fmt(value: object) -> str:
            if isinstance(value, float):
                return float_fmt.format(value)
            return str(value)

        widths = {c: len(c) for c in self.columns}
        rendered_rows = []
        for row in self.rows:
            rendered = {c: fmt(row.get(c, "")) for c in self.columns}
            rendered_rows.append(rendered)
            for c in self.columns:
                widths[c] = max(widths[c], len(rendered[c]))
        header = "  ".join(c.ljust(widths[c]) for c in self.columns)
        sep = "-" * len(header)
        lines = [f"{self.experiment_id}: {self.title}", sep, header, sep]
        for rendered in rendered_rows:
            lines.append("  ".join(rendered[c].rjust(widths[c])
                                   for c in self.columns))
        lines.append(sep)
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        def fmt(value: object) -> str:
            if isinstance(value, float):
                return f"{value:.4g}"
            return str(value)

        lines = [f"### {self.experiment_id}: {self.title}", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(fmt(row.get(c, ""))
                                           for c in self.columns) + " |")
        lines.append("")
        for note in self.notes:
            lines.append(f"*{note}*")
            lines.append("")
        return "\n".join(lines)


def short_name(benchmark: str) -> str:
    """Display form of a workload name: '177.mesa' -> 'mesa' (the paper
    uses both forms); 'trace:runs/mesa.trace.gz' -> 'mesa.trace' and
    'import:eio:runs/app.eio.txt' -> 'app.eio.txt.eio' (the file's base
    name plus its source, so table rows stay readable)."""
    from repro.workloads.registry import (
        IMPORT_PREFIX,
        TRACE_PREFIX,
        split_import_name,
    )
    if benchmark.startswith(TRACE_PREFIX):
        stem = benchmark[len(TRACE_PREFIX):].replace("\\", "/").rsplit(
            "/", 1)[-1]
        for suffix in (".gz", ".trace"):
            if stem.endswith(suffix):
                stem = stem[:-len(suffix)]
        return f"{stem}.trace"
    if benchmark.startswith(IMPORT_PREFIX):
        from repro.errors import RegistryError
        try:
            fmt, path = split_import_name(benchmark)
        except RegistryError:
            return benchmark  # malformed: display verbatim
        stem = path.replace("\\", "/").rsplit("/", 1)[-1]
        return f"{stem}.{fmt}"
    return benchmark.split(".", 1)[1] if "." in benchmark else benchmark


def geometric_mean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    product = 1.0
    for v in vals:
        product *= v
    return product ** (1.0 / len(vals))


def average(values: Iterable[float]) -> float:
    vals = list(values)
    return sum(vals) / len(vals) if vals else 0.0
