"""Shared infrastructure for the experiment harness.

Every experiment is split in two, the way a workload runner keeps what
a workload will run apart from running it:

* ``cells(settings)`` declares what the experiment reads, each cell
  once, under the key its build reads it by: the :class:`JobSpec` of
  every simulation, plus an :class:`ImageProbe` for each piece of
  functional work on a linked image that is no engine pass (Table 4's
  dynamic branch classes, the data-side CFR);
* ``build(settings, answers)`` renders the table by indexing
  ``answers``, which holds each declared cell's answer under its key;
  a key nobody declared has no answer to read.

:func:`answer` answers a mapping of cells with one :class:`SweepRunner`
sweep into the process-wide :class:`ResultStore`, and runs the probes
inside that sweep's link slot, so they read the images (and memoized
streams) the sweep already linked and executed.  ``repro report``
answers the union of every experiment's cells in one plan before it
builds any table (:mod:`repro.experiments.report`); an experiment's own
``run(settings)`` (see :func:`planned`) does the same two steps for
itself.  ``settings.workers > 1`` fans the sweep out over worker
processes, through ``settings.backend`` when one is named.  Pointing
the store at a directory (:func:`configure_store`) makes results
persist across processes.  ``TableResult`` is the uniform result
object: ordered rows of named columns, a title, and free-form notes
(deviations, scaling).

Scaling: the paper simulates 250M instructions; we simulate
``settings.instructions``.  Energies and cycles reported in "paper units"
are linearly scaled by the instruction ratio — valid because every
underlying quantity is a per-instruction rate.  Raw measured values are
always reported alongside.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.config import MachineConfig
from repro.errors import SimulationError
from repro.isa.program import Program
from repro.runner import (
    JobSpec,
    ResultStore,
    SweepRunner,
    SweepStats,
    resolve_workers,
)
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
    #: worker processes :func:`answer` fans the sweep out over
    #: (1 = serial, 0 = auto-detect one per CPU)
    workers: int = 1
    #: execution backend for :func:`answer`'s sweep: ``None`` (pick
    #: serial or pool from ``workers``), ``"serial"``, ``"pool"``, or
    #: ``"queue:<dir>"`` to drain it through a worker fleet
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
# Cells and their answers (a process-wide ResultStore shared by every
# experiment, plus the probe results)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImageProbe:
    """Functional work on the plain binary that ``spec`` runs, within
    its window, that no engine pass does: ``measure(program, spec)``.

    A probe's answer is a pure function of the image and the window,
    so :func:`answer` computes it on the image its sweep already holds
    (see :func:`repro.workloads.synthetic.link_slot`) instead of
    linking and executing the program again."""

    name: str  #: what is measured, e.g. ``"table4.branch_classes"``
    spec: JobSpec
    measure: Callable[[Program, JobSpec], object]

    @property
    def key(self) -> Tuple[str, str]:
        return self.name, self.spec.key

    def describe(self) -> str:
        return f"{self.name} probe of {self.spec.describe()}"


Cell = Union[JobSpec, ImageProbe]
#: what ``cells(settings)`` returns: each cell under the key its
#: ``build`` reads the answer by
Cells = Mapping[Hashable, Cell]
#: what ``build(settings, answers)`` indexes: each cell's answer under
#: the cell's key
Answers = Mapping[Hashable, object]

_STORE = ResultStore()
_PROBED: Dict[Tuple[str, str], object] = {}


def configure_store(cache_dir: Optional[str] = None) -> ResultStore:
    """Replace the experiment layer's store; ``cache_dir`` makes results
    persist on disk (and survive across processes), None reverts to a
    fresh memory-only store.  Probe results start afresh either way."""
    global _STORE
    _STORE = ResultStore(cache_dir)
    _PROBED.clear()
    return _STORE


def job_for(benchmark: str, config: MachineConfig,
            settings: ExperimentSettings) -> JobSpec:
    """The runner job one experiment cell corresponds to."""
    return JobSpec(workload=benchmark, config=config,
                   instructions=settings.instructions,
                   warmup=settings.warmup)


def planned(cells: Callable[[ExperimentSettings], Cells],
            build: Callable[[ExperimentSettings, Answers], "TableResult"]
            ) -> Callable[..., "TableResult"]:
    """An experiment's ``run(settings)``: :func:`answer` its cells, then
    build its table from their answers."""
    def run(settings: Optional[ExperimentSettings] = None) -> TableResult:
        settings = settings or default_settings()
        answers, _ = answer(cells(settings), settings)
        return build(settings, answers)
    return run


def answer(cells: Cells, settings: ExperimentSettings
           ) -> Tuple[Dict[Hashable, object], SweepStats]:
    """Answer ``cells``: every :class:`JobSpec` in one sweep into the
    store, every :class:`ImageProbe` inside that sweep's link slot.
    Returns each cell's answer under the cell's own key (a
    :class:`CombinedRun` for a spec, the measurement for a probe), and
    the sweep's stats.

    A probe runs when the slot drops its image, so it reads the binary
    and the memoized stream the sweep's jobs used; the serial backend
    drops a pair between units, so probe time falls in no job's
    metrics window.  A probe whose image the sweep never linked in this
    process (all its jobs were store hits, or ran in worker processes,
    which do not inherit the hook) links it afterwards, through the
    same slot.  A failed job or probe raises :class:`SimulationError`
    after the sweep — experiments cannot proceed without it.
    """
    from repro.workloads.registry import resolve
    from repro.workloads.synthetic import link_slot
    specs = {key: cell for key, cell in cells.items()
             if isinstance(cell, JobSpec)}
    #: (workload name, page size) -> (workload, {probe key: probe})
    images: Dict[Tuple[str, int], Tuple[object, Dict[tuple, ImageProbe]]] = {}
    for cell in cells.values():
        if isinstance(cell, ImageProbe) and cell.key not in _PROBED:
            image = (cell.spec.workload, cell.spec.config.mem.page_bytes)
            if image not in images:
                images[image] = (resolve(image[0]), {})
            images[image][1][cell.key] = cell
    failures: List[str] = []

    def measure(probes: Iterable[ImageProbe], program: Program) -> None:
        for probe in probes:
            try:
                _PROBED[probe.key] = probe.measure(program, probe.spec)
            except Exception:
                failures.append(f"{probe.describe()}:\n"
                                f"{traceback.format_exc()}")

    def on_release(workload, page_bytes: int,
                   programs: Dict[bool, Program]) -> None:
        if False not in programs:
            return  # only the instrumented binary: probe it later
        for image, (owner, probes) in list(images.items()):
            if owner is workload and image[1] == page_bytes:
                del images[image]
                measure(probes.values(), programs[False])

    runner = SweepRunner(store=_STORE,
                         workers=resolve_workers(settings.workers),
                         backend=settings.backend)
    with link_slot(on_release):
        results = runner.run(specs.values())
        for image in list(images):
            if image not in images:
                continue  # measured when the slot released it
            workload, probes = images.pop(image)
            measure(probes.values(), workload.link(page_bytes=image[1]))
    for result in results:
        if not result.ok:
            raise SimulationError(
                f"experiment cell failed: {result.spec.describe()}:\n"
                f"{result.error}")
    if failures:
        raise SimulationError(f"experiment cell failed: {failures[0]}")
    runs = {key: result.run for key, result in zip(specs, results)}
    return ({key: runs[key] if key in runs else _PROBED[cell.key]
             for key, cell in cells.items()}, runner.last_stats)


def clear_cache() -> None:
    """Drop the in-memory result cache and the probe results (on-disk
    entries, if any, stay)."""
    _STORE.clear()
    _PROBED.clear()


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
