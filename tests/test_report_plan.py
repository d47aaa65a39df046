"""The report is one plan: every experiment declares its cells, one
sweep answers them all, and only then are the tables built.

These tests pin that contract: one :meth:`SweepRunner.run` per report,
one link and one functional execution per distinct image, tables
byte-identical to each experiment run on its own, and builds that read
exactly the cells they declare, without running a sweep.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro import telemetry
from repro.cli import main
from repro.config import CacheAddressing, SchemeName, default_config
from repro.cpu import functional
from repro.cpu.ooo import OutOfOrderEngine
from repro.errors import SimulationError
from repro.experiments import common
from repro.experiments.report import (
    ALL_EXPERIMENTS,
    EXPERIMENT_BY_NAME,
    MODULES,
    run_all,
    run_experiment,
    write_experiments_md,
)
from repro.runner import JobSpec, ResultStore, SweepRunner
from repro.sim import multi, simulator
from repro.telemetry import metrics
from repro.sim.simulator import attach_energy
from repro.workloads import registry, synthetic

#: the smallest window that still reaches every code path of the report
SETTINGS = common.default_settings(instructions=1_500, warmup=500,
                                   benchmarks=("177.mesa", "254.gap"))


@pytest.fixture()
def fresh_store():
    store = common.configure_store(None)
    yield store
    common.configure_store(None)


@pytest.fixture()
def sweeps(monkeypatch):
    """Every :meth:`SweepRunner.run` call's spec count."""
    calls = []
    original = SweepRunner.run

    def counting(self, specs):
        specs = list(specs)
        calls.append(len(specs))
        return original(self, specs)

    monkeypatch.setattr(SweepRunner, "run", counting)
    return calls


@pytest.fixture()
def images(monkeypatch):
    """The links and instrumented derivations (through a workload's
    ``link``) and the executed-stream builds of the report's stand-ins,
    each as (workload, page size, instrumented)."""
    links, streams = [], []

    def counting_link(original, instrumented):
        def wrapper(module, **kwargs):
            program = original(module, **kwargs)
            links.append((program.name, kwargs["page_bytes"], instrumented))
            return program
        return wrapper

    monkeypatch.setattr(synthetic, "link_plain",
                        counting_link(synthetic.link_plain, False))
    monkeypatch.setattr(synthetic, "instrument_program",
                        counting_link(synthetic.instrument_program, True))
    original_stream = functional.committed_stream

    def counting_stream(program, budget):
        if program.name in SETTINGS.benchmarks:
            streams.append((program.name, program.page_bytes,
                            program.instrumented))
        return original_stream(program, budget)

    monkeypatch.setattr(functional, "committed_stream", counting_stream)
    return links, streams


@pytest.fixture()
def no_engine_pass(monkeypatch):
    """Call ``forbid()`` and every engine pass from then on raises."""
    def refuse(program, *args, **kwargs):
        raise AssertionError(f"engine pass over {program.name}")

    def forbid() -> None:
        monkeypatch.setattr(simulator, "run_program_grid", refuse)
        monkeypatch.setattr(multi, "run_program_grid", refuse)
    return forbid


def _distinct_images() -> set:
    """Every (workload, page size, binary) the report's cells run."""
    found = set()
    for name, _ in ALL_EXPERIMENTS:
        for cell in MODULES[name].cells(SETTINGS).values():
            spec = cell.spec if isinstance(cell, common.ImageProbe) else cell
            found.add((spec.workload, spec.config.mem.page_bytes))
    return {(workload, page, instrumented) for workload, page in found
            for instrumented in (False, True)}


class TestOnePlan:
    def test_one_sweep_one_link_and_one_stream_per_image(
            self, fresh_store, sweeps, images):
        links, streams = images
        events = []
        with telemetry.listen(events.append):
            run_all(SETTINGS, verbose=False)
        assert len(sweeps) == 1
        distinct = _distinct_images()
        assert len(links) <= len(distinct)
        assert len(links) == len(set(links))
        assert len(streams) <= len(distinct)
        assert len(streams) == len(set(streams)), sorted(streams)
        (plan,) = [e for e in events if e["event"] == "report.plan"]
        assert plan["sweeps"] == 1
        assert plan["jobs"] == sweeps[0]
        assert plan["simulated"] > 0 and plan["grids"] > 0
        assert plan["probes"] == 2 * len(SETTINGS.benchmarks)
        sections = [e["name"] for e in events
                    if e["event"] == "report.section"]
        assert sections == [name for name, _ in ALL_EXPERIMENTS]

    def test_each_workload_executes_once_and_plain(self, fresh_store,
                                                   tmp_path):
        """Every stream the report builds is announced at the seam: one
        execution per workload, of its plain binary, and every
        instrumented stream derived from it."""
        log = tmp_path / "events.jsonl"
        telemetry.configure(level="debug", json_path=str(log),
                            propagate=False)
        try:
            run_all(SETTINGS, verbose=False)
        finally:
            telemetry.disable()
        streams = [event for event in map(json.loads,
                                          log.read_text().splitlines())
                   if event["event"] == "program.stream"]
        executed = [event for event in streams if not event["derived"]]
        workloads = {workload for workload, _, _ in _distinct_images()}
        assert sorted(event["program"] for event in executed) \
            == sorted(workloads)
        assert {event["binary"] for event in executed} == {"plain"}
        derived = [event for event in streams if event["derived"]]
        assert derived and {event["binary"] for event in derived} \
            == {"instrumented"}
        assert all(event["steps"] > 0 and event["seconds"] >= 0
                   for event in streams)

    def test_no_plain_pass_over_an_affinity_layout(self, fresh_store,
                                                   monkeypatch):
        """The layout extension reads IA and the instrumented pass of
        each ``@affinity`` variant, so only that binary runs."""
        passes = []
        original = multi.run_program_grid

        def counting(program, configs, **kwargs):
            passes.append((program.name, program.instrumented))
            return original(program, configs, **kwargs)

        monkeypatch.setattr(multi, "run_program_grid", counting)
        run_all(SETTINGS, verbose=False)
        affinity = [pass_ for pass_ in passes
                    if registry.AFFINITY_SUFFIX in pass_[0]]
        assert sorted(affinity) == [
            (f"{bench}{registry.AFFINITY_SUFFIX}+instr", True)
            for bench in sorted(SETTINGS.benchmarks)]

    def test_tables_match_each_experiment_run_alone(self, fresh_store):
        planned = [result.to_markdown()
                   for result in run_all(SETTINGS, verbose=False)]
        common.configure_store(None)
        alone = [MODULES[name].run(SETTINGS).to_markdown()
                 for name, _ in ALL_EXPERIMENTS]
        assert planned == alone

    def test_run_experiment_is_one_sweep(self, fresh_store, sweeps):
        result = run_experiment("table6", SETTINGS)
        assert len(sweeps) == 1
        answers, _ = common.answer(MODULES["table6"].cells(SETTINGS),
                                   SETTINGS)
        assert result.to_markdown() \
            == EXPERIMENT_BY_NAME["table6"](SETTINGS, answers).to_markdown()

    def test_report_prints_progress_from_the_events(self, fresh_store,
                                                    tmp_path, capsys):
        """``repro report``'s progress lines are its telemetry events;
        ``repro experiment`` prints only the table."""
        out_md = tmp_path / "EXPERIMENTS.md"
        assert main(["report", "--instructions", "1500", "--warmup", "500",
                     "--benchmarks", *SETTINGS.benchmarks,
                     "--output", str(out_md)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("[plan] ") and "in 1 sweep(s)" in out[0]
        assert [line.split("]")[0][1:] for line in out[1:-1]] \
            == [name for name, _ in ALL_EXPERIMENTS]
        assert out[-1] == f"wrote {out_md}"
        assert main(["experiment", "table3", "--instructions", "1500",
                     "--warmup", "500", "--benchmarks",
                     *SETTINGS.benchmarks]) == 0
        assert capsys.readouterr().out.startswith("Table 3: ")


class TestProbes:
    #: more images than pool workers, so some worker links two pairs
    #: and its slot drops one
    BENCHMARKS = ("177.mesa", "186.crafty", "254.gap", "255.vortex")

    def _cells(self, log_path):
        """A job and a probe of its image per stand-in; the probe logs
        the process it ran in to ``log_path``."""
        def measure(program, spec):
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {spec.workload}\n")
            return metrics.active() is None

        cells = {}
        for bench in self.BENCHMARKS:
            spec = common.job_for(bench, default_config(), SETTINGS)
            cells["job", bench] = spec
            cells["probe", bench] = common.ImageProbe("test.log", spec,
                                                      measure)
        return cells

    @pytest.mark.parametrize("workers,backend", [(1, None), (2, "pool")])
    def test_each_probe_runs_once_in_the_planning_process(
            self, fresh_store, tmp_path, workers, backend):
        """A pool worker forked inside the plan's slot never runs the
        plan's probes, and no probe runs inside a job's metrics
        window."""
        log_path = tmp_path / "probes.log"
        cells = self._cells(log_path)
        settings = common.default_settings(
            instructions=SETTINGS.instructions, warmup=SETTINGS.warmup,
            benchmarks=self.BENCHMARKS, workers=workers, backend=backend)
        answers, _ = common.answer(cells, settings)
        lines = log_path.read_text(encoding="utf-8").splitlines()
        assert sorted(lines) == sorted(f"{os.getpid()} {bench}"
                                       for bench in self.BENCHMARKS)
        assert all(answers[key] for key, cell in cells.items()
                   if isinstance(cell, common.ImageProbe))


class TestListen:
    def test_hears_this_threads_info_events_only(self):
        heard = []
        with telemetry.listen(heard.append):
            telemetry.emit("test.info")
            telemetry.emit("test.error", level="error")
            telemetry.emit("test.debug", level="debug")
            thread = threading.Thread(
                target=lambda: telemetry.emit("test.other"))
            thread.start()
            thread.join()
        telemetry.emit("test.after")
        assert [record["event"] for record in heard] \
            == ["test.info", "test.error"]


class _Recording(dict):
    """Answers that remember every key a build indexes."""

    def __init__(self, answers) -> None:
        super().__init__(answers)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


class TestBuildsReadTheirCells:
    @pytest.mark.parametrize("name", [name for name, _ in ALL_EXPERIMENTS])
    def test_build_reads_exactly_the_declared_cells(
            self, fresh_store, sweeps, no_engine_pass, name):
        """Every declared cell is read, no undeclared one can be, and
        building runs no sweep and no engine pass."""
        cells = MODULES[name].cells(SETTINGS)
        answers, _ = common.answer(cells, SETTINGS)
        del sweeps[:]
        no_engine_pass()
        recording = _Recording(answers)
        EXPERIMENT_BY_NAME[name](SETTINGS, recording)
        assert recording.read == set(cells)
        assert sweeps == []

    def test_table1_declares_no_cells(self):
        assert MODULES["table1"].cells(SETTINGS) == {}

    def test_second_report_over_a_disk_store_simulates_nothing(
            self, tmp_path, no_engine_pass):
        settings = common.default_settings(instructions=1_000, warmup=300,
                                           benchmarks=SETTINGS.benchmarks)
        try:
            common.configure_store(str(tmp_path / "store"))
            first = write_experiments_md(str(tmp_path / "first.md"),
                                         settings, verbose=False)
            common.configure_store(str(tmp_path / "store"))
            no_engine_pass()
            events = []
            with telemetry.listen(events.append):
                second = write_experiments_md(str(tmp_path / "second.md"),
                                              settings, verbose=False)
        finally:
            common.configure_store(None)
        (plan,) = [e for e in events if e["event"] == "report.plan"]
        assert plan["simulated"] == 0 and plan["cached"] == plan["jobs"]
        assert second == first


class TestDetailedCells:
    @pytest.mark.parametrize("scheme", [SchemeName.BASE, SchemeName.IA])
    def test_ooo_cell_matches_the_detailed_engine(self, scheme):
        """Validation's detailed runs are one-member ooo passes; each
        reproduces the engine run it replaced, on the binary its
        scheme needs."""
        config = default_config(CacheAddressing.VIVT)
        spec = JobSpec(workload="177.mesa", config=config,
                       instructions=1_200, warmup=300, schemes=(scheme,),
                       engine="ooo")
        (result,) = SweepRunner(store=ResultStore()).run([spec])
        assert result.ok, result.error
        program = registry.resolve("177.mesa").link(
            instrumented=scheme.needs_instrumented_binary)
        direct = attach_energy(OutOfOrderEngine(program, config,
                                                scheme=scheme)
                               .run(1_200, warmup=300))
        assert result.run.scheme(scheme).to_dict() \
            == direct.schemes[scheme].to_dict()
        # one pass under both names; only a plain-binary run has the
        # original binary's shared statistics
        assert result.run.plain is result.run.instrumented
        if scheme.needs_instrumented_binary:
            with pytest.raises(SimulationError, match="instrumented"):
                result.run.shared
        else:
            assert result.run.shared is result.run.plain.shared
