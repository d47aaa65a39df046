"""Linked binaries are shared within a sweep, and only there.

:func:`repro.workloads.synthetic.link_slot` holds the plain and the
instrumented binary of one (workload, page size) while a
:class:`SweepRunner` executes its backend, and the planner runs the jobs
that share those binaries back to back; a workload's plain layout is
kept across its page sizes, and every instrumented binary is derived
from it.  These tests pin the contract: one plain link per workload and
one instrumented derivation per (workload, page size) per sweep, one
functional execution per workload, fresh programs outside a sweep,
nothing kept after it, never a stale image after a re-registration, and
engines that leave a shared program untouched.
"""

from __future__ import annotations

import dataclasses
import gc
import threading
import weakref

import pytest

from reference_columns import engine_view
from repro.config import TLBConfig, default_config
from repro.runner import JobSpec, ResultStore, SweepRunner
from repro.sim.simulator import Simulator
from repro.trace.format import TraceWriter
from repro.trace.record import write_pass
from repro.workloads import registry, synthetic
from repro.workloads.synthetic import WorkloadProfile, link_slot

STAND_INS = ("177.mesa", "254.gap")
PAGE_SIZES = (4096, 8192)
ITLB_ENTRIES = (4, 8, 32)


def _image(program) -> tuple:
    """Every field a linked program carries, as a comparable value."""
    return (
        [(instr.op, instr.rd, instr.rs, instr.rt, instr.imm, instr.target,
          instr.inpage_hint, instr.is_boundary_branch,
          program.text_base + 4 * index, instr.label)
         for index, instr in enumerate(program.instructions)],
        dict(program.labels), dict(program.data_words), program.entry,
        program.data_size, program.boundary_branch_count,
        program.instrumented, program.page_bytes, program.name,
    )


def _grid_specs() -> list:
    """2 stand-ins x 3 iTLB configs x 2 page sizes, ordered so that no
    two neighbours share a (stand-in, page size)."""
    return [
        JobSpec(workload=bench,
                config=default_config().with_page_bytes(page_bytes)
                .with_itlb(TLBConfig(entries=entries)),
                instructions=300, warmup=100)
        for entries in ITLB_ENTRIES
        for page_bytes in PAGE_SIZES
        for bench in STAND_INS
    ]


@pytest.fixture()
def link_calls(monkeypatch):
    """Count the linker entry points a workload's ``link`` calls in a
    link slot, by (kind, name of the program made, page size), and keep
    a weak reference to each program they return."""
    calls = []
    programs = []

    def counting(kind, original):
        def wrapper(source, **kwargs):
            program = original(source, **kwargs)
            calls.append((kind, program.name, kwargs["page_bytes"]))
            programs.append(weakref.ref(program))
            return program
        return wrapper

    monkeypatch.setattr(synthetic, "link_plain",
                        counting("plain", synthetic.link_plain))
    monkeypatch.setattr(synthetic, "instrument_program",
                        counting("instrumented",
                                 synthetic.instrument_program))
    return calls, programs


class TestSweepSharesLinks:
    def test_one_link_per_stand_in_and_page_size(self, link_calls):
        calls, _ = link_calls
        results = SweepRunner(store=ResultStore()).run(_grid_specs())
        assert all(result.ok and not result.cached for result in results)
        assert len(results) == 12
        # the plain layout is the same at every page size: one link per
        # stand-in; the instrumented one, one per stand-in and page size
        plain = [name for k, name, _ in calls if k == "plain"]
        assert len(plain) == len(set(plain)) == 2
        instrumented = [(name, page) for k, name, page in calls
                        if k == "instrumented"]
        assert len(instrumented) == len(set(instrumented)) == 4

    def test_results_match_fresh_links(self):
        specs = _grid_specs()
        shared = SweepRunner(store=ResultStore()).run(specs)
        for spec, result in zip(specs, shared):
            assert result.spec.key == spec.key
            assert result.run.to_dict() == spec.run().to_dict()

    def test_no_program_outlives_the_sweep(self, link_calls):
        _, programs = link_calls
        results = SweepRunner(store=ResultStore()).run(_grid_specs()[:4])
        assert all(result.ok for result in results)
        assert programs
        gc.collect()
        assert [ref for ref in programs if ref() is not None] == []


    def test_longest_window_first_builds_each_stream_once(
            self, monkeypatch):
        """Two windows on one stand-in: the longer one runs first, so
        the plain binary executes functionally once, the instrumented
        stream is derived from it, and the shorter window replays a
        prefix of each stream."""
        from repro.cpu import functional
        builds = []
        original = functional.committed_stream

        def counting(program, budget):
            builds.append((program.instrumented, budget))
            return original(program, budget)

        monkeypatch.setattr(functional, "committed_stream", counting)
        specs = [JobSpec(workload="177.mesa", config=default_config(),
                         instructions=instructions, warmup=1000)
                 for instructions in (4000, 5000)]
        together = SweepRunner(store=ResultStore()).run(specs)
        assert sorted(builds) == [(False, 6000)]
        for spec, result in zip(specs, together):
            (alone,) = SweepRunner(store=ResultStore()).run([spec])
            assert result.spec.key == spec.key
            assert result.run.to_dict() == alone.run.to_dict()


class TestOutsideASweep:
    def test_link_returns_a_fresh_program(self):
        workload = registry.resolve("177.mesa")
        first = workload.link()
        second = workload.link()
        assert first is not second
        assert _image(first) == _image(second)

    def test_slot_closes_with_its_block(self):
        workload = registry.resolve("177.mesa")
        with link_slot():
            inside = workload.link(instrumented=True)
            assert workload.link(instrumented=True) is inside
        assert workload.link(instrumented=True) is not inside

    def test_release_hook_sees_each_pair_before_it_is_dropped(self):
        mesa = registry.resolve("177.mesa")
        gap = registry.resolve("254.gap")
        released = []

        def on_release(workload, page_bytes, programs):
            released.append((workload, page_bytes, dict(programs)))

        with link_slot(on_release):
            first = mesa.link()
            instrumented = mesa.link(instrumented=True)
            second = gap.link(page_bytes=8192)
        assert [(w, p) for w, p, _ in released] \
            == [(mesa, 4096), (gap, 8192)]
        assert released[0][2] == {False: first, True: instrumented}
        assert released[1][2] == {False: second}

    def test_nested_slot_cannot_add_a_hook(self):
        with link_slot():
            with pytest.raises(RuntimeError, match="release hook"):
                with link_slot(lambda *args: None):
                    pass

    def test_slot_belongs_to_the_thread_that_opened_it(self):
        """A queue worker thread running beside an open sweep links its
        own binaries: sharing the sweep's slot let one thread swap the
        slot's workload between another thread's two link calls and
        hand it the wrong program."""
        mesa = registry.resolve("177.mesa")
        gap = registry.resolve("254.gap")
        other = []
        with link_slot():
            inside = mesa.link()
            thread = threading.Thread(
                target=lambda: other.append((gap.link(), mesa.link())))
            thread.start()
            thread.join()
            assert mesa.link() is inside
        assert other[0][1] is not inside
        assert other[0][0].name == "254.gap"

    def test_replaced_registration_never_gets_the_old_image(self):
        name = "test.link_slot_replace"
        profile = WorkloadProfile(name=name, seed=1, hot_functions=3,
                                  cold_functions=2, leaf_functions=2)
        registry.register_profile(profile)
        try:
            with link_slot():
                old = registry.resolve(name).link()
                registry.register_profile(
                    dataclasses.replace(profile, seed=2), replace=True)
                new = registry.resolve(name).link()
            fresh = registry.resolve(name).link()
        finally:
            registry.unregister(name)
        assert new is not old
        assert _image(new) == _image(fresh) != _image(old)


class TestEnginesLeaveSharedProgramsAlone:
    @pytest.mark.parametrize("instrumented", [False, True])
    def test_program_unchanged_by_every_evaluator(self, tmp_path,
                                                  instrumented):
        config = default_config()
        program = registry.resolve("177.mesa").link(
            instrumented=instrumented)
        before = _image(program)
        simulator = Simulator(config)
        window = {"instructions": 400, "warmup": 100}
        simulator.run_program(program, engine="fast", **window)
        simulator.run_program(program, engine="ooo", **window)
        with TraceWriter(tmp_path / "pass.trace.gz",
                         header={"workload": "177.mesa"}) as writer:
            write_pass(writer, program, 500)
        assert _image(program) == before


#: the eleven stream columns the fast engine reads
class TestPlainLayoutAcrossPageSizes:
    """Without boundary branches the linker places nothing by page size,
    so a sweep links and executes each stand-in's plain layout once and
    copies it to the stand-in's other page sizes."""

    @pytest.mark.parametrize("bench", STAND_INS)
    def test_plain_image_and_stream_ignore_the_page_size(self, bench):
        """The premise of sharing: linked fresh at 4, 8, 16 and 64 KB,
        the plain image and its committed stream differ only in
        ``page_bytes``."""
        from repro.cpu.functional import committed_stream
        workload = registry.resolve(bench)
        reference = None
        for page_bytes in (4096, 8192, 16384, 65536):
            program = workload.link(page_bytes=page_bytes)
            assert program.page_bytes == page_bytes
            columns = committed_stream(program, 1500).columns()
            image = _image(dataclasses.replace(program, page_bytes=4096))
            stream = engine_view(columns)
            if reference is None:
                reference = image, stream
            assert (image, stream) == reference, page_bytes

    def test_sweep_over_page_sizes_builds_the_plain_stream_once(
            self, monkeypatch, link_calls):
        from repro.cpu import functional
        builds = []
        original = functional.committed_stream

        def counting(program, budget):
            builds.append(program.instrumented)
            return original(program, budget)

        monkeypatch.setattr(functional, "committed_stream", counting)
        calls, _ = link_calls
        # one stand-in's page sizes interleaved with iTLB sizes, so no
        # two neighbours share a page size
        specs = [JobSpec(workload="177.mesa",
                         config=default_config().with_page_bytes(page_bytes)
                         .with_itlb(TLBConfig(entries=entries)),
                         instructions=300, warmup=100)
                 for entries in (4, 32)
                 for page_bytes in (4096, 8192, 16384)]
        results = SweepRunner(store=ResultStore()).run(specs)
        assert all(result.ok for result in results)
        assert builds.count(False) == 1
        assert builds.count(True) == 0  # derived, never executed
        assert [kind for kind, _, _ in calls].count("plain") == 1
        for spec, result in zip(specs, results):
            assert result.run.to_dict() == spec.run().to_dict()

    def test_with_page_bytes_shares_the_layout_and_the_stream(self):
        program = registry.resolve("254.gap").link()
        program.window_source(400).close()
        copy = program.with_page_bytes(16384)
        assert copy.page_bytes == 16384 and program.page_bytes == 4096
        assert copy.instructions is program.instructions
        assert copy.labels is program.labels
        assert copy.data_words is program.data_words
        assert copy._stream is program._stream
        assert program._stream.segment is not None
        assert program._stream.budget == 400
        assert _image(copy)[:-2] == _image(program)[:-2]

    def test_with_page_bytes_refuses_what_it_cannot_copy(self):
        from repro.errors import LayoutError
        workload = registry.resolve("254.gap")
        with pytest.raises(LayoutError, match="instrumented"):
            workload.link(instrumented=True).with_page_bytes(8192)
        with pytest.raises(LayoutError, match="page aligned"):
            workload.link().with_page_bytes(8 << 20)

    def test_slot_drops_the_plain_layout_with_its_workload(self,
                                                           link_calls):
        calls, programs = link_calls
        mesa = registry.resolve("177.mesa")
        gap = registry.resolve("254.gap")
        with link_slot():
            first = mesa.link()
            copy = mesa.link(page_bytes=8192)
            gap.link()
            again = mesa.link(page_bytes=16384)
        assert copy.instructions is first.instructions
        assert again.instructions is not first.instructions
        assert [kind for kind, _, _ in calls] == ["plain"] * 3
        del first, copy, again
        gc.collect()
        assert [ref for ref in programs if ref() is not None] == []
