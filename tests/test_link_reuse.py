"""Linked binaries are shared within a sweep, and only there.

:func:`repro.workloads.synthetic.link_slot` holds the plain and the
instrumented binary of one (workload, page size) while a
:class:`SweepRunner` executes its backend, and the planner runs the jobs
that share those binaries back to back.  These tests pin the contract:
one link per (workload, page size, binary) per sweep, fresh programs
outside a sweep, nothing kept after it, never a stale image after a
re-registration, and engines that leave a shared program untouched.
"""

from __future__ import annotations

import dataclasses
import gc
import threading
import weakref

import pytest

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
          instr.inpage_hint, instr.is_boundary_branch, instr.address,
          instr.label) for instr in program.instructions],
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
    """Count the linker entry points a workload's ``link`` calls, by
    (kind, module, page size), and keep a weak reference to each
    program they return."""
    calls = []
    programs = []

    def counting(kind, original):
        def wrapper(module, **kwargs):
            program = original(module, **kwargs)
            calls.append((kind, id(module), kwargs["page_bytes"]))
            programs.append(weakref.ref(program))
            return program
        return wrapper

    monkeypatch.setattr(synthetic, "link_plain",
                        counting("plain", synthetic.link_plain))
    monkeypatch.setattr(synthetic, "instrument_module",
                        counting("instrumented",
                                 synthetic.instrument_module))
    return calls, programs


class TestSweepSharesLinks:
    def test_one_link_per_stand_in_and_page_size(self, link_calls):
        calls, _ = link_calls
        results = SweepRunner(store=ResultStore()).run(_grid_specs())
        assert all(result.ok and not result.cached for result in results)
        assert len(results) == 12
        for kind in ("plain", "instrumented"):
            keys = [(module, page) for k, module, page in calls
                    if k == kind]
            assert len(keys) == len(set(keys)) == 4, kind

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
        each binary executes functionally once and the shorter window
        replays a prefix of its stream."""
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
        assert sorted(builds) == [(False, 6000), (True, 6000)]
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
